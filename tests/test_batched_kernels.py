"""Kernels that work across the whole batch equal the per-point numpy forms, bit for bit.

Each property pins one rewritten kernel of ``geometry`` to the numpy form it
replaced, which is kept here only: ``.sum(axis=-1)`` and ``np.trace`` (numpy
adds a short axis left to right from +0.0), the argmax form of the first
significant sign, and the per-point matmuls of the flat Hodge normal, the
flat pullback and the one-column Procrustes flip.  The small-batch kernels
that fill arrays in place of numpy's Python-level wrappers (``np.stack``,
``np.cross``, ``np.moveaxis``, ``np.broadcast_to``) equal the wrapper forms
kept in ``helpers``.  Bits are compared as integers, so -0.0 and +0.0 differ.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from worldsheet import catalog
from worldsheet.background import EUCLIDEAN, LORENTZIAN, _signature_matrix, minkowski
from worldsheet.geometry import (
    _covariant,
    _det_adjugate,
    _first_significant_sign,
    _frame_at,
    _hodge_normal,
    _minor_rows,
    _negative_eigenvalues,
    _pairs,
    _procrustes,
    _pullback,
    _sum_last,
    fd_jacobian,
)

from helpers import moveaxis_fd_jacobian, stacked_det_adjugate, stacked_sym2

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
SMALL = settings(derandomize=True, max_examples=40, deadline=None)  # the wrapper forms

# finite doubles, subnormals included, with signed zeros and ones weighted in;
# the bound keeps products of three entries finite
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-1e90, 1e90, allow_nan=False, width=64))
SIGNATURES = st.sampled_from([LORENTZIAN, EUCLIDEAN])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_same_bits(got, expect):
    assert np.shape(got) == np.shape(expect)
    assert np.array_equal(bits(got), bits(expect))


def batches(inner):
    """Arrays of ENTRIES with 0-3 batch points ahead of the ``inner`` shape."""
    return st.integers(0, 3).flatmap(
        lambda b: inner.flatmap(lambda s: arrays(np.float64, (b,) + s, elements=ENTRIES)))


@PROPERTY
@given(a=st.one_of(batches(st.tuples(st.integers(1, 7))),
                   arrays(np.float64, st.integers(1, 7).map(lambda n: (n,)), elements=ENTRIES)))
def test_sum_last_equals_numpy_sum(a):
    assert_same_bits(_sum_last(a), a.sum(axis=-1))


def trace_form_negative_eigenvalues(m, det, adj):
    """The Descartes count with the traces taken by ``np.trace``."""
    d = m.shape[-1]
    coefficients = [np.trace(m, axis1=-2, axis2=-1),
                    np.trace(adj, axis1=-2, axis2=-1)][:d - 1] + [det]
    count, last = 0, 1.0
    for c in coefficients:
        s = np.sign(c)
        count = count + (s * last < 0)
        last = np.where(s == 0, last, s)
    return count


@PROPERTY
@given(m=batches(st.integers(1, 3).map(lambda d: (d, d))))
def test_negative_eigenvalues_equal_the_trace_form(m):
    m = m + np.swapaxes(m, -1, -2)
    det, adj = _det_adjugate(m)
    for c in (m, adj):
        assert_same_bits(_sum_last(np.diagonal(c, axis1=-2, axis2=-1)),
                         np.trace(c, axis1=-2, axis2=-1))
    assert np.array_equal(_negative_eigenvalues(m, det, adj),
                          trace_form_negative_eigenvalues(m, det, adj))


def argmax_first_significant_sign(v):
    mags = np.abs(v)
    thresh = 1e-8 * np.max(mags, axis=-1, keepdims=True)
    idx = np.argmax(mags > thresh, axis=-1)
    sign = np.sign(np.take_along_axis(v, idx[..., None], axis=-1)[..., 0])
    return np.where(sign == 0, 1.0, sign)


@st.composite
def threshold_rows(draw):
    """Rows ending in +-top whose other components sit at, just above and just below 1e-8 top."""
    top = draw(st.floats(1e-290, 1e290))
    cut = 1e-8 * top
    pool = [0.0, cut, np.nextafter(cut, np.inf), np.nextafter(cut, 0.0)]
    pool = pool + [-x for x in pool]
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 5)))
    v = draw(arrays(np.float64, shape, elements=st.sampled_from(pool)))
    v[:, -1] = draw(st.sampled_from([top, -top]))
    return v


@PROPERTY
@given(v=st.one_of(threshold_rows(), batches(st.tuples(st.integers(1, 5)))))
def test_first_significant_sign_equals_the_argmax_form(v):
    assert_same_bits(_first_significant_sign(v), argmax_first_significant_sign(v))
    if len(v):
        assert_same_bits(_first_significant_sign(v[0]), argmax_first_significant_sign(v[0]))


def per_point_hodge_normal(tangents, g_inv, minors):
    """The Hodge normal raised by one matmul per point, its norms by ``.sum``."""
    rows, signs = _minor_rows(tangents.shape[-2])
    dets = _det_adjugate(tangents[..., rows, :])[0] if minors is None else minors[..., ::-1]
    nu = signs * dets
    n = (g_inv @ nu[..., None])[..., 0]
    norm2 = (nu * n).sum(axis=-1)
    ok = norm2 > 1e-10 * (n * n).sum(axis=-1)
    return n / np.sqrt(np.where(ok, norm2, 1.0))[..., None], ok


def wedge_minors(tangents):
    mu, nu = _pairs(tangents.shape[-2])
    e1, e2 = tangents[..., 0], tangents[..., 1]
    return e1[..., mu] * e2[..., nu] - e1[..., nu] * e2[..., mu]


@PROPERTY
@given(t=batches(st.integers(1, 3).map(lambda d: (d + 1, d))), signature=SIGNATURES)
def test_flat_hodge_normal_equals_the_per_point_raise(t, signature):
    sig = _signature_matrix(t.shape[-2], signature)
    per_point = np.broadcast_to(sig, t.shape[:-2] + sig.shape)
    minor_choices = [None] + ([wedge_minors(t)] if t.shape[-1] == 2 else [])
    with np.errstate(all="ignore"):
        for minors in minor_choices:
            for got, expect in zip(_hodge_normal(t, sig, minors),
                                   per_point_hodge_normal(t, per_point, minors)):
                assert_same_bits(got, expect)


@PROPERTY
@given(t=st.integers(2, 5).flatmap(
    lambda n: batches(st.integers(1, n - 1).map(lambda d: (n, d)))), signature=SIGNATURES)
def test_flat_pullback_equals_the_per_point_product(t, signature):
    sig = _signature_matrix(t.shape[-2], signature)
    per_point = np.broadcast_to(sig, t.shape[:-2] + sig.shape)
    with np.errstate(all="ignore"):
        assert_same_bits(_pullback(t, np.diagonal(sig)),
                         np.swapaxes(t, -1, -2) @ (per_point @ t))


@PROPERTY
@given(raw=st.integers(2, 5).flatmap(lambda n: batches(st.just((n, 1)))),
       data=st.data(), signature=SIGNATURES)
def test_one_column_procrustes_equals_the_per_point_flip(raw, data, signature):
    n = raw.shape[-2]
    shared = data.draw(st.booleans())
    ref = data.draw(arrays(np.float64, (n, 1) if shared else raw.shape, elements=ENTRIES))
    g = _signature_matrix(n, signature)
    g = g if shared else np.broadcast_to(g, raw.shape[:-2] + g.shape)
    with np.errstate(all="ignore"):
        terms = raw[..., 0] * (g @ ref)[..., 0]
        overlap = terms.sum(axis=-1)
        # the flip is the sign of the overlap: FMA and plain sums agree on it
        # unless the overlap is at roundoff, where no sign is meaningful
        assume(np.all(np.isfinite(terms)))
        assume(np.all((np.abs(overlap) > 1e-12 * np.abs(terms).sum(axis=-1))
                      | np.all(terms == 0.0, axis=-1)))
        expect = raw @ np.copysign(1.0, np.swapaxes(raw, -1, -2) @ (g @ ref))
    assert_same_bits(_procrustes(raw, ref, g), expect)


def test_flat_sheet_second_order_is_the_plain_second_derivative():
    # no Christoffel product on a flat background: D_a e_b = d_a e_b
    entry = catalog.helicoid(0.5, 1.0)
    pts = entry.sample_grid()
    loc = _frame_at(entry.embedding, pts)
    dd = entry.embedding.dd_position(pts)
    assert loc.chris is None
    assert np.array_equal(bits(loc.sec), bits(dd))
    zeros = np.zeros(pts.shape[:-1] + (3, 3, 3))
    assert np.array_equal(loc.sec, _covariant(dd, zeros, loc.tangents, loc.tangents))


@SMALL
@given(m=batches(st.integers(1, 3).map(lambda d: (d, d))))
@example(m=np.zeros((0, 3, 3)))
@example(m=np.array([[[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [2.0, -0.0, -0.0]]]))
@example(m=np.array([[-0.0, 0.0], [-0.0, -0.0]]))
def test_det_adjugate_equals_the_stack_and_cross_forms(m):
    with np.errstate(all="ignore"):
        for got, expect in zip(_det_adjugate(m), stacked_det_adjugate(m)):
            assert_same_bits(got, expect)


@SMALL
@given(cols=st.tuples(st.integers(0, 3), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, (3,) + shape, elements=ENTRIES)))
def test_catalog_stacks_equal_np_stack(cols):
    assert_same_bits(catalog._stack(*cols), np.stack(cols, axis=-1))
    assert_same_bits(catalog._sym2(*cols), stacked_sym2(*cols))


MODERATE = st.floats(-10.0, 10.0, allow_nan=False)


@SMALL
@given(point=st.integers(1, 3).flatmap(lambda d: st.integers(0, 3).flatmap(
    lambda b: arrays(np.float64, (b, d), elements=MODERATE))),
    out_shape=st.sampled_from([(), (2,), (3, 2)]))
def test_fd_jacobian_equals_the_moveaxis_form(point, out_shape):
    def fn(p):  # a smooth field of any output rank, so the stencil rows differ
        base = np.sin(p).sum(axis=-1) + p[..., 0] ** 3
        return base.reshape(base.shape + (1,) * len(out_shape)) * np.arange(
            1.0, 1.0 + np.prod(out_shape)).reshape(out_shape)

    assert_same_bits(fd_jacobian(fn, point, 1e-3), moveaxis_fd_jacobian(fn, point, 1e-3))


def test_flat_metric_is_the_broadcast_signature_matrix():
    bg, x = minkowski(4), np.zeros((2, 3, 4))
    g, expect = bg.metric_at(x), np.broadcast_to(_signature_matrix(4, LORENTZIAN), (2, 3, 4, 4))
    assert g.strides == expect.strides and not g.flags.writeable
    assert_same_bits(g, expect)
