"""The closed-form scenario fixtures reproduce their expected facts."""

import dataclasses

import numpy as np
import pytest

from worldsheet import catalog
from worldsheet.boundary import BoundaryEmbedding
from worldsheet.errors import InvalidParameters

ALL_IDS = ["plane", "sphere", "torus", "helicoid", "collapsing", "hole",
           "disk", "plane_hole"]


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_expected_values_reproduced(entry_id):
    entry = catalog.entry_from_id(entry_id)
    for quantity, value, expected, residual, ok in catalog.evaluate_entry(entry):
        assert ok, (f"{entry_id}.{quantity}: value={value!r} expected={expected!r} "
                    f"residual={residual:.3e}")


def test_helicoid_rejects_null_or_superluminal_edge():
    with pytest.raises(InvalidParameters):
        catalog.helicoid(0.9, 1.2)
    with pytest.raises(InvalidParameters):
        catalog.helicoid(1.0, 1.0)


def test_helicoid_static_limit():
    entry = catalog.helicoid(0.0, 1.0)
    rows = dict((q, v) for q, v, *_ in catalog.evaluate_entry(entry))
    assert abs(rows["edge_trace"]) < 1e-12


def test_collapsing_closed_forms():
    entry = catalog.collapsing_string(1.0, 1.0)
    assert catalog.collision_time(1.0, 1.0) == pytest.approx(np.sqrt(3.0))
    assert catalog.endpoint_worldline(1.0, 1.0, 1.0) == pytest.approx(2.0 - np.sqrt(2.0))
    assert catalog.endpoint_worldline(1.0, 1.0, 0.0) == pytest.approx(1.0)
    chi = entry.boundaries[0].chi(np.array([1.0]))
    assert chi[-1] == pytest.approx(2.0 - np.sqrt(2.0))


@pytest.mark.parametrize("name,wrong,row", [
    ("collision_time", lambda a, x0: x0 / a, "edge_x_at_collision"),
    ("endpoint_worldline", lambda a, x0, t: x0 - 0.5 * a * np.asarray(t) ** 2,
     "edge_on_hyperbola"),
])
def test_collapsing_rows_catch_a_wrong_closed_form(monkeypatch, name, wrong, row):
    # each row checks the edge graph against a fact the closed form must satisfy,
    # so a wrong meeting time or a non-hyperbolic worldline fails it
    entry = catalog.collapsing_string(1.0, 1.0)
    monkeypatch.setattr(catalog, name, wrong)
    rows = {q: ok for q, _, _, _, ok in catalog.evaluate_entry(entry)}
    assert not rows[row]


@pytest.mark.parametrize("entry_id,quantity,message", [
    ("sphere", "bogus", "unknown expected quantity 'bogus'"),     # no edges
    ("helicoid", "bogus", "unknown expected quantity 'bogus'"),   # with an edge
    ("sphere", "edge_trace", "'edge_trace' needs an entry with edges"),
], ids=["unknown_without_edges", "unknown_with_edge", "edge_quantity_without_edges"])
def test_unknown_expected_quantity_is_a_key_error(entry_id, quantity, message):
    entry = dataclasses.replace(catalog.entry_from_id(entry_id),
                                expected=(catalog.ExpectedValue(quantity, 0.0, 1.0, "derived"),))
    with pytest.raises(KeyError, match=message):
        catalog.evaluate_entry(entry)


def test_worst_reports_the_signed_sample_farthest_from_the_expected_value():
    assert catalog._worst([1.0, -3.0, 2.0], 0.0) == -3.0
    # about a non-zero expected value the distance is |q - expected|: -3 is 5 from 2
    assert catalog._worst([1.0, -3.0, 2.0], 2.0) == -3.0
    assert catalog._worst([0.5, 1.9], 1.0) == 1.9


def test_laplacian_form_agreement_row_holds_on_an_off_solution_edge():
    # the moving edge chi(t) = (t, 0.8 + 0.1 sin t) of the helicoid violates the
    # boundary conditions, so both forms of the row are non-zero; they cancel
    helicoid = catalog.helicoid(0.5, 1.0)
    moving = catalog._graph_boundary(
        helicoid.embedding, lambda u: 0.8 + 0.1 * np.sin(u[..., 0]),
        lambda u: 0.1 * np.cos(u[..., :1]), lambda u: -0.1 * np.sin(u[..., :1])[..., None], 1)
    entry = dataclasses.replace(
        helicoid, domain=((0.0, 1.0), (-1.0, moving)),
        expected=(catalog.ExpectedValue("boundary_condition_max", 0.0, 1e-9, "paper"),
                  catalog.ExpectedValue("laplacian_form_agreement", 0.0, 1e-8, "derived")))
    rows = {q: (value, ok) for q, value, _, _, ok in catalog.evaluate_entry(entry)}
    assert rows["boundary_condition_max"][0] > 1e-2
    assert rows["laplacian_form_agreement"][1]


def test_entry_parsing():
    entry = catalog.entry_from_id("helicoid:omega=0.4,R=1.5")
    assert entry.parameters["omega"] == pytest.approx(0.4)
    assert entry.parameters["R"] == pytest.approx(1.5)
    with pytest.raises(KeyError):
        catalog.entry_from_id("nonsense")
    with pytest.raises(KeyError):
        catalog.entry_from_id("sphere:bogus=1")
    with pytest.raises(InvalidParameters, match="'omega' is given more than once"):
        catalog.entry_from_id("helicoid:omega=0.5,omega=0.3")
    with pytest.raises(InvalidParameters, match="'omega' needs a value"):
        catalog.entry_from_id("helicoid:omega")


@pytest.mark.parametrize("entry_id,keys", [
    ("plane", {}),
    ("sphere", {"radius": 1.5}),
    ("torus", {"r1": 1.2, "r2": 0.8}),
    ("helicoid", {"omega": 0.4, "R": 1.5}),
    ("collapsing", {"a": 1.2, "x0": 0.9}),
    ("hole", {"rho": 1.5, "outer": 4.0}),
    ("disk", {"rho": 1.5}),
    ("plane_hole", {"rho": 1.5, "outer": 4.0}),
    # rho + 2 rounds to rho here: the default outer radius is still above the hole
    ("hole", {"rho": 2e16}),
    ("plane_hole", {"rho": 2e16}),
])
def test_accepted_parameter_keys(entry_id, keys):
    # the builder's positional parameters are accepted, keyword-only mu0 is not
    spec = ",".join(f"{k}={v}" for k, v in keys.items())
    entry = catalog.entry_from_id(f"{entry_id}:{spec}" if spec else entry_id)
    for key, value in keys.items():
        assert entry.parameters[key] == pytest.approx(value)
    with pytest.raises(KeyError):
        catalog.entry_from_id(f"{entry_id}:mu0=2")


@pytest.mark.parametrize("spec", ["helicoid:omega=nan", "sphere:radius=nan",
                                  "hole:rho=inf", "disk:rho=nan", "disk:rho=abc"])
def test_non_finite_parameter_rejected(spec):
    with pytest.raises(InvalidParameters):
        catalog.entry_from_id(spec)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("builder,args", [
    (catalog.helicoid, (NAN, 1.0)), (catalog.helicoid, (0.0, INF)),
    (catalog.planar_hole, (NAN,)), (catalog.euclidean_disk, (INF,)),
    (catalog.collapsing_string, (NAN, 1.0)), (catalog.sphere, (INF,)),
    (catalog.flat_torus, (NAN, 1.0)), (catalog.euclidean_plane_hole, (2.0, NAN)),
    (catalog.euclidean_plane_hole, (2.0, 1.0)),   # outer inside the hole
    (catalog.planar_hole, (2.0, 2.0)),
    (catalog.sphere, ("2",)), (catalog.flat_torus, (None,)), (catalog.euclidean_disk, (1j,)),
    (catalog.planar_hole, (True,)), (catalog.collapsing_string, (True, True)),
    (catalog.helicoid, (0.5, True)), (catalog.euclidean_plane_hole, (2.0, "5")),
], ids=["helicoid-nan-omega", "helicoid-inf-R", "hole-nan", "disk-inf", "collapsing-nan",
        "sphere-inf", "torus-nan", "plane_hole-nan-outer", "plane_hole-inverted",
        "hole-empty", "sphere-text", "torus-none", "disk-complex", "hole-bool",
        "collapsing-bool", "helicoid-bool-R", "plane_hole-text-outer"])
def test_builder_rejects_non_finite_or_inverted_parameters(builder, args):
    # a parameter that is no real number, or is a bool, is out of scope like a bad range
    with pytest.raises(InvalidParameters):
        builder(*args)


@pytest.mark.parametrize("builder,args", [
    (catalog.sphere, (np.float64(2.0),)), (catalog.planar_hole, (np.float32(2.0), np.int64(4))),
    (catalog.helicoid, (np.float64(0.5), 1)),
], ids=["sphere", "hole", "helicoid"])
def test_builder_accepts_numpy_scalars_and_ints(builder, args):
    assert builder(*args).parameters


def test_plane_hole_rejects_a_nonpositive_radius():
    with pytest.raises(InvalidParameters, match="hole radius must be positive"):
        catalog.entry_from_id("plane_hole:rho=-1")


def test_provenance_tags_are_constrained():
    for entry_id in ALL_IDS:
        for exp in catalog.entry_from_id(entry_id).expected:
            assert exp.provenance in ("paper", "trivial", "derived")


def test_unknown_provenance_is_invalid_parameters():
    with pytest.raises(InvalidParameters, match="unknown provenance 'folklore'"):
        catalog.ExpectedValue("edge_trace", 0.0, 1e-8, "folklore")


@pytest.mark.parametrize("entry_id", catalog.catalog_ids())
def test_no_integrability_edge_row_on_a_curve(entry_id):
    # on a one-dimensional edge every integrability family vanishes identically,
    # so such a row could not fail
    entry = catalog.entry_from_id(entry_id)
    quantities = {exp.quantity for exp in entry.expected}
    if any(edge.boundary_dim == 1 for edge in entry.boundaries):
        assert not quantities & {"integrability_boundary", "integrability_direct"}


def test_catalog_entries_never_fall_back_to_fd():
    for entry_id in ALL_IDS:
        entry = catalog.entry_from_id(entry_id)
        assert entry.embedding.d_position_fn is not None
        assert entry.embedding.dd_position_fn is not None
        for edge in entry.boundaries:
            assert edge.d_chi_fn is not None
            assert edge.dd_chi_fn is not None


@pytest.mark.parametrize("entry_id", catalog.catalog_ids())
def test_action_setup_accepts_every_entry(entry_id):
    # every builder declares its edges in the slots their orientations need;
    # action_setup lists them lo slot first, ``boundaries`` hi slot first
    entry = catalog.entry_from_id(entry_id)
    _, edges = catalog.action_setup(entry, 1.0, 1.0, (8,) * entry.embedding.worldsheet_dim)
    assert edges == entry.boundaries[::-1]


@pytest.mark.parametrize("entry", [catalog.euclidean_disk(1.0), catalog.euclidean_plane_hole(2.0)],
                         ids=["hi_slot", "lo_slot"])
def test_action_setup_rejects_edge_in_wrong_slot(entry):
    flipped = tuple(dataclasses.replace(lim, orientation=-lim.orientation)
                    if isinstance(lim, BoundaryEmbedding) else lim for lim in entry.domain[-1])
    wrong = dataclasses.replace(entry, domain=entry.domain[:-1] + (flipped,))
    with pytest.raises(InvalidParameters, match="orientation"):
        catalog.action_setup(wrong, 1.0, 1.0, (8, 8))
