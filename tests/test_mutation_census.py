"""The mutation census is current: every mutant still names one site in the source.

``tools/mutation_census.py`` holds each mutant as a (file, old, new) triple,
and ``old`` must occur exactly once in its file.  A formula rewrite that
strands a mutant fails here, without running any mutant.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_census():
    spec = importlib.util.spec_from_file_location("mutation_census",
                                                  ROOT / "tools" / "mutation_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


MUTANTS = load_census().MUTANTS


@pytest.mark.parametrize("mutant_id", sorted(MUTANTS))
def test_mutated_text_occurs_once(mutant_id):
    file, old, new, _ = MUTANTS[mutant_id]
    text = (ROOT / file).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{mutant_id}: {old!r} occurs {text.count(old)} times in {file}"
    assert new != old
