"""The public names, and every value the library returns is immutable
and hashable."""

import re
from pathlib import Path

import pytest

import carrymagma
from carrymagma import (FinSet, approx_stats, assoc_witness, iterated_add,
                        scan_associativity, search_closed_subsets)
from carrymagma.explorer import ClosureFailure, SubsetReport, Witness

PUBLIC = ["AddResult", "AssocScan", "ClosureFailure", "EMPTY", "FinSet",
          "RangeError", "SetLiteralError", "SubsetReport", "Witness",
          "WordStats", "approx_add", "approx_stats", "assoc_witness",
          "decode", "encode", "exactness", "format", "invert",
          "iterated_add", "oplus", "orbit", "parse", "scan_associativity",
          "search_closed_subsets", "solve", "stretch"]
# names kept only in the tests' oracles, not exported
REMOVED = ["sym_diff", "intersect", "shift_up", "knuth_sum"]
REMOVED_FROM_FINSET = ["from_iterable", "min_element", "max_element"]


def test_public_names_are_the_kept_list_and_readme_lists_them():
    assert sorted(carrymagma.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(carrymagma, name)
    for name in REMOVED:
        assert not hasattr(carrymagma, name)
    for name in REMOVED_FROM_FINSET:
        assert not hasattr(FinSet, name)
    readme = Path(__file__).parents[1] / "README.md"
    library = (readme.read_text(encoding="utf-8")
               .split("\n## Library\n")[1].split("\n## ")[0])
    words = set(re.findall(r"\w+", library))
    assert words >= set(PUBLIC)
    assert words.isdisjoint(REMOVED + REMOVED_FROM_FINSET)


REPORT = search_closed_subsets(2)[1]
VALUES = [(FinSet.of(0, 2), "bits"),
          (assoc_witness(FinSet.of(0), FinSet.of(0), FinSet.of(1)), "a"),
          (REPORT.witness, "result"), (REPORT, "status"),
          (scan_associativity(2), "total_triples"),
          (iterated_add(3, 1), "sum"), (approx_stats(2), "width")]


@pytest.mark.parametrize("value, field", VALUES,
                         ids=[type(v).__name__ for v, _ in VALUES])
def test_fields_cannot_be_assigned_and_values_hash(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    hash(value)


def test_search_records_keep_their_fields():
    assert Witness._fields == ("a", "b", "c", "left", "right")
    assert ClosureFailure._fields == ("operation", "operands", "result")
    assert SubsetReport._fields == ("members", "status", "witness")
    assert SubsetReport._field_defaults == {"witness": None}
