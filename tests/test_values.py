"""Every value the library returns is immutable and hashable."""

import pytest

from carrymagma import (FinSet, approx_stats, assoc_witness, iterated_add,
                        scan_associativity, search_closed_subsets)
from carrymagma.explorer import ClosureFailure, SubsetReport, Witness


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
