import re

import pytest

from ptinertia import Inertia, inertia_table, table1_report
from ptinertia.tables import InertiaSetReport

THIRTEEN = {
    (1, 0, 8), (1, 1, 7), (1, 2, 6), (1, 3, 5), (1, 4, 4), (1, 5, 3),
    (2, 0, 7), (2, 1, 6), (2, 2, 5), (2, 3, 4), (3, 0, 6), (3, 1, 5),
    (4, 0, 5),
}


def test_table_3x3_counts_and_content():
    report = inertia_table(3, 3)
    assert {tuple(t) for t in report.realized} == THIRTEEN
    assert {tuple(t) for t in report.forbidden} == {(2, 4, 3), (3, 3, 3), (4, 2, 3)}
    assert {tuple(t) for t in report.open} == {(3, 2, 4), (4, 1, 4)}


def test_table_2x3_is_complete():
    report = inertia_table(2, 3)
    assert {tuple(t) for t in report.realized} == {
        (1, 2, 3), (1, 1, 4), (1, 0, 5), (2, 0, 4)}
    assert {tuple(t) for t in report.forbidden} == {(2, 1, 3)}
    assert report.open == set()


def test_table_2x2_single_triple():
    report = inertia_table(2, 2)
    assert {tuple(t) for t in report.realized} == {(1, 0, 3)}
    assert report.open == set()


def test_table_3x4_meets_family_bound():
    report = inertia_table(3, 4)
    assert len(report.realized) >= (4 - 1) * (2 * 4 - 1) == 21


def test_table_2x5_has_open_corner():
    report = inertia_table(2, 5)
    # low-positive-count candidates are not reachable with the chain witnesses
    assert Inertia(3, 4, 3) in report.open
    assert Inertia(1, 6, 3) in report.realized


def test_chain_family_witness_descriptions():
    row_2n = inertia_table(2, 4).realized[Inertia(1, 3, 4)]
    assert row_2n == "chain_seed(n=4, k=1) with 1 kernel states lifted"
    row_3n = inertia_table(3, 4).realized[Inertia(2, 3, 7)]
    assert row_3n == "3xN chain family witness for (2,3,7)"


def test_table_dims_symmetry_and_errors():
    assert inertia_table(3, 2).realized == inertia_table(2, 3).realized
    with pytest.raises(ValueError):
        inertia_table(4, 4)


def test_table1_groups():
    groups = table1_report()
    assert set(groups) == {Inertia(1, 2, 3), Inertia(1, 1, 4), Inertia(2, 0, 4)}
    g123 = [tuple(e.target) for e in groups[Inertia(1, 2, 3)]]
    assert g123 == [(1, 5, 3), (1, 4, 4), (1, 3, 5), (1, 2, 6), (1, 1, 7), (1, 0, 8)]
    g114 = [tuple(e.target) for e in groups[Inertia(1, 1, 4)]]
    assert g114 == [(3, 0, 6)]
    g204 = [tuple(e.target) for e in groups[Inertia(2, 0, 4)]]
    assert g204 == [(2, 3, 4), (2, 2, 5), (2, 1, 6), (2, 0, 7), (3, 1, 5), (4, 0, 5)]
    union = {t for edges in groups.values() for t in (tuple(e.target) for e in edges)}
    assert union == THIRTEEN
    how = {tuple(e.target): e.how for edges in groups.values() for e in edges}
    assert how == {
        (1, 5, 3): "embed(lift=0)", (1, 4, 4): "embed(lift=1)",
        (1, 3, 5): "embed(lift=2)", (1, 2, 6): "embed(lift=3)",
        (1, 1, 7): "embed(lift=2, kernel lifted)", (1, 0, 8): "embed(lift=3, kernel lifted)",
        (3, 0, 6): "paired family arr23_xi -> arr13_xi",
        (2, 3, 4): "embed(lift=0)", (2, 2, 5): "embed(lift=1)",
        (2, 1, 6): "embed(lift=2)", (2, 0, 7): "embed(lift=3)",
        (3, 1, 5): "paired family arr23_xii -> arr13_xii",
        (4, 0, 5): "paired family arr23_xiii -> arr13_xiii",
    }


@pytest.mark.parametrize("edit, fault", [
    (lambda r: r.open.discard(Inertia(3, 2, 4)), "unclassified (3,2,4)"),
    (lambda r: r.open.add(Inertia(2, 4, 3)), "listed twice (2,4,3)"),
    (lambda r: r.open.add(Inertia(5, 0, 4)), "outside the candidate universe (5,0,4)"),
])
def test_report_sets_must_partition_the_universe(edit, fault):
    report = inertia_table(3, 3)
    edit(report)
    with pytest.raises(ValueError, match=re.escape(fault)):
        InertiaSetReport(report.dims, report.realized, report.forbidden, report.open)
