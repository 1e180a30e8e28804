"""The compiled law kernel against plain-loop oracles: check_axioms
against the reference checker, good involutions against their
definition applied directly."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbirack as sb
from symbirack.algebra import AXIOM_FAMILIES, LAWS, laws_checker

from axiom_oracle import reference_check_axioms
from conftest import load_packaged_table


def _mutants(t):
    """Every table differing from t in exactly one entry."""
    for block in ("under", "over", "virt"):
        for i, j in itertools.product(range(t.n), repeat=2):
            for value in range(1, t.n + 1):
                if value != getattr(t, block)[i][j]:
                    rows = {name: [list(r) for r in getattr(t, name)]
                            for name in ("under", "over", "virt")}
                    rows[block][i][j] = value
                    yield sb.BirackTable(n=t.n, **rows)


def test_families_keep_their_names_and_report_order():
    assert AXIOM_FAMILIES == (
        "kink-map",
        "i.1", "i.2",
        "ii.inv.under", "ii.inv.over", "ii.inv.virt",
        "ii.mix.under", "ii.mix.over", "ii.mix.virt",
        "ii.S", "ii.V",
        "iii.1", "iii.2", "iii.3", "iii.4", "iii.5", "iii.6", "iii.7",
    )
    assert [law.family for law in LAWS] == list(AXIOM_FAMILIES[1:])


def test_reports_match_reference_on_census(records3):
    for rec in records3:
        assert sb.check_axioms(rec.table) == reference_check_axioms(rec.table)


def test_reports_match_reference_on_constructors(constructor_tables):
    for t in constructor_tables:
        assert sb.check_axioms(t) == reference_check_axioms(t)


@pytest.mark.parametrize("name", ["order3", "order4", "constant4"])
def test_reports_match_reference_on_single_entry_mutants(name):
    mutants = list(_mutants(load_packaged_table(name)))
    assert mutants
    for t in mutants:
        report = sb.check_axioms(t)
        assert report == reference_check_axioms(t), sb.format_birack_matrix(t)
        assert not report.passed


def test_reports_match_reference_on_order2_mutants(records2):
    for rec in records2:
        for t in _mutants(rec.table):
            assert sb.check_axioms(t) == reference_check_axioms(t)


@settings(max_examples=200)
@given(st.data())
def test_reports_match_reference_on_arbitrary_tables(data):
    n = data.draw(st.integers(1, 3))
    draw_rows = lambda: tuple(
        tuple(data.draw(st.integers(1, n)) for _ in range(n)) for _ in range(n))
    t = sb.BirackTable(n=n, under=draw_rows(), over=draw_rows(), virt=draw_rows())
    assert sb.check_axioms(t) == reference_check_axioms(t)


def test_laws_checker_agrees_with_report(records2):
    # a subset of the laws holds exactly when check_axioms names none of it
    subset = ("ii.mix.over", "iii.2", "ii.S")
    holds = laws_checker(subset)
    for rec in records2:
        for t in itertools.chain([rec.table], _mutants(rec.table)):
            zero = [[[e - 1 for e in row] for row in table]
                    for table in (t.under, t.over, t.virt)]
            failed = {v.axiom for v in sb.check_axioms(t).violations}
            assert holds(t.n, *zero, None) == failed.isdisjoint(subset)


def _good_by_definition(t, r):
    """r^2 = Id, r(x*y) = r(x)*y and x*r(y) = x*y for every operation."""
    if not (r * r).is_identity():
        return False
    rng = range(1, t.n + 1)
    for name in ("under", "over", "virt"):
        op = t.operation(name)
        for x, y in itertools.product(rng, repeat=2):
            if r(op(x, y)) != op(r(x), y) or op(x, r(y)) != op(x, y):
                return False
    return True


def test_good_involutions_match_definition_on_census(records3):
    for rec in records3:
        t = rec.table
        involutions = sb.enumerate_involutions(t.n)
        expected = [r for r in involutions if _good_by_definition(t, r)]
        assert sb.enumerate_good_involutions(t) == expected
        assert rec.good_involutions == tuple(expected)
        assert [r for r in involutions if sb.is_good_involution(t, r)] == expected


def test_is_good_involution_matches_definition_on_constructors(constructor_tables):
    for t in constructor_tables:
        if t.n > 6:
            continue
        for images in itertools.permutations(range(1, t.n + 1)):
            r = sb.Permutation(images)
            assert sb.is_good_involution(t, r) == _good_by_definition(t, r)
