"""Labeling enumeration against the brute-force oracle."""

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symbirack as sb
from symbirack.labeling import _prepare


def assignments(labelings):
    return {frozenset(l.assignment.items()) for l in labelings}


def test_free_loop_is_unconstrained(order3_table, corpus):
    labs = sb.enumerate_labelings(corpus["unknot"], order3_table)
    assert [l.values for l in labs] == [(1,), (2,), (3,)]
    assert sb.labeling_count(corpus["unlink2"], order3_table) == 9


def test_kinked_unknot_count(order3_table, corpus):
    # t = s under t and s = t over s leave a single solution
    labs = sb.enumerate_labelings(corpus["kink1"], order3_table)
    assert [l.assignment for l in labs] == [{"s": 1, "t": 1}]


def test_vhopf_base_diagram(order3_table, corpus):
    labs = sb.enumerate_labelings(corpus["vhopf"], order3_table)
    assert len(labs) == 3


def test_labelings_satisfy_crossing_relations(order3_table, order4_table, corpus):
    for t in (order3_table, order4_table):
        under, over, virt = (t.operation(k) for k in ("under", "over", "virt"))
        for d in (corpus["trefoil"], corpus["mixed3"], corpus["hopf"]):
            labs = sb.enumerate_labelings(d, t)
            for lab in labs:
                a = lab.assignment
                for c in d.crossings:
                    if c.is_classical:
                        assert a[c.under_out] == under(a[c.under_in], a[c.over_in])
                        assert a[c.over_out] == over(a[c.over_in], a[c.under_in])
                    else:
                        assert a[c.a_out] == virt(a[c.a_in], a[c.b_in])
                        assert a[c.b_out] == virt(a[c.b_in], a[c.a_in])


def test_enumerate_matches_brute_force(order3_table, order4_table, corpus, census3):
    pairs = [
        (corpus["vhopf"], order3_table),
        (corpus["trefoil"], order3_table),
        (corpus["knot4"], order4_table),
        (corpus["poke2"], order4_table),
        (corpus["vtrefoil"], census3[0]),
        (corpus["braid3b"], census3[-1]),
    ]
    for d, t in pairs:
        fast = sb.enumerate_labelings(d, t)
        slow = sb.brute_force_labelings(d, t)
        assert assignments(fast) == assignments(slow)
        assert len(fast) == len(slow)


def test_output_is_sorted_and_deterministic(order3_table, corpus):
    d = corpus["mixed3"]
    labs = sb.enumerate_labelings(d, order3_table)
    keys = [tuple(v for _, v in sorted(l.assignment.items())) for l in labs]
    assert keys == sorted(keys)
    assert labs == sb.enumerate_labelings(d, order3_table)


def test_labeling_accessors(order3_table, corpus):
    lab = sb.enumerate_labelings(corpus["vhopf"], order3_table)[0]
    assert set(lab.semiarcs) == {"a1", "a2", "b1", "b2"}
    assert lab["a1"] == lab.assignment["a1"]
    assert lab.lines() == [f"{s}={v}" for s, v in sorted(lab.assignment.items())]


def test_brute_force_cap(corpus):
    t5 = sb.trivial_birack(5)
    with pytest.raises(ValueError, match=r"cap exceeded: 5\^8 > 100"):
        sb.brute_force_labelings(corpus["knot4"], t5, cap=100)
    # the default cap admits this size
    assert len(sb.brute_force_labelings(corpus["knot4"], t5)) == 5


def test_labeling_count_equals_enumeration(order4_table, corpus):
    for d in corpus.values():
        assert sb.labeling_count(d, order4_table) == \
            len(sb.enumerate_labelings(d, order4_table))


def test_trivial_table_counts_components(corpus):
    # with x * y = x every semiarc of a component must carry one value
    t = sb.trivial_birack(4)
    for d in corpus.values():
        assert sb.labeling_count(d, t) == 4 ** len(d.components)


@given(st.permutations(range(3)))
def test_crossing_order_is_irrelevant(perm):
    t = sb.builtin_diagram("braid3a")
    table = sb.trivial_birack(3)
    shuffled = sb.Diagram(name=t.name,
                          crossings=tuple(t.crossings[i] for i in perm))
    base = sb.enumerate_labelings(t, table)
    moved = sb.enumerate_labelings(shuffled, table)
    assert assignments(base) == assignments(moved)


def test_crossing_order_irrelevant_nontrivial(order3_table, corpus):
    d = corpus["trefoil"]
    rev = sb.Diagram(name=d.name, crossings=tuple(reversed(d.crossings)))
    assert assignments(sb.enumerate_labelings(d, order3_table)) == \
        assignments(sb.enumerate_labelings(rev, order3_table))


# Framed tile entries add kinks on free loops, where a crossing's output
# feeds its own input, and fresh "§" semiarcs; the unframed diagrams of the
# acceptance criteria have neither.  Skipping cases above this many
# assignments keeps the brute-force comparison to about 1.5 s.
TILE_CAP = 10 ** 5


@pytest.fixture(scope="module")
def tile_tables(records2, order3_table, order4_table, constant4_table):
    """Census tables of order <= 2 and the three packaged tables."""
    return [r.table for r in records2] + [order3_table, order4_table, constant4_table]


@pytest.fixture(scope="module")
def tile_diagrams(tile_tables, corpus):
    """Every framing-tile entry of every builtin diagram, per table."""
    return [(framed, t) for t in tile_tables for d in corpus.values()
            for framed in sb.framing_tile(d, t).values()]


def test_framed_tiles_match_brute_force(tile_diagrams):
    checked = 0
    for framed, t in tile_diagrams:
        if t.n ** len(framed.semiarcs) > TILE_CAP:
            continue
        assert sb.enumerate_labelings(framed, t) == \
            sb.brute_force_labelings(framed, t, cap=TILE_CAP), framed.name
        checked += 1
    assert checked >= 450


def test_plan_fires_every_crossing_once_and_sets_before_reads(tile_diagrams):
    # the soundness re-check in _solve would hide a dropped crossing, so the
    # plan's structure is checked directly
    for framed in {framed for framed, _ in tile_diagrams}:
        prep = _prepare(framed)
        expected = Counter()
        for i1, i2, o1, o2, classical in prep.cons:
            t1, t2 = (0, 1) if classical else (2, 2)
            expected.update([(o1, t1, i1, i2), (o2, t2, i2, i1)])
        fired = Counter()
        set_count = Counter()
        known = set()
        for arc, ops in prep.plan:
            assert arc not in known
            known.add(arc)
            set_count[arc] += 1
            for o, table, a, b, new in ops:
                assert a in known and b in known
                assert new == (o not in known)
                if new:
                    known.add(o)
                    set_count[o] += 1
                fired[o, table, a, b] += 1
        assert fired == expected, framed.name
        assert set_count == Counter(range(len(prep.arcs))), framed.name


def test_plan_picks_an_input_of_a_half_known_crossing(tile_diagrams):
    # a free arc that completes a crossing's inputs lets that crossing fire
    # at once; only when none exists does the plan follow the strands
    for framed in {framed for framed, _ in tile_diagrams}:
        prep = _prepare(framed)
        traversal = [prep.arcs.index(s) for comp in framed.components for s in comp]
        known = set()
        for arc, ops in prep.plan:
            half_known = {i2 if i1 in known else i1
                          for i1, i2, *_ in prep.cons
                          if (i1 in known) != (i2 in known)}
            if half_known:
                assert arc in half_known, framed.name
            else:
                assert arc == next(a for a in traversal if a not in known), framed.name
            known.add(arc)
            known.update(o for o, *_ in ops)


def test_knot4_fires_a_crossing_by_the_second_step(corpus):
    plan = _prepare(corpus["knot4"]).plan
    assert any(ops for _, ops in plan[:2])
