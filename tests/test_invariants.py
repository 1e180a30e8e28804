"""Counting invariant, enhancement polynomial, framing tile, move invariance."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symbirack as sb
from symbirack.invariants import InvariantPolynomial

from rho_oracle import reference_rho_classes


def poly(*terms):
    return InvariantPolynomial(tuple(terms))


# ---------------------------------------------------------------------------
# polynomial arithmetic and formatting


class TestPolynomial:
    def test_normalization(self):
        p = poly((2, 1), (1, 4), (2, 3), (5, 0))
        assert p.terms == ((1, 4), (2, 4))
        assert p.as_dict() == {1: 4, 2: 4}

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError, match="exponent 0"):
            poly((0, 1))
        with pytest.raises(ValueError, match="negative coefficient"):
            poly((1, -2))

    def test_add(self):
        assert (poly((1, 1)) + poly((1, 2), (3, 1))).terms == ((1, 3), (3, 1))
        zero = InvariantPolynomial()
        assert not zero and (zero + zero).terms == ()

    def test_from_class_sizes(self):
        p = InvariantPolynomial.from_class_sizes([1, 2, 2, 4, 1, 1, 1])
        assert p.as_dict() == {1: 4, 2: 2, 4: 1}

    def test_evaluate_and_mass(self):
        p = poly((1, 4), (2, 4), (4, 1))
        assert p.evaluate(1) == 9          # class count
        assert p.labeling_mass() == 16     # labeling count
        assert p.evaluate(2) == 4 * 2 + 4 * 4 + 16

    @given(st.lists(st.integers(1, 9), max_size=20))
    def test_mass_equals_total_of_sizes(self, sizes):
        assert InvariantPolynomial.from_class_sizes(sizes).labeling_mass() == sum(sizes)


@pytest.mark.parametrize("terms,text", [
    ((), "0"),
    (((1, 1),), "u"),
    (((1, 4),), "4u"),
    (((2, 1),), "u^2"),
    (((1, 4), (2, 4), (4, 1)), "4u+4u^2+u^4"),
    (((3, 12), (8, 1)), "12u^3+u^8"),
])
def test_format_polynomial(terms, text):
    assert sb.format_polynomial(poly(*terms)) == text
    assert str(poly(*terms)) == text


def test_format_framing():
    assert sb.format_framing((0,)) == "(0)"
    assert sb.format_framing((1, 0, 2)) == "(1,0,2)"


# ---------------------------------------------------------------------------
# rho-equivalence classes


def _lab(values, semiarcs=("x", "y")):
    return sb.Labeling(semiarcs, tuple(values))


class TestRhoClasses:
    def test_swap_orbit(self):
        rho = sb.Permutation.from_cycles("(23)", 3)
        part = sb.rho_classes([_lab((1, 2)), _lab((1, 3)), _lab((1, 1))], rho)
        assert part.class_sizes == (2, 1)
        assert part.classes[0] == (_lab((1, 2)), _lab((1, 3)))

    def test_subset_application_is_equivalent(self):
        # (2, 3) ~ (3, 2): apply rho to both coordinates; and both are
        # ~ (2, 2) via one coordinate each
        rho = sb.Permutation.from_cycles("(23)", 3)
        part = sb.rho_classes([_lab((2, 2)), _lab((2, 3)), _lab((3, 2)), _lab((3, 3))], rho)
        assert part.class_sizes == (4,)

    def test_identity_rho_gives_singletons(self):
        rho = sb.Permutation.identity(3)
        part = sb.rho_classes([_lab((1, 2)), _lab((1, 3))], rho)
        assert part.class_sizes == (1, 1)

    def test_mixed_tuple_joins_both_pure_ones(self):
        # applying rho to single coordinates connects (1,2) to both (1,1)
        # and (2,2), so all three collapse into one class
        rho = sb.Permutation.from_cycles("(12)", 2)
        part = sb.rho_classes([_lab((1, 1)), _lab((2, 2)), _lab((1, 2))], rho)
        assert part.class_sizes == (3,)

    def test_polynomial(self):
        rho = sb.Permutation.from_cycles("(12)", 3)
        part = sb.rho_classes([_lab((1, 1)), _lab((2, 2)), _lab((3, 3))], rho)
        assert part.polynomial().as_dict() == {1: 1, 2: 1}

    def test_non_involution_rejected(self):
        rho = sb.Permutation.from_cycles("(123)", 3)
        with pytest.raises(ValueError, match=r"\(123\) is not an involution"):
            sb.rho_classes([_lab((1, 2))], rho)


def test_rho_classes_match_pairwise_oracle(records3, corpus):
    # every census table of order <= 3 x its good involutions x the framed
    # tile diagrams of every builtin diagram: classes and their order
    cases = 0
    for rec in records3:
        for d in corpus.values():
            for framed in sb.framing_tile(d, rec.table).values():
                labelings = sb.enumerate_labelings(framed, rec.table)
                for rho in rec.good_involutions:
                    assert sb.rho_classes(labelings, rho).classes == \
                        reference_rho_classes(labelings, rho)
                    cases += 1
    assert cases == 14719


# ---------------------------------------------------------------------------
# framing tile


def test_tile_shape_and_base_entry(order3_table, corpus):
    tile = sb.framing_tile(corpus["vhopf"], order3_table)
    assert set(tile) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert tile[(0, 0)] == corpus["vhopf"]  # self-writhe (0,0): unchanged
    assert tile[(1, 1)].self_writhe == (1, 1)


def test_tile_of_characteristic_one_is_singleton(corpus):
    t = sb.trivial_birack(3)
    for d in (corpus["trefoil"], corpus["unlink2"]):
        tile = sb.framing_tile(d, t)
        assert list(tile) == [(0,) * len(d.components)]
        assert tile.popitem()[1] == d


def test_tile_base_respects_existing_writhe(order3_table, corpus):
    # trefoil has self-writhe 3 = 1 mod 2, so the w=(1) entry is the
    # diagram itself and w=(0) carries one added kink
    tile = sb.framing_tile(corpus["trefoil"], order3_table)
    assert tile[(1,)] == corpus["trefoil"]
    assert tile[(0,)].self_writhe == (4,)


def test_tile_tracks_components_across_promotions(corpus):
    # kinking a free loop reorders component indices; with N >= 3 several
    # insertions hit the same component, which must stay the same strand
    fake = SimpleNamespace(characteristic=3)
    tile = sb.framing_tile(corpus["unlink2"], fake)
    assert len(tile) == 9
    for w, framed in tile.items():
        writhe_of = {}
        for k, comp in enumerate(framed.components):
            name = "a" if any(s.startswith("a") for s in comp) else "b"
            writhe_of[name] = framed.self_writhe[k]
        assert (writhe_of["a"], writhe_of["b"]) == w


# ---------------------------------------------------------------------------
# the virtual Hopf computation, end to end


def test_counting_invariant_vhopf(order3_table, corpus):
    assert sb.counting_invariant(corpus["vhopf"], order3_table) == 16


def test_counting_invariant_unknot(order3_table, corpus):
    assert sb.counting_invariant(corpus["unknot"], order3_table) == 4


def test_vhopf_enhancement(order3_table, corpus):
    rho = sb.Permutation.from_cycles("(23)", 3)
    entries = sb.tile_contributions(corpus["vhopf"], order3_table, rho)
    by_framing = {e.framing: sb.format_polynomial(e.polynomial) for e in entries}
    assert by_framing == {
        (0, 0): "u+u^2",
        (0, 1): "u+u^4",
        (1, 0): "u+2u^2",
        (1, 1): "u+u^2",
    }
    counts = sorted(len(e.labelings) for e in entries)
    assert counts == [3, 3, 5, 5] and sum(counts) == 16
    phi = sb.symmetric_enhancement(corpus["vhopf"], order3_table, rho)
    assert sb.format_polynomial(phi) == "4u+4u^2+u^4"
    assert phi.labeling_mass() == 16


def test_tile_contributions_rejects_bad_rho(order3_table, corpus):
    bad = sb.Permutation.from_cycles("(12)", 3)
    with pytest.raises(ValueError, match=r"\(12\) is not a good involution"):
        sb.tile_contributions(corpus["vhopf"], order3_table, bad)


# ---------------------------------------------------------------------------
# general laws


def _good_rhos(t):
    return sb.enumerate_good_involutions(t)


def test_identity_rho_scales_by_u(order3_table, order4_table, corpus):
    rho3, rho4 = sb.Permutation.identity(3), sb.Permutation.identity(4)
    for d in (corpus["unknot"], corpus["vhopf"], corpus["vtrefoil"]):
        for t, rho in ((order3_table, rho3), (order4_table, rho4)):
            phi_z = sb.counting_invariant(d, t)
            phi = sb.symmetric_enhancement(d, t, rho)
            assert phi.as_dict() == ({1: phi_z} if phi_z else {})


def test_fixed_point_free_rho_pairs_up_knot_labelings(constant4_table, corpus):
    # with no fixed points every knot labeling pairs with its full rho image
    rho = sb.Permutation.from_cycles("(12)(34)", 4)
    assert not rho.fixed_points()
    assert sb.is_good_involution(constant4_table, rho)
    for name in ("unknot", "kink1", "trefoil", "vtrefoil", "knot4"):
        d = corpus[name]
        assert len(d.components) == 1
        phi_z = sb.counting_invariant(d, constant4_table)
        phi = sb.symmetric_enhancement(d, constant4_table, rho)
        assert phi.as_dict() == ({2: phi_z // 2} if phi_z else {})
        assert phi_z % 2 == 0


def test_fixed_point_free_rho_on_links_pairs_per_component(constant4_table, corpus):
    # applying rho to any union of components preserves validity, so a
    # fixed-point-free rho makes every class an orbit of size 2^c
    rho = sb.Permutation.from_cycles("(12)(34)", 4)
    for name in ("unlink2", "vhopf", "mixed3"):
        d = corpus[name]
        c = len(d.components)
        phi_z = sb.counting_invariant(d, constant4_table)
        phi = sb.symmetric_enhancement(d, constant4_table, rho)
        assert phi.as_dict() == ({2 ** c: phi_z // 2 ** c} if phi_z else {})
    assert sb.format_polynomial(
        sb.symmetric_enhancement(corpus["vhopf"], constant4_table, rho)) == "u^4"


def test_enhancement_mass_recovers_counting_invariant(
        order3_table, order4_table, constant4_table, corpus):
    diagrams = [corpus[k] for k in ("unknot", "kink2", "vhopf", "hopf", "mixed3")]
    for t in (order3_table, order4_table, constant4_table):
        for d in diagrams:
            phi_z = sb.counting_invariant(d, t)
            for rho in _good_rhos(t):
                assert sb.symmetric_enhancement(d, t, rho).labeling_mass() == phi_z


def test_kink_site_and_chirality_independence(order3_table, order4_table, corpus):
    d0 = corpus["trefoil"]
    for t in (order3_table, order4_table):
        reference = None
        for site in d0.components[0]:
            for over_first in (False, True):
                d = sb.add_positive_kink(d0, 0, site=site, over_first=over_first)
                count = sb.labeling_count(d, t)
                reference = count if reference is None else reference
                assert count == reference


def test_phone_cord_move(order3_table, order4_table, constant4_table, corpus):
    # N extra kinks leave the labeling count of a framed diagram unchanged
    for t in (order3_table, order4_table, constant4_table):
        N = t.characteristic
        for d0 in (corpus["unknot"], corpus["vtrefoil"]):
            d = d0
            for _ in range(N):
                d = sb.add_positive_kink(d, 0)
            assert sb.labeling_count(d, t) == sb.labeling_count(d0, t)


MOVE_PAIRS = [
    ("unlink2", "poke2"),       # classical second move
    ("braid3a", "braid3b"),     # classical third move
    ("unlink2", "vunlink2"),    # virtual second move
    ("vbraid3a", "vbraid3b"),   # virtual third move
]


@pytest.mark.parametrize("name_a,name_b", MOVE_PAIRS)
def test_move_pairs_agree(name_a, name_b, order3_table, order4_table,
                          constant4_table, corpus):
    a, b = corpus[name_a], corpus[name_b]
    for t in (order3_table, order4_table, constant4_table):
        assert sb.counting_invariant(a, t) == sb.counting_invariant(b, t)
        for rho in _good_rhos(t):
            assert sb.symmetric_enhancement(a, t, rho) == \
                sb.symmetric_enhancement(b, t, rho)


def test_enhancement_of_crossingless_diagrams(order4_table, corpus):
    # n labelings per free loop and framing; classes follow rho orbits on X
    rho = sb.Permutation.from_cycles("(34)", 4)
    phi = sb.symmetric_enhancement(corpus["unknot"], order4_table, rho)
    phi_z = sb.counting_invariant(corpus["unknot"], order4_table)
    assert phi.labeling_mass() == phi_z


def _orbit_class_sizes(labelings, rho, diagram):
    """Partition oracle: classes are orbits of per-component rho application.

    Changing one label of a valid labeling forces rho along its whole
    strand, and rho applied to any union of components preserves validity,
    so grouping by a per-component canonical form must reproduce the
    pointwise-equivalence partition.
    """
    comp_of = diagram.component_of
    ncomp = len(diagram.components)
    groups: dict[tuple, int] = {}
    for lab in labelings:
        vals = list(lab.values)
        for k in range(ncomp):
            idx = [i for i, s in enumerate(lab.semiarcs) if comp_of[s] == k]
            cur = tuple(vals[i] for i in idx)
            alt = tuple(rho(v) for v in cur)
            if alt < cur:
                for i, v in zip(idx, alt):
                    vals[i] = v
        key = tuple(vals)
        groups[key] = groups.get(key, 0) + 1
    return sorted(groups.values())


def test_partition_matches_component_orbit_oracle(
        order3_table, order4_table, constant4_table, corpus):
    for t in (order3_table, order4_table, constant4_table):
        for name in ("unknot", "unlink2", "vhopf", "trefoil", "mixed3", "poke2"):
            d = corpus[name]
            for rho in _good_rhos(t):
                for e in sb.tile_contributions(d, t, rho):
                    assert sorted(e.partition.class_sizes) == \
                        _orbit_class_sizes(e.labelings, rho, e.diagram)
                    # every class size is a power of two times nothing else:
                    # an orbit of subsets of moving components
                    for size in e.partition.class_sizes:
                        assert size & (size - 1) == 0
