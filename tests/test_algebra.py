"""Tables, axioms, permutations, good involutions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbirack as sb
from symbirack.algebra import AXIOM_FAMILIES

from conftest import KLEIN4, cyclic_group, load_packaged_table


def perms(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(sb.Permutation)


# ---------------------------------------------------------------------------
# permutations


class TestPermutation:
    def test_identity(self):
        p = sb.Permutation.identity(4)
        assert p.is_identity() and p.is_involution()
        assert p.cycle_string() == "()"
        assert p.order() == 1
        assert p.fixed_points() == (1, 2, 3, 4)

    def test_from_cycles(self):
        p = sb.Permutation.from_cycles("(23)", 3)
        assert p.images == (1, 3, 2)
        assert p.cycle_string() == "(23)"
        q = sb.Permutation.from_cycles("(12)(34)", 4)
        assert q.images == (2, 1, 4, 3)
        assert sb.Permutation.from_cycles("()", 5).is_identity()
        # multi-digit elements need separators
        r = sb.Permutation.from_cycles("(10 11)", 11)
        assert r(10) == 11 and r(11) == 10
        assert r.cycle_string() == "(10 11)"

    def test_from_cycles_rejects_garbage(self):
        for bad in ("", "xyz", "(12", "(12)(21)", "(14)", "(0 1)"):
            with pytest.raises(ValueError):
                sb.Permutation.from_cycles(bad, 3)

    def test_composition_applies_right_factor_first(self):
        a = sb.Permutation.from_cycles("(12)", 3)
        b = sb.Permutation.from_cycles("(23)", 3)
        assert (a * b)(3) == a(b(3)) == a(2) == 1
        assert (a * b).images == (2, 3, 1)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            sb.Permutation([1, 1, 3])

    @given(perms())
    def test_cycle_string_roundtrip(self, p):
        assert sb.Permutation.from_cycles(p.cycle_string(), p.n) == p

    @given(perms())
    def test_inverse(self, p):
        assert p * p.inverse() == sb.Permutation.identity(p.n)
        assert p.inverse() * p == sb.Permutation.identity(p.n)

    @given(perms())
    def test_order_annihilates(self, p):
        k = p.order()
        q = sb.Permutation.identity(p.n)
        for _ in range(k):
            q = q * p
        assert q.is_identity()
        assert p.is_involution() == (k <= 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_order_is_least_power_giving_identity(self, n):
        ident = sb.Permutation.identity(n)
        for images in itertools.permutations(range(1, n + 1)):
            p = sb.Permutation(images)
            k, q = 1, p
            while q != ident:
                q, k = q * p, k + 1
            assert p.order() == k


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_order3_matrix(order3_table):
    t = order3_table
    assert t.n == 3
    assert t.under == ((1, 1, 1), (2, 3, 3), (3, 2, 2))
    assert t.over == ((1, 1, 1), (3, 2, 2), (2, 3, 3))
    assert t.virt == ((1, 1, 1), (3, 3, 3), (2, 2, 2))


def test_format_parse_roundtrip(order3_table, order4_table, constant4_table):
    for t in (order3_table, order4_table, constant4_table):
        assert sb.parse_birack_matrix(sb.format_birack_matrix(t)) == t


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(1, n), min_size=3 * n, max_size=3 * n),
                       min_size=n, max_size=n)))
def test_parse_accepts_any_well_shaped_matrix(rows):
    text = "\n".join(" ".join(str(e) for e in r) for r in rows)
    t = sb.parse_birack_matrix(text)
    assert sb.parse_birack_matrix(sb.format_birack_matrix(t)) == t


@pytest.mark.parametrize("text", [
    "",
    "# only comments\n",
    "1 2\n2 1\n",              # 2 rows need 6 entries
    "1 1 1  1 1 1  1 1\n" * 3,
    "1 x 1  1 1 1  1 1 1\n" * 3,
    "1 1 9  1 1 1  1 1 1\n1 1 1  1 1 1  1 1 1\n1 1 1  1 1 1  1 1 1\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError, match="malformed matrix"):
        sb.parse_birack_matrix(text)


def test_parse_skips_comments_and_blank_lines(order3_table):
    text = "# a comment\n\n" + sb.format_birack_matrix(order3_table) + "\n# trailing\n"
    assert sb.parse_birack_matrix(text) == order3_table


# ---------------------------------------------------------------------------
# axioms on known-good tables


def test_order3_structure(order3_table):
    report = sb.check_axioms(order3_table)
    assert report.passed and not report.violations
    assert order3_table.kink.cycle_string() == "(23)"
    assert order3_table.characteristic == 2


def test_order4_structure(order4_table):
    assert sb.check_axioms(order4_table).passed
    assert order4_table.kink.cycle_string() == "(34)"
    assert order4_table.characteristic == 2


def test_constant4_structure(constant4_table):
    assert sb.check_axioms(constant4_table).passed
    assert constant4_table.kink.cycle_string() == "(34)"


def test_kink_map_helpers_match_properties(order3_table):
    assert sb.kink_map(order3_table) == order3_table.kink
    assert sb.characteristic(order3_table) == 2


def test_constructor_tables_all_pass(constructor_tables):
    for t in constructor_tables:
        assert sb.check_axioms(t).passed, sb.format_birack_matrix(t)


# ---------------------------------------------------------------------------
# axiom violations are detected and attributed


def _mutate(t, block, i, j, v):
    rows = {name: [list(r) for r in getattr(t, name)]
            for name in ("under", "over", "virt")}
    rows[block][i][j] = v
    return sb.BirackTable(n=t.n, **rows)


def test_every_single_entry_mutation_fails(order3_table):
    t = order3_table
    for block in ("under", "over", "virt"):
        for i, j in itertools.product(range(3), repeat=2):
            orig = getattr(t, block)[i][j]
            for v in range(1, 4):
                if v == orig:
                    continue
                report = sb.check_axioms(_mutate(t, block, i, j, v))
                assert not report.passed
                assert all(v.axiom in AXIOM_FAMILIES for v in report.violations)


def test_violation_witnesses_are_lex_first():
    # under(x, y) = 1 breaks the column involution exactly when x = 2, so
    # the reported witness must be the lex-first failing pair (2, 1)
    rows = ((1, 1), (1, 1))
    t = sb.BirackTable(n=2, under=rows, over=((1, 2), (2, 1)), virt=((1, 2), (2, 1)))
    report = sb.check_axioms(t)
    axioms = {v.axiom: v.witness for v in report.violations}
    assert axioms["ii.inv.under"] == (2, 1)


def test_broken_diagonal_reports_kink_family():
    rows = ((1, 1), (1, 1))
    t = sb.BirackTable(n=2, under=rows, over=rows, virt=rows)
    report = sb.check_axioms(t)
    assert any(v.axiom == "kink-map" for v in report.violations)
    with pytest.raises(ValueError, match="no kink map"):
        t.kink


def test_families_reported_in_declared_order(order3_table):
    t = _mutate(order3_table, "virt", 0, 0, 2)
    report = sb.check_axioms(t)
    seen = [v.axiom for v in report.violations]
    assert seen == sorted(seen, key=AXIOM_FAMILIES.index)
    assert len(set(seen)) == len(seen)  # at most one witness per family


def test_report_str_mentions_failures():
    rows = ((1, 1), (1, 1))
    t = sb.BirackTable(n=2, under=rows, over=rows, virt=rows)
    assert "fails" in str(sb.check_axioms(t))
    assert str(sb.check_axioms(sb.trivial_birack(2))) == "all axioms hold"


# ---------------------------------------------------------------------------
# constructors


def test_trivial_birack_structure():
    t = sb.trivial_birack(4)
    assert sb.check_axioms(t).passed
    assert t.kink.is_identity() and t.characteristic == 1
    # every involution respects x * y = x
    assert sb.enumerate_good_involutions(t) == sb.enumerate_involutions(4)


def test_core_quandle_of_klein_four_is_trivial():
    # in an elementary abelian 2-group y x^{-1} y = x
    assert sb.core_quandle(KLEIN4) == sb.trivial_birack(4)


def test_core_quandle_cyclic():
    t = sb.core_quandle(cyclic_group(5))
    assert sb.check_axioms(t).passed
    # x under y = 2y - x mod 5 (on residues x-1, y-1)
    assert t.under[0][1] == (2 * 1 - 0) % 5 + 1


def test_core_quandle_rejects_non_group():
    bad = ((1, 2), (2, 2))
    with pytest.raises(ValueError, match="not a group"):
        sb.core_quandle(bad)


def test_alexander_bikei_parameter_validation():
    with pytest.raises(ValueError, match=r"t\^2 = 4 != 1"):
        sb.alexander_bikei(5, t=2, s=1, v=1)
    with pytest.raises(ValueError, match=r"1 - s \+ t - st"):
        sb.alexander_bikei(8, t=1, s=3, v=1)


def test_alexander_bikei_known_instance():
    t = sb.alexander_bikei(5, t=4, s=1, v=4)
    assert sb.check_axioms(t).passed
    # x under y = 4x + (1 - 4)y = -(x + 3y) mod 5 on residues
    x, y = 2, 3  # residues 1, 2
    assert t.under[x - 1][y - 1] == (4 * 1 + (1 - 4) * 2) % 5 + 1


def test_constant_action_matches_packaged_table(constant4_table):
    sigma = sb.Permutation.from_cycles("(12)", 4)
    tau = sb.Permutation.from_cycles("(12)(34)", 4)
    nu = sb.Permutation.from_cycles("(34)", 4)
    assert sb.constant_action(sigma, tau, nu) == constant4_table
    # kink map is sigma tau^{-1}
    assert constant4_table.kink == sigma * tau.inverse()


def test_constant_action_validation():
    i2 = sb.Permutation.identity(2)
    three_cycle = sb.Permutation.from_cycles("(123)", 3)
    with pytest.raises(ValueError, match="sigma is not an involution"):
        sb.constant_action(three_cycle, sb.Permutation.identity(3), sb.Permutation.identity(3))
    a = sb.Permutation.from_cycles("(12)", 3)
    b = sb.Permutation.from_cycles("(13)", 3)
    with pytest.raises(ValueError, match="do not commute"):
        sb.constant_action(a, b, sb.Permutation.identity(3))
    with pytest.raises(ValueError, match="same set"):
        sb.constant_action(i2, sb.Permutation.identity(3), i2)


# ---------------------------------------------------------------------------
# involutions


TELEPHONE = [1, 1, 2, 4, 10, 26, 76, 232]  # T(0)..T(7)


def test_enumerate_involutions_small():
    assert [p.cycle_string() for p in sb.enumerate_involutions(1)] == ["()"]
    assert [p.cycle_string() for p in sb.enumerate_involutions(3)] == \
        ["()", "(12)", "(13)", "(23)"]
    assert len(sb.enumerate_involutions(4)) == 10


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_count_follows_telephone_recurrence(n):
    invs = sb.enumerate_involutions(n)
    assert len(invs) == TELEPHONE[n]
    assert len(set(invs)) == len(invs)
    assert all(p.is_involution() for p in invs)
    strings = [p.cycle_string() for p in invs]
    assert strings == sorted(strings)


def test_enumerate_involutions_cap():
    with pytest.raises(ValueError, match="capped"):
        sb.enumerate_involutions(11)


def test_good_involutions_order3(order3_table):
    goods = sb.enumerate_good_involutions(order3_table)
    assert [p.cycle_string() for p in goods] == ["()", "(23)"]
    assert sb.is_good_involution(order3_table, goods[1])
    assert not sb.is_good_involution(
        order3_table, sb.Permutation.from_cycles("(12)", 3))


def test_good_involutions_order4(order4_table):
    goods = sb.enumerate_good_involutions(order4_table)
    assert [p.cycle_string() for p in goods] == ["()", "(34)"]
    assert order4_table.kink in goods


def test_good_involutions_constant4(constant4_table):
    goods = [p.cycle_string() for p in sb.enumerate_good_involutions(constant4_table)]
    assert goods == ["()", "(12)", "(12)(34)", "(34)"]


def test_identity_is_always_good(census3, constructor_tables):
    for t in constructor_tables + census3[:25]:
        assert sb.is_good_involution(t, sb.Permutation.identity(t.n))


def test_is_good_involution_size_mismatch(order3_table):
    with pytest.raises(ValueError, match="size"):
        sb.is_good_involution(order3_table, sb.Permutation.identity(4))


# ---------------------------------------------------------------------------
# derived structure: kink-map identities, homomorphisms, strand propagation


def _kink_identities_hold(t):
    pi = t.kink
    rng = range(1, t.n + 1)
    for name in ("under", "over", "virt"):
        op = t.operation(name)
        for x in rng:
            for y in rng:
                if op(y, x) != op(y, pi(x)):
                    return False
                if pi(op(x, y)) != op(pi(x), y):
                    return False
    return True


def test_kink_map_identities(census3, constructor_tables):
    for t in constructor_tables + census3:
        assert _kink_identities_hold(t), sb.format_birack_matrix(t)


def test_kink_is_good_iff_involution(census3, constructor_tables):
    for t in constructor_tables + census3:
        assert sb.is_good_involution(t, t.kink) == t.kink.is_involution()


def test_kink_and_good_involutions_are_homomorphisms(census3, constructor_tables):
    for t in constructor_tables + census3[:40]:
        assert sb.is_homomorphism(t, t, t.kink)
        for rho in sb.enumerate_good_involutions(t):
            assert sb.is_homomorphism(t, t, rho)


def test_kink_commutes_with_good_involutions(census3, constructor_tables):
    for t in constructor_tables + census3:
        pi = t.kink
        for rho in sb.enumerate_good_involutions(t):
            assert pi * rho == rho * pi


def test_is_homomorphism_rejects_bad_maps(order3_table):
    with pytest.raises(ValueError, match="all of 1"):
        sb.is_homomorphism(order3_table, order3_table, (1, 2))
    with pytest.raises(ValueError, match="out of range"):
        sb.is_homomorphism(order3_table, order3_table, (1, 2, 7))


def test_strand_propagation_left_spines(order3_table, constant4_table):
    # rho(((x * v1) * v2) * v3) = ((rho(x) * v1) * v2) * v3 for every mix of
    # operations: a rho applied to the leftmost operand propagates out.
    for t in (order3_table, constant4_table):
        ops = [t.operation(name) for name in ("under", "over", "virt")]
        for rho in sb.enumerate_good_involutions(t):
            for f, g, h in itertools.product(ops, repeat=3):
                for x, v1, v2, v3 in itertools.product(range(1, t.n + 1), repeat=4):
                    lhs = h(g(f(rho(x), v1), v2), v3)
                    assert lhs == rho(h(g(f(x, v1), v2), v3))


@settings(max_examples=25)
@given(st.data())
def test_axiom_checker_never_crashes_on_garbage(data):
    n = data.draw(st.integers(1, 3))
    draw_rows = lambda: tuple(
        tuple(data.draw(st.integers(1, n)) for _ in range(n)) for _ in range(n))
    t = sb.BirackTable(n=n, under=draw_rows(), over=draw_rows(), virt=draw_rows())
    report = sb.check_axioms(t)
    assert all(v.axiom in AXIOM_FAMILIES for v in report.violations)
    if report.passed:
        assert t.kink.n == n
