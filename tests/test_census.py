"""Census enumeration, isomorphism reduction, and the distinguishing search."""

import itertools

import pytest

import symbirack as sb
from symbirack.census import (
    CensusRecord,
    _eligible,
    _pruned_triples,
    are_isomorphic,
    census_records,
    distinct_up_to_isomorphism,
    enumerate_biracks,
    find_distinguishing_pairs,
    write_census,
)

COUNTS = {1: 1, 2: 8, 3: 198}


def _entry_vector(t):
    return tuple(itertools.chain.from_iterable(t.under + t.over + t.virt))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_biracks(n)) == COUNTS[n]

    def test_order2_matches_brute_force(self):
        # oracle: filter all 2^12 triples of 2x2 matrices through the
        # public axiom checker
        rows = list(itertools.product((1, 2), repeat=2))
        mats = [(r0, r1) for r0 in rows for r1 in rows]
        expected = set()
        for under, over, virt in itertools.product(mats, repeat=3):
            t = sb.BirackTable(n=2, under=under, over=over, virt=virt)
            if sb.check_axioms(t).passed:
                expected.add(_entry_vector(t))
        got = {_entry_vector(t) for t in enumerate_biracks(2)}
        assert got == expected
        assert len(got) == 8

    def test_emission_sorted_and_duplicate_free(self):
        vecs = [_entry_vector(t) for t in enumerate_biracks(3)]
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs)

    def test_every_emitted_table_passes_axioms(self):
        for t in enumerate_biracks(3):
            assert sb.check_axioms(t).passed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pruning_stages_are_complete(self, n):
        # the final gate rejects nothing: every triple that survives the
        # pruning stages already passes the full axiom check
        triples = _pruned_triples(n)
        assert len(triples) == COUNTS[n]
        for tables in triples:
            under, over, virt = ([[e + 1 for e in row] for row in table]
                                 for table in tables)
            t = sb.BirackTable(n=n, under=under, over=over, virt=virt)
            assert sb.check_axioms(t).passed

    def test_contains_packaged_order3_table(self, order3_table):
        target = _entry_vector(order3_table)
        assert any(_entry_vector(t) == target for t in enumerate_biracks(3))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError, match="order must be positive"):
            list(enumerate_biracks(0))

    def test_rejects_order_beyond_cap(self):
        with pytest.raises(ValueError, match="cap exceeded: order 5 > cap 4"):
            list(enumerate_biracks(5, cap=4))

    def test_records_check_the_order_first(self):
        # the order is checked before order 1 is enumerated
        records = census_records(5, cap=4)
        with pytest.raises(ValueError, match="cap exceeded"):
            next(records)
        with pytest.raises(ValueError, match="order must be positive"):
            next(census_records(0))


class TestRecords:
    def test_orders_ascend_and_counts_match(self, records3):
        by_order = {}
        for rec in records3:
            by_order.setdefault(rec.table.n, []).append(rec)
        assert {n: len(v) for n, v in by_order.items()} == COUNTS

    def test_fields_consistent(self, records2):
        for rec in records2:
            assert isinstance(rec, CensusRecord)
            assert rec.characteristic == rec.table.characteristic
            assert rec.good_involutions == tuple(
                sb.enumerate_good_involutions(rec.table))

    def test_kink_map_good_iff_involution(self, records3):
        for rec in records3:
            pi = rec.table.kink
            assert (pi in rec.good_involutions) == ((pi * pi).is_identity())

    def test_characteristic_histogram(self, records3):
        hist = {}
        for rec in records3:
            if rec.table.n == 3:
                hist[rec.characteristic] = hist.get(rec.characteristic, 0) + 1
        assert hist == {1: 102, 2: 96}

    def test_good_involution_histogram(self, records3):
        hist = {}
        for rec in records3:
            if rec.table.n == 3:
                k = len(rec.good_involutions)
                hist[k] = hist.get(k, 0) + 1
        assert hist == {1: 8, 2: 189, 4: 1}


class TestWriteCensus:
    def test_roundtrip(self, tmp_path, records2):
        out = write_census(records2, tmp_path / "census")
        files = sorted(p.name for p in out.glob("*.birack"))
        assert files == [f"{i:04d}.birack" for i in range(1, 10)]
        for i, rec in enumerate(records2, start=1):
            text = (out / f"{i:04d}.birack").read_text()
            assert text.startswith(f"# order {rec.table.n}, characteristic ")
            assert sb.parse_birack_matrix(text) == rec.table

    def test_index_file(self, tmp_path, records2):
        out = write_census(records2, tmp_path / "census")
        lines = (out / "index.txt").read_text().splitlines()
        assert lines[0] == "# index  order  characteristic  good_involutions"
        assert lines[1] == "0001  1  1  1"
        assert len(lines) == 1 + len(records2)
        for line, rec in zip(lines[1:], records2):
            idx, order, char, goods = line.split()
            assert int(order) == rec.table.n
            assert int(char) == rec.characteristic
            assert int(goods) == len(rec.good_involutions)


def _relabel(t, p):
    """Conjugate every operation table by the permutation p."""
    n = t.n

    def conj(op):
        out = [[0] * n for _ in range(n)]
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                out[p(x) - 1][p(y) - 1] = p(op[x - 1][y - 1])
        return tuple(tuple(row) for row in out)

    return sb.BirackTable(n=n, under=conj(t.under), over=conj(t.over),
                          virt=conj(t.virt))


class TestIsomorphism:
    def test_relabeled_copy_is_isomorphic(self, order3_table):
        p = sb.Permutation.from_cycles("(12)", 3)
        other = _relabel(order3_table, p)
        assert sb.check_axioms(other).passed
        assert are_isomorphic(order3_table, other)

    def test_different_structures_are_not(self, order3_table):
        assert not are_isomorphic(order3_table, sb.trivial_birack(3))

    def test_different_orders_are_not(self):
        assert not are_isomorphic(sb.trivial_birack(2), sb.trivial_birack(3))

    def test_class_counts(self, records2, records3):
        two = [r.table for r in records2 if r.table.n == 2]
        assert len(distinct_up_to_isomorphism(two)) == 8
        three = [r.table for r in records3 if r.table.n == 3]
        assert len(distinct_up_to_isomorphism(three)) == 68


class TestDistinguish:
    def test_eligibility(self):
        assert not _eligible(sb.Permutation.identity(3))
        assert _eligible(sb.Permutation.from_cycles("(23)", 3))
        # fixed-point-free involutions stay in: their enhancement depends
        # on the component count, which varies across a corpus
        assert _eligible(sb.Permutation.from_cycles("(12)(34)", 4))

    def test_first_witness(self, records3, corpus):
        hits = find_distinguishing_pairs(records3, corpus, limit=1)
        assert len(hits) == 1
        w = hits[0]
        assert w.table.n == 3
        assert w.rho.cycle_string() == "(23)"
        assert {w.name_a, w.name_b} == {"mixed3", "vhopf"}
        assert w.phi_z == 5
        assert {str(w.poly_a), str(w.poly_b)} == {"u+2u^2", "u+u^4"}

    def test_limit_respected(self, records3, corpus):
        assert len(find_distinguishing_pairs(records3, corpus, limit=3)) == 3

    @pytest.mark.parametrize("limit", [0, -5])
    def test_nonpositive_limit_rejected_before_any_work(self, corpus, limit):
        def records():
            raise AssertionError("records consumed")
            yield
        with pytest.raises(ValueError, match=f"limit must be positive, got {limit}"):
            find_distinguishing_pairs(records(), corpus, limit=limit)

    def test_witnesses_are_sound(self, records3, corpus):
        hits = find_distinguishing_pairs(records3, corpus)
        assert len(hits) == 12
        for w in hits:
            assert _eligible(w.rho)
            assert w.poly_a != w.poly_b
            assert sb.counting_invariant(w.diagram_a, w.table) == w.phi_z
            assert sb.counting_invariant(w.diagram_b, w.table) == w.phi_z
            assert sb.symmetric_enhancement(w.diagram_a, w.table, w.rho) == w.poly_a
            assert sb.symmetric_enhancement(w.diagram_b, w.table, w.rho) == w.poly_b

    def test_single_diagram_corpus_finds_nothing(self, records3, corpus):
        assert find_distinguishing_pairs(
            records3, {"vhopf": corpus["vhopf"]}) == []

    def test_sequence_corpus_equivalent_to_mapping(self, records3, corpus):
        pair = {"mixed3": corpus["mixed3"], "vhopf": corpus["vhopf"]}
        a = find_distinguishing_pairs(records3, pair, limit=1)
        b = find_distinguishing_pairs(records3, list(pair.values()), limit=1)
        assert [w.name_a for w in a] == [w.name_a for w in b]
        assert [w.poly_a for w in a] == [w.poly_a for w in b]
        assert [w.poly_b for w in a] == [w.poly_b for w in b]
