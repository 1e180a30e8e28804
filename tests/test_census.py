"""Census enumeration, isomorphism reduction, and the distinguishing search."""

import hashlib
import importlib.util
import itertools
from pathlib import Path

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
from symbirack.cli import run

from mixed_oracle import reference_pruned_triples

COUNTS = {1: 1, 2: 8, 3: 198}
# sha256 of the ``census 3`` output directory, fed as in _census_digest
CENSUS3_SHA256 = "ad450734b54fe48c2e01bfd4a1b6dc0ee42de9ddbeb9667ca598a96506bbb89e"


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factored_mixed_stage_matches_oracle(self, n):
        # the mixed exchange laws tested per table they read, then joined,
        # keep exactly the triples of testing all three on every combination
        assert _pruned_triples(n) == reference_pruned_triples(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_equal_validated_construction(self, n):
        # the census builds its tables without validation; the validating
        # constructor, given the same rows, must build the same tables
        for t in enumerate_biracks(n):
            rows = ([list(row) for row in table] for table in (t.under, t.over, t.virt))
            assert sb.BirackTable(n, *rows) == t
            for table in (t.under, t.over, t.virt):
                assert type(table) is tuple
                assert all(type(row) is tuple for row in table)

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


def _census_digest(folder):
    """sha256 of index.txt and then every other file in name order, each
    fed as name, NUL, content, NUL; with the file count and byte total."""
    h = hashlib.sha256()
    names = sorted(p.name for p in folder.iterdir())
    names.sort(key=lambda name: name != "index.txt")
    total = 0
    for name in names:
        data = (folder / name).read_bytes()
        total += len(data)
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), len(names), total


def test_census3_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "census3"
    assert run(["census", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 207 tables (orders 1..3) to {out}\n"
    assert _census_digest(out) == (CENSUS3_SHA256, 208, 24995)


def _load_survey_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "census_survey.py"
    spec = importlib.util.spec_from_file_location("census_survey", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_checks_the_order_cap_before_any_work(monkeypatch):
    survey = _load_survey_script()

    def spy(*args, **kwargs):
        raise AssertionError("enumerate_biracks called")

    monkeypatch.setattr(sb, "enumerate_biracks", spy)
    with pytest.raises(ValueError, match="cap exceeded: order 5 > cap 4"):
        survey.survey(survey.SurveyConfig(max_order=5))


@pytest.mark.parametrize("field, value", [("max_order", 0), ("witnesses", 0),
                                          ("witnesses", -1)])
def test_survey_checks_its_arguments_before_any_work(monkeypatch, field, value):
    survey = _load_survey_script()

    def spy(*args, **kwargs):
        raise AssertionError("enumerate_biracks called")

    monkeypatch.setattr(sb, "enumerate_biracks", spy)
    with pytest.raises(ValueError, match=f"{field} must be positive, got {value}"):
        survey.survey(survey.SurveyConfig(**{field: value}))


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
