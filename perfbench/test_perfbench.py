"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import collections
import json
import random
import sys
import types
from pathlib import Path

import pytest

import gate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    tracer.wrap(lambda: (traced_middle(), traced_leaf()), "root")()

    spans = tracing.by_name([(*key, *agg) for key, agg in tracer.edges.items()])
    assert spans["leaf"] == {"spans": 3, "s": 6.0, "self_s": 6.0}
    assert spans["middle"] == {"spans": 1, "s": 5.5, "self_s": 1.5}
    assert spans["root"] == {"spans": 1, "s": 7.5, "self_s": 0.0}
    assert sum(s["self_s"] for s in spans.values()) == spans["root"]["s"]
    assert tracer.edges[("middle", "leaf")][0] == 2
    assert tracer.edges[("root", "leaf")][0] == 1
    assert tracer.counts["leaf.calls"] == 3


def test_generator_spans_cover_each_next_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    check = tracer.wrap(lambda: clock.__setattr__("now", clock.now + 1.0), "check")

    def produce():
        for item in range(3):
            clock.now += 2.0
            check()
            yield item

    seen = []
    gen = tracer.wrap(produce, "produce", lambda counts, args, item: seen.append(item))
    for _ in gen():
        clock.now += 10.0  # consumer time is outside every span
    spans = tracing.by_name([(*key, *agg) for key, agg in tracer.edges.items()])
    assert seen == [0, 1, 2]
    assert spans["produce"]["spans"] == 4  # three items and the final StopIteration
    assert spans["produce"]["s"] == 9.0
    assert spans["produce"]["self_s"] == 6.0
    assert tracer.counts["produce.calls"] == 1


def test_abandoned_generator_closes_its_inner_generator():
    tracer = tracing.Tracer()
    closed = []

    def produce():
        try:
            yield from range(10)
        finally:
            closed.append(True)

    gen = tracer.wrap(produce, "produce")()
    assert next(gen) == 0
    gen.close()
    assert closed == [True]
    assert not tracer._open


def test_patch_and_restore_put_originals_back():
    module = types.ModuleType("fake")
    module.f = lambda x: x + 1
    original = module.f
    tracer = tracing.Tracer()
    assert tracer.patch(module, "f", "fake.f")
    assert not tracer.patch(module, "missing", "fake.missing")
    assert module.f is not original and module.f(1) == 2
    tracer.restore()
    assert module.f is original


def _program_modules() -> dict[str, types.ModuleType]:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from symbirack import algebra, census, cli, diagram, invariants, labeling
    finally:
        sys.path.remove(str(ROOT / "src"))
    return {"algebra": algebra, "census": census, "cli": cli, "diagram": diagram,
            "invariants": invariants, "labeling": labeling}


def test_install_refuses_a_missing_site_and_restores():
    modules = _program_modules()
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.SITES}
    # a program whose last site was renamed away
    module, attr, _, _ = tracing.SITES[-1]
    stripped = types.ModuleType(module)
    stripped.__dict__.update({k: v for k, v in vars(modules[module]).items() if k != attr})
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match=f"{module}.{attr}"):
        tracing.install(tracer, {**modules, module: stripped})
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
    assert all(getattr(stripped, a) is getattr(modules[module], a)
               for m, a, _, _ in tracing.SITES if m == module and a != attr)


def test_install_and_restore_on_the_program():
    modules = _program_modules()
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.SITES}
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
    tracer.restore()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())


def test_generator_is_deterministic_per_seed(tmp_path):
    tables = workloads.load_tables(ROOT)
    first = workloads.generate_enhance_mix(5, tables, tmp_path)
    again = workloads.generate_enhance_mix(5, tables, tmp_path)
    other = workloads.generate_enhance_mix(6, tables, tmp_path)
    assert first.files == again.files
    assert first.queries == again.queries
    assert first.files != other.files
    # every seed starts with the same fixed query, and only that one
    assert first.queries[0] == other.queries[0] and first.queries[0].kind == "fixed"
    assert first.files["q000.vlink"] == other.files["q000.vlink"]
    assert {q.kind for q in first.queries[1:]} == {"deep", "wide"}
    # every seed fills the same cost bands of every stratum
    for mix in (first, other):
        bands = collections.Counter(
            (Path(q.argv[1]).stem, q.kind, workloads.cost_band(q.cost_ms))
            for q in mix.queries[1:])
        assert bands == collections.Counter({
            (table, kind, band): n
            for (table, kind), quota in workloads.QUOTAS.items() for band, n in quota.items()})


def test_early_rejection_keeps_every_draw_under_the_limit():
    table = workloads.load_tables(ROOT)["order4"]
    d = workloads.random_wiring(random.Random(3), 7, 1)
    framings, ms = workloads.expect(d, table, (1, 2, 3, 4))
    assert workloads.expect(d, table, (1, 2, 3, 4), ms) == (framings, ms)
    assert workloads.expect(d, table, (1, 2, 3, 4), ms * 0.99) is None


def test_generated_diagrams_have_the_asked_shape():
    rng = random.Random(1)
    for crossings, comps in ((2, 1), (3, 4), (7, 2)):
        d = workloads.random_wiring(rng, crossings, comps)
        assert len(d.crossings) == crossings
        assert len(d.components()) == comps


VHOPF = workloads.FIRST_QUERY[1]  # the virtual Hopf link


def test_own_solver_matches_the_documented_vhopf_example():
    # README: order-3 table, virtual Hopf link, rho = (23)
    table = workloads.load_tables(ROOT)["order3"]
    framings, _ = workloads.expect(VHOPF, table, (1, 3, 2))
    assert framings == (((0, 0), 3, ((1, 1), (2, 1))),
                        ((0, 1), 5, ((1, 1), (4, 1))),
                        ((1, 0), 5, ((1, 1), (2, 2))),
                        ((1, 1), 3, ((1, 1), (2, 1))))


def test_good_involutions_of_the_packaged_tables():
    tables = workloads.load_tables(ROOT)
    assert tables["order3"].good_involutions() == [("()", (1, 2, 3)), ("(23)", (1, 3, 2))]
    assert tables["order3"].characteristic == 2


VHOPF_QUERY = workloads.Query(("enhance",), "wide", workloads.expect(
    VHOPF, workloads.load_tables(ROOT)["order3"], (1, 3, 2))[0], 1.0)
VHOPF_OUT = ("w=(0,0) : u+u^2 (3 labelings)\n"
             "w=(0,1) : u+u^4 (5 labelings)\n"
             "w=(1,0) : u+2u^2 (5 labelings)\n"
             "w=(1,1) : u+u^2 (3 labelings)\n"
             "Phi_Z = 16\n"
             "Phi_rho = 4u+4u^2+u^4\n")


def test_gate_accepts_a_correct_enhance_output():
    assert gate.check_enhance(VHOPF_QUERY, VHOPF_OUT, 0) is None


@pytest.mark.parametrize("bad, code", [
    (VHOPF_OUT.replace("(5 labelings)", "(6 labelings)", 1), 0),
    (VHOPF_OUT.replace("u+u^4", "u+u^3"), 0),
    (VHOPF_OUT.replace("Phi_Z = 16", "Phi_Z = 17"), 0),
    (VHOPF_OUT.replace("4u+4u^2+u^4", "4u+4u^2+u^3"), 0),
    (VHOPF_OUT.replace("u+2u^2 (5", "3u+u^2 (5"), 0),  # same mass, other classes
    (VHOPF_OUT.replace("w=(1,1)", "w=(1,0)"), 0),
    (VHOPF_OUT.replace("u+2u^2", "u+2u^"), 0),
    (VHOPF_OUT[:-20], 0),
    (VHOPF_OUT, 1),
])
def test_gate_rejects_a_corrupted_enhance_output(bad, code):
    assert gate.check_enhance(VHOPF_QUERY, bad, code)


def test_gate_rejects_corrupted_census_and_distinguish_outputs(tmp_path):
    out = tmp_path / "census"
    out.mkdir()
    (out / "index.txt").write_text("# index\n")
    (out / "0001.birack").write_text("1  1  1\n")
    stdout = f"wrote 17439 tables (orders 1..4) to {out}\n"
    verdict, files, size = gate.check_census(str(out), out, stdout, 0)
    assert verdict and files == 2 and size == 16
    assert gate.check_census(str(out), out, stdout.replace("17439", "17438"), 0)[0]
    assert gate.check_census(str(out), out, stdout, 2)[0]
    assert gate.check_distinguish("witness 1: ...\n", 0)
    assert gate.check_distinguish("", 1)


def test_census_digest_covers_names_and_contents(tmp_path):
    (tmp_path / "index.txt").write_text("a\n")
    (tmp_path / "0001.birack").write_text("b\n")
    digest = gate.census_digest(tmp_path)[0]
    (tmp_path / "0001.birack").write_text("c\n")
    assert gate.census_digest(tmp_path)[0] != digest


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = set(tracing.layer_metrics({}, {})) | {
        "census.write_census.files", "census.write_census.bytes",
        "trace.overhead_s", "trace.unwrapped_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "first_output_s", "query_p50_ms", "query_p90_ms", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == ["census4", "distinguish4-head",
                                                       "enhance-mix"]


def test_spread_subdirectories_leaves_the_folder_usable(tmp_path):
    import run
    run.spread_subdirectories(tmp_path)  # sets the flag where the file system has it
    run.spread_subdirectories(tmp_path / "missing")  # no folder: nothing to do
    (tmp_path / "census").mkdir()
    (tmp_path / "census" / "index.txt").write_text("x\n")
    assert (tmp_path / "census" / "index.txt").read_text() == "x\n"
