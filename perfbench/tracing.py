"""Span tracing for the benchmark's traced runs.

A ``Tracer`` replaces public functions at the module attribute their
caller looks up (``census.check_axioms``, not ``algebra.check_axioms``,
for the census gate) with wrappers that open a span around each call,
or around each ``next()`` of a generator.  Spans nest in time on the one
thread, so a stack gives each span its parent, and a span's self time
is its duration minus the durations of the spans opened inside it.
Spans are kept in memory as (parent, name) aggregates and counts, and
the traced process writes them out only when it ends.  ``restore``
puts every original function back.

The program is not changed: spans exist only at the boundaries listed
in ``SITES``.  Work inside a function that no site wraps, such as the
solver and the class sizing inside ``find_distinguishing_pairs``, shows
as that function's self time.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
from types import ModuleType
from typing import Any, Callable

Count = Callable[[collections.Counter, tuple, Any], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counts: collections.Counter = collections.Counter()
        # (parent name, name) -> [spans, seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self._open: list[list] = []  # [name, start, seconds of child spans]
        self._patched: list[tuple[ModuleType, str, Any]] = []

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, inner = self._open.pop()
        spent = self.clock() - start
        parent = self._open[-1][0] if self._open else ""
        if self._open:
            self._open[-1][2] += spent
        edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += spent
        edge[2] += spent - inner

    def wrap(self, fn: Callable, name: str, count: Count | None = None) -> Callable:
        """``fn`` with a span per call (per ``next()`` for a generator
        function) and ``name.calls`` counted; ``count`` sees each result
        (each item) after its span closes."""
        calls = f"{name}.calls"
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.counts[calls] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        self.enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.exit()
                        if count:
                            count(self.counts, args, item)
                        yield item
                finally:
                    inner.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count:
                count(self.counts, args, result)
            return result
        return traced

    def patch(self, module: ModuleType, attr: str, name: str,
              count: Count | None = None) -> bool:
        """Wrap ``module.attr`` in place; False if the module has no such
        attribute (the layer was removed or renamed)."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, count))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _axioms(counts, args, report) -> None:
    counts["algebra.check_axioms.failed"] += not report.passed


def _census_gate(counts, args, report) -> None:
    _axioms(counts, args, report)
    counts["census.gate.calls"] += 1
    counts["census.gate.passed"] += report.passed


def _good(counts, args, ok) -> None:
    counts["algebra.is_good_involution.hits"] += bool(ok)


def _table(counts, args, table) -> None:
    counts["census.enumerate_biracks.tables"] += 1


def _witnesses(counts, args, witnesses) -> None:
    counts["census.witnesses"] += len(witnesses)


def _framings(counts, args, tile) -> None:
    counts["invariants.framings"] += len(tile)


def _labelings(counts, args, labelings) -> None:
    counts["labeling.labelings"] += len(labelings)


def _rho_classes(counts, args, partition) -> None:
    m = len(args[0])
    counts["invariants.rho_classes.labelings"] += m
    counts["invariants.rho_classes.classes"] += len(partition.classes)
    # computed, not measured: the pairs an all-pairs comparison visits
    counts["invariants.rho_classes.pair_checks"] += m * (m - 1) // 2


# (module the caller looks the name up in, attribute, span name, count)
SITES: tuple[tuple[str, str, str, Count | None], ...] = (
    ("census", "check_axioms", "algebra.check_axioms", _census_gate),
    ("cli", "check_axioms", "algebra.check_axioms", _axioms),
    ("algebra", "is_good_involution", "algebra.is_good_involution", _good),
    ("invariants", "is_good_involution", "algebra.is_good_involution", _good),
    ("census", "enumerate_good_involutions", "algebra.enumerate_good_involutions", None),
    ("cli", "enumerate_good_involutions", "algebra.enumerate_good_involutions", None),
    ("cli", "parse_birack_matrix", "algebra.parse_birack_matrix", None),
    ("census", "enumerate_biracks", "census.enumerate_biracks", _table),
    ("census", "census_record", "census.census_record", None),
    ("cli", "census_records", "census.census_records", None),
    ("cli", "write_census", "census.write_census", None),
    ("cli", "find_distinguishing_pairs", "census.find_distinguishing_pairs", _witnesses),
    ("census", "framing_tile", "invariants.framing_tile", _framings),
    ("invariants", "framing_tile", "invariants.framing_tile", _framings),
    ("invariants", "enumerate_labelings", "labeling.enumerate_labelings", _labelings),
    ("invariants", "rho_classes", "invariants.rho_classes", _rho_classes),
    ("cli", "tile_contributions", "invariants.tile_contributions", None),
    ("invariants", "tile_contributions", "invariants.tile_contributions", None),
    ("cli", "symmetric_enhancement", "invariants.symmetric_enhancement", None),
    ("invariants", "add_positive_kink", "diagram.add_positive_kink", None),
    ("cli", "parse_diagram", "diagram.parse_diagram", None),
    ("cli", "builtin_diagrams", "diagram.builtin_diagrams", None),
)


def by_name(edges: list[tuple[str, str, int, float, float]]) -> dict[str, dict[str, float]]:
    """Spans, seconds and self seconds per span name, summed over the
    (parent, name, spans, seconds, self seconds) edges of a trace."""
    out: dict[str, dict[str, float]] = {}
    for _, name, spans, seconds, own in edges:
        agg = out.setdefault(name, {"spans": 0, "s": 0.0, "self_s": 0.0})
        agg["spans"] += spans
        agg["s"] += seconds
        agg["self_s"] += own
    return out


def install(tracer: Tracer, modules: dict[str, ModuleType]) -> None:
    """Wrap every site of ``SITES``.  A site the program no longer has
    raises AttributeError, after restoring what was already wrapped:
    a skipped site would read 0 and look like a gain."""
    for module, attr, name, count in SITES:
        if not tracer.patch(modules[module], attr, name, count):
            tracer.restore()
            raise AttributeError(f"traced site {module}.{attr} ({name}) is missing")


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, dict[str, float]], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values of one traced process; a layer the run
    never entered reads 0."""
    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def n(key: str) -> int:
        return counts.get(key, 0)

    out = {f"{name}.self_s": own(name) for name in (
        "algebra.check_axioms", "algebra.is_good_involution",
        "algebra.enumerate_good_involutions", "census.enumerate_biracks",
        "census.write_census", "census.find_distinguishing_pairs",
        "labeling.enumerate_labelings", "invariants.rho_classes",
        "invariants.framing_tile", "invariants.tile_contributions",
        "invariants.symmetric_enhancement", "diagram.add_positive_kink",
        "diagram.parse_diagram", "cli.run")}
    out.update({f"{name}.calls": n(f"{name}.calls") for name in (
        "algebra.check_axioms", "algebra.is_good_involution",
        "census.census_record", "labeling.enumerate_labelings",
        "invariants.rho_classes", "invariants.framing_tile",
        "invariants.tile_contributions", "diagram.add_positive_kink")})
    for key in ("algebra.check_axioms.failed", "census.enumerate_biracks.tables",
                "census.witnesses", "labeling.labelings",
                "invariants.rho_classes.labelings", "invariants.rho_classes.classes",
                "invariants.rho_classes.pair_checks", "invariants.framings"):
        out[key] = n(key)
    out["algebra.good_involution_hit_ratio"] = _ratio(
        n("algebra.is_good_involution.hits"), n("algebra.is_good_involution.calls"))
    out["census.gate_pass_ratio"] = _ratio(n("census.gate.passed"), n("census.gate.calls"))
    out["cli.run.s"] = spans.get("cli.run", {}).get("s", 0.0)
    return out
