"""Enumerate birack labelings of a diagram.

A labeling assigns an element of the birack to every semiarc so that at
each classical crossing ``under_out = under_in under over_in`` and
``over_out = over_in over under_in``, and at each virtual crossing
``a_out = a_in virt b_in`` and ``b_out = b_in virt a_in``.  One relation
convention serves both crossing signs: for involutory biracks the
inverse-crossing relations coincide with the direct ones (a consequence
of axiom (ii) that the test suite checks rather than assumes).

Propagation is planned once per diagram.  Each free step takes the
unknown input of the first crossing (in crossing order) whose other input
is already known, so that crossing fires at once; only when no crossing
has exactly one known input does the step take the next undetermined
semiarc in strand-traversal order.  The crossings whose inputs the free
semiarc completes, directly or through the outputs they set, follow it
as ops that set or check one output each.  Which semiarcs a choice
determines does not depend on the values, so the search only tries every
value of each step's free semiarc and runs the step's ops.  Every
complete assignment is re-checked against all relations.  A raw
brute-force enumerator over all n^semiarcs assignments serves as oracle.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .algebra import BirackTable
from .diagram import Diagram

DEFAULT_BRUTE_FORCE_CAP = 10 ** 7


@dataclass(frozen=True)
class Labeling:
    """Total assignment semiarc -> element (values 1-based, aligned slots)."""

    semiarcs: tuple[str, ...]
    values: tuple[int, ...]

    def __getitem__(self, semiarc: str) -> int:
        return self.values[self.semiarcs.index(semiarc)]

    @property
    def assignment(self) -> dict[str, int]:
        return dict(zip(self.semiarcs, self.values))

    def lines(self) -> list[str]:
        """"semiarc=element" lines sorted by semiarc name."""
        return [f"{s}={v}" for s, v in sorted(self.assignment.items())]


class _Prepared(NamedTuple):
    """Diagram preprocessed for labeling enumeration (all 0-based)."""

    arcs: tuple[str, ...]
    # per crossing: input slots, output slots, classical flag
    cons: tuple[tuple[int, int, int, int, bool], ...]
    # per step: a free arc, then ops (output, table, input, input, output
    # is new), table 0/1/2 = under/over/virt; each crossing fires once
    plan: tuple[tuple[int, tuple[tuple[int, int, int, int, bool], ...]], ...]
    sort_positions: tuple[int, ...]     # arc indices in sorted-name order


def _prepare(d: Diagram) -> _Prepared:
    arcs = d.semiarcs
    index = {s: i for i, s in enumerate(arcs)}
    cons = tuple(
        (index[c.in1], index[c.in2], index[c.out1], index[c.out2], c.is_classical)
        for c in d.crossings
    )
    known = [False] * len(arcs)
    waiting = list(cons)  # crossings not yet fired
    traversal = [index[s] for comp in d.components for s in comp]
    plan = []
    while True:
        # the unknown input of the first crossing with one known input, so
        # that crossing fires; else the next unknown arc along the strands
        arc = next(itertools.chain(
            (i2 if known[i1] else i1 for i1, i2, *_ in waiting if known[i1] != known[i2]),
            (a for a in traversal if not known[a])), None)
        if arc is None:
            break
        known[arc] = True
        ops = []
        while ready := next((c for c in waiting if known[c[0]] and known[c[1]]), ()):
            waiting.remove(ready)
            i1, i2, o1, o2, classical = ready
            t1, t2 = (0, 1) if classical else (2, 2)
            for o, table, a, b in ((o1, t1, i1, i2), (o2, t2, i2, i1)):
                ops.append((o, table, a, b, not known[o]))
                known[o] = True
        plan.append((arc, tuple(ops)))
    sort_positions = tuple(index[s] for s in sorted(arcs))
    return _Prepared(arcs, cons, tuple(plan), sort_positions)


def _satisfies(values: tuple[int, ...], prep: _Prepared, t: BirackTable) -> bool:
    under, over, virt = t.under, t.over, t.virt
    for i1, i2, o1, o2, classical in prep.cons:
        t1, t2 = (under, over) if classical else (virt, virt)
        if values[o1] != t1[values[i1] - 1][values[i2] - 1]:
            return False
        if values[o2] != t2[values[i2] - 1][values[i1] - 1]:
            return False
    return True


def _solve(prep: _Prepared, t: BirackTable) -> list[tuple[int, ...]]:
    """All satisfying value vectors (1-based), sorted lexicographically in
    sorted-semiarc-name order."""
    n = t.n
    tables = (t.under, t.over, t.virt)
    plan = prep.plan
    # the plan reads an arc only after the current path has set it, so
    # values left over from an abandoned branch are never read
    values = [0] * len(prep.arcs)
    found: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == len(plan):
            found.append(tuple(values))
            return
        arc, ops = plan[k]
        for val in range(1, n + 1):
            values[arc] = val
            for o, table, a, b, new in ops:
                w = tables[table][values[a] - 1][values[b] - 1]
                if new:
                    values[o] = w
                elif values[o] != w:
                    break
            else:
                extend(k + 1)

    extend(0)
    # soundness re-check is independent of the plan
    results = [v for v in found if _satisfies(v, prep, t)]
    results.sort(key=operator.itemgetter(*prep.sort_positions))
    return results


def enumerate_labelings(d: Diagram, t: BirackTable) -> list[Labeling]:
    """All X-labelings of d, in lexicographic (sorted semiarc name) order."""
    prep = _prepare(d)
    return [Labeling(prep.arcs, v) for v in _solve(prep, t)]


def brute_force_labelings(d: Diagram, t: BirackTable,
                          cap: int = DEFAULT_BRUTE_FORCE_CAP) -> list[Labeling]:
    """Oracle: filter all n^semiarcs assignments by the crossing relations.

    Refuses to enumerate more than ``cap`` assignments.
    """
    prep = _prepare(d)
    k = len(prep.arcs)
    if t.n ** k > cap:
        raise ValueError(f"cap exceeded: {t.n}^{k} > {cap}")
    results = [
        values
        for values in itertools.product(range(1, t.n + 1), repeat=k)
        if _satisfies(values, prep, t)
    ]
    results.sort(key=lambda v: tuple(v[i] for i in prep.sort_positions))
    return [Labeling(prep.arcs, v) for v in results]


def labeling_count(d: Diagram, t: BirackTable) -> int:
    return len(_solve(_prepare(d), t))
