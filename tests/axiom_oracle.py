"""The reference axiom checker: every law written out with lambdas over
1-based operations and searched in plain loops.  ``check_axioms`` in
``symbirack.algebra`` must report exactly what this one reports."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from symbirack.algebra import AxiomReport, BirackTable, Violation


def reference_check_axioms(t: BirackTable) -> AxiomReport:
    n = t.n
    rng = range(1, n + 1)
    under = t.operation("under")
    over = t.operation("over")
    virt = t.operation("virt")
    violations: list[Violation] = []

    def first(axiom: str, witnesses: Iterator[tuple[int, ...]]) -> None:
        hit = next(witnesses, None)
        if hit is not None:
            violations.append(Violation(axiom, hit))

    try:
        pi = t.kink
    except ValueError:
        for diag in ([over(x, x) for x in rng], [under(x, x) for x in rng]):
            if len(set(diag)) != n:
                first("kink-map", ((x1, x2) for x1 in rng for x2 in rng
                                   if x1 < x2 and diag[x1 - 1] == diag[x2 - 1]))
                break
    else:
        first("i.1", ((x,) for x in rng if over(pi(x), x) != under(x, pi(x))))
        first("i.2", ((x,) for x in rng if pi(over(x, x)) != under(x, x)))

    for name, op in (("under", under), ("over", over), ("virt", virt)):
        first(f"ii.inv.{name}", ((x, y) for x in rng for y in rng
                                 if op(op(x, y), y) != x))

    first("ii.mix.under", ((x, y) for x in rng for y in rng
                           if under(x, y) != under(x, over(y, x))))
    first("ii.mix.over", ((x, y) for x in rng for y in rng
                          if over(x, y) != over(x, under(y, x))))
    first("ii.mix.virt", ((x, y) for x in rng for y in rng
                          if virt(x, y) != virt(x, virt(y, x))))

    def pair_map_witness(pm: Callable[[int, int], tuple[int, int]]) -> Iterator[tuple[int, ...]]:
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for x in rng:
            for y in rng:
                img = pm(x, y)
                if img in seen:
                    yield (x, y)
                    return
                seen[img] = (x, y)

    first("ii.S", pair_map_witness(lambda x, y: (over(y, x), under(x, y))))
    first("ii.V", pair_map_witness(lambda x, y: (virt(y, x), virt(x, y))))

    exchange_laws: Sequence[tuple[str, Callable[[int, int, int], bool]]] = (
        ("iii.1", lambda x, y, z: over(over(x, y), over(z, y)) == over(over(x, z), under(y, z))),
        ("iii.2", lambda x, y, z: under(over(x, y), over(z, y)) == over(under(x, z), under(y, z))),
        ("iii.3", lambda x, y, z: under(under(x, y), under(z, y)) == under(under(x, z), over(y, z))),
        ("iii.4", lambda x, y, z: virt(virt(x, y), virt(z, y)) == virt(virt(x, z), virt(y, z))),
        ("iii.5", lambda x, y, z: virt(over(x, y), virt(z, y)) == over(virt(x, z), virt(y, z))),
        ("iii.6", lambda x, y, z: virt(virt(x, y), over(z, y)) == virt(virt(x, z), under(y, z))),
        ("iii.7", lambda x, y, z: virt(under(x, y), virt(z, y)) == under(virt(x, z), virt(y, z))),
    )
    for axiom, law in exchange_laws:
        first(axiom, ((x, y, z) for x in rng for y in rng for z in rng
                      if not law(x, y, z)))

    return AxiomReport(tuple(violations))
