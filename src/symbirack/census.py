"""Exhaustive census of small involutory virtual biracks, and the search
for diagram pairs that the enhancement separates but the counting
invariant does not.

The generator never guesses free table entries one by one.  Axiom (ii)
forces every operation column to be an involution, so candidate tables
are assembled from involution columns; the exchange laws then prune hard.
Each stage evaluates a subset of ``algebra.LAWS`` with the compiled
checker of ``algebra.laws_checker``:

* the virtual table must satisfy its mixed identity and exchange law 4,
  independent of the other two operations;
* for a fixed under table, exchange law 3 pins each over-table entry
  over[y][z] to the columns matching a map computable from under alone,
  which usually kills the combination before any over column is chosen;
  the pairs left must satisfy the under/over mixed identities, have a
  kink map, and satisfy axiom (i) and exchange laws 1-3.

Surviving (under, over) pairs are combined with surviving virt tables,
filtered by the three mixed exchange laws, and finally re-checked by
check_axioms, the complete axiom list, before emission.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import (
    BirackTable,
    Permutation,
    check_axioms,
    enumerate_good_involutions,
    enumerate_involutions,
    format_birack_matrix,
    is_homomorphism,
    kink0,
    laws_checker,
)
from .diagram import Diagram
from .invariants import InvariantPolynomial, framing_tile
from .labeling import _prepare, _solve

DEFAULT_ORDER_CAP = 4

Table0 = tuple[tuple[int, ...], ...]  # 0-based row-major operation table


@functools.lru_cache(maxsize=None)
def _involution_images0(n: int) -> tuple[tuple[int, ...], ...]:
    """All involutions of {0..n-1} as image tuples (shifted from algebra)."""
    return tuple(tuple(i - 1 for i in p.images) for p in enumerate_involutions(n))


def _cols_to_table(cols: Sequence[Sequence[int]]) -> Table0:
    # cols[j][i] = i op j  ->  table[i][j]
    return tuple(zip(*cols))


def _virt_candidates(n: int) -> list[Table0]:
    """Tables of involution columns passing the virt mixed identity and
    exchange law 4."""
    holds = laws_checker(("ii.mix.virt", "iii.4"))
    out = []
    for combo in itertools.product(_involution_images0(n), repeat=n):
        virt = _cols_to_table(combo)
        if holds(n, None, None, virt, None):
            out.append(virt)
    return out


def _classical_candidates(n: int) -> list[tuple[Table0, Table0]]:
    """(under, over) pairs passing the classical part of the axioms."""
    mixed = laws_checker(("ii.mix.under", "ii.mix.over"))
    exchange = laws_checker(("i.1", "iii.1", "iii.2", "iii.3"))
    invs = _involution_images0(n)
    rng = range(n)
    out = []
    for ucombo in itertools.product(invs, repeat=n):
        under = _cols_to_table(ucombo)
        # Exchange law iii.3 uses over only at over[y][z].  Substituting
        # x -> bz(x) = x under z (bz = under column z, an involution)
        # turns it into: under column j = over[y][z] equals the map
        # T_{y,z}(x) = under[under[bz(x)][y]][under[z][y]] of under alone.
        domains: dict[tuple[int, int], list[int]] = {}
        ok = True
        for y in rng:
            if not ok:
                break
            for z in rng:
                bz = ucombo[z]
                uz_y = under[z][y]
                target = tuple(under[under[bz[x]][y]][uz_y] for x in rng)
                js = [j for j in rng if ucombo[j] == target]
                if not js:
                    ok = False
                    break
                domains[(y, z)] = js
        if not ok:
            continue
        col_options = []
        for z in rng:
            opts = [p for p in invs
                    if all(p[y] in domains[(y, z)] for y in rng)]
            if not opts:
                ok = False
                break
            col_options.append(opts)
        if not ok:
            continue
        for ocombo in itertools.product(*col_options):
            over = _cols_to_table(ocombo)
            if not mixed(n, under, over, None, None):
                continue
            pi = kink0(under, over)
            if pi is not None and exchange(n, under, over, None, pi):
                out.append((under, over))
    return out


def _check_order(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("order must be positive")
    if n > cap:
        raise ValueError(f"cap exceeded: order {n} > cap {cap}")


def _pruned_triples(n: int) -> list[tuple[Table0, Table0, Table0]]:
    """(under, over, virt) tables that survive every pruning stage,
    lexicographic in the concatenated entry vector."""
    holds = laws_checker(("iii.5", "iii.6", "iii.7"))
    virts = _virt_candidates(n)
    found = [(under, over, virt)
             for under, over in _classical_candidates(n)
             for virt in virts if holds(n, under, over, virt, None)]
    found.sort(key=lambda tabs: tuple(itertools.chain.from_iterable(
        itertools.chain.from_iterable(tabs))))
    return found


def enumerate_biracks(n: int, cap: int = DEFAULT_ORDER_CAP) -> Iterator[BirackTable]:
    """Every involutory virtual birack of order n, exactly once.

    Emission order is deterministic: lexicographic in the concatenated
    entry vector (under rows, over rows, virt rows).  Every emitted table
    passes check_axioms, the final gate after the pruning stages.
    """
    _check_order(n, cap)
    for under, over, virt in _pruned_triples(n):
        table = BirackTable(
            n=n,
            under=tuple(tuple(e + 1 for e in row) for row in under),
            over=tuple(tuple(e + 1 for e in row) for row in over),
            virt=tuple(tuple(e + 1 for e in row) for row in virt),
        )
        if check_axioms(table).passed:
            yield table


@dataclass(frozen=True)
class CensusRecord:
    table: BirackTable
    good_involutions: tuple[Permutation, ...]
    characteristic: int


def census_record(table: BirackTable) -> CensusRecord:
    return CensusRecord(
        table=table,
        good_involutions=tuple(enumerate_good_involutions(table)),
        characteristic=table.characteristic,
    )


def census_records(n: int, cap: int = DEFAULT_ORDER_CAP) -> Iterator[CensusRecord]:
    """Records for all orders 1..n, in census order."""
    _check_order(n, cap)
    for order in range(1, n + 1):
        for table in enumerate_biracks(order, cap=cap):
            yield census_record(table)


def write_census(records: Iterable[CensusRecord], directory: str | Path) -> Path:
    """Write one .birack file per record plus an index file.

    Files are named by 1-based census index; index.txt lists order,
    characteristic and good-involution count per table.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index_lines = ["# index  order  characteristic  good_involutions"]
    count = 0
    for i, rec in enumerate(records, start=1):
        stem = f"{i:04d}"
        header = (f"# order {rec.table.n}, characteristic {rec.characteristic}, "
                  f"{len(rec.good_involutions)} good involutions\n")
        (directory / f"{stem}.birack").write_text(
            header + format_birack_matrix(rec.table))
        index_lines.append(
            f"{stem}  {rec.table.n}  {rec.characteristic}  {len(rec.good_involutions)}")
        count = i
    (directory / "index.txt").write_text("\n".join(index_lines) + "\n")
    return directory


def are_isomorphic(a: BirackTable, b: BirackTable) -> bool:
    """Brute-force bijection test; intended for n <= 4."""
    if a.n != b.n:
        return False
    return any(is_homomorphism(a, b, Permutation(images))
               for images in itertools.permutations(range(1, a.n + 1)))


def distinct_up_to_isomorphism(tables: Iterable[BirackTable]) -> list[BirackTable]:
    """Keep the first representative of each isomorphism class."""
    reps: list[BirackTable] = []
    for t in tables:
        if not any(are_isomorphic(t, r) for r in reps):
            reps.append(t)
    return reps


@dataclass(frozen=True)
class DistinguishingPair:
    """Witness that Phi_rho separates two diagrams Phi_Z cannot."""

    table: BirackTable
    rho: Permutation
    name_a: str
    diagram_a: Diagram
    name_b: str
    diagram_b: Diagram
    phi_z: int
    poly_a: InvariantPolynomial
    poly_b: InvariantPolynomial


def _class_sizes(values: Sequence[tuple[int, ...]], img: Sequence[int]) -> list[int]:
    """rho-class sizes over raw labeling value vectors (img = rho images)."""
    m = len(values)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        vi = values[i]
        for j in range(i + 1, m):
            vj = values[j]
            if all(b == a or b == img[a - 1] for a, b in zip(vi, vj)):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    sizes: dict[int, int] = {}
    for i in range(m):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return list(sizes.values())


def _eligible(rho: Permutation) -> bool:
    # The identity gives Phi_rho = Phi_Z * u, a function of Phi_Z alone, so
    # it can never split a Phi_Z tie.  A fixed-point-free rho stays in: its
    # value (Phi_Z / 2^c) u^(2^c) depends on the component count c and can
    # separate diagrams with equal Phi_Z but different numbers of components.
    return not rho.is_identity()


def find_distinguishing_pairs(
    records: Iterable[CensusRecord],
    corpus: Mapping[str, Diagram] | Sequence[Diagram],
    limit: int | None = None,
) -> list[DistinguishingPair]:
    """All (table, rho, diagram, diagram) with equal Phi_Z, unequal Phi_rho.

    Searches records in order; with ``limit`` set, stops as soon as that
    many witnesses are found.  Tile diagrams are prepared once per
    (diagram, characteristic) and labelings once per (record, diagram).
    """
    if isinstance(corpus, Mapping):
        named = list(corpus.items())
    else:
        named = [(d.name or f"diagram{i}", d) for i, d in enumerate(corpus)]
    witnesses: list[DistinguishingPair] = []
    prep_cache: dict[tuple[int, int], list] = {}

    for rec in records:
        rhos = [r for r in rec.good_involutions if _eligible(r)]
        if not rhos:
            continue
        table = rec.table
        per_diagram = []
        for di, (name, d) in enumerate(named):
            key = (di, rec.characteristic)
            if key not in prep_cache:
                prep_cache[key] = [_prepare(framed)
                                   for framed in framing_tile(d, table).values()]
            framings = [_solve(prep, table) for prep in prep_cache[key]]
            phi_z = sum(len(v) for v in framings)
            per_diagram.append((name, d, phi_z, framings))
        for rho in rhos:
            img = rho.images
            polys = [
                (name, d, phi_z,
                 InvariantPolynomial.from_class_sizes(
                     size for framing in framings
                     for size in _class_sizes(framing, img)))
                for name, d, phi_z, framings in per_diagram
            ]
            for (na, da, za, pa), (nb, db, zb, pb) in itertools.combinations(polys, 2):
                if za == zb and pa != pb:
                    witnesses.append(DistinguishingPair(
                        table=table, rho=rho,
                        name_a=na, diagram_a=da, name_b=nb, diagram_b=db,
                        phi_z=za, poly_a=pa, poly_b=pb))
                    if limit is not None and len(witnesses) >= limit:
                        return witnesses
    return witnesses
