"""Finite involutory virtual biracks as explicit operation tables.

A birack here is a set {1, ..., n} carrying three binary operations --
``under`` (x passing under y), ``over`` (x passing over y) and ``virt``
(x passing through a virtual crossing against y) -- subject to the
involutory virtual birack axioms.  Tables are stored 1-indexed to match
the usual block-matrix presentation.

The kink map pi is never part of the input: with f(x) = x over x and
g(x) = x under x, it is defined as pi = g o f^{-1} and derived on demand.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, Union


class Permutation:
    """A bijection of {1, ..., n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. "(23)", "(12)(34)", "()".

        Inside a cycle, elements are single digits unless separated by
        spaces or commas ("(10 11)" for n > 9).
        """
        text = text.strip()
        if not text:
            raise ValueError("empty permutation string")
        images = list(range(1, n + 1))
        seen: set[int] = set()
        pos = 0
        while pos < len(text):
            if text[pos] != "(":
                raise ValueError(f"expected '(' at position {pos} in {text!r}")
            end = text.find(")", pos)
            if end < 0:
                raise ValueError(f"unbalanced '(' in {text!r}")
            body = text[pos + 1:end].strip()
            pos = end + 1
            if not body:
                continue  # "()" contributes nothing
            if "," in body or " " in body:
                tokens = body.replace(",", " ").split()
            else:
                tokens = list(body)
            try:
                cycle = [int(tok) for tok in tokens]
            except ValueError:
                raise ValueError(f"bad cycle element in {text!r}") from None
            for el in cycle:
                if not 1 <= el <= n:
                    raise ValueError(f"cycle element {el} out of 1..{n}")
                if el in seen:
                    raise ValueError(f"element {el} repeated in {text!r}")
                seen.add(el)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        if pos != len(text):
            raise ValueError(f"trailing input in {text!r}")
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) = p(q(x))
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.images[i - 1] for i in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def order(self) -> int:
        k, p = 1, self
        ident = Permutation.identity(self.n)
        while p != ident:
            p = p * self
            k += 1
        return k

    def is_involution(self) -> bool:
        return all(self.images[img - 1] == i
                   for i, img in enumerate(self.images, start=1))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, img in enumerate(self.images, start=1) if img == i)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, least element first, sorted by least element."""
        out = []
        seen: set[int] = set()
        for start in range(1, self.n + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start - 1]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x - 1]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        sep = "" if self.n <= 9 else " "
        return "".join("(" + sep.join(str(e) for e in cyc) + ")" for cyc in cycs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r} on 1..{self.n})"


class Violation(NamedTuple):
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.passed:
            return "all axioms hold"
        return "; ".join(f"{v.axiom} fails at {v.witness}" for v in self.violations)


Row = tuple[int, ...]
Table = tuple[Row, ...]


def _as_table(rows: Iterable[Iterable[int]], n: int, what: str) -> Table:
    table = tuple(map(tuple, rows))
    if len(table) != n or any(len(r) != n for r in table):
        raise ValueError(f"{what} table is not {n}x{n}")
    if min(map(min, table)) < 1 or max(map(max, table)) > n:
        raise ValueError(f"{what} table entry out of 1..{n}")
    return table


@dataclass(frozen=True)
class BirackTable:
    """Operation tables of a candidate involutory virtual birack.

    ``under[i-1][j-1]`` is x_i under x_j, and similarly for over/virt.
    Construction validates shape and entry range only; run check_axioms
    for the algebra axioms.  The kink map and characteristic are derived
    lazily and cached.
    """

    n: int
    under: Table
    over: Table
    virt: Table

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be positive")
        for name in ("under", "over", "virt"):
            object.__setattr__(self, name, _as_table(getattr(self, name), self.n, name))

    @functools.cached_property
    def kink(self) -> Permutation:
        # pi = g o f^{-1} exists iff both diagonals are bijections
        f = [self.over[x][x] for x in range(self.n)]
        if len(set(f)) != self.n:
            raise ValueError("no kink map: x -> x over x is not a bijection")
        g = [self.under[x][x] for x in range(self.n)]
        if len(set(g)) != self.n:
            raise ValueError("no kink map: x -> x under x is not a bijection")
        finv = {fx: x for x, fx in enumerate(f)}
        return Permutation(g[finv[x]] for x in range(1, self.n + 1))

    @functools.cached_property
    def characteristic(self) -> int:
        return self.kink.order()

    def operation(self, name: str) -> Callable[[int, int], int]:
        """1-indexed operation x * y for name in {"under", "over", "virt"}."""
        table = getattr(self, name)
        return lambda x, y: table[x - 1][y - 1]


def parse_birack_matrix(text: str) -> BirackTable:
    """Parse the n x 3n block-matrix file format (under | over | virt).

    Lines starting with '#' and blank lines are ignored; the remaining n
    lines must each hold 3n integers in 1..n.
    """
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in stripped.split()])
        except ValueError:
            raise ValueError(f"malformed matrix: non-integer token in line {line!r}") from None
    n = len(rows)
    if n == 0:
        raise ValueError("malformed matrix: no rows")
    if any(len(r) != 3 * n for r in rows):
        raise ValueError(f"malformed matrix: expected {n} rows of {3 * n} entries")
    if any(not 1 <= e <= n for r in rows for e in r):
        raise ValueError(f"malformed matrix: entry out of 1..{n}")
    return BirackTable(
        n=n,
        under=tuple(tuple(r[:n]) for r in rows),
        over=tuple(tuple(r[n:2 * n]) for r in rows),
        virt=tuple(tuple(r[2 * n:]) for r in rows),
    )


def format_birack_matrix(t: BirackTable) -> str:
    """Inverse of parse_birack_matrix (no comments, two spaces between blocks)."""
    lines = []
    for i in range(t.n):
        lines.append("  ".join(" ".join(map(str, block[i])) for block in (t.under, t.over, t.virt)))
    return "\n".join(lines) + "\n"


def kink_map(t: BirackTable) -> Permutation:
    """pi = g o f^{-1} with f(x) = x over x, g(x) = x under x."""
    return t.kink


def characteristic(t: BirackTable) -> int:
    """Order of the kink map: least N >= 1 with pi^N = Id."""
    return t.characteristic


# ---------------------------------------------------------------------------
# the axioms, written once as data


Term = Union[str, tuple]  # a variable, ("pi", term) or (operation, term, term)


class Law(NamedTuple):
    """One axiom family as an identity of terms over 0-based tables.

    An "equation" holds when ``left == right`` at every assignment of
    ``variables``; a "bijection" holds when the map from assignments to
    ``(left, right)`` is injective, hence bijective on the finite set.
    Terms apply ``under``, ``over`` and ``virt`` to two terms and ``pi``
    to one.
    """

    family: str
    variables: str
    left: Term
    right: Term
    kind: str = "equation"


def _laws() -> tuple[Law, ...]:
    x, y, z = "x", "y", "z"

    def u(a, b):
        return ("under", a, b)

    def o(a, b):
        return ("over", a, b)

    def v(a, b):
        return ("virt", a, b)

    def p(a):
        return ("pi", a)

    return (
        Law("i.1", "x", o(p(x), x), u(x, p(x))),
        Law("i.2", "x", p(o(x, x)), u(x, x)),
        # every column map is an involution
        Law("ii.inv.under", "xy", u(u(x, y), y), x),
        Law("ii.inv.over", "xy", o(o(x, y), y), x),
        Law("ii.inv.virt", "xy", v(v(x, y), y), x),
        # the other strand may be taken before or after its own passage
        # through the crossing
        Law("ii.mix.under", "xy", u(x, y), u(x, o(y, x))),
        Law("ii.mix.over", "xy", o(x, y), o(x, u(y, x))),
        Law("ii.mix.virt", "xy", v(x, y), v(x, v(y, x))),
        # the sideways maps S(x,y) = (y over x, x under y) and
        # V(x,y) = (y virt x, x virt y)
        Law("ii.S", "xy", o(y, x), u(x, y), "bijection"),
        Law("ii.V", "xy", v(y, x), v(x, y), "bijection"),
        Law("iii.1", "xyz", o(o(x, y), o(z, y)), o(o(x, z), u(y, z))),
        Law("iii.2", "xyz", u(o(x, y), o(z, y)), o(u(x, z), u(y, z))),
        Law("iii.3", "xyz", u(u(x, y), u(z, y)), u(u(x, z), o(y, z))),
        Law("iii.4", "xyz", v(v(x, y), v(z, y)), v(v(x, z), v(y, z))),
        Law("iii.5", "xyz", v(o(x, y), v(z, y)), o(v(x, z), v(y, z))),
        Law("iii.6", "xyz", v(v(x, y), o(z, y)), v(v(x, z), u(y, z))),
        Law("iii.7", "xyz", v(u(x, y), v(z, y)), u(v(x, z), v(y, z))),
    )


LAWS = _laws()
_LAW = {law.family: law for law in LAWS}

# Axiom families checked by check_axioms, in report order.  Witnesses are
# lexicographically first; at most one witness survives per family.
AXIOM_FAMILIES = ("kink-map",) + tuple(_LAW)


def _uses_pi(term: Term) -> bool:
    return isinstance(term, tuple) and (
        term[0] == "pi" or any(_uses_pi(a) for a in term[1:]))


@functools.lru_cache(maxsize=None)
def laws_checker(families: tuple[str, ...]) -> Callable[..., bool]:
    """Compiled test ``(n, u, o, v, p) -> bool`` that every law of
    ``families`` holds; tables are 0-based rows, p the 0-based kink map
    (unused unless a family needs it).  Compiled on first use."""
    from .kernel import compile_laws  # on first use, out of the package's import time
    return compile_laws([_LAW[family] for family in families], witness=False)


@functools.lru_cache(maxsize=None)
def _witness_finder(family: str) -> Callable[..., tuple[int, ...] | None]:
    from .kernel import compile_laws
    return compile_laws([_LAW[family]], witness=True)


def kink0(under: Sequence[Sequence[int]], over: Sequence[Sequence[int]]) -> list[int] | None:
    """Kink map pi = g o f^{-1} of 0-based tables, or None when
    f(x) = x over x or g(x) = x under x is not a bijection."""
    n = len(over)
    f = [over[x][x] for x in range(n)]
    g = [under[x][x] for x in range(n)]
    if len(set(f)) != n or len(set(g)) != n:
        return None
    pi = [0] * n
    for x in range(n):
        pi[f[x]] = g[x]
    return pi


def check_axioms(t: BirackTable) -> AxiomReport:
    """Exhaustively verify all involutory virtual birack axioms.

    Checks, in order: existence of the kink map (both diagonals x over x
    and x under x must be bijections), then every law of ``LAWS``; laws
    involving pi are skipped when it does not exist.  A table passing
    every law at once is reported without a search for witnesses.
    """
    n = t.n
    u, o, v = ([[e - 1 for e in row] for row in table]
               for table in (t.under, t.over, t.virt))
    p = kink0(u, o)
    if p is not None and laws_checker(tuple(_LAW))(n, u, o, v, p):
        return AxiomReport(())
    violations: list[Violation] = []
    if p is None:
        for diag in ([o[x][x] for x in range(n)], [u[x][x] for x in range(n)]):
            if len(set(diag)) != n:
                violations.append(Violation("kink-map", next(
                    (x1 + 1, x2 + 1) for x1, x2 in itertools.combinations(range(n), 2)
                    if diag[x1] == diag[x2])))
                break
    for law in LAWS:
        if p is None and (_uses_pi(law.left) or _uses_pi(law.right)):
            continue
        hit = _witness_finder(law.family)(n, u, o, v, p)
        if hit is not None:
            violations.append(Violation(law.family, hit))
    return AxiomReport(tuple(violations))


def _column_kinds(rows: Sequence[Row]) -> tuple[int, ...]:
    """Each column y of the stacked tables, named by its first equal column."""
    columns = list(zip(*rows))
    return tuple(columns.index(col) for col in columns)


def _keeps_columns(kinds: Sequence[int], images: Sequence[int]) -> bool:
    # x*r(y) = x*y for every operation: columns y and r(y) are equal in
    # all three tables
    return all(kinds[i - 1] == k for i, k in zip(images, kinds))


def _maps_rows(entries: tuple[int, ...], images: tuple[int, ...]) -> bool:
    # r(x*y) = r(x)*y for every operation: the stacked tables, entries
    # mapped by r, equal the stacked tables with rows permuted by r
    look, permute = _row_maps(images)
    return operator.itemgetter(*entries)(look) == permute(entries)


@functools.lru_cache(maxsize=4096)
def _row_maps(images: tuple[int, ...]) -> tuple[tuple[int, ...], Callable]:
    """r as a 1-based lookup, and the map taking the entries of three
    stacked n x n tables to the same entries with row x of each table
    replaced by row r(x)."""
    n = len(images)
    return (0,) + images, operator.itemgetter(*(
        (block + i - 1) * n + y for block in range(0, 3 * n, n)
        for i in images for y in range(n)))


def is_good_involution(t: BirackTable, r: Permutation) -> bool:
    """True iff r^2 = Id, r(x)*y = r(x*y) and x*r(y) = x*y for all ops."""
    if r.n != t.n:
        raise ValueError(f"permutation size {r.n} != table order {t.n}")
    rows = t.under + t.over + t.virt
    return (r.is_involution() and _keeps_columns(_column_kinds(rows), r.images)
            and _maps_rows(tuple(itertools.chain.from_iterable(rows)), r.images))


@functools.lru_cache(maxsize=None)
def _involutions(n: int) -> tuple[Permutation, ...]:
    if n > 10:
        raise ValueError("involution enumeration capped at n = 10")
    results: list[Permutation] = []

    def build(images: dict[int, int]) -> None:
        free = [x for x in range(1, n + 1) if x not in images]
        if not free:
            results.append(Permutation(images[x] for x in range(1, n + 1)))
            return
        x = free[0]
        images[x] = x
        build(images)
        del images[x]
        for y in free[1:]:
            images[x], images[y] = y, x
            build(images)
            del images[x], images[y]

    build({})
    results.sort(key=lambda p: p.cycle_string())
    return tuple(results)


@functools.lru_cache(maxsize=None)
def _involutions_keeping(kinds: tuple[int, ...]) -> tuple[Permutation, ...]:
    return tuple(r for r in _involutions(len(kinds)) if _keeps_columns(kinds, r.images))


def enumerate_involutions(n: int) -> list[Permutation]:
    """All involutions of {1..n} (identity included), in cycle-string order.

    Cycle-string order puts the identity "()" first, then "(12)", "(12)(34)",
    "(13)", ...; the count follows T(n) = T(n-1) + (n-1) T(n-2).
    """
    return list(_involutions(n))


def enumerate_good_involutions(t: BirackTable) -> list[Permutation]:
    """All good involutions of a verified table, in cycle-string order.

    Only the involutions that keep every column are tested row by row;
    they depend on the table only through which columns are equal.
    """
    rows = t.under + t.over + t.virt
    entries = tuple(itertools.chain.from_iterable(rows))
    return [r for r in _involutions_keeping(_column_kinds(rows))
            if _maps_rows(entries, r.images)]


def is_homomorphism(src: BirackTable, dst: BirackTable,
                    mapping: Permutation | Sequence[int]) -> bool:
    """True iff f(x * y) = f(x) * f(y) for all pairs and all three operations."""
    images = mapping.images if isinstance(mapping, Permutation) else tuple(mapping)
    if len(images) != src.n:
        raise ValueError(f"map must assign images to all of 1..{src.n}")
    if any(not 1 <= img <= dst.n for img in images):
        raise ValueError("map image out of range")

    def f(x: int) -> int:
        return images[x - 1]

    rng = range(1, src.n + 1)
    for name in ("under", "over", "virt"):
        op_s, op_d = src.operation(name), dst.operation(name)
        if any(f(op_s(x, y)) != op_d(f(x), f(y)) for x in rng for y in rng):
            return False
    return True


# ---------------------------------------------------------------------------
# constructors


def trivial_birack(n: int) -> BirackTable:
    """x * y = x for all three operations; every axiom reduces to x = x."""
    rows = tuple(tuple(x for _ in range(n)) for x in range(1, n + 1))
    return BirackTable(n=n, under=rows, over=rows, virt=rows)


def _group_inverses(mult: Table, n: int) -> tuple[int, list[int]]:
    """Validate group axioms on a 1-indexed multiplication table."""
    rng = range(1, n + 1)
    identity = None
    for e in rng:
        if all(mult[e - 1][x - 1] == x and mult[x - 1][e - 1] == x for x in rng):
            identity = e
            break
    if identity is None:
        raise ValueError("not a group: no identity element")
    for x in rng:
        for y in rng:
            for z in rng:
                if mult[mult[x - 1][y - 1] - 1][z - 1] != mult[x - 1][mult[y - 1][z - 1] - 1]:
                    raise ValueError(f"not a group: associativity fails at ({x},{y},{z})")
    inv = [0] * (n + 1)
    for x in rng:
        for y in rng:
            if mult[x - 1][y - 1] == identity and mult[y - 1][x - 1] == identity:
                inv[x] = y
                break
        else:
            raise ValueError(f"not a group: {x} has no inverse")
    return identity, inv


def core_quandle(group_table: Sequence[Sequence[int]]) -> BirackTable:
    """Core quandle of a finite group: x under y = y x^{-1} y, over = virt = x."""
    mult = tuple(tuple(r) for r in group_table)
    n = len(mult)
    mult = _as_table(mult, n, "group")
    _, inv = _group_inverses(mult, n)
    under = tuple(
        tuple(mult[y - 1][mult[inv[x] - 1][y - 1] - 1] for y in range(1, n + 1))
        for x in range(1, n + 1)
    )
    ident_rows = tuple(tuple(x for _ in range(n)) for x in range(1, n + 1))
    return BirackTable(n=n, under=under, over=ident_rows, virt=ident_rows)


def alexander_bikei(m: int, t: int, s: int, v: int) -> BirackTable:
    """Virtual Alexander bikei on Z_m: x under y = tx + (1-st)y, over = sx, virt = vx.

    The parameters must satisfy the ring relations t^2 = s^2 = v^2 = 1 and
    1 - s + t - st = 0 mod m.  Element i encodes the residue i - 1.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    t, s, v = t % m, s % m, v % m
    for name, val in (("t", t), ("s", s), ("v", v)):
        if (val * val - 1) % m:
            raise ValueError(f"{name}^2 = {(val * val) % m} != 1 (mod {m})")
    if (1 - s + t - s * t) % m:
        raise ValueError(f"1 - s + t - st = {(1 - s + t - s * t) % m} != 0 (mod {m})")
    res = range(m)
    under = tuple(tuple((t * x + (1 - s * t) * y) % m + 1 for y in res) for x in res)
    over = tuple(tuple((s * x) % m + 1 for _ in res) for x in res)
    virt = tuple(tuple((v * x) % m + 1 for _ in res) for x in res)
    return BirackTable(n=m, under=under, over=over, virt=virt)


def constant_action(sigma: Permutation, tau: Permutation, nu: Permutation) -> BirackTable:
    """Constant action birack: x under y = sigma(x), over y = tau(x), virt y = nu(x).

    Requires sigma, tau, nu to be pairwise commuting involutions; the kink
    map is then tau^{-1} sigma.
    """
    n = sigma.n
    if tau.n != n or nu.n != n:
        raise ValueError("sigma, tau, nu must act on the same set")
    for name, p in (("sigma", sigma), ("tau", tau), ("nu", nu)):
        if not p.is_involution():
            raise ValueError(f"{name} is not an involution")
    for (na, a), (nb, b) in itertools.combinations(
            (("sigma", sigma), ("tau", tau), ("nu", nu)), 2):
        if a * b != b * a:
            raise ValueError(f"{na} and {nb} do not commute")
    return BirackTable(
        n=n,
        under=tuple(tuple(sigma(x) for _ in range(n)) for x in range(1, n + 1)),
        over=tuple(tuple(tau(x) for _ in range(n)) for x in range(1, n + 1)),
        virt=tuple(tuple(nu(x) for _ in range(n)) for x in range(1, n + 1)),
    )
