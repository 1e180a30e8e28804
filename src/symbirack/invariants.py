"""The framing tile, the counting invariant and its symmetric enhancement.

Labeling counts of a framed diagram depend on the framing vector only
mod N (N = birack characteristic), so summing over one tile of framings
Z_N^c gives an invariant of the unframed link: the integral counting
invariant Phi_Z.  A good involution rho partitions each framing's
labelings into rho-equivalence classes; recording class sizes as
exponents gives the enhancement polynomial Phi_rho = sum u^{|class|}.

Phi_rho refines Phi_Z: every class of size k accounts for k labelings,
so the weighted evaluation sum(coeff * exp) recovers Phi_Z.  (Plain
substitution of u = 1 counts classes instead.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import BirackTable, Permutation, is_good_involution
from .diagram import Diagram, add_positive_kink
from .labeling import Labeling, enumerate_labelings

FramingVector = tuple[int, ...]


@dataclass(frozen=True)
class InvariantPolynomial:
    """Nonnegative-integer combination of powers of u, exponents >= 1.

    ``terms`` holds (exponent, coefficient) pairs, ascending, no zeros.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        agg: dict[int, int] = {}
        for exp, coeff in self.terms:
            if exp < 1:
                raise ValueError(f"exponent {exp} < 1")
            if coeff < 0:
                raise ValueError(f"negative coefficient {coeff}")
            if coeff:
                agg[exp] = agg.get(exp, 0) + coeff
        object.__setattr__(self, "terms", tuple(sorted(agg.items())))

    @classmethod
    def from_dict(cls, terms: Mapping[int, int]) -> "InvariantPolynomial":
        return cls(tuple(terms.items()))

    @classmethod
    def from_class_sizes(cls, sizes: Iterable[int]) -> "InvariantPolynomial":
        agg: dict[int, int] = {}
        for size in sizes:
            agg[size] = agg.get(size, 0) + 1
        return cls.from_dict(agg)

    def __add__(self, other: "InvariantPolynomial") -> "InvariantPolynomial":
        return InvariantPolynomial(self.terms + other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def evaluate(self, u: int) -> int:
        return sum(coeff * u ** exp for exp, coeff in self.terms)

    def labeling_mass(self) -> int:
        """Total labelings represented: sum of coeff * exponent.

        Each class of size k contributes the term u^k and stands for k
        labelings, so this weighted count recovers the counting invariant.
        """
        return sum(coeff * exp for exp, coeff in self.terms)

    def __str__(self) -> str:
        return format_polynomial(self)


def format_polynomial(p: InvariantPolynomial) -> str:
    """Ascending exponents; "u" for exponent 1; unit coefficients dropped."""
    if not p.terms:
        return "0"
    parts = []
    for exp, coeff in p.terms:
        u = "u" if exp == 1 else f"u^{exp}"
        parts.append(u if coeff == 1 else f"{coeff}{u}")
    return "+".join(parts)


def format_framing(w: FramingVector) -> str:
    return "(" + ",".join(str(e) for e in w) + ")"


@dataclass(frozen=True)
class RhoPartition:
    """rho-equivalence classes of a labeling set, ordered by least member."""

    classes: tuple[tuple[Labeling, ...], ...]

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def polynomial(self) -> InvariantPolynomial:
        return InvariantPolynomial.from_class_sizes(self.class_sizes)


def orbit_key(r: Permutation) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Map a labeling's values to its rho-class key; r must be an involution.

    For an involution, labels a and b agree or differ by r exactly when
    min(a, r(a)) == min(b, r(b)), so two labelings are rho-equivalent
    exactly when their keys are equal.
    """
    if not r.is_involution():
        raise ValueError(f"{r.cycle_string()} is not an involution")
    canon = (0, *(min(a, b) for a, b in enumerate(r.images, start=1)))
    return lambda values: tuple(map(canon.__getitem__, values))


def rho_classes(labelings: Sequence[Labeling], r: Permutation) -> RhoPartition:
    """Partition labelings into rho-equivalence classes.

    Two labelings are equivalent when at every semiarc their labels agree
    or differ by r (obtained by applying r to a subset of the labels; the
    caller must pass a good involution of the producing table for the
    classes to have invariant meaning).  Raises ValueError when r is not
    an involution.
    """
    key = orbit_key(r)
    groups: dict[tuple[int, ...], list[Labeling]] = {}
    for lab in labelings:
        groups.setdefault(key(lab.values), []).append(lab)
    # classes come out in the order of their first members; labelings
    # arrive sorted, so that orders them by least member
    return RhoPartition(tuple(map(tuple, groups.values())))


def framing_tile(d: Diagram, t: BirackTable) -> dict[FramingVector, Diagram]:
    """One diagram per framing vector in Z_N^c.

    The entry at w carries ((w_k - v_k) mod N) extra positive kinks on
    component k, where v is the self-writhe of d; at w = v mod N the
    entry is d itself.
    """
    n_char = t.characteristic
    v = [wk % n_char for wk in d.self_writhe]
    # kink insertion can reorder component indices (a kinked free loop
    # stops being one), so track each target component by a member semiarc
    anchors = [min(comp) for comp in d.components]
    tile: dict[FramingVector, Diagram] = {}
    for w in itertools.product(range(n_char), repeat=len(v)):
        framed = d
        for anchor, wk, vk in zip(anchors, w, v):
            for _ in range((wk - vk) % n_char):
                framed = add_positive_kink(framed, framed.component_of[anchor])
        tile[w] = framed
    return tile


def counting_invariant(d: Diagram, t: BirackTable) -> int:
    """Phi_Z: total number of labelings over the framing tile."""
    return sum(len(enumerate_labelings(framed, t))
               for framed in framing_tile(d, t).values())


@dataclass(frozen=True)
class TileEntry:
    framing: FramingVector
    diagram: Diagram
    labelings: tuple[Labeling, ...]
    partition: RhoPartition

    @property
    def polynomial(self) -> InvariantPolynomial:
        return self.partition.polynomial()


def tile_contributions(d: Diagram, t: BirackTable, r: Permutation) -> list[TileEntry]:
    """Per-framing labelings and rho-partitions; r must be a good involution."""
    if not is_good_involution(t, r):
        raise ValueError(f"{r.cycle_string()} is not a good involution of this table")
    entries = []
    for w, framed in framing_tile(d, t).items():
        labelings = tuple(enumerate_labelings(framed, t))
        entries.append(TileEntry(w, framed, labelings, rho_classes(labelings, r)))
    return entries


def symmetric_enhancement(d: Diagram, t: BirackTable, r: Permutation) -> InvariantPolynomial:
    """Phi_rho: sum of u^{class size} over rho-classes over the tile."""
    total = InvariantPolynomial()
    for entry in tile_contributions(d, t, r):
        total = total + entry.polynomial
    return total
