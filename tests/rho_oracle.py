"""The reference rho-class partition: a union-find over all pairs of
labelings, joining two when at every semiarc their labels agree or differ
by rho.  ``rho_classes`` in ``symbirack.invariants`` must give exactly
these classes, in this order."""

from __future__ import annotations

from typing import Sequence

from symbirack.algebra import Permutation
from symbirack.labeling import Labeling


def reference_rho_classes(labelings: Sequence[Labeling],
                          r: Permutation) -> tuple[tuple[Labeling, ...], ...]:
    """Classes ordered by least index, members in input order."""
    m = len(labelings)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        vi = labelings[i].values
        for j in range(i + 1, m):
            vj = labelings[j].values
            if all(b == a or b == r(a) for a, b in zip(vi, vj)):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(labelings[i] for i in members)
                 for _, members in sorted(groups.items()))
