"""The reference mixed-exchange stage: every surviving (under, over) pair
is combined with every surviving virt table, and the three mixed exchange
laws iii.5-iii.7 are tested together on each combination.
``_pruned_triples`` in ``symbirack.census`` must give exactly these
triples, in this order."""

from __future__ import annotations

import itertools

from symbirack.algebra import laws_checker
from symbirack.census import Table0, _classical_candidates, _virt_candidates


def reference_pruned_triples(n: int) -> list[tuple[Table0, Table0, Table0]]:
    """Lexicographic in the concatenated entry vector."""
    holds = laws_checker(("iii.5", "iii.6", "iii.7"))
    virts = _virt_candidates(n)
    found = [(under, over, virt)
             for under, over in _classical_candidates(n)
             for virt in virts if holds(n, under, over, virt, None)]
    found.sort(key=lambda tabs: tuple(itertools.chain.from_iterable(
        itertools.chain.from_iterable(tabs))))
    return found
