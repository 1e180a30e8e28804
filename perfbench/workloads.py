"""The three benchmark workloads and the seeded enhance-mix generator.

Every workload is a list of ``symbirack`` command lines that one fresh
interpreter runs in turn, one at a time, on one thread (a closed loop
with a single client).  Why each workload exists:

* ``census4`` -- the paper's census, ``census 4`` into an empty
  directory: 17,439 tables over orders 1..4.  It stresses the census
  pruning stages, the axiom gate, good-involution search and file
  writes, and does no labeling work at all.  It is the workload that
  shows axiom-kernel and good-involution changes; enhance-mix bypasses
  both and should not move.
* ``distinguish4-head`` -- the first 2,000 witnesses of
  ``distinguish 4``.  The full search takes minutes; its head keeps the
  same mix of many small labeling solves over the builtin diagrams plus
  the pairwise rho-class sizing.  It shows changes to the solver on
  small diagrams and to the distinguishing search.
* ``enhance-mix`` -- seeded ``enhance TABLE DIAGRAM --rho R`` queries
  over the three packaged tables, after one fixed small query.  Half of
  the work is *deep* queries (5-7 crossings, 1-2 components), where the
  labeling solver dominates.  Half is *wide* queries (2-3 crossings
  plus 1-2 free loops, 3-4 components), where up to hundreds of
  labelings per framing and 2^c framings make rho-classes and the
  framing tile dominate.  It shows
  rho-class and framing changes, which census4 bypasses, and it weighs
  few deep solves against distinguish4-head's many small ones.

The generator knows nothing of the program.  It parses the packaged
tables itself, finds kink maps and good involutions from their
definitions, and solves every framed diagram with its own solver, which
groups the labelings into rho-classes by orbit key.  Those solutions
serve twice: the gate compares each framing's labeling count and
polynomial with the program's, and they give each query a cost estimate.
Each (table, kind) stratum takes a fixed number of queries from each
band of estimated cost (``QUOTAS``), so every seed's query set has the
same cost profile: its total, and its latency percentiles, do not
depend on the seed, while the diagrams do.  With a fixed number of
unstratified random queries one seed cost three times another.
Five-component wide queries were dropped for the same reason: single
queries of several seconds dominated whole runs.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

TABLES = ("order3", "order4", "constant4")
KINDS = ("deep", "wide")

DEEP_CROSSINGS = (5, 6, 7)
DEEP_COMPONENTS = (1, 2)
WIDE_CROSSINGS = (2, 3)
WIDE_LOOPS = (1, 2)
WIDE_COMPONENTS = (3, 4)

# Estimated milliseconds of a query: a fixed part, solver nodes,
# labelings, and pairs of labelings in one framing (the pairwise
# rho-class comparison).  Least-squares fit (R^2 = 0.90) to per-query
# times of the program on 539 queries, when the benchmark was set.
QUERY_MS = 2.6
NODE_MS = 0.0018
LABELING_MS = 0.035
PAIR_MS = 0.0016
# Cost band b holds estimated costs in [BAND_MS * BAND_RATIO^b,
# BAND_MS * BAND_RATIO^(b+1)); bands run up to 271 ms.
BAND_MS = 2.0
BAND_RATIO = 1.25
BANDS = 22
# Queries per cost band of each (table, kind) stratum: the band shares
# of 300 unstratified draws per stratum (random.Random(99)), scaled to
# about 800 ms of estimated cost per stratum.  Bands with under 2% of a
# stratum's draws get no quota, which keeps generation to seconds.
# Every wide draw fits below 271 ms (their pairwise rho-class work is up
# to 65% of it); deep draws above it, up to 3% of them and single solves
# of up to 650 ms, are not used.
QUOTAS = {
    ("order3", "deep"): {2: 13, 3: 17, 4: 15, 5: 17, 6: 11, 7: 8, 8: 7, 9: 3, 11: 3, 12: 2},
    ("order3", "wide"): {5: 22, 6: 4, 10: 20, 11: 8},
    ("order4", "deep"): {3: 1, 4: 2, 5: 2, 6: 5, 7: 2, 8: 2, 9: 3, 10: 3, 11: 3, 13: 3,
                         14: 1, 16: 2, 19: 1},
    ("order4", "wide"): {7: 1, 9: 1, 10: 5, 14: 1, 16: 3, 19: 1, 20: 1},
    ("constant4", "deep"): {3: 2, 4: 3, 5: 2, 6: 4, 7: 2, 8: 3, 9: 2, 10: 3, 11: 3,
                            12: 1, 13: 2, 14: 1, 16: 1, 19: 1},
    ("constant4", "wide"): {4: 2, 5: 1, 9: 5, 10: 9, 11: 1, 20: 3},
}
# A stratum that has not filled its quotas after this many draws is a
# bug in the quotas, not bad luck: every band with a quota has p >= 2%.
MAX_DRAWS = 20_000

_SIGN = {"C+": 1, "C-": -1, "V": 0}


@dataclass(frozen=True)
class Table:
    """A packaged birack table, read independently of the program."""

    name: str
    n: int
    under: tuple[tuple[int, ...], ...]
    over: tuple[tuple[int, ...], ...]
    virt: tuple[tuple[int, ...], ...]

    @property
    def characteristic(self) -> int:
        """Order of the kink map pi = g o f^-1, f(x) = x over x, g(x) = x under x."""
        f = [self.over[x][x] for x in range(self.n)]
        g = [self.under[x][x] for x in range(self.n)]
        finv = {fx: x for x, fx in enumerate(f)}
        pi = [g[finv[x]] for x in range(1, self.n + 1)]
        order, images = 1, list(pi)
        while images != list(range(1, self.n + 1)):
            images = [pi[i - 1] for i in images]
            order += 1
        return order

    def good_involutions(self) -> list[tuple[str, tuple[int, ...]]]:
        """(cycle string, 1-based images) of every r with r^2 = Id,
        r(x)*y = r(x*y) and x*r(y) = x*y for all three operations."""
        out = []
        rng = range(self.n)
        for images in itertools.permutations(rng):
            if any(images[images[x]] != x for x in rng):
                continue
            if all(op[images[x]][y] - 1 == images[op[x][y] - 1]
                   and op[x][images[y]] == op[x][y]
                   for op in (self.under, self.over, self.virt)
                   for x in rng for y in rng):
                cycles = [f"({x + 1}{y + 1})" for x, y in enumerate(images) if x < y]
                out.append(("".join(cycles) or "()", tuple(y + 1 for y in images)))
        return sorted(out)


def parse_table(name: str, text: str) -> Table:
    rows = [[int(tok) for tok in line.split()]
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    n = len(rows)
    if n == 0 or any(len(r) != 3 * n for r in rows):
        raise ValueError(f"table {name}: expected n rows of 3n entries")
    return Table(name, n,
                 tuple(tuple(r[:n]) for r in rows),
                 tuple(tuple(r[n:2 * n]) for r in rows),
                 tuple(tuple(r[2 * n:]) for r in rows))


def table_path(name: str) -> Path:
    """A packaged table, relative to the root of the checkout."""
    return Path("src") / "symbirack" / "data" / "tables" / f"{name}.birack"


def load_tables(root: Path) -> dict[str, Table]:
    return {name: parse_table(name, (root / table_path(name)).read_text())
            for name in TABLES}


@dataclass(frozen=True)
class Wiring:
    """A diagram in the program's .vlink model: crossings as
    (kind, in1, out1, in2, out2) with passage 1 the understrand, plus
    free loops."""

    crossings: tuple[tuple[str, str, str, str, str], ...]
    loops: tuple[str, ...] = ()

    def text(self, name: str) -> str:
        lines = [f"link {name}"] + [" ".join(c) for c in self.crossings]
        lines += [f"O {s}" for s in self.loops]
        return "\n".join(lines) + "\n"

    def components(self) -> list[list[str]]:
        """Strand orbits, ordered by the first appearance of a member in
        crossing-line then free-loop order (the program's order)."""
        succ = {c[1]: c[2] for c in self.crossings}
        succ.update({c[3]: c[4] for c in self.crossings})
        succ.update({s: s for s in self.loops})
        first = dict.fromkeys(s for c in self.crossings for s in c[1:])
        first.update(dict.fromkeys(self.loops))
        comps, seen = [], set()
        for start in first:
            if start in seen:
                continue
            orbit, s = [], start
            while s not in seen:
                seen.add(s)
                orbit.append(s)
                s = succ[s]
            comps.append(orbit)
        return comps

    def self_writhe(self) -> list[int]:
        comps = self.components()
        at = {s: k for k, comp in enumerate(comps) for s in comp}
        w = [0] * len(comps)
        for kind, in1, _, in2, _ in self.crossings:
            if at[in1] == at[in2]:
                w[at[in1]] += _SIGN[kind]
        return w

    def with_kink(self, site: str) -> "Wiring":
        """One more positive kink, cut into the strand at semiarc ``site``."""
        loop, exit_ = f"{site}k", f"{site}x"
        if site in self.loops:
            return Wiring(self.crossings + (("C+", site, loop, loop, site),),
                          tuple(s for s in self.loops if s != site))
        rewired = tuple(
            (c[0], exit_ if c[1] == site else c[1], c[2],
             exit_ if c[3] == site else c[3], c[4])
            for c in self.crossings)
        return Wiring(rewired + (("C+", site, loop, loop, exit_),), self.loops)

    def framing_tile(self, n_char: int) -> dict[tuple[int, ...], "Wiring"]:
        """The framed diagram at each w in Z_N^c: (w_k - v_k) mod N extra
        positive kinks on component k, v the self-writhe."""
        comps = self.components()
        v = self.self_writhe()
        tile = {}
        for w in itertools.product(range(n_char), repeat=len(comps)):
            framed = self
            for comp, wk, vk in zip(comps, w, v):
                site = comp[0]
                for _ in range((wk - vk) % n_char):
                    framed = framed.with_kink(site)
                    site = f"{site}x" if site not in self.loops else f"{site}k"
            tile[w] = framed
        return tile


class OverBudget(Exception):
    """A search passed the node limit it was given."""


def solve(d: Wiring, t: Table, rho: tuple[int, ...],
          max_nodes: float = math.inf) -> tuple[collections.Counter, int]:
    """Labelings of d over t, grouped into rho-classes, and the number of
    search nodes; OverBudget once more than ``max_nodes`` are visited.

    At a classical crossing out1 = in1 under in2 and out2 = in2 over in1;
    at a virtual one both outputs use virt.  Semiarcs are assigned in
    strand order; a crossing's outputs follow once both inputs are set.
    Two labelings are rho-equivalent when at every semiarc their labels
    agree or differ by rho.  rho is an involution, so that holds exactly
    when min(x, rho(x)) agrees at every semiarc, and the returned Counter
    maps that key to the size of its class.
    """
    arcs = [s for comp in d.components() for s in comp]
    index = {s: i for i, s in enumerate(arcs)}
    cons = []
    for kind, in1, out1, in2, out2 in d.crossings:
        t1, t2 = (t.virt, t.virt) if kind == "V" else (t.under, t.over)
        cons.append((index[in1], index[in2], index[out1], index[out2], t1, t2))
    watch: list[list[int]] = [[] for _ in arcs]
    for ci, con in enumerate(cons):
        watch[con[0]].append(ci)
        watch[con[1]].append(ci)
    value = [0] * len(arcs)
    classes: collections.Counter = collections.Counter()
    nodes = 0

    def propagate(arc: int, trail: list[int]) -> bool:
        queue = [arc]
        while queue:
            for ci in watch[queue.pop()]:
                i1, i2, o1, o2, t1, t2 = cons[ci]
                v1, v2 = value[i1], value[i2]
                if not (v1 and v2):
                    continue
                for o, x in ((o1, t1[v1 - 1][v2 - 1]), (o2, t2[v2 - 1][v1 - 1])):
                    if value[o] == 0:
                        value[o] = x
                        trail.append(o)
                        queue.append(o)
                    elif value[o] != x:
                        return False
        return True

    def extend(k: int) -> None:
        nonlocal nodes
        while k < len(arcs) and value[k]:
            k += 1
        if k == len(arcs):
            classes[tuple(min(x, rho[x - 1]) for x in value)] += 1
            return
        for x in range(1, t.n + 1):
            nodes += 1
            if nodes > max_nodes:
                raise OverBudget
            value[k] = x
            trail = [k]
            if propagate(k, trail):
                extend(k + 1)
            for a in trail:
                value[a] = 0

    extend(0)
    return classes, nodes


def random_wiring(rng: random.Random, crossings: int, strand_components: int) -> Wiring:
    """A random diagram whose strands close up into exactly
    ``strand_components`` components.

    Each crossing has passages 1 and 2, each with an in and an out slot.
    A random bijection joins every out slot to an in slot through one
    semiarc, named after the out slot.
    """
    slots = [(c, p) for c in range(crossings) for p in (1, 2)]
    while True:
        kinds = [rng.choice(("C+", "C-", "V")) for _ in range(crossings)]
        targets = slots[:]
        rng.shuffle(targets)
        joined = dict(zip(slots, targets))  # out slot -> in slot it feeds
        seen: set[tuple[int, int]] = set()
        count = 0
        for start in slots:
            if start in seen:
                continue
            count += 1
            slot = start
            while slot not in seen:
                seen.add(slot)
                slot = joined[slot]  # an in slot leads on to its own out slot
        if count == strand_components:
            break
    arc_in = {joined[s]: f"s{i}" for i, s in enumerate(slots)}
    arc_out = {s: f"s{i}" for i, s in enumerate(slots)}
    return Wiring(tuple(
        (kinds[c], arc_in[(c, 1)], arc_out[(c, 1)], arc_in[(c, 2)], arc_out[(c, 2)])
        for c in range(crossings)))


@dataclass(frozen=True)
class Query:
    """One enhance query: its command line and what the gate needs."""

    argv: tuple[str, ...]
    kind: str
    # per framing, in tile order: (framing, labelings, polynomial as
    # ascending (exponent, coefficient) pairs)
    framings: tuple[tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]
    cost_ms: float  # estimated


@dataclass
class EnhanceMix:
    queries: list[Query] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # file name -> text


def _draw(rng: random.Random, kind: str) -> Wiring:
    if kind == "deep":
        return random_wiring(rng, rng.choice(DEEP_CROSSINGS), rng.choice(DEEP_COMPONENTS))
    crossings = rng.choice(WIDE_CROSSINGS)
    loops = rng.choice(WIDE_LOOPS)
    components = rng.choice(WIDE_COMPONENTS)
    d = random_wiring(rng, crossings, components - loops)
    return Wiring(d.crossings, tuple(f"f{j}" for j in range(loops)))


def expect(d: Wiring, table: Table, rho: tuple[int, ...], limit_ms: float = math.inf):
    """What ``enhance`` must print per framing of d's tile (see
    Query.framings), and the estimated milliseconds it needs; None as
    soon as the estimate is sure to pass ``limit_ms``."""
    framings, ms = [], QUERY_MS
    for w, framed in d.framing_tile(table.characteristic).items():
        try:
            classes, nodes = solve(framed, table, rho, (limit_ms - ms) / NODE_MS)
        except OverBudget:
            return None
        m = sum(classes.values())
        poly = tuple(sorted(collections.Counter(classes.values()).items()))
        framings.append((w, m, poly))
        ms += NODE_MS * nodes + LABELING_MS * m + PAIR_MS * m * (m - 1) / 2
        if ms > limit_ms:
            return None
    return tuple(framings), ms


# The query every seed's list starts with: the virtual Hopf link over
# order3 with rho = (23), a few milliseconds.  first_output_s is then
# interpreter start plus this one query, whatever the seed.
FIRST_QUERY = ("order3",
               Wiring((("C+", "b1", "b2", "a1", "a2"), ("V", "a2", "a1", "b2", "b1"))),
               "(23)")


def cost_band(ms: float) -> int | None:
    """The cost band of an estimate; None above the last band."""
    band = max(0, math.floor(math.log(ms / BAND_MS, BAND_RATIO)))
    return band if band < BANDS else None


def generate_enhance_mix(seed: int, tables: dict[str, Table], folder: Path) -> EnhanceMix:
    """The seeded query set; its diagram files are to be written to
    ``folder``, which the command lines name."""
    rng = random.Random(seed)
    picked: list[tuple[str, Wiring, str, Query]] = []
    for name in TABLES:
        table = tables[name]
        rhos = table.good_involutions()
        for kind in KINDS:
            left = collections.Counter(QUOTAS[name, kind])
            for _ in range(MAX_DRAWS):
                d = _draw(rng, kind)
                rho, images = rng.choice(rhos)
                # a draw above the highest open band is dropped unsolved
                solved = expect(d, table, images, BAND_MS * BAND_RATIO ** (max(left) + 1))
                if solved is None:
                    continue
                band = cost_band(solved[1])
                if left[band]:
                    left[band] -= 1
                    left += collections.Counter()  # drops bands now full
                    picked.append((name, d, rho, Query((), kind, *solved)))
                    if not left:
                        break
            else:
                raise RuntimeError(f"{name} {kind}: quotas unfilled after {MAX_DRAWS} draws")
    rng.shuffle(picked)
    name, d, rho = FIRST_QUERY
    framings, ms = expect(d, tables[name], dict(tables[name].good_involutions())[rho])
    picked.insert(0, (name, d, rho, Query((), "fixed", framings, ms)))
    mix = EnhanceMix()
    for i, (name, d, rho, q) in enumerate(picked):
        file_name = f"q{i:03d}.vlink"
        mix.files[file_name] = d.text(f"q{i:03d}")
        argv = ("enhance", str(table_path(name)), str(folder / file_name), "--rho", rho)
        mix.queries.append(Query(argv, q.kind, q.framings, q.cost_ms))
    return mix


def write(mix: EnhanceMix, folder: Path) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    for file_name, text in mix.files.items():
        (folder / file_name).write_text(text)
