"""Evenly-divided control paths: a graph heuristic for cheap placements.

Because steering cost grows exponentially with control path length, a good
M-driver placement covers its quota with paths of nearly equal length.  The
pipeline starts from a path/cycle cover, folds every cycle onto the tail of
the currently shortest stem (a virtual junction marks the seam), divides the
coverage target into M near-equal quotas, walks the quotas over the stems,
then reduces surplus drivers where removal is cheapest (a merge inside a
stem, or the release of a lone segment whose coverage regrows through real
edges) and trims surplus nodes from the longest segments.  On small graphs
the exact steering cost finally chooses among placements that the chain
estimate cannot tell apart.

Control segments never span a junction: the pasted-on edge does not exist in
the graph, so a segment reaching a junction is cut there and the cycle head
hosts the next driver.

One pass walks a ladder of covers (the flow cover at M*, the m-path cover,
the matching paths, on tiny graphs the exhaustive paths).  The first cover
that sheds its surplus drivers without a stuck release (where no stem can
merge) wins; failing that, the first that placed with one.

Each (graph, m, t_f, A) is one context, `_Request`: the graph's successor
and predecessor lists, the exact evaluations' matrix and LTI context
(`lti._Context`), one maximum matching for M* and the matching paths, and
one flow solve for rmax(m), the flow cover at M* and the m-path cover.
r_size is an argument of `place`, so one request serves every EDCP and
naive cell of a `bench` grid and keeps each placement and each exact
cost, keyed by segment order (it moves E's last bits).

The reduction is one loop, `reduce_drivers`, over one state, `_Reduction`:
every stem's release records and merge price, and every simulated release.
Each step takes the cheapest merge from the kept prices, weighs it against
the cheapest release, applies the cheaper and gives up one driver.  A step
recomputes only what it changed: a merge re-prices the one stem it
rewrites, a release the stems it touches, and a release is simulated again
only when an entry it reads has changed.  The choices are the ones
re-pricing everything at every step makes, bit for bit.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .flow import SufficiencySolver
from .graph import DirectedGraph, _hopcroft_karp, _matching_paths
from .lti import ControlPlacement, UncontrollableError, _check_horizon, _Context, chain_control_cost
from .pathcover import PathCover, extract_paths_cycles

EXACT_EVAL_THRESHOLD = 400  # dense cost evaluation above this is left out
_EXACT_COVER_LIMIT = 12  # exhaustive path-cover fallback for tiny graphs
# The exact-cost local search makes O(n) dense evaluations a pass; above
# this size they would outweigh the rest of EDCP.
_REFINE_LIMIT = 64
_REFINE_GAIN = 0.5  # a move must at least halve the exact cost
_ROOTING_STEPS = 256  # search budget for re-rooting one segment


class CoverInfeasibleError(RuntimeError):
    """No placement with the requested driver and coverage counts exists
    within the structures this pipeline can build.

    Refusal contract: EDCP refuses only when no m vertex-disjoint paths of
    the graph cover r_size nodes.  A cycle of the flow cover rides along
    for free in rmax(m), but a single-wire driver reaches it only through a
    path, so rmax(m) >= r_size does not by itself promise a placement.  Up
    to _EXACT_COVER_LIMIT nodes the cover ladder ends in an exhaustive path
    search, so there a refusal proves that no such paths exist; above it
    the question is NP-hard (m = 1 asks for a Hamiltonian path) and a
    refusal means that the pipeline found none.
    """


@dataclass
class Stem:
    """A stem (possibly with folded-in cycles) during driver assignment.

    nodes: full node sequence; junctions: indices where a pasted cycle
    starts; the undivided part is nodes[undivided_start:].  segments hold
    the control paths carved out so far (driver = first node).
    """

    nodes: tuple[int, ...]
    junctions: tuple[int, ...] = ()
    undivided_start: int = 0
    segments: list[list[int]] = field(default_factory=list)

    @property
    def undivided_len(self) -> int:
        return len(self.nodes) - self.undivided_start

    @property
    def driver_count(self) -> int:
        return len(self.segments)

    def run_end(self, pos: int) -> int:
        """End index of the junction-free run containing position pos."""
        for j in self.junctions:
            if j > pos:
                return j
        return len(self.nodes)

    def runs(self) -> list[tuple[int, int]]:
        bounds = [0, *self.junctions, len(self.nodes)]
        return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def controlled_blocks(self) -> list[list[int]]:
        """Maximal contiguous controlled node groups, one prefix per run."""
        controlled = {v for seg in self.segments for v in seg}
        blocks = []
        for a, b in self.runs():
            block = []
            for i in range(a, b):
                if self.nodes[i] in controlled:
                    block.append(self.nodes[i])
                else:
                    break
            if block:
                blocks.append(block)
        return blocks


def merge_cycles(cover: PathCover) -> list[Stem]:
    """Fold every cycle onto the tail of the currently shortest stem.

    Cycles are taken longest first (ties: lowest starting node) and each is
    rotated to start at its lowest node; the paste point is recorded as a
    junction.  A cover with cycles but no stems gets an empty host, which
    its first cycle starts without a junction.
    """
    stems = [Stem(nodes=tuple(p)) for p in cover.paths]
    cycles = []
    for cyc in cover.cycles:
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    if cycles and not stems:
        stems = [Stem(nodes=())]
    while cycles:
        cycles.sort(key=lambda c: (-len(c), c[0]))
        cyc = cycles.pop(0)
        host = min(range(len(stems)), key=lambda i: (len(stems[i].nodes), i))
        stem = stems[host]
        if stem.nodes:
            stem.junctions = (*stem.junctions, len(stem.nodes))
        stem.nodes = (*stem.nodes, *cyc)
    return stems


def even_division(r_size: int, m: int) -> list[int]:
    """Split r_size into m near-equal positive integers, larger parts first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > r_size:
        raise ValueError(f"cannot divide {r_size} nodes among {m} parts")
    base, extra = divmod(r_size, m)
    return [base + 1] * extra + [base] * (m - extra)


def string_cost(q: int, d: int, t_f: float = 2.0) -> float:
    """Cost of controlling a q-node unit chain with d evenly spread drivers."""
    if not (1 <= d <= q):
        raise ValueError("need 1 <= d <= q")
    return sum(chain_control_cost(part, t_f) for part in even_division(q, d))


def _plus(x: float, y: float) -> float:
    """x + y, or inf where inf meets -inf.

    A chain estimate past the float range is inf (`chain_control_cost`), so
    the change between two such is unknown: EDCP prices it as an increase
    past the range, never as NaN, and so never prefers it.
    """
    total = x + y
    return math.inf if math.isnan(total) else total


def _allocate_drivers(blocks: list[list[int]], d: int, t_f: float) -> dict[int, tuple[float, list[int]]]:
    """Cheapest ways to spread up to d drivers over contiguous blocks (>=1 each).

    Maps each total of drivers to (cost, per-block drivers).  The candidates
    a run for d adds to a run for d' < d only reach totals above d', so the
    entry for d' is the one the run for d' returns, bit for bit.
    """
    counts = [len(b) for b in blocks]
    if d < len(blocks) or d > sum(counts):
        raise CoverInfeasibleError(f"cannot spread {d} drivers over blocks {counts}")
    best: dict[int, tuple[float, list[int]]] = {0: (0.0, [])}  # drivers used -> cheapest
    for i, q in enumerate(counts):
        nxt: dict[int, tuple[float, list[int]]] = {}
        for used, (cost, alloc) in best.items():
            for di in range(1, min(q, d - used - (len(counts) - i - 1)) + 1):
                cand = (cost + string_cost(q, di, t_f), alloc + [di])
                key = used + di
                if key not in nxt or cand[0] < nxt[key][0]:
                    nxt[key] = cand
        best = nxt
    return best


def assign_drivers(stems: list[Stem], plan: list[int], r_size: int | None = None) -> list[Stem]:
    """Walk the division plan over the stems, placing one driver per quota.

    Each quota goes to the stem with the longest undivided part (ties: lowest
    stem index), the top of a heap.  A quota consumes nodes from the front of
    the undivided part but never across a junction; a junction-terminated run
    shorter than the quota is skipped outright (its nodes go uncontrolled)
    when the remaining material still reaches r_size, otherwise it is kept as
    a short segment.
    After the plan, whole runs are consumed until r_size nodes are covered.
    """
    if r_size is None:
        r_size = sum(plan)
    nc = sum(len(seg) for stem in stems for seg in stem.segments)
    capacity = sum(stem.undivided_len for stem in stems)
    # (-undivided length, index): the top is the stem each quota goes to, and
    # only that stem changes, so only it goes back in
    heap = [(-stem.undivided_len, i) for i, stem in enumerate(stems)]
    heapq.heapify(heap)

    def place(budget: int) -> None:
        nonlocal nc, capacity
        i = heap[0][1]
        stem = stems[i]
        while stem.undivided_len > 0:
            start = stem.undivided_start
            end = stem.run_end(start)
            run_len = end - start
            if run_len < budget and end < len(stem.nodes) and nc + capacity - run_len >= r_size:
                # too short for the quota and expendable: skip to the cycle head
                stem.undivided_start = end
                capacity -= run_len
                continue
            take = min(budget, run_len)
            stem.segments.append(list(stem.nodes[start:start + take]))
            stem.undivided_start = start + take
            nc += take
            capacity -= take
            break
        heapq.heapreplace(heap, (-stem.undivided_len, i))

    for quota in plan:
        if heap[0][0] == 0:
            break
        place(quota)
    # leftover rounds keep consuming one quota's worth at a time
    tail_quota = min(plan) if plan else 1
    while nc < r_size:
        if heap[0][0] == 0:
            raise CoverInfeasibleError(f"cover exhausted at {nc} < {r_size} controlled nodes")
        place(tail_quota)
    return stems


def _merge_price(stem: Stem, blocks: list[list[int]], t_f: float) -> tuple[float, list[int]] | None:
    """What giving up one of stem's drivers costs, and the per-block allocation that does it.

    blocks are the stem's controlled blocks.  None when no block has a
    driver to spare.
    """
    d = stem.driver_count
    if d < 2 or d - 1 < len(blocks):
        return None
    priced = _allocate_drivers(blocks, d, t_f)
    (cost_now, _), (cost_less, alloc) = priced[d], priced[d - 1]
    return _plus(cost_less, -cost_now), alloc


def reduce_drivers(
    stems: list[Stem], m: int, t_f: float = 2.0, *, red: _Reduction | None = None
) -> list[Stem]:
    """Give up surplus drivers one at a time, each where the chain estimate grows least.

    A merge re-spreads a stem's remaining drivers evenly over its controlled
    blocks (never across junctions); the cheapest goes, ties to the later
    stem.  red, when given, is the pipeline's state over the graph: there a
    release (`_release_step`) goes instead when it is cheaper, or when no
    stem can merge, which sets red.released_when_stuck.  Without it the
    stems are reduced alone, by merges at horizon t_f.  Each step gives up
    exactly one driver.
    """
    if red is None:
        red = _Reduction(None, stems, t_f=t_f)
    for _ in range(sum(stem.driver_count for stem in stems) - m):
        merge = red.merge()
        release = _release_step(red, merge[0] if merge else math.inf) if red.succ else None  # no graph, no release
        if release is not None:
            red.released_when_stuck = red.released_when_stuck or merge is None
            red.apply_release(release)
        elif merge is None:
            raise CoverInfeasibleError("no stem can give up a driver")
        else:
            red.apply_merge(merge[1])
    return stems


@dataclass
class _Release:
    """Giving up a single-driver segment and regrowing coverage elsewhere.

    delta: change of the summed chain estimate; released: the segment
    whose driver goes; grown: (segment, new node sequence) for every
    segment that absorbs nodes through real edges.
    """

    delta: float
    released: list[int]
    grown: list[tuple[list[int], list[int]]]


class _Reduction:
    """The state of one reduction (`reduce_drivers`), kept step by step.

    Per stem i: records[i], each segment of a controlled block with whether
    it may grow at its tail (it ends its block) and at its head (it is alone
    in its block), and prices[i], its `_merge_price`.  Over all stems: tails
    and heads map a node to the segment that may grow there (at its last
    and at its first node), order gives each segment its stem and its place
    in the stems' record order (the tie rule of a regrowth), and free holds
    the nodes no segment controls.

    A merge rewrites one stem, and a release the released stem and those
    that lose a grown segment, and adds a stem per grown segment; `refresh`
    recomputes only those.  outcomes keeps each simulated release
    (`_simulate_release`).  A release reads only its free set (free and the
    released nodes), its need (which free and the segment fix), and the
    tails and heads entries at the nodes next to that free set, with their
    segments; segments that no step rewrote keep their relative order.  So
    an outcome is dropped when its segment goes, when free changes, or when
    an entry changes at a node next to free or next to its segment
    (readers).  A merge leaves free alone.

    req gives the graph a release regrows through, and the horizon; without
    it the state has no graph (succ is empty) and prices merges alone, at t_f.
    """

    def __init__(self, req: _Request | None, stems: list[Stem], r_size: int = 0, t_f: float = 2.0):
        self.succ, self.pred, self.t_f = (req.succ, req.pred, req.t_f) if req is not None else ([], [], t_f)
        self.stems, self.r_size = stems, r_size
        self.released_when_stuck = False  # a release went where no stem could merge
        self.records: list[list[tuple[list[int], bool, bool]]] = []
        self.prices: list[tuple[float, list[int]] | None] = []
        self.tails: dict[int, list[int]] = {}
        self.heads: dict[int, list[int]] = {}
        self.order: dict[int, tuple[int, int]] = {}  # id(segment) -> (stem, record)
        self.outcomes: dict[int, tuple[list[int], _Release | None]] = {}  # id(segment) -> outcome
        self.readers: dict[int, set[int]] = {}  # node -> ids of the outcomes that read it
        self.free: set[int] = set()
        self.near: set[int] = set()  # the nodes next to free
        self.refresh(range(len(stems)))
        controlled = {v for records in self.records for seg, _, _ in records for v in seg}
        self.update_free({v for v in range(len(self.succ)) if v not in controlled})

    def refresh(self, indices) -> None:
        """Recompute the records and prices of stems[i] for i in indices (new stems too)."""
        tails, heads, order = self.tails, self.heads, self.order
        before: dict[int, tuple[list[int] | None, list[int] | None]] = {}
        dropped = []
        for i in indices:
            if i == len(self.records):
                self.records.append([])
                self.prices.append(None)
            for seg, tail, head in self.records[i]:
                dropped.append(seg)
                del order[id(seg)]
                for x in (seg[-1], seg[0]):
                    before.setdefault(x, (tails.get(x), heads.get(x)))
                if tail:
                    del tails[seg[-1]]
                if head:
                    del heads[seg[0]]
            stem = self.stems[i]
            blocks = stem.controlled_blocks()
            records = []
            for block in blocks:
                first = set(block)
                in_block = [seg for seg in stem.segments if seg and seg[0] in first]
                for k, seg in enumerate(in_block):
                    records.append((seg, k == len(in_block) - 1, len(in_block) == 1))
            for k, (seg, tail, head) in enumerate(records):
                order[id(seg)] = (i, k)
                for x in (seg[-1], seg[0]):
                    before.setdefault(x, (tails.get(x), heads.get(x)))
                if tail:
                    tails[seg[-1]] = seg
                if head:
                    heads[seg[0]] = seg
            self.records[i] = records
            self.prices[i] = _merge_price(stem, blocks, self.t_f)
        for seg in dropped:  # still referenced, so its id is not reused yet
            if id(seg) not in order:
                self.outcomes.pop(id(seg), None)
        changed = [x for x, (t, h) in before.items() if tails.get(x) is not t or heads.get(x) is not h]
        if self.near.intersection(changed):
            self.outcomes.clear()
            self.readers.clear()
        for x in changed:
            for key in self.readers.pop(x, ()):
                self.outcomes.pop(key, None)

    def update_free(self, free: set[int]) -> None:
        """Take free as the uncontrolled nodes; a change drops every outcome."""
        if free != self.free:
            self.free = free
            self.near = {u for v in free for u in (*self.pred[v], *self.succ[v])}
            self.outcomes.clear()
            self.readers.clear()

    def merge(self) -> tuple[float, int] | None:
        """The cheapest merge, (price, stem index), ties to the later stem; None when no stem can merge."""
        best = None
        for i, price in enumerate(self.prices):
            if price is not None and (best is None or price[0] <= best[0]):
                best = (price[0], i)
        return best

    def apply_merge(self, i: int) -> None:
        """Re-spread stems[i]'s drivers, one fewer, as its price allocates them."""
        stem = self.stems[i]
        blocks = stem.controlled_blocks()
        stem.segments = []
        for block, d_block in zip(blocks, self.prices[i][1]):
            pos = 0
            for part in even_division(len(block), d_block):
                stem.segments.append(block[pos:pos + part])
                pos += part
        self.refresh([i])

    def apply_release(self, release: _Release) -> None:
        """Drop the released segment, move every grown segment to a stem of its own, and refresh."""
        stems = self.stems
        touched = set()
        for seg in (release.released, *(old for old, _ in release.grown)):
            i = self.order[id(seg)][0]
            stems[i].segments = [other for other in stems[i].segments if other is not seg]
            touched.add(i)
        start = len(stems)
        stems.extend(Stem(nodes=tuple(nodes), undivided_start=len(nodes), segments=[list(nodes)])
                     for _, nodes in release.grown)
        self.refresh([*sorted(touched), *range(start, len(stems))])
        grown = {v for _, nodes in release.grown for v in nodes}
        self.update_free({v for v in (*self.free, *release.released) if v not in grown})

    def need(self, seg: list[int]) -> int:
        """The nodes to regrow when seg is released."""
        return max(0, self.r_size - (len(self.succ) - len(self.free) - len(seg)))

    def release(self, seg: list[int]) -> _Release | None:
        """The outcome of releasing seg, simulated once while it is valid."""
        kept = self.outcomes.get(id(seg))
        if kept is None:
            kept = self.outcomes[id(seg)] = (seg, _simulate_release(self, seg, self.need(seg)))
            for v in seg:
                for x in (*self.pred[v], *self.succ[v]):
                    self.readers.setdefault(x, set()).add(id(seg))
        return kept[1]


def _increment(length: int, t_f: float) -> float:
    """Change of the chain estimate when a segment of `length` nodes grows by one."""
    return _plus(chain_control_cost(length + 1, t_f), -chain_control_cost(length, t_f))


def _simulate_release(red: _Reduction, released: list[int], need: int) -> _Release | None:
    """Release `released` and regrow `need` nodes one at a time (`_release_step`).

    Each node goes to the segment whose chain estimate grows least; ties go
    to the lowest node, then to the segment first in record order, then to
    growth at the tail.  None when the regrowth finds no real edge into a
    free node before it is done.
    """
    succ, pred, t_f, order = red.succ, red.pred, red.t_f, red.order
    free = red.free.union(released)
    # the entries next to the free set are all a regrowth can reach
    segs: dict[tuple[int, int], list[int]] = {}
    tails: dict[int, tuple[int, int]] = {}
    heads: dict[int, tuple[int, int]] = {}
    for v in free:
        for entries, local, nodes in ((red.tails, tails, pred[v]), (red.heads, heads, succ[v])):
            for x in nodes:
                seg = entries.get(x)
                if seg is not None and seg is not released:
                    j = local[x] = order[id(seg)]
                    segs[j] = seg
    grown: dict[tuple[int, int], list[int]] = {}
    total = -chain_control_cost(len(released), t_f)
    for _ in range(need):
        pick = None
        for v in sorted(free):
            for u in pred[v]:
                j = tails.get(u)
                if j is not None:
                    cand = (_increment(len(grown.get(j, segs[j])), t_f), v, j, False)
                    pick = cand if pick is None or cand < pick else pick
            for w in succ[v]:
                j = heads.get(w)
                if j is not None:
                    cand = (_increment(len(grown.get(j, segs[j])), t_f), v, j, True)
                    pick = cand if pick is None or cand < pick else pick
        if pick is None:
            return None
        inc, v, j, at_head = pick
        nodes = grown.get(j, segs[j])
        tails.pop(nodes[-1], None)
        heads.pop(nodes[0], None)
        nodes = [v, *nodes] if at_head else [*nodes, v]
        grown[j] = nodes
        tails[nodes[-1]] = heads[nodes[0]] = j  # a grown segment becomes its own stem
        free.discard(v)
        total = _plus(total, inc)
    return _Release(total, released, [(segs[j], nodes) for j, nodes in grown.items()])


def _release_step(red: _Reduction, bound: float) -> _Release | None:
    """Cheapest release of a single-driver segment, if cheaper than bound.

    A segment that is alone in its controlled block can lose its driver:
    its nodes go uncontrolled, and the coverage still needed to reach
    r_size is regrown one node at a time through real edges into
    uncontrolled nodes, each time on the segment whose chain estimate grows
    least.  A segment may grow at its tail when it ends its block, and at
    its head when it is alone in its block.  Unlike a merge this can move
    coverage between stems, which is how a request that no stem can absorb
    by merging still finds m disjoint paths.

    The releases are tried in order of a lower bound on their price, until
    the bound reaches the best found.  Each one's outcome comes from
    `_Reduction.release`, which simulates it again only when a step has
    changed what it reads.
    """
    if not red.tails:  # every controlled block ends in a segment that may grow at its tail
        return None
    t_f = red.t_f
    floor = _increment(min(len(seg) for seg in red.tails.values()), t_f)
    options = []
    for seg in red.heads.values():
        kept = red.outcomes.get(id(seg))
        if kept is not None and kept[1] is None:
            continue  # it finds nowhere to regrow, so it cannot be the best
        need = red.need(seg)
        regrowth = need * floor if need else 0.0  # 0 * inf is NaN
        options.append((_plus(regrowth, -chain_control_cost(len(seg), t_f)), red.order[id(seg)], seg))
    options.sort()  # the record order is unique, so no two options compare further

    best: _Release | None = None
    for lower, _, seg in options:
        if lower >= (best.delta if best else bound):
            break
        release = red.release(seg)
        if release is not None and release.delta < (best.delta if best else bound):
            best = release
    return best


def _split_for_extra_drivers(stems: list[Stem], m: int) -> list[Stem]:
    """Add drivers by halving the longest segments until m drivers exist."""
    for _ in range(m - sum(stem.driver_count for stem in stems)):
        best = None
        for stem in stems:
            for k, seg in enumerate(stem.segments):
                key = (-len(seg), seg[0])
                if best is None or key < best[0]:
                    best = (key, stem, k)
        if best is None or len(best[1].segments[best[2]]) < 2:
            raise CoverInfeasibleError("not enough controlled nodes to host drivers")
        _, stem, k = best
        seg = stem.segments[k]
        first, second = even_division(len(seg), 2)
        stem.segments[k:k + 1] = [seg[:first], seg[first:]]
    return stems


def trim_to_r(stems: list[Stem], r_size: int, longest_first: bool = True) -> list[Stem]:
    """Drop tail nodes from the longest segments until r_size remain covered.

    Ties on segment length resolve to the lowest driver-node index.  With
    longest_first=False the shortest multi-node segments shed nodes instead
    (used by the no-division baseline, which keeps its long paths).
    """
    sign = -1 if longest_first else 1
    for _ in range(sum(len(seg) for stem in stems for seg in stem.segments) - r_size):
        best = None
        for stem in stems:
            for seg in stem.segments:
                if len(seg) < 2:
                    continue  # a driver always keeps its own node
                key = (sign * len(seg), seg[0])
                if best is None or key < best[0]:
                    best = (key, seg)
        best[1].pop()
    return stems


@dataclass(frozen=True)
class EdcpResult:
    """A placement and its costs; an ELPGM result has no segments or e_estimate."""

    placement: ControlPlacement
    segments: tuple[tuple[int, ...], ...] | None
    e_estimate: float | None
    e_exact: float | None
    fallback: str | None = None

    def to_json(self, g: DirectedGraph | None = None) -> str:
        """Placement JSON; node ids are external when the graph is given."""
        ext = g.internal_to_external() if g is not None else None
        conv = (lambda v: ext[v]) if ext else (lambda v: v)
        payload = {
            "drivers": [conv(v) for v in self.placement.drivers],
            "controlled": [conv(v) for v in self.placement.controlled],
            "segments": None if self.segments is None else [[conv(v) for v in seg] for seg in self.segments],
            "E_estimate": self.e_estimate if self.e_estimate is not None and math.isfinite(self.e_estimate) else None,
            "E_exact": self.e_exact,
        }
        return json.dumps(payload, indent=2)


def _placement(segments: list[tuple[int, ...]], t_f: float) -> ControlPlacement:
    return ControlPlacement(
        drivers=tuple(seg[0] for seg in segments),
        controlled=tuple(v for seg in segments for v in seg),
        t_f=t_f,
    )


def _exact_cost(context: _Context, segments: list[tuple[int, ...]]) -> float | None:
    try:
        return context.placed(_placement(segments, context.t_f)).cost
    except UncontrollableError:
        return None


def _rooted_path(start: int, nodes: tuple[int, ...], succ: list[list[int]]) -> tuple[int, ...] | None:
    """A path through exactly `nodes` that starts at `start`, if one exists."""
    allowed = set(nodes)
    path = [start]
    budget = _ROOTING_STEPS

    def extend() -> bool:
        nonlocal budget
        if len(path) == len(nodes):
            return True
        budget -= 1
        if budget < 0:
            return False
        for w in succ[path[-1]]:
            if w in allowed and w not in path:
                path.append(w)
                if extend():
                    return True
                path.pop()
        return False

    return tuple(path) if extend() else None


def _exact_path_cover(req: _Request) -> PathCover | None:
    """Best coverage by exactly m vertex-disjoint paths, exhaustively."""
    best: tuple[int, tuple[tuple[int, ...], ...]] | None = None

    def search(avail: set[int], k: int, chosen: list[tuple[int, ...]], covered: int, min_head: int):
        nonlocal best
        if k == 0:
            if best is None or covered > best[0]:
                best = (covered, tuple(chosen))
            return
        if len(avail) < k:
            return
        for head in sorted(avail):
            if head < min_head:
                continue

            def extend(path: list[int]):
                chosen.append(tuple(path))
                search(avail - set(path), k - 1, chosen, covered + len(path), head + 1)
                chosen.pop()
                for w in req.succ[path[-1]]:
                    if w in avail and w not in path:
                        path.append(w)
                        extend(path)
                        path.pop()

            extend([head])

    search(set(range(req.g.n)), req.m, [], 0, 0)
    return None if best is None else PathCover(paths=best[1], cycles=())


class _Request:
    """One (g, m, t_f, A) context; each `place(r_size)` checks and places one request.

    The horizon is checked when the request is built, and the sizes by
    `check` before any flow.  The exact evaluations run on ELPGM's A, whose
    nonzeros g holds, when given, else on g.realized_adjacency(), drawn on
    first use.  The adjacency lists, A, the LTI evaluation context of (A,
    t_f), the matching and the covers are computed once and kept for the
    request's life, since g, m, t_f and A never change, as are each `place`
    result and exact cost (a float or None, never an n x n `_Steering`; a
    refused `place` is not kept).  The context (`lti._Context`) serves every
    exact cost, `refine` and the naive cells, and ELPGM's supports: it keeps
    the Van Loan kernel's driver-free factors, n^2 (s + 2) floats for each
    (Pade degree, squarings s) key that a driver set picks, a few keys per
    request, but no W or e^(A t_f) per driver set.  Each `pipeline` run keeps
    its reduction loop's facts in a `_Reduction` of its own, for the run.
    """

    def __init__(self, g: DirectedGraph, m: int, t_f: float, a: np.ndarray | None = None):
        _check_horizon(t_f)
        self.g, self.m, self.t_f = g, m, t_f
        self.succ, self.pred = g.successors(), g.predecessors()
        self._a = a
        self.placed: dict[tuple[int, bool], EdcpResult] = {}  # (r_size, naive) -> its result
        self.costs: dict[tuple[tuple[int, ...], ...], float | None] = {}  # ordered segments -> exact cost

    def check(self, r_size: int) -> None:
        """The size rule's one owner: ValueError for M or R below 1, CoverInfeasibleError for R > n or M > R."""
        m, n = self.m, self.g.n
        if min(m, r_size) < 1:
            raise ValueError(f"M and R must be >= 1, got M = {m}, R = {r_size}")
        if r_size > n:
            raise CoverInfeasibleError(f"R = {r_size} exceeds the {n}-node graph")
        if m > r_size:
            raise CoverInfeasibleError(f"M = {m} exceeds R = {r_size}")

    @cached_property
    def a(self) -> np.ndarray:
        return self.g.realized_adjacency() if self._a is None else self._a

    @cached_property
    def context(self) -> _Context:
        """The LTI evaluation context of (A, t_f) that every exact cost on the request shares."""
        return _Context(self.a, self.t_f)

    @cached_property
    def matching(self) -> tuple[int, list[int]]:
        """The graph's maximum matching (`graph._hopcroft_karp` on succ): its size and match_out."""
        return _hopcroft_karp(self.g.n, self.succ)

    @cached_property
    def covers(self) -> tuple[int, PathCover, PathCover]:
        """rmax(m), the flow cover at M* = max(n - matching, 1) and the m-path cover.

        One solver ships min(m, M*) units, then max(m, M*), reading a cover at each.
        """
        g, m = self.g, self.m
        mstar = max(g.n - self.matching[0], 1)
        solver = SufficiencySolver(g)
        covers = {}
        for units in sorted({m, mstar}):
            solver.advance_to(units)
            covers[units] = extract_paths_cycles(g, solver.as_flow())
        return solver.coverage_at(m), covers[mstar], covers[m]

    def place(self, r_size: int, naive: bool = False) -> EdcpResult:
        """Control r_size nodes, walking the cover ladder once.

        The first cover without a stuck release wins; failing that, the first
        cover that placed with one does.  naive gives the no-division baseline:
        the [r_size] * m plan, the shortest-first trim and no refine search.
        """
        self.check(r_size)
        if (r_size, naive) in self.placed:
            return self.placed[r_size, naive]
        g, m = self.g, self.m
        rmax, cover, path_cover = self.covers
        if rmax < r_size:
            raise CoverInfeasibleError(f"{m} controllers can cover at most {rmax} nodes, {r_size} requested")

        def candidates():
            yield cover, None
            if path_cover is not cover:
                # a cover with exactly m paths spreads quota drivers over fewer,
                # reducible stems when the full-coverage cover fragments
                yield path_cover, "m-unit-cover"
            match_paths = _matching_paths(self.matching[1])
            if match_paths:
                yield PathCover(paths=tuple(tuple(p) for p in match_paths), cycles=()), "matching-paths"
            if g.n <= _EXACT_COVER_LIMIT:
                exact = _exact_path_cover(self)
                if exact is not None:
                    yield exact, "exact-paths"

        chosen: tuple[list[tuple[int, ...]], str | None] | None = None
        last_error: Exception | None = None
        for cand, fallback in candidates():
            if cand.size < r_size:
                continue
            try:
                stems, released_when_stuck = self.pipeline(cand, r_size, naive)
            except CoverInfeasibleError as exc:
                last_error = exc
                continue
            if chosen is None or not released_when_stuck:
                chosen = ([tuple(seg) for stem in stems for seg in stem.segments if seg], fallback)
            if not released_when_stuck:
                break
        if chosen is None:
            raise CoverInfeasibleError(
                f"no ({m}-driver, {r_size}-node) placement found" + (f": {last_error}" if last_error else "")
            )
        self.placed[r_size, naive] = self.result(*chosen, not naive)
        return self.placed[r_size, naive]

    def pipeline(self, cover: PathCover, r_size: int, naive: bool) -> tuple[list[Stem], bool]:
        """Assign, reduce, split and trim one cover into m segments.

        The reduction (`reduce_drivers` on a `_Reduction` over the graph)
        gives up each surplus driver by the cheaper (in chain estimate) of a
        merge inside a stem and a release with regrowth elsewhere; where no
        stem can merge, a stuck release goes if one exists.  Returns the stems
        and whether one did; up to the first, the run is the one that refuses
        them.
        """
        m = self.m
        stems = merge_cycles(cover)
        assign_drivers(stems, [r_size] * m if naive else even_division(r_size, m), r_size=r_size)
        red = _Reduction(self, stems, r_size)
        reduce_drivers(stems, m, self.t_f, red=red)
        _split_for_extra_drivers(stems, m)
        trim_to_r(stems, r_size, longest_first=not naive)
        return stems, red.released_when_stuck

    def result(self, segments: list[tuple[int, ...]], fallback: str | None, refine: bool) -> EdcpResult:
        e_exact = None
        if self.g.n <= EXACT_EVAL_THRESHOLD:
            e_exact = self.exact_cost(segments)
            if refine and self.g.n <= _REFINE_LIMIT:
                segments, e_exact = self.refine(segments, e_exact)
        return EdcpResult(
            placement=_placement(segments, self.t_f),
            segments=tuple(segments),
            e_estimate=float(sum(chain_control_cost(len(seg), self.t_f) for seg in segments)),
            e_exact=e_exact,
            fallback=fallback,
        )

    def exact_cost(self, segments: list[tuple[int, ...]]) -> float | None:
        if (key := tuple(segments)) not in self.costs:
            self.costs[key] = _exact_cost(self.context, segments)
        return self.costs[key]

    def refine(
        self, segments: list[tuple[int, ...]], cost: float | None
    ) -> tuple[list[tuple[int, ...]], float | None]:
        """Local search over estimate ties, ranked by the exact cost.

        Placements whose segments have the same lengths share one chain
        estimate, while their exact costs can differ by orders of magnitude
        (back edges, a head that reaches its path only the long way round).
        Each pass tries every same-length move of every segment and takes the
        best one when it at least halves the exact cost.  Smaller gains are
        within what the draw of weights alone moves (two drivers on the 6-node
        chain cost 3x their chain estimate on DEFAULT_WEIGHT_SEED weights), so
        EDCP's own choice stands there.
        """
        improved = True
        while improved:
            improved = False
            for k in range(len(segments)):
                best = None
                for move in self.segment_moves(segments, k):
                    trial = [*segments[:k], move, *segments[k + 1:]]
                    trial_cost = self.exact_cost(trial)
                    if trial_cost is not None and (best is None or trial_cost < best[0]):
                        best = (trial_cost, trial)
                if best is not None and (cost is None or best[0] <= _REFINE_GAIN * cost):
                    cost, segments = best
                    improved = True
        return segments, cost

    def segment_moves(self, segments: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
        """Same-length replacements of segment k, each again a real path.

        Re-rooting (another head, the same nodes: for a cycle, its rotation),
        swapping the head or the tail for an uncontrolled node, and sliding the
        segment one node along the graph.  Every move keeps the segment
        lengths, so the chain estimate ties with the current placement.
        """
        succ, pred = self.succ, self.pred
        seg = segments[k]
        taken = {v for other in segments for v in other}
        moves = [p for u in seg[1:] if (p := _rooted_path(u, seg, succ)) is not None]
        if len(seg) > 1:
            moves += [(*seg[:-1], w) for w in succ[seg[-2]] if w not in taken]
            moves += [(u, *seg[1:]) for u in pred[seg[1]] if u not in taken]
        moves += [(*seg[1:], w) for w in succ[seg[-1]] if w not in taken]
        moves += [(u, *seg[:-1]) for u in pred[seg[0]] if u not in taken]
        return moves


def edcp(g: DirectedGraph, m: int, r_size: int, t_f: float = 2.0) -> EdcpResult:
    """Place m drivers to control exactly r_size nodes of g at low cost.

    Returns the placement, its control segments (vertex-disjoint paths of
    g, each driven from its first node), the summed chain-cost estimate
    and, for graphs up to EXACT_EVAL_THRESHOLD nodes, the exact expected
    steering cost on g.realized_adjacency() (None when the dense evaluation
    is skipped or numerically out of range).  On graphs up to _REFINE_LIMIT
    nodes the exact cost also chooses among placements the chain estimate
    cannot tell apart (see _Request.refine).

    Raises ValueError for m or r_size below 1 or a bad t_f, and
    CoverInfeasibleError for r_size > g.n or m > r_size (`_Request.check`)
    or when no m vertex-disjoint paths cover r_size nodes: free cycles are
    not reachable through single-wire drivers, so the flow's rmax(m) is an
    upper bound, not a promise.  The contract is exact up to
    _EXACT_COVER_LIMIT nodes (see CoverInfeasibleError).
    """
    return _Request(g, m, t_f).place(r_size)


def naive_placement(g: DirectedGraph, m: int, r_size: int, t_f: float = 2.0) -> EdcpResult:
    """Baseline with drivers at stem heads and no even division.

    Every driver greedily grabs the longest remaining undivided run whole,
    so the cost is dominated by long control paths, which is exactly what
    even division avoids.  Surplus drivers and nodes are handled by the same
    reduce/trim steps as the main pipeline; it refuses as `edcp` does.
    """
    return _Request(g, m, t_f).place(r_size, naive=True)
