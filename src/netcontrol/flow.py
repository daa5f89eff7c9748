"""Unit-capacity min-cost flow on the vertex-split sufficiency network.

A graph D(V, E) is transformed into an s-t network D' by adding a source s
with an arc to every node, a sink t with an arc from every node, and by
splitting each node v into v_in -> v_out with cost -1 on the inner arc (all
other arcs cost 0, every capacity is 1).  Shipping M units from s to t at
minimum cost then maximizes the number of nodes covered by M vertex-disjoint
paths plus any number of vertex-disjoint cycles: every saturated inner arc
is a covered node and cycles of D show up as profitable circulations.

The solver works on D' alone.  It first ships every node as its own path
s -> v_in -> v_out -> t, which saturates all negative (inner) arcs at cost -n
and leaves a residual network with nonnegative costs.  Sending those n units
back from t to s by cheapest paths then leaves the optimal free circulation
(the cycle coverage), with s's and t's arcs empty again.  That return and the
M supply units s -> t run as successive-shortest-path batches (Dijkstra with
vertex potentials + blocking flow per cost level).  This is exact and
integral.

Each round runs Dijkstra on reduced costs with Dial's bucket queue, since
they are nonnegative integers, until it reaches the sink.  Labels beyond it
are not final; the update pi += min(dist, dist[t]) caps them, keeps every
residual reduced cost nonnegative, and gives the same potentials whatever
order a queue settles ties in.  Then Dinic phases run on the
zero-reduced-cost arcs.  Each phase labels nodes with their arc distance tl
to the sink by a reverse BFS that stops once the source has a label, and a
DFS with current-arc pointers leaves a node v only along a live admissible
arc into a node w with tl[w] == tl[v] - 1.  A path never enters the source
or leaves the sink, so within a round their arcs only close: each round
keeps the source's out-arcs and the sink's in-arcs that are live and
admissible at its start, and its phases scan only those.

These phases augment the same paths, in the same order, as Dinic phases
layered from the source.  A path that starts at the source and steps down
one sink level per arc reaches the sink after tl[s] arcs, so it is a
shortest admissible path; conversely every arc of a shortest path steps
down one sink level.  So both layerings hold the same source-sink paths,
and at each node the DFS takes the first arc, in adjacency order, that still
continues to the sink: each augmenting path is the lexicographically first
live shortest path.  Sink levels only leave out arcs into dead ends, which a
source-layered DFS enters and retreats from.  An augmentation opens only
reverse arcs, which climb one level and never join the phase's graph, so
within a phase the set of live shortest paths only shrinks under both
layerings, and every phase and every stop at a unit limit ends on the same
flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DirectedGraph

INF = float("inf")


@dataclass(frozen=True)
class FlowNetwork:
    """The transformed s-t network D'(V', E', u, c, supply).

    Vertex i is node i's in-copy v_in, n + i its out-copy v_out; s = 2n, t = 2n + 1.
    Arcs are ordered: s->v_in for all v, v_in->v_out for all v (cost -1),
    v_out->t for all v, then one v_out->w_in arc per original edge.
    """

    n: int
    units: int
    arcs: tuple[tuple[int, int, int, int], ...]  # (tail, head, capacity, cost)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n + 2

    @property
    def source(self) -> int:
        return 2 * self.n

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def supply(self, v: int) -> int:
        if v == self.source:
            return self.units
        if v == self.sink:
            return -self.units
        return 0

    def to_dimacs(self) -> str:
        """The network in DIMACS min-cost-flow format, for an outside solver.

        DIMACS numbers nodes 1..N, so vertex v is written as v + 1: the source
        s = 2n is node 2n + 1 and the sink t is node 2n + 2.  Arc lines read
        "a tail head lower capacity cost", in `arcs` order.
        """
        lines = [f"p min {self.num_vertices} {len(self.arcs)}"]
        lines.append(f"n {self.source + 1} {self.units}")
        lines.append(f"n {self.sink + 1} {-self.units}")
        for tail, head, cap, cost in self.arcs:
            lines.append(f"a {tail + 1} {head + 1} 0 {cap} {cost}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Flow:
    """An integral feasible flow on a FlowNetwork, indexed like fn.arcs."""

    values: tuple[int, ...]
    cost: int


def build_sufficiency_flow_network(g: DirectedGraph, units: int) -> FlowNetwork:
    """Build D' for shipping `units` controllers through graph g."""
    if not (1 <= units <= g.n):
        raise ValueError(f"units must be in [1, {g.n}], got {units}")
    n = g.n
    arcs = []
    for v in range(n):
        arcs.append((2 * n, v, 1, 0))  # s -> v_in
    for v in range(n):
        arcs.append((v, n + v, 1, -1))  # v_in -> v_out, pays for coverage
    for v in range(n):
        arcs.append((n + v, 2 * n + 1, 1, 0))  # v_out -> t
    for s, d, _ in g.edges:
        arcs.append((n + s, d, 1, 0))  # u_out -> w_in
    return FlowNetwork(n=n, units=units, arcs=tuple(arcs))


def validate_flow(fn: FlowNetwork, f: Flow) -> bool:
    """Check capacity, nonnegativity and conservation, and that exactly
    fn.units cross the s/t cut."""
    if len(f.values) != len(fn.arcs):
        return False
    balance = [0] * fn.num_vertices
    cost = 0
    for value, (tail, head, cap, arc_cost) in zip(f.values, fn.arcs):
        if not (0 <= value <= cap):
            return False
        balance[tail] += value
        balance[head] -= value
        cost += value * arc_cost
    if cost != f.cost:
        return False
    for v in range(fn.num_vertices):
        if balance[v] != fn.supply(v):
            return False
    return True


class _Residual:
    """Paired-arc residual network with potentials for reduced-cost search.

    Built in one pass over an iterable of (tail, head, capacity, cost)
    arcs: arc k becomes residual arc 2k and its reverse 2k + 1, so arc `aid`
    runs from `to[aid ^ 1]` to `to[aid]`.  Each node lists its residual arcs
    in increasing id; the searches scan them in that order, which fixes the
    tie breaks between optimal flows.
    """

    def __init__(self, num_nodes: int, arcs):
        self.num_nodes = num_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        for tail, head, cap, cost in arcs:
            self.to += (head, tail)
            self.cap += (cap, 0)
            self.cost += (cost, -cost)
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        for aid in range(len(self.to)):
            self.adj[self.to[aid ^ 1]].append(aid)
        self.pi = [0] * num_nodes

    def _dijkstra(self, src: int, dst: int) -> list[float]:
        """Reduced-cost distances from src, final only up to dst.

        Dial's bucket queue: reduced costs are nonnegative integers, so node
        labels are settled bucket by bucket in increasing distance.  A
        negative reduced cost would file a node into a bucket already passed
        and silently leave it unsettled; the potentials keep every residual
        reduced cost nonnegative (see `ship`), and the tests check that.

        The search stops as soon as dst's label is final: when it labels dst
        with the bucket it is settling, or reaches the bucket of dst's label.
        Labels of the nodes it has not settled are tentative (never below
        dist[dst]) or infinite.  That is enough, because `ship` caps every
        potential update at dist[dst], and the capped labels
        min(dist, dist[dst]) are the same whatever order a queue settles
        ties in.
        """
        pi, adj, cap, to, cost = self.pi, self.adj, self.cap, self.to, self.cost
        dist = [INF] * self.num_nodes
        dist[src] = 0
        buckets = [[src]]
        for d, bucket in enumerate(buckets):
            if dist[dst] <= d:
                break
            for v in bucket:
                if dist[v] != d:
                    continue  # settled earlier from a lower bucket
                pv = pi[v] + d
                for aid in adj[v]:
                    if cap[aid] > 0:
                        w = to[aid]
                        nd = cost[aid] + pv - pi[w]
                        if nd < dist[w]:
                            dist[w] = nd
                            if nd == d and w == dst:
                                return dist  # every label below d is final
                            if nd >= len(buckets):
                                buckets.extend([] for _ in range(nd + 1 - len(buckets)))
                            buckets[nd].append(w)
        return dist

    def _blocking_flows(self, src: int, dst: int, limit: int) -> int:
        """Max flow from src to dst over zero-reduced-cost arcs, up to limit.

        Dinic phases with levels measured from the sink: a reverse BFS from
        dst over live zero-reduced-cost arcs gives each node its arc distance
        tl to dst and stops once src has one.  The DFS leaves v only along a
        live zero-reduced-cost arc into a node w with tl[w] == tl[v] - 1, so
        every arc it takes lies on a shortest admissible src-dst path and it
        rarely meets a dead end.
        """
        pi, cap, to, cost = self.pi, self.cap, self.to, self.cost
        # A path never enters src or leaves dst, so within one round the arcs
        # out of src and into dst only close.  The DFS leaves src, and the BFS
        # enters dst, only through the arcs that are live and admissible now.
        adj = self.adj.copy()
        adj[src] = [aid for aid in adj[src] if cap[aid] > 0 and cost[aid] + pi[src] == pi[to[aid]]]
        adj[dst] = [aid for aid in adj[dst] if cap[aid ^ 1] > 0 and pi[to[aid]] - cost[aid] == pi[dst]]
        pushed_total = 0
        while pushed_total < limit:
            tl = [-1] * self.num_nodes
            tl[dst] = 0
            queue = [dst]
            for w in queue:
                nxt = tl[w] + 1
                pw = pi[w]
                for aid in adj[w]:
                    # aid ^ 1 is the arc v -> w
                    if cap[aid ^ 1] > 0:
                        v = to[aid]
                        if tl[v] < 0 and pi[v] - cost[aid] == pw:
                            tl[v] = nxt
                            queue.append(v)
                if tl[src] >= 0:
                    break
            if tl[src] < 0:
                break
            it = [0] * self.num_nodes
            path: list[int] = []
            v = src
            while True:
                if v == dst:
                    for aid in path:
                        cap[aid] -= 1
                        cap[aid ^ 1] += 1
                    pushed_total += 1
                    if pushed_total >= limit:
                        break
                    path = []
                    v = src
                    continue
                out = adj[v]
                down = tl[v] - 1
                pv = pi[v]
                for i in range(it[v], len(out)):
                    aid = out[i]
                    if cap[aid] > 0:
                        w = to[aid]
                        if tl[w] == down and cost[aid] + pv == pi[w]:
                            break
                else:  # a dead end: retreat one arc
                    it[v] = len(out)
                    if v == src:
                        break
                    aid = path.pop()
                    v = to[aid ^ 1]
                    it[v] += 1
                    continue
                it[v] = i
                path.append(aid)
                v = w
        return pushed_total

    def ship(self, src: int, dst: int, limit: int) -> list[int]:
        """Send up to `limit` units src->dst by cheapest paths.

        Returns the true (un-reduced) cost of each shipped unit, in order;
        within one Dijkstra round every unit moves at the same marginal cost.
        The update pi += min(dist, dist[dst]) keeps every residual reduced
        cost nonnegative, also on the arcs the round's augmentations reverse.
        """
        unit_costs: list[int] = []
        while len(unit_costs) < limit:
            dist = self._dijkstra(src, dst)
            cap_d = dist[dst]
            if cap_d == INF:
                break
            marginal = cap_d + self.pi[dst] - self.pi[src]
            self.pi = [p + (d if d < cap_d else cap_d) for p, d in zip(self.pi, dist)]
            pushed = self._blocking_flows(src, dst, limit - len(unit_costs))
            if pushed == 0:
                break
            unit_costs.extend([marginal] * pushed)
        return unit_costs


class SufficiencySolver:
    """Incremental min-cost-flow solver for one graph, reusable across M.

    Construction ships n single-node paths s -> v_in -> v_out -> t and sends
    the n units back from t to s, which leaves exactly the optimal free
    circulation (cycle coverage).  Each subsequent unit shipped s->t adds
    one control path; after k units the flow is a minimum-cost flow for
    supply k, so a single instance serves the whole M-sweep.

    The return trip makes the same flows as routing the inner arcs' excesses
    from a super source to a super sink: t's arcs t -> v_out and the arcs
    v_in -> s play theirs, in the same node order.  Only one arc leads from
    v_in to the sink, so its place in v_in's list decides no DFS step; the
    arcs that network has beyond D' (v_out -> t into a dead end, then the
    super nodes' arcs) never step down a level; and the distance labels
    and capped potentials do not depend on the order in which nodes are
    settled.  t's potential differs, but a round's admissible paths are its
    cheapest ones whatever the potentials.
    """

    def __init__(self, g: DirectedGraph):
        n = g.n
        self.n = n
        # D' arc k is residual arc 2k; its flow is the capacity of arc 2k + 1.
        arcs = build_sufficiency_flow_network(g, 1).arcs if n else ()
        res = self.res = _Residual(2 * n + 2, arcs)
        # One unit on each path s -> v_in -> v_out -> t (D' arcs 0..3n-1),
        # at cost -n, then the n units back from t to s by cheapest paths.
        res.cap[0:6 * n:2] = [0] * (3 * n)
        res.cap[1:6 * n:2] = [1] * (3 * n)
        routed = res.ship(2 * n + 1, 2 * n, n)
        if len(routed) != n:
            raise AssertionError("each unit can always return along its own path")
        self.unit_costs: list[int] = []
        self.base_cost = -n + sum(routed)
        self._cost = self.base_cost  # base_cost + sum(unit_costs)

    @property
    def shipped(self) -> int:
        return len(self.unit_costs)

    def cost(self) -> int:
        """Cost of the current flow (coverage is -cost)."""
        return self._cost

    def coverage(self) -> int:
        return -self.cost()

    def advance_to(self, units: int) -> int:
        """Ship additional units until `units` total; returns coverage."""
        if not (0 <= units <= self.n):
            raise ValueError(f"units must be in [0, {self.n}], got {units}")
        if units > self.shipped:
            got = self.res.ship(2 * self.n, 2 * self.n + 1, units - self.shipped)
            self.unit_costs.extend(got)
            self._cost += sum(got)
            if self.shipped != units:
                raise AssertionError("s->t routing must not run out below n units")
        return self.coverage()

    def coverage_at(self, units: int) -> int:
        """Coverage of the optimal flow for `units` supply; requires that
        many units to have shipped already."""
        if not (0 <= units <= self.shipped):
            raise ValueError(f"units must be in [0, {self.shipped}] (shipped so far), got {units}")
        return -(self.base_cost + sum(self.unit_costs[:units]))

    def advance_until_coverage(self, target: int) -> int:
        """Ship units until coverage reaches `target`; returns the unit count.

        Marginal coverage gains never increase, so batches sized by the last
        observed gain land exactly on the minimal unit count: a batch can
        cross the target only at its final unit.
        """
        if not (0 <= target <= self.n):
            raise ValueError(f"target must be in [0, {self.n}], got {target}")
        while self.coverage() < target or self.shipped == 0:
            if self.shipped == 0:
                self.advance_to(1)
                continue
            gain = max(1, -self.unit_costs[-1])
            needed = -((self.coverage() - target) // gain)  # ceil division
            self.advance_to(self.shipped + max(1, needed))
        return self.shipped

    def arc_flows(self) -> tuple[int, ...]:
        """Flow values on the D' arcs (in FlowNetwork order) right now."""
        return tuple(self.res.cap[1::2])

    def as_flow(self) -> Flow:
        values = self.arc_flows()
        cost = sum(v * c for v, c in zip(values, self.res.cost[0::2]))
        return Flow(values=values, cost=cost)


def min_cost_flow(g: DirectedGraph, units: int) -> Flow:
    """Minimum-cost integral flow shipping `units` from s to t on g's D'.

    Profitable circulations (covered cycles) are included, per the
    circulation semantics of the transformation.
    """
    fn = build_sufficiency_flow_network(g, units)
    solver = SufficiencySolver(g)
    solver.advance_to(units)
    flow = solver.as_flow()
    assert validate_flow(fn, flow)
    return flow
