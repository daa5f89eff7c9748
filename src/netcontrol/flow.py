"""Unit-capacity min-cost flow on the vertex-split sufficiency network.

A graph D(V, E) is transformed into an s-t network D' by adding a source s
with an arc to every node, a sink t with an arc from every node, and by
splitting each node v into v_in -> v_out with cost -1 on the inner arc (all
other arcs cost 0, every capacity is 1).  Shipping M units from s to t at
minimum cost then maximizes the number of nodes covered by M vertex-disjoint
paths plus any number of vertex-disjoint cycles: every saturated inner arc
is a covered node and cycles of D show up as profitable circulations.

The solver first saturates all negative (inner) arcs, which leaves a residual
network with nonnegative costs, then routes the resulting excesses and the M
supply units with successive-shortest-path batches (Dijkstra with vertex
potentials + blocking flow per cost level).  This is exact and integral.

Each round runs Dijkstra until the sink is settled (labels beyond it are not
final; the update pi += min(dist, dist[t]) caps them and keeps all residual
reduced costs nonnegative), then Dinic phases on the zero-reduced-cost arcs:
a BFS up to the sink's level records each node's admissible arcs into the
next level, and a DFS with current-arc pointers walks only those lists.
"""

from __future__ import annotations

import heapq
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
        """DIMACS-min-like text dump, for debugging."""
        lines = [f"p min {self.num_vertices} {len(self.arcs)}"]
        lines.append(f"n {self.source} {self.units}")
        lines.append(f"n {self.sink} {-self.units}")
        for tail, head, cap, cost in self.arcs:
            lines.append(f"a {tail} {head} 0 {cap} {cost}")
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
    """Paired-arc residual network with potentials for reduced-cost search."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.pi = [0] * num_nodes

    def add_arc(self, tail: int, head: int, cap: int, cost: int) -> None:
        aid = len(self.to)
        self.to.extend((head, tail))
        self.cap.extend((cap, 0))
        self.cost.extend((cost, -cost))
        self.adj[tail].append(aid)
        self.adj[head].append(aid + 1)

    def _dijkstra(self, src: int, dst: int) -> list[float]:
        """Reduced-cost distances from src, final only up to dst.

        The search stops once dst is settled: labels of the nodes it has not
        settled are tentative (never below dist[dst]) or infinite.  That is
        enough, because `ship` caps every potential update at dist[dst].
        """
        pi, adj, cap, to, cost = self.pi, self.adj, self.cap, self.to, self.cost
        dist = [INF] * self.num_nodes
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v == dst:
                break
            pv = pi[v]
            for aid in adj[v]:
                if cap[aid] <= 0:
                    continue
                w = to[aid]
                nd = d + cost[aid] + pv - pi[w]
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist

    def _blocking_flows(self, src: int, dst: int, limit: int) -> int:
        """Max flow from src to dst over zero-reduced-cost arcs, up to limit."""
        pi, adj, cap, to, cost = self.pi, self.adj, self.cap, self.to, self.cost
        pushed_total = 0
        while pushed_total < limit:
            level = [-1] * self.num_nodes
            level[src] = 0
            ahead: list[list[int]] = [[]] * self.num_nodes
            queue = [src]
            for v in queue:
                if level[v] == level[dst]:
                    break
                nxt = level[v] + 1
                pv = pi[v]
                out = []
                for aid in adj[v]:
                    if cap[aid] > 0:
                        w = to[aid]
                        if cost[aid] + pv == pi[w]:
                            if level[w] == -1:
                                level[w] = nxt
                                queue.append(w)
                                out.append(aid)
                            elif level[w] == nxt:
                                out.append(aid)
                ahead[v] = out
            if level[dst] == -1:
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
                out = ahead[v]
                i = it[v]
                while i < len(out) and cap[out[i]] <= 0:
                    i += 1
                it[v] = i
                if i < len(out):
                    aid = out[i]
                    path.append(aid)
                    v = to[aid]
                    continue
                if v == src:
                    break
                aid = path.pop()
                v = to[aid ^ 1]
                it[v] += 1
        return pushed_total

    def ship(self, src: int, dst: int, limit: int) -> list[int]:
        """Send up to `limit` units src->dst by cheapest paths.

        Returns the true (un-reduced) cost of each shipped unit, in order;
        within one Dijkstra round every unit moves at the same marginal cost.
        """
        unit_costs: list[int] = []
        while len(unit_costs) < limit:
            dist = self._dijkstra(src, dst)
            if dist[dst] == INF:
                break
            marginal = int(dist[dst]) + self.pi[dst] - self.pi[src]
            cap_d = dist[dst]
            for v in range(self.num_nodes):
                self.pi[v] += int(min(dist[v], cap_d))
            pushed = self._blocking_flows(src, dst, limit - len(unit_costs))
            if pushed == 0:
                break
            unit_costs.extend([marginal] * pushed)
        return unit_costs


class SufficiencySolver:
    """Incremental min-cost-flow solver for one graph, reusable across M.

    Construction saturates all inner arcs and routes the induced excesses,
    which is exactly the optimal free circulation (cycle coverage).  Each
    subsequent unit shipped s->t adds one control path; after k units the
    flow is a minimum-cost flow for supply k, so a single instance serves
    the whole M-sweep.
    """

    def __init__(self, g: DirectedGraph):
        n = g.n
        self.n = n
        num = 2 * n + 4  # D' plus a super source/sink for excess routing
        self.aux_source = 2 * n + 2
        self.aux_sink = 2 * n + 3
        self.res = _Residual(num)
        # D' arc k is residual arc 2k; its flow is the capacity of arc 2k + 1
        arcs = build_sufficiency_flow_network(g, 1).arcs if n else ()
        for arc in arcs:
            self.res.add_arc(*arc)
        self._num_arcs = len(arcs)
        self.unit_costs: list[int] = []
        self.base_cost = 0
        if n:
            self._solve_circulation()
        self._cost = self.base_cost  # base_cost + sum(unit_costs)

    def _solve_circulation(self):
        n = self.n
        res = self.res
        # Saturate every negative (inner) arc; v_out gains a unit of excess
        # and v_in a deficit, wired to an auxiliary source/sink.
        for v in range(n):
            inner = 2 * (n + v)
            res.cap[inner] -= 1
            res.cap[inner + 1] += 1
        for v in range(n):
            res.add_arc(self.aux_source, n + v, 1, 0)
            res.add_arc(v, self.aux_sink, 1, 0)
        routed = res.ship(self.aux_source, self.aux_sink, n)
        if len(routed) != n:
            raise AssertionError("excess routing must always complete")
        self.base_cost = -n + sum(routed)

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
        if units > self.shipped:
            raise ValueError("units not shipped yet")
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
        return tuple(self.res.cap[1:2 * self._num_arcs:2])

    def as_flow(self) -> Flow:
        values = self.arc_flows()
        cost = sum(v * c for v, c in zip(values, self.res.cost[0:2 * self._num_arcs:2]))
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
