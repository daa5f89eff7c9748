"""Directed-graph core: representation, edge-list I/O and random generators.

Node ids in input files may be arbitrary nonnegative integers; internally
nodes are always the dense range [0, n) and the external->internal mapping
is kept on the graph so results can be reported in the caller's ids.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, int, float]

# Seed for the structural->numeric bridge: unweighted graphs get edge weights
# drawn uniformly from [0.5, 1.5] so that generic-rank arguments apply.
DEFAULT_WEIGHT_SEED = 1729


class GraphFormatError(ValueError):
    """An edge-list or graph-JSON document could not be parsed."""


def _json_int(value, what: str) -> int:
    """A JSON integer; int() would truncate 2.7 and read true as 1."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph with optional nonzero edge weights.

    Attributes:
        n: number of nodes; node indices are 0..n-1.
        edges: sorted tuple of (src, dst, weight) with weight != 0.
        id_map: external id -> internal index (identity for generated graphs);
            a bijection onto 0..n-1.
    """

    n: int
    edges: tuple[Edge, ...]
    id_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        for s, d, w in self.edges:
            if type(w) in (bool, np.bool_):  # float() would read it as 0.0 or 1.0
                raise ValueError(f"edge ({s},{d}) weight {w!r} is not a number")
        edges = tuple(sorted((int(s), int(d), float(w)) for s, d, w in self.edges))
        object.__setattr__(self, "edges", edges)
        if not self.id_map:
            object.__setattr__(self, "id_map", {i: i for i in range(self.n)})
        elif sorted(self.id_map.values()) != list(range(self.n)):
            raise ValueError(f"id_map must map {self.n} external ids one to one onto 0..{self.n - 1}")
        elif min(self.id_map) < 0:  # parse_edge_list refuses them too
            raise ValueError(f"node ids must be nonnegative, got {min(self.id_map)}")
        seen = set()
        for s, d, w in self.edges:
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise ValueError(f"edge ({s},{d}) endpoint out of range [0,{self.n})")
            if w == 0.0:
                raise ValueError(f"edge ({s},{d}) has zero weight")
            if not math.isfinite(w):
                raise ValueError(f"edge ({s},{d}) has non-finite weight {w}")
            if (s, d) in seen:
                raise ValueError(f"duplicate edge ({s},{d})")
            seen.add((s, d))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def internal_to_external(self) -> dict[int, int]:
        return {v: k for k, v in self.id_map.items()}

    def successors(self) -> list[list[int]]:
        """Adjacency lists indexed by source node."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for s, d, _ in self.edges:
            adj[s].append(d)
        return adj

    def predecessors(self) -> list[list[int]]:
        """Adjacency lists indexed by destination node."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for s, d, _ in self.edges:
            adj[d].append(s)
        return adj

    def edge_set(self) -> set[tuple[int, int]]:
        return {(s, d) for s, d, _ in self.edges}

    def adjacency(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Dense adjacency matrix A with A[i, j] != 0 iff edge j -> i exists."""
        a = np.zeros((self.n, self.n))
        for k, (s, d, w) in enumerate(self.edges):
            a[d, s] = w if weights is None else weights[k]
        return a

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "DirectedGraph":
        """Inverse of `adjacency`: an edge j -> i of weight A[i, j] per nonzero (-0.0 is none)."""
        rows, cols = np.nonzero(a)
        return cls(n=a.shape[0], edges=tuple(zip(cols.tolist(), rows.tolist(), a[rows, cols].tolist())))

    def randomized_adjacency(self, seed: int = DEFAULT_WEIGHT_SEED) -> np.ndarray:
        """Adjacency with weights redrawn uniformly from [0.5, 1.5].

        Used for numeric controllability checks on unweighted graphs, where
        unit weights can hit non-generic rank cancellations.
        """
        rng = np.random.default_rng(seed)
        return self.adjacency(weights=rng.uniform(0.5, 1.5, size=len(self.edges)))

    def realized_adjacency(self) -> np.ndarray:
        """The numeric network the LTI layer works on.

        The given weights when any edge carries one (weight != 1); for a
        purely structural graph, weights drawn with DEFAULT_WEIGHT_SEED.
        """
        if any(w != 1.0 for _, _, w in self.edges):
            return self.adjacency()
        return self.randomized_adjacency(DEFAULT_WEIGHT_SEED)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "edges": [[s, d, w] for s, d, w in self.edges],
            "id_map": {str(k): v for k, v in self.id_map.items()},
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DirectedGraph":
        try:
            payload = json.loads(text)
            return cls(
                n=_json_int(payload["n"], "n"),
                edges=tuple((_json_int(s, "an edge endpoint"), _json_int(d, "an edge endpoint"), w)
                            for s, d, w in payload["edges"]),
                id_map={int(k): _json_int(v, "an id_map value")
                        for k, v in payload.get("id_map", {}).items()},
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise GraphFormatError(f"bad graph JSON: {exc}") from exc


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse whitespace-separated "src dst [weight]" lines into a graph.

    Lines starting with '#' and blank lines are ignored.  A line with a single
    token declares an isolated node (this is what serialize_edge_list emits for
    nodes without incident edges, so parse/serialize round-trips).  External
    ids are remapped to the dense range [0, n) in sorted order; duplicate
    (src, dst) lines collapse to the last weight seen.
    """
    mentioned: set[int] = set()
    raw_edges: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) > 3:
            raise GraphFormatError(f"line {lineno}: expected 'src dst [weight]', got {len(tokens)} fields")
        try:
            ids = [int(tok) for tok in tokens[:2]]
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer node id") from exc
        if any(i < 0 for i in ids):
            raise GraphFormatError(f"line {lineno}: node ids must be nonnegative")
        if len(tokens) == 1:
            mentioned.add(ids[0])
            continue
        weight = 1.0
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad weight {tokens[2]!r}") from exc
        if weight == 0.0:
            raise GraphFormatError(f"line {lineno}: zero edge weight is not allowed")
        if not math.isfinite(weight):
            raise GraphFormatError(f"line {lineno}: non-finite weight {tokens[2]}")
        mentioned.update(ids)
        raw_edges[(ids[0], ids[1])] = weight

    id_map = {ext: i for i, ext in enumerate(sorted(mentioned))}
    edges = tuple((id_map[s], id_map[d], w) for (s, d), w in raw_edges.items())
    return DirectedGraph(n=len(id_map), edges=edges, id_map=id_map)


def serialize_edge_list(g: DirectedGraph) -> str:
    """Inverse of parse_edge_list, written in the graph's external ids."""
    ext = g.internal_to_external()
    lines = []
    touched = set()
    for s, d, w in g.edges:
        touched.update((s, d))
        if w == 1.0:
            lines.append(f"{ext[s]} {ext[d]}")
        else:
            lines.append(f"{ext[s]} {ext[d]} {w:.17g}")
    for v in range(g.n):
        if v not in touched:
            lines.append(f"{ext[v]}")
    return "\n".join(lines) + ("\n" if lines else "")


def generate_er(n: int, mu: float, seed: int) -> DirectedGraph:
    """Erdos-Renyi style digraph with exactly round(mu*n/2) edges.

    mu is the target mean total (in+out) degree, so the edge count is
    round(mu*n/2).  Edges are distinct directed pairs without self-loops,
    drawn uniformly; deterministic for a given seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= mu < math.inf:  # NaN fails both comparisons
        raise ValueError("mu must be finite and >= 0")
    m = round(mu * n / 2)
    if m > n * (n - 1):
        raise ValueError(f"cannot place {m} directed edges on {n} nodes")
    rng = random.Random(seed)
    codes = rng.sample(range(n * (n - 1)), m)
    edges = []
    for code in codes:
        src, off = divmod(code, n - 1) if n > 1 else (0, 0)
        dst = off + (1 if off >= src else 0)
        edges.append((src, dst, 1.0))
    return DirectedGraph(n=n, edges=tuple(edges))


def generate_ba(n: int, m: int, seed: int) -> DirectedGraph:
    """Barabasi-Albert style digraph: (n-m)*m edges via preferential attachment.

    Each new node attaches to m distinct existing nodes chosen proportionally
    to current total degree; every edge is oriented by a fair coin flip on the
    same seed stream.  Deterministic for a given seed.
    """
    if not (n > m >= 1):
        raise ValueError("need n > m >= 1")
    rng = random.Random(seed)
    edges = []
    repeated: list[int] = []  # one entry per endpoint, drives preferential choice
    for new in range(m, n):
        targets: list[int] = []
        while len(targets) < m:
            if repeated:
                cand = rng.choice(repeated)
            else:
                cand = rng.randrange(new)
            if cand not in targets:
                targets.append(cand)
        for t in targets:
            if rng.random() < 0.5:
                edges.append((new, t, 1.0))
            else:
                edges.append((t, new, 1.0))
            repeated.extend((new, t))
    return DirectedGraph(n=n, edges=tuple(edges))


def _hopcroft_karp(n: int, adj: list[list[int]]) -> tuple[int, list[int]]:
    """Maximum matching on the bipartite out-copy/in-copy split.

    adj[u] lists the in-copies reachable from out-copy u.  Returns the
    matching size and match_out, where match_out[u] is the matched in-copy
    of u or -1.
    """
    inf = float("inf")
    match_out = [-1] * n
    match_in = [-1] * n
    dist = [inf] * n
    size = 0

    def bfs() -> bool:
        queue = deque()
        for u in range(n):
            if match_out[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_in[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        # Iterative DFS along the BFS layering; recursion would overflow on
        # long augmenting chains.  chosen[i] is the in-copy that stack[i]
        # descended through, so len(chosen) == len(stack) - 1.
        stack = [(root, iter(adj[root]))]
        chosen: list[int] = []
        while stack:
            u, it = stack[-1]
            moved = False
            for v in it:
                w = match_in[v]
                if w == -1:
                    match_out[u] = v
                    match_in[v] = u
                    for i in range(len(chosen)):
                        pu, pv = stack[i][0], chosen[i]
                        match_out[pu] = pv
                        match_in[pv] = pu
                    return True
                if dist[w] == dist[u] + 1:
                    chosen.append(v)
                    stack.append((w, iter(adj[w])))
                    moved = True
                    break
            if not moved:
                dist[u] = inf
                stack.pop()
                if stack:
                    chosen.pop()
        return False

    while bfs():
        for u in range(n):
            if match_out[u] == -1 and dfs(u):
                size += 1
    return size, match_out


def maximum_matching(g: DirectedGraph) -> int:
    """Size of the maximum matching of the bipartite out/in representation."""
    return _hopcroft_karp(g.n, g.successors())[0]


def classical_driver_count(g: DirectedGraph) -> int:
    """Minimum driver count for full structural control: max(n - matching, 1)."""
    if g.n == 0:
        return 0
    return max(g.n - maximum_matching(g), 1)


def _walk_successors(successor: list[int | None], heads: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Decode a successor map into paths and cycles.

    successor[v] is the node after v, -1 where a path ends, or None for a
    node off the cover.  Paths are traced from `heads`, in the given order;
    the nodes left on the cover form cycles, each traced from its lowest node.
    """
    seen = [False] * len(successor)

    def trace(v: int) -> list[int]:
        seq = []
        while v != -1 and not seen[v]:
            seen[v] = True
            seq.append(v)
            v = successor[v]
        return seq

    paths = [trace(v) for v in heads]
    cycles = []
    for v, nxt in enumerate(successor):
        if nxt is not None and not seen[v]:
            cycles.append(trace(v))
    return paths, cycles


def matching_path_cover(g: DirectedGraph) -> list[list[int]]:
    """Vertex-disjoint paths covering every node, built from a maximum matching.

    Matched edges define a successor function.  Path heads (no matched
    predecessor) come first, in index order; each cycle follows, broken at
    its lowest-index node, so the result is paths only.  Used as a cycle-free
    fallback cover for placement heuristics.
    """
    return _matching_paths(_hopcroft_karp(g.n, g.successors())[1])


def _matching_paths(match_out: list[int]) -> list[list[int]]:
    """`matching_path_cover` of the matching `_hopcroft_karp` returned as match_out."""
    has_pred = set(match_out)
    paths, cycles = _walk_successors(match_out, [v for v in range(len(match_out)) if v not in has_pred])
    return paths + cycles
