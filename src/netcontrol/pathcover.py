"""Control paths and cycles from optimal flows, and controller-count queries.

The optimal flow on the sufficiency network decomposes into M vertex-disjoint
control paths (one per shipped unit, possibly single nodes) plus
vertex-disjoint cycles that ride along for free.  Every covered node is
structurally controllable when drivers sit at the path heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flow import Flow, SufficiencySolver, build_sufficiency_flow_network, validate_flow
from .graph import DirectedGraph, _walk_successors


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint directed paths and cycles covering the set R.

    paths: node sequences, first node of each is the driver attachment point.
    cycles: node sequences with an implicit closing edge (last -> first).
    """

    paths: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def covered(self) -> frozenset[int]:
        nodes = [v for p in self.paths for v in p]
        nodes += [v for c in self.cycles for v in c]
        return frozenset(nodes)

    @property
    def size(self) -> int:
        return sum(len(p) for p in self.paths) + sum(len(c) for c in self.cycles)

    def validate(self, g: DirectedGraph) -> None:
        """Raise if the cover repeats a vertex or uses a non-edge."""
        seen: set[int] = set()
        edge_set = g.edge_set()
        for seq in list(self.paths) + list(self.cycles):
            for v in seq:
                if v in seen:
                    raise ValueError(f"node {v} appears twice in the cover")
                seen.add(v)
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                if (a, b) not in edge_set:
                    raise ValueError(f"path step ({a},{b}) is not an edge")
        for c in self.cycles:
            closing = list(zip(c, c[1:])) + [(c[-1], c[0])]
            for a, b in closing:
                if (a, b) not in edge_set:
                    raise ValueError(f"cycle step ({a},{b}) is not an edge")


def extract_paths_cycles(g: DirectedGraph, f: Flow) -> PathCover:
    """Decompose a valid optimal flow into control paths and cycles.

    Paths are traced from the lowest-indexed entry node upward, cycles from
    the lowest-indexed remaining node, so the output is deterministic.
    """
    n = g.n
    units = sum(f.values[:n])
    fn = build_sufficiency_flow_network(g, units) if units else None
    if fn is None or not validate_flow(fn, f):
        raise ValueError("flow is not a valid flow for this graph")

    # successor[v] = next node after v, -1 when the unit exits to t, None
    # when v is not covered.
    successor: list[int | None] = [None] * n
    for k, (s, d, _) in enumerate(g.edges):
        if f.values[3 * n + k] == 1:
            successor[s] = d
    for v in range(n):
        if f.values[2 * n + v] == 1:
            successor[v] = -1
    paths, cycles = _walk_successors(successor, [v for v in range(n) if f.values[v] == 1])

    cover = PathCover(paths=tuple(map(tuple, paths)), cycles=tuple(map(tuple, cycles)))
    cover.validate(g)
    if len(cover.paths) != units:
        raise AssertionError("every supply unit must form one control path")
    if cover.size != -f.cost:
        raise AssertionError("covered count must equal the negated flow cost")
    return cover


def max_controllable_subset(g: DirectedGraph, m: int) -> tuple[PathCover, int]:
    """Best coverage achievable with exactly m control paths (plus free cycles)."""
    if not (1 <= m <= g.n):
        raise ValueError(f"m must be in [1, {g.n}], got {m}")
    solver = SufficiencySolver(g)
    rmax = solver.advance_to(m)
    cover = extract_paths_cycles(g, solver.as_flow())
    return cover, rmax


def min_controllers_for(g: DirectedGraph, r_target: int) -> tuple[int, PathCover]:
    """Least number of controllers whose best coverage reaches r_target nodes."""
    if not (1 <= r_target <= g.n):
        raise ValueError(f"r_target must be in [1, {g.n}], got {r_target}")
    solver = SufficiencySolver(g)
    mstar = solver.advance_until_coverage(r_target)
    return mstar, extract_paths_cycles(g, solver.as_flow())


class CurvePoint(NamedTuple):
    m: int
    rmax: int
    frac_controllable: float
    frac_drivers: float


def controllability_curve(g: DirectedGraph) -> list[CurvePoint]:
    """(M, rmax(M)) for M = 1..M*(n), with normalized fraction columns.

    Marginal coverage gains of successive units are nonincreasing, so the
    solver's per-unit costs give the whole curve in one sweep, which stops at
    M*: after k units the flow is optimal for supply k, so each prefix sum is
    rmax(k).
    """
    if g.n == 0:
        return []
    solver = SufficiencySolver(g)
    mstar = solver.advance_until_coverage(g.n)
    coverages = []
    cov = -solver.base_cost
    for c in solver.unit_costs:
        cov -= c
        coverages.append(cov)
    return [
        CurvePoint(m, coverages[m - 1], coverages[m - 1] / g.n, m / mstar)
        for m in range(1, mstar + 1)
    ]


def curve_to_csv(curve: list[CurvePoint]) -> str:
    lines = ["M,rmax,frac_controllable,frac_drivers_normalized"]
    for pt in curve:
        lines.append(f"{pt.m},{pt.rmax},{pt.frac_controllable:.6g},{pt.frac_drivers:.6g}")
    return "\n".join(lines) + "\n"


def cover_check_matrices(cover: PathCover, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, C) realizing a cover for numeric controllability checks.

    Drivers sit at path heads; C selects the covered nodes in index order.
    Cycles carry no controller of their own, so each cycle's lowest node is
    wired to the first controller column as an extra attachment (one input
    feeding several nodes keeps every node accessible; this intentionally
    relaxes the one-wire-per-column budget for the check only).
    """
    m = len(cover.paths)
    b = np.zeros((n, max(m, 1)))
    for col, path in enumerate(cover.paths):
        b[path[0], col] = 1.0
    for cyc in cover.cycles:
        b[min(cyc), 0] = 1.0
    covered = sorted(cover.covered)
    c = np.zeros((len(covered), n))
    for row, v in enumerate(covered):
        c[row, v] = 1.0
    return b, c
