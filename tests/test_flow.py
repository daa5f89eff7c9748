import hashlib
import math
import random

import pytest

from netcontrol.flow import (
    Flow,
    SufficiencySolver,
    build_sufficiency_flow_network,
    min_cost_flow,
    validate_flow,
)
from netcontrol.graph import DirectedGraph, generate_ba, generate_er, parse_edge_list
from oracles import best_cover_sizes, random_digraph, residual_has_negative_cycle


def graph_of(n, edge_set):
    return DirectedGraph(n, tuple((s, d, 1.0) for s, d in edge_set))


class TestBuild:
    def test_single_node(self):
        fn = build_sufficiency_flow_network(DirectedGraph(1, ()), 1)
        assert fn.num_vertices == 4
        assert len(fn.arcs) == 3
        assert sum(1 for a in fn.arcs if a[3] == -1) == 1

    def test_five_node_three_edge_counts(self):
        g = graph_of(5, {(0, 1), (1, 2), (3, 4)})
        fn = build_sufficiency_flow_network(g, 2)
        assert fn.num_vertices == 12
        assert len(fn.arcs) == 18  # |E| + 3n

    def test_inner_arcs_cost_minus_one_rest_zero(self):
        g = graph_of(3, {(0, 1)})
        fn = build_sufficiency_flow_network(g, 1)
        for tail, head, cap, cost in fn.arcs:
            assert cap == 1
            expected = -1 if (head == tail + fn.n and tail < fn.n) else 0
            assert cost == expected

    def test_supplies(self):
        fn = build_sufficiency_flow_network(graph_of(3, set()), 2)
        assert fn.supply(fn.source) == 2
        assert fn.supply(fn.sink) == -2
        assert sum(fn.supply(v) for v in range(fn.num_vertices)) == 0

    @pytest.mark.parametrize("units", [0, 4])
    def test_units_out_of_range(self, units):
        with pytest.raises(ValueError):
            build_sufficiency_flow_network(graph_of(3, set()), units)

    def test_dimacs_header(self):
        fn = build_sufficiency_flow_network(graph_of(2, {(0, 1)}), 1)
        dump = fn.to_dimacs()
        assert dump.startswith("p min 6 7\n")
        assert "a " in dump

    @pytest.mark.parametrize("n, units", [(1, 1), (5, 2), (12, 7)])
    def test_dimacs_parses_back(self, n, units):
        # DIMACS numbers nodes 1..N: a standard reader rejects node 0.
        rng = random.Random(n)
        g = graph_of(n, random_digraph(n, 0.3, rng))
        fn = build_sufficiency_flow_network(g, units)
        lines = [line.split() for line in fn.to_dimacs().splitlines()]
        problem = [line for line in lines if line[0] == "p"]
        assert len(problem) == 1 and problem[0][1] == "min"
        num_nodes, num_arcs = int(problem[0][2]), int(problem[0][3])
        supplies = {int(line[1]): int(line[2]) for line in lines if line[0] == "n"}
        arcs = [tuple(map(int, line[1:])) for line in lines if line[0] == "a"]
        assert num_nodes == fn.num_vertices and len(arcs) == num_arcs == len(fn.arcs)
        assert sum(supplies.values()) == 0
        assert supplies == {fn.source + 1: units, fn.sink + 1: -units}
        ids = list(supplies) + [v for arc in arcs for v in arc[:2]]
        assert all(1 <= v <= num_nodes for v in ids)
        assert arcs == [(t + 1, h + 1, 0, cap, cost) for t, h, cap, cost in fn.arcs]


class TestMinCostFlow:
    def test_chain_plus_isolated(self):
        g = graph_of(5, {(0, 1), (1, 2)})
        f = min_cost_flow(g, 1)
        assert f.cost == -3

    def test_no_edges_two_units(self):
        f = min_cost_flow(DirectedGraph(3, ()), 2)
        assert f.cost == -2

    def test_free_cycle(self):
        g = graph_of(4, {(0, 1), (1, 2), (2, 0)})
        f = min_cost_flow(g, 1)
        assert f.cost == -4

    def test_determinism(self):
        g = generate_er(30, 3, seed=5)
        f1 = min_cost_flow(g, 4)
        f2 = min_cost_flow(g, 4)
        assert f1 == f2


class TestValidateFlow:
    def test_solver_output_valid(self):
        g = generate_er(20, 2, seed=3)
        fn = build_sufficiency_flow_network(g, 3)
        assert validate_flow(fn, min_cost_flow(g, 3))

    def test_zero_flow_invalid(self):
        fn = build_sufficiency_flow_network(graph_of(3, set()), 1)
        zero = Flow(values=(0,) * len(fn.arcs), cost=0)
        assert not validate_flow(fn, zero)

    def test_overfull_arc_invalid(self):
        g = graph_of(3, set())
        fn = build_sufficiency_flow_network(g, 1)
        f = min_cost_flow(g, 1)
        bumped = list(f.values)
        bumped[0] = 2
        assert not validate_flow(fn, Flow(values=tuple(bumped), cost=f.cost))

    def test_wrong_cost_invalid(self):
        g = graph_of(3, set())
        fn = build_sufficiency_flow_network(g, 1)
        f = min_cost_flow(g, 1)
        assert not validate_flow(fn, Flow(values=f.values, cost=f.cost - 1))


class TestOptimality:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_cover(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        edge_set = random_digraph(n, rng.uniform(0.15, 0.5), rng)
        g = graph_of(n, edge_set)
        solver = SufficiencySolver(g)
        best = best_cover_sizes(n, edge_set)
        for m in range(1, n + 1):
            assert solver.advance_to(m) == best[m]

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_and_bounded(self, seed):
        g = generate_er(25, random.Random(seed).uniform(0.5, 4), seed=seed)
        solver = SufficiencySolver(g)
        prev = 0
        for m in range(1, g.n + 1):
            cov = solver.advance_to(m)
            assert prev <= cov <= g.n
            prev = cov
        assert prev == g.n

    @pytest.mark.parametrize("seed", range(10))
    def test_no_residual_negative_cycle(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(2, 12)
        g = graph_of(n, random_digraph(n, 0.3, rng))
        m = rng.randint(1, n)
        fn = build_sufficiency_flow_network(g, m)
        f = min_cost_flow(g, m)
        assert not residual_has_negative_cycle(fn, f)

    @pytest.mark.parametrize("seed", range(24))
    def test_self_loops_match_exhaustive_cover(self, seed):
        # A self-loop v -> v is the residual arc v_out -> v_in, parallel to
        # the reverse of v's inner arc once the circulation saturates it.
        rng = random.Random(700 + seed)
        n = rng.randint(1, 6)
        edge_set = {(s, d) for s, d in random_digraph(n, rng.uniform(0.1, 0.4), rng) if s != d}
        edge_set |= {(v, v) for v in range(n) if rng.random() < 0.5}
        edge_set.add((n - 1, n - 1))
        g = graph_of(n, edge_set)
        solver = SufficiencySolver(g)
        best = best_cover_sizes(n, edge_set)
        for m in range(1, n + 1):
            assert solver.advance_to(m) == best[m]
            fn = build_sufficiency_flow_network(g, m)
            flow = solver.as_flow()
            assert validate_flow(fn, flow)
            assert not residual_has_negative_cycle(fn, flow)

    def test_advance_until_coverage_minimal(self):
        g = generate_er(60, 2, seed=11)
        fast = SufficiencySolver(g)
        mstar = fast.advance_until_coverage(g.n)
        slow = SufficiencySolver(g)
        covs = [slow.advance_to(m) for m in range(1, g.n + 1)]
        assert covs[mstar - 1] == g.n
        assert mstar == 1 or covs[mstar - 2] < g.n

    def test_unit_costs_nonincreasing_gains(self):
        g = generate_er(50, 3, seed=2)
        solver = SufficiencySolver(g)
        solver.advance_to(g.n)
        gains = [-c for c in solver.unit_costs]
        assert gains == sorted(gains, reverse=True)


def _flow_digest(graphs):
    # sha256 over base cost, unit costs and arc flows of each graph's solver
    # after construction and after advancing to 1, ceil(n/3) and n units,
    # then of a fresh solver advanced until it covers every node.
    digest = hashlib.sha256()

    def record(solver):
        state = (solver.base_cost, solver.unit_costs, solver.arc_flows())
        digest.update(repr(state).encode())

    for g in graphs:
        solver = SufficiencySolver(g)
        record(solver)
        for m in (1, math.ceil(g.n / 3), g.n):
            solver.advance_to(m)
            record(solver)
        fresh = SufficiencySolver(g)
        fresh.advance_until_coverage(g.n)
        record(fresh)
    return digest.hexdigest()


def _assert_reduced_costs_nonnegative(solver):
    res = solver.res
    for aid, head in enumerate(res.to):
        if res.cap[aid] > 0:
            tail = res.to[aid ^ 1]
            assert res.cost[aid] + res.pi[tail] - res.pi[head] >= 0, (aid, tail, head)


class TestKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_potentials_keep_reduced_costs_nonnegative(self, seed):
        # The search may stop once the sink is settled, because potentials
        # capped at the sink's distance keep every residual arc nonnegative.
        rng = random.Random(500 + seed)
        n = rng.randint(1, 40)
        g = graph_of(n, random_digraph(n, rng.uniform(0.02, 0.25), rng))
        solver = SufficiencySolver(g)
        _assert_reduced_costs_nonnegative(solver)  # aux arcs still present
        for m in range(1, n + 1):
            solver.advance_to(m)
            _assert_reduced_costs_nonnegative(solver)

    def test_flows_pinned_bit_for_bit(self):
        # One digest over base cost, unit costs and arc flows of a seeded
        # family.  Search order breaks ties between optimal flows, so a kernel
        # change that picks another optimal flow, with every coverage still
        # right, fails here; covers and EDCP results depend on that choice.
        graphs = []
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(3, 300)
            graphs.append(generate_er(n, rng.uniform(0.5, 5.0), seed))
            graphs.append(generate_ba(n, rng.randint(1, 2), seed))
        graphs.append(generate_er(1500, 4.0, 0))
        assert _flow_digest(graphs) == "ec76efd9689ce0bbf9df582172b126fbfb17a98a492196eb32bd2c9dfcf9f2e4"

    def test_tie_heavy_flows_pinned_bit_for_bit(self):
        # A second digest on families with many optimal flows: self-loops,
        # isolated nodes, disjoint cycles beside chains, and ER/BA graphs up
        # to n=300 with self-loops and isolated nodes added.
        rng = random.Random(1969)
        graphs = []
        for _ in range(30):
            n = rng.randint(1, 12)
            graphs.append(graph_of(n, random_digraph(n, rng.uniform(0.05, 0.5), rng)))
        for lengths in ((1,), (1, 1, 2), (2, 3), (3, 3, 3), (1, 2, 3, 4, 5), (6, 6)):
            edge_set, v = set(), 0
            for length in lengths:
                edge_set |= {(v + i, v + (i + 1) % length) for i in range(length)}
                v += length
            edge_set |= {(v, v + 1), (v + 1, v + 2)}  # a chain beside them
            graphs.append(graph_of(v + 5, edge_set))  # two isolated nodes
        graphs.append(graph_of(7, {(i, j) for i in range(7) for j in range(7)}))
        for seed in range(10):
            n = rng.randint(3, 300)
            for g in (generate_er(n, rng.uniform(0.3, 4.0), seed),
                      generate_ba(n, rng.randint(1, 3), seed)):
                loops = {(v, v) for v in range(n) if rng.random() < 0.1}
                edge_set = {(s, d) for s, d, _ in g.edges} | loops
                graphs.append(graph_of(n + rng.randint(0, 5), edge_set))
        assert _flow_digest(graphs) == "321fe1c93ad628fb69421ce4a07cc663e532ae7634475da5d0cd1f974b67115d"
