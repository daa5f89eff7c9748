import random

import pytest

from netcontrol.flow import SufficiencySolver, build_sufficiency_flow_network, min_cost_flow
from netcontrol.graph import (
    DirectedGraph,
    generate_ba,
    generate_er,
    maximum_matching,
    parse_edge_list,
)
from netcontrol.lti import output_controllable
from netcontrol.pathcover import (
    PathCover,
    controllability_curve,
    cover_check_matrices,
    curve_to_csv,
    extract_paths_cycles,
    max_controllable_subset,
    min_controllers_for,
)
from oracles import best_cover_sizes, random_digraph

FIG8 = "1 2\n2 3\n3 4\n4 5\n6 7\n7 8\n8 9\n9 10\n11 12\n12 13\n13 11\n1 3\n14\n"


def graph_of(n, edge_set):
    return DirectedGraph(n, tuple((s, d, 1.0) for s, d in edge_set))


class TestExtraction:
    def test_chain(self):
        g = parse_edge_list("0 1\n1 2")
        cover = extract_paths_cycles(g, min_cost_flow(g, 1))
        assert cover.paths == ((0, 1, 2),)
        assert cover.cycles == ()

    def test_cycle_plus_isolated(self):
        g = graph_of(4, {(0, 1), (1, 2), (2, 0)})
        cover = extract_paths_cycles(g, min_cost_flow(g, 1))
        assert cover.paths == ((3,),)
        assert cover.cycles == ((0, 1, 2),)

    def test_worked_example_cover_shape(self):
        g = parse_edge_list(FIG8)
        cover, rmax = max_controllable_subset(g, 3)
        assert rmax == 14
        assert sorted(len(p) for p in cover.paths) == [1, 5, 5]
        assert [len(c) for c in cover.cycles] == [3]

    def test_invalid_flow_rejected(self):
        g = parse_edge_list("0 1")
        fn = build_sufficiency_flow_network(g, 1)
        from netcontrol.flow import Flow

        with pytest.raises(ValueError):
            extract_paths_cycles(g, Flow(values=(0,) * len(fn.arcs), cost=0))

    @pytest.mark.parametrize("seed", range(15))
    def test_covered_equals_negated_cost_and_disjoint(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        g = graph_of(n, random_digraph(n, 0.3, rng))
        m = rng.randint(1, n)
        f = min_cost_flow(g, m)
        cover = extract_paths_cycles(g, f)
        assert cover.size == -f.cost
        assert len(cover.paths) == m
        nodes = [v for p in cover.paths for v in p] + [v for c in cover.cycles for v in c]
        assert len(nodes) == len(set(nodes))


class TestValidate:
    @pytest.mark.parametrize("node", [99, 5, -1])
    @pytest.mark.parametrize("where", ["path", "cycle"])
    def test_node_outside_graph_refused(self, node, where):
        g = generate_er(5, 2, 0)
        seq = ((node,),)
        cover = PathCover(paths=seq, cycles=()) if where == "path" else PathCover(paths=(), cycles=seq)
        with pytest.raises(ValueError, match="not in the graph"):
            cover.validate(g)

    @pytest.mark.parametrize("cover", [PathCover(paths=((),), cycles=()),
                                       PathCover(paths=((0,),), cycles=((),))])
    def test_empty_path_or_cycle_refused(self, cover):
        with pytest.raises(ValueError, match="empty path or cycle"):
            cover.validate(generate_er(5, 2, 0))


class TestQueries:
    def test_edgeless_subset(self):
        g = DirectedGraph(5, ())
        cover, rmax = max_controllable_subset(g, 3)
        assert rmax == 3 and len(cover.paths) == 3

    def test_chain_full(self):
        g = parse_edge_list("0 1\n1 2\n2 3")
        _, rmax = max_controllable_subset(g, 1)
        assert rmax == 4

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            max_controllable_subset(DirectedGraph(3, ()), 0)

    def test_min_controllers_chain(self):
        mstar, cover = min_controllers_for(parse_edge_list("0 1\n1 2\n2 3\n3 4\n4 5"), 6)
        assert mstar == 1 and cover.size == 6

    def test_min_controllers_edgeless(self):
        mstar, cover = min_controllers_for(DirectedGraph(5, ()), 3)
        assert mstar == 3 and cover.size >= 3

    @pytest.mark.parametrize("seed", range(10))
    def test_full_target_matches_matching_bound(self, seed):
        g = generate_er(random.Random(seed).randint(4, 40), 2.2, seed=seed)
        mstar, cover = min_controllers_for(g, g.n)
        assert mstar == max(g.n - maximum_matching(g), 1)
        assert cover.size == g.n

    @pytest.mark.parametrize("seed", range(20))
    def test_exhaustive_subset_optimality(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 6)
        edge_set = random_digraph(n, 0.35, rng)
        g = graph_of(n, edge_set)
        best = best_cover_sizes(n, edge_set)
        for m in range(1, n + 1):
            _, rmax = max_controllable_subset(g, m)
            assert rmax == best[m]


class TestCurve:
    def test_chain_of_four(self):
        curve = controllability_curve(parse_edge_list("0 1\n1 2\n2 3"))
        assert [(p.m, p.rmax) for p in curve] == [(1, 4)]
        assert curve[0].frac_controllable == 1.0
        assert curve[0].frac_drivers == 1.0

    def test_edgeless(self):
        curve = controllability_curve(DirectedGraph(3, ()))
        assert [(p.m, p.rmax) for p in curve] == [(1, 1), (2, 2), (3, 3)]

    def test_empty_graph(self):
        assert controllability_curve(DirectedGraph(0, ())) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_and_terminal(self, seed):
        g = generate_er(40, 2.0, seed=seed)
        curve = controllability_curve(g)
        values = [p.rmax for p in curve]
        assert values == sorted(values)
        assert values[-1] == g.n
        assert curve[-1].frac_drivers == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_curve_stops_at_mstar_with_every_rmax(self, seed):
        # The sweep ships M* units, not n: each point must still be the
        # optimum rmax(M) a solver reaches by advancing to exactly M units.
        rng = random.Random(300 + seed)
        n = rng.randint(2, 120)
        g = (generate_er(n, rng.uniform(0.5, 4.0), seed) if seed % 2
             else generate_ba(n, rng.randint(1, 2), seed))
        curve = controllability_curve(g)
        mstar = len(curve)
        solver = SufficiencySolver(g)
        assert [p.rmax for p in curve] == [solver.advance_to(m) for m in range(1, mstar + 1)]
        assert curve[-1].rmax == g.n and (mstar == 1 or curve[-2].rmax < g.n)
        assert [p.m for p in curve] == list(range(1, mstar + 1))

    def test_csv_format(self):
        text = curve_to_csv(controllability_curve(parse_edge_list("0 1\n1 2\n2 3")))
        lines = text.strip().splitlines()
        assert lines[0] == "M,rmax,frac_controllable,frac_drivers_normalized"
        assert lines[1] == "1,4,1,1"


class TestRealization:
    @pytest.mark.parametrize("seed", range(8))
    def test_cover_matrices_output_controllable(self, seed):
        # structural cover realized with random weights must pass the
        # numeric output-controllability test
        rng = random.Random(300 + seed)
        n = rng.randint(3, 25)
        g = generate_er(n, rng.uniform(0.8, 3.0), seed=seed)
        m = rng.randint(1, max(1, n // 3))
        cover, _ = max_controllable_subset(g, m)
        b, c = cover_check_matrices(cover, g.n)
        assert output_controllable(g.randomized_adjacency(seed), b, c)

    def test_cycle_attachment_relaxes_budget(self):
        g = graph_of(4, {(0, 1), (1, 2), (2, 0)})
        cover, _ = max_controllable_subset(g, 1)
        b, c = cover_check_matrices(cover, 4)
        assert b[3, 0] == 1.0  # path head keeps its wire
        assert b[0, 0] == 1.0  # cycle head rides the same input
        assert output_controllable(g.randomized_adjacency(), b, c)
