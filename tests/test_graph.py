import random

import numpy as np
import pytest

from netcontrol.graph import (
    DirectedGraph,
    GraphFormatError,
    _walk_successors,
    classical_driver_count,
    generate_ba,
    generate_er,
    matching_path_cover,
    maximum_matching,
    parse_edge_list,
    serialize_edge_list,
)
from oracles import brute_maximum_matching, random_digraph


class TestParse:
    def test_two_edges(self):
        g = parse_edge_list("1 2\n2 3")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))
        assert g.id_map == {1: 0, 2: 1, 3: 2}

    def test_empty(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.edges == ()

    def test_self_loop_with_weight(self):
        g = parse_edge_list("5 5 2.5")
        assert g.n == 1
        assert g.edges == ((0, 0, 2.5),)

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n0 1\n# tail\n")
        assert g.edge_count == 1

    def test_duplicate_keeps_last_weight(self):
        g = parse_edge_list("0 1 2.0\n0 1 3.0")
        assert g.edges == ((0, 1, 3.0),)

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n0 x")

    def test_too_many_fields(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 1 2.0 9")

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="zero"):
            parse_edge_list("0 1 0.0")

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("-1 2")

    def test_sparse_external_ids(self):
        g = parse_edge_list("10 500\n500 7")
        assert g.n == 3
        assert g.id_map == {7: 0, 10: 1, 500: 2}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_er_roundtrip(self, seed):
        g = generate_er(30, 1.0, seed)  # sparse: some isolated nodes
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_weighted_roundtrip(self):
        g = DirectedGraph(4, ((0, 1, 0.25), (2, 2, -3.5)))
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_json_roundtrip(self):
        g = parse_edge_list("10 500\n500 7")
        assert DirectedGraph.from_json(g.to_json()) == g

    def test_json_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            DirectedGraph.from_json('{"nodes": 3}')

    @pytest.mark.parametrize("n, id_map", [
        (3, '{"10": 0}'), (2, '{"10": 0, "11": 0}'), (2, '{"10": 0, "11": 5}'),
    ], ids=["partial", "two-ids-to-one", "out-of-range"])
    def test_json_rejects_id_map_not_onto_nodes(self, n, id_map):
        with pytest.raises(GraphFormatError, match="id_map"):
            DirectedGraph.from_json(f'{{"n": {n}, "edges": [[0, 1, 1.0]], "id_map": {id_map}}}')

    @pytest.mark.parametrize("text", [
        '{"n": -1, "edges": []}', '{"n": 2.7, "edges": [[0, 1, 1.0]]}', '{"n": true, "edges": []}',
    ], ids=["negative", "fractional", "boolean"])
    def test_json_rejects_bad_n(self, text):
        with pytest.raises(GraphFormatError, match="n must be"):
            DirectedGraph.from_json(text)

    @pytest.mark.parametrize("text", [
        '{"n": 2, "edges": [[0.7, 1, 1.0]]}', '{"n": 2, "edges": [[0, 1.0, 1.0]]}',
        '{"n": 2, "edges": [[true, 1, 1.0]]}',
        '{"n": 2, "edges": [[0, 1, 1.0]], "id_map": {"5": 0, "6": 1.0}}',
        '{"n": 2, "edges": [[0, 1, 1.0]], "id_map": {"5": false, "6": true}}',
    ], ids=["fractional-endpoint", "float-endpoint", "boolean-endpoint", "float-id-map-value",
            "boolean-id-map-values"])
    def test_json_rejects_non_integer_node_ids(self, text):
        with pytest.raises(GraphFormatError, match="must be a JSON integer"):
            DirectedGraph.from_json(text)

    @pytest.mark.parametrize("weight, reason", [
        ("NaN", "non-finite weight"), ("Infinity", "non-finite weight"), ("-Infinity", "non-finite weight"),
        ("true", "not a number"), ("false", "not a number"),
    ])
    def test_json_rejects_bad_weight(self, weight, reason):
        with pytest.raises(GraphFormatError, match=reason):
            DirectedGraph.from_json(f'{{"n": 2, "edges": [[0, 1, {weight}]]}}')

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_edge_list_rejects_non_finite_weight(self, weight):
        with pytest.raises(GraphFormatError, match="non-finite weight"):
            parse_edge_list(f"0 1\n1 2 {weight}\n")


class TestInvariants:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(3, ((0, 1, 1.0), (0, 1, 2.0)))

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(2, ((0, 2, 1.0),))

    def test_zero_weight(self):
        with pytest.raises(ValueError, match="zero weight"):
            DirectedGraph(2, ((0, 1, 0.0),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite weight"):
            DirectedGraph(2, ((0, 1, weight),))

    @pytest.mark.parametrize("weight", [True, np.True_])
    def test_boolean_weight(self, weight):
        with pytest.raises(ValueError, match="not a number"):
            DirectedGraph(2, ((0, 1, weight),))

    def test_adjacency_orientation(self):
        g = DirectedGraph(2, ((0, 1, 3.0),))
        a = g.adjacency()
        assert a[1, 0] == 3.0 and a[0, 1] == 0.0

    def test_from_adjacency_holds_the_nonzeros_of_a(self):
        # edge j -> i of weight A[i, j]; -0.0 is no edge, and node 2 has none in
        a = np.array([[0.0, 1.0, 0.0, -0.0],
                      [-2.5, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [1.0, -0.0, 3.0, 0.0]])
        graph = DirectedGraph.from_adjacency(a)
        assert graph.n == 4
        assert graph.edges == ((0, 1, -2.5), (0, 3, 1.0), (1, 0, 1.0), (2, 3, 3.0), (3, 1, 1.0))
        assert np.array_equal(graph.adjacency(), a)
        g = generate_er(20, 3.0, seed=1)
        assert DirectedGraph.from_adjacency(g.adjacency()) == g

    def test_randomized_adjacency_range_and_determinism(self):
        g = generate_er(20, 3.0, seed=1)
        a1, a2 = g.randomized_adjacency(5), g.randomized_adjacency(5)
        assert np.array_equal(a1, a2)
        vals = a1[a1 != 0]
        assert vals.size == g.edge_count
        assert np.all((vals >= 0.5) & (vals <= 1.5))


class TestGenerateEr:
    def test_table_instance_edge_count(self):
        assert generate_er(100, 6, seed=0).edge_count == 300

    def test_zero_degree(self):
        assert generate_er(10, 0, seed=0).edge_count == 0

    def test_determinism(self):
        assert generate_er(50, 3, seed=9) == generate_er(50, 3, seed=9)

    def test_no_self_loops(self):
        g = generate_er(40, 5, seed=2)
        assert all(s != d for s, d, _ in g.edges)

    def test_exact_count_many(self):
        for seed, (n, mu) in enumerate([(10, 1), (25, 2.4), (7, 0.9)]):
            assert generate_er(n, mu, seed).edge_count == round(mu * n / 2)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            generate_er(10, 30, seed=0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            generate_er(0, 1, seed=0)

    @pytest.mark.parametrize("mu", [-1.0, float("inf"), float("nan")])
    def test_bad_mu(self, mu):
        # inf raised OverflowError from round() and NaN a cast error
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            generate_er(10, mu, seed=0)


class TestGenerateBa:
    def test_edge_count_in_reference_band(self):
        g = generate_ba(100, 4, seed=0)
        assert 300 <= g.edge_count <= 400

    def test_forced_single_edge(self):
        g = generate_ba(2, 1, seed=3)
        assert g.edge_count == 1

    def test_determinism(self):
        assert generate_ba(60, 2, seed=4) == generate_ba(60, 2, seed=4)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_ba(3, 3, seed=0)

    def test_no_duplicates_or_loops(self):
        g = generate_ba(80, 3, seed=5)
        assert len({(s, d) for s, d, _ in g.edges}) == g.edge_count
        assert all(s != d for s, d, _ in g.edges)


class TestMatching:
    def test_chain(self):
        assert maximum_matching(parse_edge_list("0 1\n1 2")) == 2

    def test_no_edges(self):
        assert maximum_matching(DirectedGraph(5, ())) == 0

    def test_cycle_perfect(self):
        assert maximum_matching(parse_edge_list("0 1\n1 2\n2 0")) == 3

    def test_driver_counts(self):
        assert classical_driver_count(parse_edge_list("0 1\n1 2")) == 1
        assert classical_driver_count(DirectedGraph(5, ())) == 5
        assert classical_driver_count(parse_edge_list("0 1\n1 2\n2 0")) == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_against_exhaustive_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        edge_set = random_digraph(n, 0.4, rng)
        g = DirectedGraph(n, tuple((s, d, 1.0) for s, d in edge_set))
        assert maximum_matching(g) == brute_maximum_matching(n, sorted(edge_set))

    def test_walk_successors(self):
        # path 4 -> 1 -> 7, singleton 6, cycles 5 -> 2 -> 8 and 3 -> 0, node 9 off the cover
        successor = [3, 7, 8, 0, 1, 2, -1, -1, 5, None]
        paths, cycles = _walk_successors(successor, [6, 4])
        assert paths == [[6], [4, 1, 7]]  # in the order of the heads
        assert cycles == [[0, 3], [2, 8, 5]]  # each from its lowest node

    @pytest.mark.parametrize("seed", range(6))
    def test_matching_path_cover_properties(self, seed):
        g = generate_er(40, 2.5, seed=seed)
        paths = matching_path_cover(g)
        seen = [v for p in paths for v in p]
        assert sorted(seen) == list(range(g.n))
        edge_set = g.edge_set()
        for p in paths:
            for a, b in zip(p, p[1:]):
                assert (a, b) in edge_set
