import hashlib
import importlib
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from netcontrol.edcp import (
    CoverInfeasibleError,
    Stem,
    _Request,
    assign_drivers,
    edcp,
    even_division,
    merge_cycles,
    naive_placement,
    reduce_drivers,
    string_cost,
    trim_to_r,
)
from netcontrol.graph import DirectedGraph, generate_ba, generate_er, parse_edge_list
from netcontrol.lti import chain_control_cost, output_controllable
from netcontrol.pathcover import PathCover, max_controllable_subset

FIG8 = "1 2\n2 3\n3 4\n4 5\n6 7\n7 8\n8 9\n9 10\n11 12\n12 13\n13 11\n1 3\n14\n"
# external id v <-> internal v-1 for the worked example
PAPER_SEGMENTS = {(0, 1, 2), (3, 4), (5, 6, 7, 8), (10, 11, 12)}


def fig8_graph():
    return parse_edge_list(FIG8)


def fig8_cover():
    cover, _ = max_controllable_subset(fig8_graph(), 3)
    return cover


class TestMergeCycles:
    def test_no_cycles_untouched(self):
        cover = PathCover(paths=((0, 1), (2,)), cycles=())
        stems = merge_cycles(cover)
        assert [s.nodes for s in stems] == [(0, 1), (2,)]
        assert all(not s.junctions for s in stems)

    def test_worked_example_merge(self):
        stems = merge_cycles(fig8_cover())
        short = [s for s in stems if 13 in s.nodes][0]
        assert short.nodes == (13, 10, 11, 12)
        assert short.junctions == (1,)

    def test_two_cycles_longest_first(self):
        cover = PathCover(paths=((9,),), cycles=((0, 1), (2, 3, 4)))
        stems = merge_cycles(cover)
        assert stems[0].nodes == (9, 2, 3, 4, 0, 1)
        assert stems[0].junctions == (1, 4)

    def test_cycle_rotation_to_lowest(self):
        cover = PathCover(paths=((9,),), cycles=((5, 3, 4),))
        stems = merge_cycles(cover)
        assert stems[0].nodes == (9, 3, 4, 5)

    def test_cycles_without_stems_get_synthetic_host(self):
        cover = PathCover(paths=(), cycles=((0, 1, 2),))
        stems = merge_cycles(cover)
        assert stems[0].junctions == ()
        assert stems[0].nodes == (0, 1, 2)


class TestEvenDivision:
    def test_twelve_by_four(self):
        assert even_division(12, 4) == [3, 3, 3, 3]

    def test_ten_by_three(self):
        assert even_division(10, 3) == [4, 3, 3]

    def test_all_singletons(self):
        assert even_division(5, 5) == [1, 1, 1, 1, 1]

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            even_division(3, 4)


class TestStringCost:
    def test_unit(self):
        assert string_cost(1, 1, 2.0) == 0.5

    def test_five_with_two_drivers(self):
        want = chain_control_cost(3, 2.0) + chain_control_cost(2, 2.0)
        assert string_cost(5, 2, 2.0) == pytest.approx(want)

    def test_all_singletons_scalar_cost(self):
        assert string_cost(7, 7, 2.0) == pytest.approx(7 * 0.5)
        assert string_cost(3, 3, 4.0) == pytest.approx(3 * 0.25)

    def test_more_drivers_than_nodes(self):
        with pytest.raises(ValueError):
            string_cost(2, 3, 2.0)

    def test_nonincreasing_in_driver_count(self):
        for q in range(1, 11):
            costs = [string_cost(q, d, 2.0) for d in range(1, q + 1)]
            assert costs == sorted(costs, reverse=True)


class TestAssign:
    def test_worked_example_driver_set(self):
        stems = merge_cycles(fig8_cover())
        assign_drivers(stems, [3, 3, 3, 3])
        drivers = sorted(seg[0] for s in stems for seg in s.segments)
        assert drivers == [0, 3, 5, 8, 10]  # external {1, 4, 6, 9, 11}
        nc = sum(len(seg) for s in stems for seg in s.segments)
        assert nc == 13
        # the pre-junction node 14 (internal 13) is skipped, not controlled
        assert all(13 not in seg for s in stems for seg in s.segments)

    def test_single_stem_even_plan(self):
        stems = [Stem(nodes=(0, 1, 2, 3, 4, 5))]
        assign_drivers(stems, [3, 3])
        assert stems[0].segments == [[0, 1, 2], [3, 4, 5]]

    def test_tie_prefers_lower_stem(self):
        stems = [Stem(nodes=(0, 1)), Stem(nodes=(2, 3))]
        assign_drivers(stems, [2, 2])
        assert stems[0].segments == [[0, 1]]
        assert stems[1].segments == [[2, 3]]

    def test_junction_cut_when_needed_for_coverage(self):
        # run of 2 before a junction with no slack: must be kept, not skipped
        stems = [Stem(nodes=(0, 1, 2, 3), junctions=(2,))]
        assign_drivers(stems, [4])
        nodes = {v for seg in stems[0].segments for v in seg}
        assert nodes == {0, 1, 2, 3}
        assert len(stems[0].segments) == 2

    def test_exhaustion_error(self):
        stems = [Stem(nodes=(0, 1))]
        with pytest.raises(CoverInfeasibleError):
            assign_drivers(stems, [3], r_size=3)


class TestReduce:
    def test_worked_example_tie_releases_later_stem(self):
        stems = merge_cycles(fig8_cover())
        assign_drivers(stems, [3, 3, 3, 3])
        reduce_drivers(stems, 4, 2.0)
        assert sum(s.driver_count for s in stems) == 4
        red = stems[1]
        assert red.segments == [[5, 6, 7, 8, 9]]  # re-spread as one block

    def test_noop_when_at_target(self):
        stems = [Stem(nodes=(0, 1, 2), segments=[[0, 1, 2]])]
        reduce_drivers(stems, 1, 2.0)
        assert stems[0].segments == [[0, 1, 2]]

    def test_respread_evenly(self):
        stems = [Stem(nodes=tuple(range(6)), segments=[[0, 1], [2, 3], [4, 5]])]
        reduce_drivers(stems, 2, 2.0)
        assert stems[0].segments == [[0, 1, 2], [3, 4, 5]]

    def test_merge_past_float_range_priced_inf(self):
        # at t_f = 0.05 chain estimates are inf from 50 nodes on: merging two
        # 50-node segments into one 100-node segment costs inf - inf, which
        # was NaN and lost every later `delta <= best` comparison
        module = importlib.import_module("netcontrol.edcp")
        stem = Stem(nodes=tuple(range(100)), segments=[list(range(50)), list(range(50, 100))])
        assert module._merge_price(stem, stem.controlled_blocks(), 0.05)[0] == math.inf
        assert module._plus(math.inf, -math.inf) == math.inf
        assert module._plus(1.5, -0.5) == 1.0

    def test_junction_blocks_removal(self):
        stems = [Stem(nodes=(0, 1, 2, 3), junctions=(2,), segments=[[0, 1], [2, 3]])]
        with pytest.raises(CoverInfeasibleError):
            reduce_drivers(stems, 1, 2.0)


class TestTrim:
    def test_worked_example_trim(self):
        stems = merge_cycles(fig8_cover())
        assign_drivers(stems, [3, 3, 3, 3])
        reduce_drivers(stems, 4, 2.0)
        trim_to_r(stems, 12)
        segs = {tuple(seg) for s in stems for seg in s.segments}
        assert segs == PAPER_SEGMENTS

    def test_noop(self):
        stems = [Stem(nodes=(0, 1), segments=[[0, 1]])]
        trim_to_r(stems, 2)
        assert stems[0].segments == [[0, 1]]

    def test_tie_prefers_lower_driver(self):
        stems = [Stem(nodes=(5, 6), segments=[[5, 6]]), Stem(nodes=(0, 1), segments=[[0, 1]])]
        trim_to_r(stems, 3)
        assert stems[1].segments == [[0]]
        assert stems[0].segments == [[5, 6]]


class TestEdcpEndToEnd:
    def test_worked_example_golden(self):
        res = edcp(fig8_graph(), 4, 12, 2.0)
        assert set(res.segments) == PAPER_SEGMENTS
        assert len(res.placement.drivers) == 4
        assert len(res.placement.controlled) == 12
        assert res.fallback is None

    def test_chain_six(self):
        res = edcp(parse_edge_list("0 1\n1 2\n2 3\n3 4\n4 5"), 2, 6, 2.0)
        assert res.segments == ((0, 1, 2), (3, 4, 5))
        assert res.placement.drivers == (0, 3)

    def test_result_json_schema(self):
        g = fig8_graph()
        res = edcp(g, 4, 12, 2.0)
        payload = json.loads(res.to_json(g))
        assert set(payload) == {"drivers", "controlled", "segments", "E_estimate", "E_exact"}
        assert sorted(payload["drivers"]) == [1, 4, 6, 11]
        assert len(payload["controlled"]) == 12
        assert payload["E_estimate"] == pytest.approx(res.e_estimate)

    def test_estimates_past_float_range_price_without_nan(self, monkeypatch):
        # a 30-node chain joins a 100-node one at its node 50; segments of 87
        # nodes and more have an infinite chain estimate, and a merge or
        # release between two of them is priced inf, never inf - inf = NaN
        module = importlib.import_module("netcontrol.edcp")
        prices = []
        real_merge, real_release = module._merge_price, module._release_step

        def merge(*args):
            price = real_merge(*args)
            prices.append(None if price is None else price[0])
            return price

        def release(*args):
            step = real_release(*args)
            prices.append(None if step is None else step.delta)
            return step

        monkeypatch.setattr(module, "_merge_price", merge)
        monkeypatch.setattr(module, "_release_step", release)
        edges = [(i, i + 1) for i in range(99)] + [(100 + i, 101 + i) for i in range(29)] + [(129, 50)]
        g = DirectedGraph(130, tuple((s, d, 1.0) for s, d in edges))
        res = edcp(g, 2, 125)
        assert len(res.placement.drivers) == 2 and len(set(res.placement.controlled)) == 125
        assert res.e_estimate == math.inf
        assert json.loads(res.to_json(g))["E_estimate"] is None
        assert math.inf in prices
        assert not any(p is not None and math.isnan(p) for p in prices)

    def test_estimate_is_sum_of_segment_costs(self):
        res = edcp(fig8_graph(), 4, 12, 2.0)
        want = sum(chain_control_cost(len(s), 2.0) for s in res.segments)
        assert res.e_estimate == pytest.approx(want)

    def test_bad_requests(self):
        g = fig8_graph()
        with pytest.raises(ValueError):
            edcp(g, 0, 5)
        with pytest.raises(ValueError):
            edcp(g, 3, 20)
        with pytest.raises(ValueError, match="m must be"):
            edcp(g, 5, 4)

    @pytest.mark.parametrize("t_f", [0.0, float("nan"), float("inf")])
    def test_horizon_checked_with_request(self, t_f):
        for place in (edcp, naive_placement):
            with pytest.raises(ValueError, match="t_f"):
                place(fig8_graph(), 4, 12, t_f)

    def test_each_merge_step_evaluated_once(self, monkeypatch):
        # every step of the reduction loop looks up the cheapest merge once
        # and then applies either that merge or a release
        module = importlib.import_module("netcontrol.edcp")  # `netcontrol.edcp` is the function
        calls = Counter()
        for name in ("merge", "apply_merge", "apply_release"):
            def counted(*args, _name=name, _orig=getattr(module._Reduction, name)):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(module._Reduction, name, counted)
        edcp(generate_er(60, 4.0, 0), 13, 60)
        assert calls["apply_merge"] > 0 and calls["apply_release"] > 0
        assert calls["merge"] == calls["apply_merge"] + calls["apply_release"]

    def test_stuck_reduction_prices_no_stem_again(self, monkeypatch):
        # ER n=25 seed 9 at M=8, R=25 is refused: two covers end in "no stem
        # can give up a driver" after merges and releases.  The loop refuses
        # on the prices it keeps, which it computed when steps rewrote a stem;
        # it used to price every stem once more before refusing.
        module = importlib.import_module("netcontrol.edcp")
        priced, refreshed = [], []
        real_price, real_refresh = module._merge_price, module._Reduction.refresh

        def refresh(red, indices):
            indices = list(indices)
            refreshed.extend(indices)
            real_refresh(red, indices)

        monkeypatch.setattr(module, "_merge_price", lambda *args: priced.append(1) or real_price(*args))
        monkeypatch.setattr(module._Reduction, "refresh", refresh)
        with pytest.raises(CoverInfeasibleError, match="no stem can give up a driver"):
            edcp(generate_er(25, 2.5, 9), 8, 25)
        assert refreshed and len(priced) == len(refreshed)

    def test_each_stem_priced_by_one_allocation(self, monkeypatch):
        # one allocation run for d drivers also prices the stem at d - 1;
        # pricing both totals separately took 48 runs on this request
        module = importlib.import_module("netcontrol.edcp")
        calls = []
        real = module._allocate_drivers
        monkeypatch.setattr(module, "_allocate_drivers", lambda *args: calls.append(1) or real(*args))
        edcp(generate_er(60, 4.0, 0), 13, 60)
        assert 0 < len(calls) <= 24

    def test_release_simulations_reused(self, monkeypatch):
        # 68 reduction steps (65 merges, 3 releases) that each simulate every
        # release they try make 7,339 simulations; a tenth of that is the bound
        module = importlib.import_module("netcontrol.edcp")
        calls = []
        real = module._simulate_release
        monkeypatch.setattr(module, "_simulate_release", lambda *args: calls.append(1) or real(*args))
        res = edcp(generate_er(600, 4.0, 0), 130, 600)
        assert len(res.placement.drivers) == 130 and len(set(res.placement.controlled)) == 600
        assert 0 < len(calls) <= 733

    @pytest.mark.parametrize("case", [*range(8), "er-29", "ba-34", "er-33", "er-37", "er-600"])
    def test_kept_releases_match_fresh_simulations(self, monkeypatch, case):
        # at every step each kept release outcome, dead ends included, is
        # what simulating it again on the stems as they stand gives; the kept
        # records, prices and free set are what a fresh reduction state
        # builds, and the step chooses what it chooses from that fresh state
        module = importlib.import_module("netcontrol.edcp")
        real = module._release_step
        steps, checked = [], []

        def facts(release):
            return None if release is None else (release.delta, release.released, release.grown)

        def release_step(red, bound):
            steps.append(1)
            for seg, kept in list(red.outcomes.values()):
                assert id(seg) in red.order  # its segment still exists
                assert facts(kept) == facts(module._simulate_release(red, seg, red.need(seg)))
                checked.append(kept)
            fresh = module._Reduction(red, red.stems, red.r_size)  # red has the request's succ, pred and t_f
            assert (fresh.records, fresh.prices, fresh.free) == (red.records, red.prices, red.free)
            step = real(red, bound)
            assert facts(step) == facts(real(fresh, bound))
            return step

        monkeypatch.setattr(module, "_release_step", release_step)
        named = {
            "er-29": lambda: [(generate_er(29, 3.1, 43), 4, 22)],  # an entry next to the free nodes changes
            "ba-34": lambda: [(generate_ba(34, 3, 1), 6, 34)],  # merges change entries next to kept releases
            "er-33": lambda: [(generate_er(33, 4.7, 16), 8, 33)],
            "er-37": lambda: [(generate_er(37, 1.8, 61), 6, 24)],  # a release changes the free set
            "er-600": lambda: [(generate_er(600, 4.0, 0), 130, 600)],  # 65 merges and 3 releases
        }
        if case in named:
            requests = named[case]()
        else:
            # at M* with R = n the steps are mostly merges; at M*/2 and
            # R = 2n/3 mostly releases, each into free nodes
            rnd = random.Random(4000 + case)
            n = rnd.randint(60, 160)
            g = generate_er(n, rnd.uniform(2.0, 4.0), case) if case % 2 else generate_ba(n, rnd.randint(1, 2), case)
            mstar = max(n - _Request(g, 1, 2.0).matching[0], 1)
            requests = [(g, mstar, n), (g, max(mstar // 2, 1), 2 * n // 3)]
        for g, m, r in requests:
            for naive in (False, True):
                try:
                    _Request(g, m, 2.0).place(r, naive)
                except CoverInfeasibleError:
                    pass
        assert steps and (checked or case == "er-29")  # there every step drops what it kept
        if case == "er-600":
            assert len(checked) > 1000

    @pytest.mark.parametrize("place", [edcp, naive_placement])
    def test_adjacency_lists_built_once_per_request(self, monkeypatch, place):
        # the request runs three pipelines on one set of lists (edcp also a refine
        # search); building them per step took 7 predecessor lists for edcp, 6 for naive
        calls = []
        real = DirectedGraph.predecessors
        monkeypatch.setattr(DirectedGraph, "predecessors", lambda g: calls.append(1) or real(g))
        res = place(generate_er(13, 2.4535888044089837, 20), 1, 6)
        assert res.fallback == "matching-paths"
        assert len(calls) == 1

    def test_one_matching_per_request(self, monkeypatch):
        # the matching that gives M* also gives the matching paths; the
        # matching-paths rung used to match again on successor lists of its own
        graph_module, module = importlib.import_module("netcontrol.graph"), importlib.import_module("netcontrol.edcp")
        calls = {"matchings": 0, "successors": 0}
        real_match, real_succ = graph_module._hopcroft_karp, DirectedGraph.successors

        def matching(*args):
            calls["matchings"] += 1
            return real_match(*args)

        def successors(g):
            calls["successors"] += 1
            return real_succ(g)

        for target in (graph_module, module):
            monkeypatch.setattr(target, "_hopcroft_karp", matching)
        monkeypatch.setattr(DirectedGraph, "successors", successors)
        res = edcp(generate_er(13, 2.4535888044089837, 20), 1, 6)
        assert res.fallback == "matching-paths"
        assert calls == {"matchings": 1, "successors": 1}

    @pytest.mark.parametrize("n, mu, seed, m, r", [
        (13, 2.4535888044089837, 20, 1, 6), (25, 2.5, 4, 4, 18), (60, 4.0, 0, 20, 40), (60, 4.0, 0, 13, 60),
    ], ids=["below-mstar", "all-covers-stuck", "above-mstar", "at-mstar"])
    def test_one_solver_per_request(self, monkeypatch, n, mu, seed, m, r):
        # one solver gives rmax(m), the flow cover at M* and the m-path cover;
        # the first two requests reach the m-path cover, which the request
        # used to solve with a second solver
        solver = importlib.import_module("netcontrol.flow").SufficiencySolver
        solvers = []
        real = solver.__init__
        monkeypatch.setattr(solver, "__init__", lambda self, g: solvers.append(g) or real(self, g))
        for place in (edcp, naive_placement):
            solvers.clear()
            place(generate_er(n, mu, seed), m, r)
            assert len(solvers) == 1

    def test_one_request_serves_every_r_size(self):
        # a request reused across r_size places as fresh calls do, bit for bit
        g = generate_er(40, 3.0, 5)
        req = _Request(g, 6, 2.0)
        for r in (6, 20, 32):
            for naive, place in ((False, edcp), (True, naive_placement)):
                assert req.place(r, naive=naive) == place(g, 6, r)

    def test_each_ordered_placement_evaluated_once(self, monkeypatch):
        # refine met 3 of its 19 exact evaluations on this request (ER n=20
        # seed 11, M=3, R=10) again; costs are kept by ordered segments, and
        # the result is the one every evaluation made, bit for bit
        module = importlib.import_module("netcontrol.edcp")
        seen = []
        real = module.control_cost
        monkeypatch.setattr(module, "control_cost",
                            lambda a, p: seen.append((p.drivers, p.controlled)) or real(a, p))
        res = edcp(generate_er(20, 3.0, 11), 3, 10)
        assert len(seen) == len(set(seen)) == 16
        assert res.segments == ((4, 5, 0), (3, 16, 19, 17), (12, 10, 13))
        assert res.e_exact.hex() == "0x1.3c119b4b468f5p+10"

    @pytest.mark.parametrize("n, mu, seed, m, r, fallback", [
        (13, 2.4535888044089837, 20, 1, 6, "matching-paths"),
        (25, 2.5, 4, 4, 18, None),
    ], ids=["merges-on-third-cover", "all-covers-stuck"])
    def test_each_cover_runs_once(self, monkeypatch, n, mu, seed, m, r, fallback):
        # the ladder is walked once: on the first request the flow and m-path
        # covers need a stuck release and the matching paths do not; on the
        # second all three covers need one and the first wins.  Replaying the
        # covers with stuck releases allowed took 6 and 4 runs.
        module = importlib.import_module("netcontrol.edcp")
        calls = []
        real = module.assign_drivers
        monkeypatch.setattr(module, "assign_drivers", lambda *args, **kw: calls.append(1) or real(*args, **kw))
        res = edcp(generate_er(n, mu, seed), m, r)
        assert res.fallback == fallback
        assert len(calls) == 3

    def test_infeasible_cover(self):
        g = parse_edge_list("0 1\n0 2\n2 3\n3 2")
        with pytest.raises(CoverInfeasibleError):
            edcp(g, 1, 4, 2.0)

    def test_exact_path_fallback(self):
        g = parse_edge_list("0 1\n0 2\n2 3\n3 2")
        res = edcp(g, 1, 3, 2.0)
        assert res.segments == ((0, 2, 3),)
        assert res.fallback == "exact-paths"

    def test_determinism(self):
        g = generate_er(40, 2.5, seed=8)
        _, rmax = max_controllable_subset(g, 5)
        # free-rider cycles in the optimum may not be reachable with 5 wires,
        # so walk down to a target the path-only structure can host
        for r in range(min(30, rmax), 4, -1):
            try:
                r1 = edcp(g, 5, r, 2.0)
                break
            except CoverInfeasibleError:
                continue
        r2 = edcp(g, 5, r, 2.0)
        assert r1.segments == r2.segments
        assert r1.e_estimate == r2.e_estimate
        assert sum(len(s) for s in r1.segments) == r

    @pytest.mark.parametrize("seed", range(6))
    def test_placement_contract(self, seed):
        g = generate_er(25, 2.5, seed=seed)
        m, r = 4, 18
        _, rmax = max_controllable_subset(g, m)
        if rmax < r:  # seeds 2 and 3: rmax(4) = 17
            with pytest.raises(CoverInfeasibleError):
                edcp(g, m, r, 2.0)
            return
        res = edcp(g, m, r, 2.0)
        assert len(res.placement.drivers) == m
        assert len(res.placement.controlled) == r
        nodes = [v for seg in res.segments for v in seg]
        assert len(nodes) == len(set(nodes)) == r
        edge_set = g.edge_set()
        assert all(step in edge_set for seg in res.segments for step in zip(seg, seg[1:]))
        a = g.randomized_adjacency(seed)
        assert output_controllable(a, res.placement.b_matrix(g.n), res.placement.c_matrix(g.n))

    @pytest.mark.parametrize("seed", range(4))
    def test_beats_naive_baseline(self, seed):
        g = generate_er(30, 3.0, seed=seed)
        _, rmax = max_controllable_subset(g, 6)
        r = min(24, rmax)
        res = edcp(g, 6, r, 2.0)
        base = naive_placement(g, 6, r, 2.0)
        assert res.e_estimate <= base.e_estimate + 1e-9
        assert len(base.placement.drivers) == 6
        assert len(base.placement.controlled) == r


def _pinned_requests():
    """60 seeded small requests (ER or BA, n = 4..40), then the n=600 M* placement."""
    for seed in range(60):
        rnd = random.Random(seed)
        n = rnd.randint(4, 40)
        if rnd.random() < 0.5:
            g = generate_er(n, rnd.uniform(1.5, 3.0), seed)
        else:
            g = generate_ba(n, rnd.randint(1, 3), seed)
        m = rnd.randint(1, max(1, n // 2))
        yield g, m, rnd.randint(m, n)
    yield generate_er(600, 4.0, 0), 130, 600


def _wide_requests():
    """120 seeded requests (ER or BA, n = 4..40) with their horizon and ELPGM matrix.

    Every third graph carries signed non-unit weights, and every third
    request (another residue) hands EDCP its 0/1 adjacency as ELPGM does;
    R is rmax(m) on every fourth request.  n stays at 40 or below, where the
    exact costs do not depend on the BLAS thread count.
    """
    for seed in range(120):
        rnd = random.Random(1000 + seed)
        n = rnd.randint(4, 40)
        if rnd.random() < 0.5:
            g = generate_er(n, rnd.uniform(1.5, 3.5), seed)
        else:
            g = generate_ba(n, rnd.randint(1, 3), seed)
        if seed % 3 == 1:
            g = DirectedGraph(n=n, edges=tuple((s, d, rnd.choice((-1, 1)) * rnd.uniform(0.3, 2.0))
                                               for s, d, _ in g.edges))
        a = g.adjacency() if seed % 3 == 2 else None
        m = rnd.randint(1, max(1, n // 2))
        r = max_controllable_subset(g, m)[1] if seed % 4 == 0 else rnd.randint(m, n)
        yield g, m, r, rnd.choice((0.5, 1.0, 2.0, 3.5)), a


def _digest(calls) -> str:
    """sha256 over each call's segments, costs and rung, or its refusal."""
    digest = hashlib.sha256()
    for call in calls:
        try:
            res = call()
        except CoverInfeasibleError as exc:
            digest.update(repr(str(exc)).encode())
            continue
        e_exact = None if res.e_exact is None else res.e_exact.hex()
        digest.update(repr((res.segments, res.e_estimate.hex(), e_exact, res.fallback)).encode())
    return digest.hexdigest()


class TestPinned:
    def test_results_pinned_bit_for_bit(self):
        # the requests reach every cover rung and refusals, and the release
        # step; the digest was re-recorded when the Gramian moved to the
        # block-triangular Van Loan kernel, which moves the last bits of the
        # exact costs (at most 7.8e-6 relative, at cond(C W C^T) 4.3e11) and
        # keeps every segment, rung and refusal
        calls = [lambda g=g, m=m, r=r, place=place: place(g, m, r)
                 for g, m, r in _pinned_requests() for place in (edcp, naive_placement)]
        assert _digest(calls) == "7ea0977e82ce0aecfe6b18d6e1861a87368918019571f6ddc009a58f17fcdd66"

    def test_wide_results_pinned_bit_for_bit(self):
        # 240 calls: 44 refusals, 25 fallback-rung results and 180 exact
        # costs; the digest was re-recorded when the Gramian moved to the
        # Van Loan kernel (exact costs' last bits only)
        calls = []
        for g, m, r, t_f, a in _wide_requests():
            calls.append(lambda g=g, m=m, r=r, t_f=t_f, a=a: _Request(g, m, t_f, a).place(r))
            calls.append(lambda g=g, m=m, r=r, t_f=t_f: naive_placement(g, m, r, t_f))
        assert _digest(calls) == "fe296b95576ba4587d811808b3efb8fb58ae713121ffe9f880e762ddf9b41518"

    def test_large_request_pinned_bit_for_bit(self):
        # ER n=3000 at M* with R = n: 350 reduction steps, all merges; the
        # digest was recorded before the loop kept its prices and releases
        g = generate_er(3000, 4.0, 0)
        assert _digest([lambda: edcp(g, 647, 3000)]) == (
            "b4daa7e5d4f99cb80428f9ee4b2907e2cffeba9ecca683a6f297cd214e626c3a")
