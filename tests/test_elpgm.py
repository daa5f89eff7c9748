import hashlib
import importlib
import math

import numpy as np
import pytest

import netcontrol.elpgm
from netcontrol.edcp import CoverInfeasibleError
from netcontrol.elpgm import ElpgmConfig, elpgm_optimize, grad_b, grad_c, importance, project
from netcontrol.graph import DirectedGraph, generate_ba, generate_er
from netcontrol.lti import (
    ControlPlacement,
    UncontrollableError,
    chain_control_cost,
    control_cost_matrices,
    optimal_input,
    output_controllable,
)
from netcontrol.pathcover import max_controllable_subset
from oracles import (
    brute_best_placement,
    central_difference_grad_b,
    central_difference_grad_ct,
    sequential_draw_probabilities,
    warshall_closure,
)


def chain_matrix(length):
    a = np.zeros((length, length))
    for i in range(length - 1):
        a[i + 1, i] = 1.0
    return a


def controllable_relaxation(seed):
    """A random small system plus dense perturbations of a 0/1 placement."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = generate_er(n, 2.5, seed=seed)
    a = g.randomized_adjacency(seed)
    m = int(rng.integers(1, max(2, n // 2)))
    cover, _ = max_controllable_subset(g, m)
    b = np.zeros((n, m))
    for col, path in enumerate(cover.paths):
        b[path[0], col] = 1.0
    path_nodes = [v for p in cover.paths for v in p]
    r = min(len(path_nodes), int(rng.integers(1, n + 1)))
    c = np.zeros((r, n))
    for row, v in enumerate(path_nodes[:r]):
        c[row, v] = 1.0
    b = b + 0.2 * rng.normal(size=b.shape)
    c = c + 0.2 * rng.normal(size=c.shape)
    if not output_controllable(a, b, c):
        return None
    try:
        control_cost_matrices(a, b, c, 2.0)
    except UncontrollableError:
        return None
    return a, b, c


class TestGradients:
    def test_scalar_grad_b(self):
        g = grad_b(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 2.0)
        assert g[0, 0] == pytest.approx(-1.0, rel=1e-12)

    def test_scalar_grad_c_vanishes(self):
        g = grad_c(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 2.0)
        assert abs(g[0, 0]) <= 1e-12

    def test_uncontrollable_raises(self):
        a = chain_matrix(2)
        b = np.array([[0.0], [1.0]])
        c = np.array([[1.0, 0.0]])
        with pytest.raises(UncontrollableError):
            grad_b(a, b, c, 2.0)
        with pytest.raises(UncontrollableError):
            grad_c(a, b, c, 2.0)

    def test_x_f_past_float_range_raises(self):
        # E = 9.0e-306 is finite, but X_f = e^(A t_f) e^(A^T t_f) is past the
        # float range: both gradients were NaN
        a = np.array([[-1000.0, 0.0], [1000.0, 1000.0]])
        b = np.array([[1.0], [0.0]])
        c = np.array([[1.0, 0.0]])
        with pytest.raises(UncontrollableError, match="X_f"):
            grad_b(a, b, c, 0.355)
        with pytest.raises(UncontrollableError, match="X_f"):
            grad_c(a, b, c, 0.355)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_agreement(self, seed):
        inst = controllable_relaxation(seed)
        if inst is None:
            pytest.skip("relaxation landed uncontrollable")
        a, b, c = inst
        gb, gc = grad_b(a, b, c, 2.0), grad_c(a, b, c, 2.0)
        fd_b = central_difference_grad_b(a, b, c, 2.0)
        fd_c = central_difference_grad_ct(a, b, c, 2.0)
        assert np.abs(gb - fd_b).max() <= 1e-5 * max(1.0, np.abs(fd_b).max())
        assert np.abs(gc - fd_c).max() <= 1e-5 * max(1.0, np.abs(fd_c).max())


class TestProjection:
    def test_keeps_existing_placement_support(self):
        h = np.zeros((6, 2))
        h[1, 0] = 1.0
        h[4, 1] = 1.0
        out = project(h, 2, 2, np.random.default_rng(0))
        assert set(np.nonzero(out)[0]) <= {1, 4, *np.argsort(-importance(h))[:4]}
        assert out.sum() == 2

    def test_manifold_constraints(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(8, 3))
        out = project(h, 3, 2, rng)
        assert np.trace(out.T @ out) == 3
        assert np.count_nonzero(out) == 3
        assert np.linalg.matrix_rank(out) == 3
        assert all(np.count_nonzero(out[:, j]) == 1 for j in range(3))

    def test_select_everything(self):
        h = np.zeros((4, 4))
        out = project(h, 4, 0, np.random.default_rng(1))
        assert np.count_nonzero(out.sum(axis=1)) == 4

    def test_deterministic_given_seed(self):
        h = np.random.default_rng(2).normal(size=(7, 2))
        a = project(h, 2, 3, np.random.default_rng(42))
        b = project(h, 2, 3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_zero_importance_uniform_fallback(self):
        out = project(np.zeros((5, 2)), 2, 1, np.random.default_rng(3))
        assert np.count_nonzero(out) == 2

    def test_margin_overflow_rejected(self):
        with pytest.raises(ValueError):
            project(np.zeros((4, 2)), 2, 3, np.random.default_rng(0))

    def test_ties_prefer_lower_index(self):
        h = np.ones((5, 1))
        out = project(h, 1, 1, np.random.default_rng(0))
        assert np.nonzero(out)[0][0] in (0, 1)  # candidate pool is rows 0 and 1


    def test_draw_equals_lexsort_with_zero_weights_and_ties(self):
        # the draw sorts on the keys alone and re-sorts on (keys, e) only the
        # rows tied among their m0 + 1 smallest keys: zero weights (infinite
        # keys), repeated weights and repeated uniforms, u = 0 among them
        draw = netcontrol.elpgm._draw
        rng = np.random.default_rng(23)
        resorted = 0
        for trial in range(600):
            size = int(rng.integers(1, 16))
            m0 = int(rng.integers(1, size + 1))
            pool = rng.permutation(40)[:size]
            w = np.round(rng.random(size) * 3) / 3  # zeros and repeats
            u = np.floor(rng.random(((7, 20), (20,), ())[trial % 3] + (size,)) * 4) / 4  # in [0, 1)
            with np.errstate(divide="ignore"):
                e = -np.log(u)
                keys = e / w
                want = pool[np.lexsort((e, keys))[..., :m0]]
                got = draw(pool, w, m0, e)
            assert np.array_equal(got, want)
            head = np.sort(keys, axis=-1)[..., :m0 + 1]
            resorted += int((head[..., 1:] == head[..., :-1]).any(axis=-1).sum())
        assert resorted > 1000  # the tie path ran

    @pytest.mark.parametrize("n, m0, m1, zero_rows", [
        (4, 1, 3, ()), (5, 2, 3, ()), (6, 3, 0, ()),
        (6, 3, 1, (0, 2, 4, 5)), (4, 3, 1, (1, 2)), (5, 2, 3, (1, 3)),
        (4, 1, 3, (0, 1, 2, 3)), (5, 2, 3, (0, 1, 2, 3, 4)),
    ], ids=["none-4", "none-5", "none-6", "some-6", "some-4", "some-5", "all-4", "all-5"])
    def test_draws_follow_sequential_sampler(self, n, m0, m1, zero_rows):
        # the ordered picks of 20,000 seeded projections against the exact
        # probabilities of a sequential weighted draw without replacement;
        # "some" pools hold fewer positive weights than picks or zeros beside
        # enough positive ones, "all" pools draw uniformly
        rng = np.random.default_rng(n * 100 + m0 * 10 + len(zero_rows))
        h = rng.random((n, 2)) + 0.1
        h[list(zero_rows)] = 0.0
        expected = sequential_draw_probabilities(importance(h).tolist(), m0, m1)
        draws = 20_000
        counts = {}
        for _ in range(draws):
            picks = tuple(np.argmax(project(h, m0, m1, rng), axis=0).tolist())
            counts[picks] = counts.get(picks, 0) + 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / draws - expected.get(k, 0.0))
                       for k in counts.keys() | expected.keys())
        assert tv < 0.02


class TestOptimize:
    def test_single_node(self):
        p, e = elpgm_optimize(np.zeros((1, 1)), 1, 1, ElpgmConfig(k_f=3, restarts=2, seed=0))
        assert p.drivers == (0,) and p.controlled == (0,)
        assert e == pytest.approx(0.5)

    def test_chain_three_full_control(self):
        a = chain_matrix(3)
        p, e = elpgm_optimize(a, 1, 3, ElpgmConfig(k_f=8, restarts=2, seed=0))
        assert p.drivers == (0,)
        assert e == pytest.approx(chain_control_cost(3, 2.0), rel=1e-9)

    def test_best_no_worse_than_initialization(self):
        g = generate_er(8, 2.5, seed=4)
        a = g.randomized_adjacency(4)
        from netcontrol.edcp import _Request
        from netcontrol.elpgm import _Problem

        req = _Request(DirectedGraph.from_adjacency(a), 2, 2.0, a)
        drivers, controlled = _Problem(req, 5, ElpgmConfig(), False, False).draw(np.random.default_rng(0), 0)
        start = ControlPlacement(drivers=tuple(drivers), controlled=tuple(controlled))
        e0 = control_cost_matrices(a, start.b_matrix(8), start.c_matrix(8), 2.0)
        _, e = elpgm_optimize(a, 2, 5, ElpgmConfig(k_f=15, restarts=3, seed=0))
        assert e <= e0 + 1e-12

    @pytest.mark.parametrize("case", ["er-0", "er-1", "er-2", "ba-0", "ba-1", "ba-2", "self-loop", "negative-zero"])
    def test_closure_is_the_contexts(self, case):
        # what reaches what comes from the request's LTI context, the one
        # search over A's nonzero pattern, where -0.0 is no edge (here it
        # would close the chain 0 -> 1 -> 2 -> 3 into a cycle)
        from netcontrol.edcp import _Request
        from netcontrol.elpgm import _Problem

        kind, _, seed = case.partition("-")
        if kind == "er":
            a = generate_er(30, 2.0, int(seed)).realized_adjacency()
        elif kind == "ba":
            a = generate_ba(30, 1 + int(seed), int(seed)).realized_adjacency()
        elif kind == "self":
            a = chain_matrix(5)
            a[2, 2], a[0, 3] = 0.5, -1.0
        else:
            a = chain_matrix(4)
            a[0, 3], a[2, 1] = -0.0, -0.7
        req = _Request(DirectedGraph.from_adjacency(a), 1, 2.0, a)  # as elpgm_optimize builds it
        problem = _Problem(req, 1, ElpgmConfig(), True, True)
        assert problem.closure is req.context.closure
        assert np.array_equal(problem.closure, warshall_closure(a))

    def test_output_controllable_result(self):
        g = generate_er(8, 2.5, seed=4)
        a = g.randomized_adjacency(4)
        p, _ = elpgm_optimize(a, 2, 5, ElpgmConfig(k_f=10, restarts=2, seed=1))
        assert output_controllable(a, p.b_matrix(8), p.c_matrix(8))
        assert len(p.drivers) == 2 and len(p.controlled) == 5

    def test_deterministic(self):
        g = generate_er(6, 2.0, seed=9)
        a = g.randomized_adjacency(9)
        r1 = elpgm_optimize(a, 1, 4, ElpgmConfig(k_f=10, restarts=3, seed=7))
        r2 = elpgm_optimize(a, 1, 4, ElpgmConfig(k_f=10, restarts=3, seed=7))
        assert r1 == r2

    def test_near_optimal_small(self):
        g = generate_er(4, 3.0, seed=2)
        a = g.randomized_adjacency(2)
        best = brute_best_placement(a, 1, 3)
        assert best is not None
        _, e = elpgm_optimize(a, 1, 3, ElpgmConfig(k_f=25, restarts=8, m1=3, seed=0))
        assert e <= 1.10 * best[0]

    def test_frozen_variable_variants(self):
        # B-only descent (output set fixed) and C-only descent (drivers fixed)
        g = generate_er(6, 2.5, seed=12)
        a = g.randomized_adjacency(12)
        cfg = ElpgmConfig(k_f=8, restarts=2, seed=3)
        p_b, e_b = elpgm_optimize(a, 1, 4, cfg, update_c=False)
        p_c, e_c = elpgm_optimize(a, 1, 4, cfg, update_b=False)
        assert len(p_b.drivers) == len(p_c.drivers) == 1
        assert e_b > 0 and e_c > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_support_past_float_range_skipped(self, monkeypatch):
        # A = [[-1000, 0], [1000, 1000]] at t_f = 0.355: steering node 1 costs
        # E = inf from either driver, so such a support evaluates to None
        # (driver 0's was kept with cost inf) and node 0 steering itself is the
        # best; its X_f is past the float range, so it keeps its cost with no
        # pools (they were NaN, with overflow warnings) and is not stepped from
        problems = []
        real_init = netcontrol.elpgm._Problem.__init__

        def init(self, *args):
            real_init(self, *args)
            problems.append(self)

        monkeypatch.setattr(netcontrol.elpgm._Problem, "__init__", init)
        a = np.array([[-1000.0, 0.0], [1000.0, 1000.0]])
        p, e = elpgm_optimize(a, 1, 1, ElpgmConfig(k_f=5, restarts=2, t_f=0.355))
        assert (p.drivers, p.controlled) == ((0,), (0,)) and 0 < e < math.inf
        [problem] = problems
        assert problem.entries[((0,), (1,))] is None
        assert problem.entries.get(((1,), (1,))) is None
        assert problem.entries[((0,), (0,))] == (e, None, None)

    def test_infeasible_request(self):
        a = np.zeros((3, 3))  # no edges: one driver cannot cover 3 nodes
        with pytest.raises(UncontrollableError):
            elpgm_optimize(a, 1, 3, ElpgmConfig(k_f=3, restarts=1, seed=0))

    def test_more_drivers_than_outputs_refused(self, monkeypatch):
        # refused before the cover's flow runs or any support is evaluated
        def unreachable(*args):
            raise AssertionError("ran before the refusal")

        edcp_module = importlib.import_module("netcontrol.edcp")  # `netcontrol.edcp` is the function
        monkeypatch.setattr(edcp_module, "SufficiencySolver", unreachable)
        monkeypatch.setattr(netcontrol.lti, "_Steering", unreachable)
        with pytest.raises(CoverInfeasibleError, match="M = 4 exceeds R = 3"):
            elpgm_optimize(generate_er(12, 3.0, 1).realized_adjacency(), 4, 3)

    def test_one_flow_and_successor_build_per_call(self, monkeypatch):
        # ELPGM and its EDCP start share one request: one solver gives the
        # m-path cover and EDCP's flow cover, and the successor lists are
        # built once; when EDCP ran on a graph of its own, the BA call built
        # 3 solvers and the descent instance built its successor lists twice,
        # and while the request solved its m-path cover apart, it built 2
        counts = {"solvers": 0, "successors": 0}
        solver, graph = netcontrol.flow.SufficiencySolver, netcontrol.graph.DirectedGraph

        def init(self, *args, real=solver.__init__):
            counts["solvers"] += 1
            return real(self, *args)

        def successors(self, real=graph.successors):
            counts["successors"] += 1
            return real(self)

        monkeypatch.setattr(solver, "__init__", init)
        monkeypatch.setattr(graph, "successors", successors)
        ba = generate_ba(24, 1, 6201).realized_adjacency()
        elpgm_optimize(ba, 1, 6, ElpgmConfig(k_f=10, restarts=2))
        assert counts["solvers"] == 1
        counts.update(solvers=0, successors=0)
        elpgm_optimize(generate_er(20, 3.0, 11).realized_adjacency(), 3, 10, ElpgmConfig(seed=0))
        assert counts["successors"] == 1

    def test_descent_stops_once_every_support_has_an_entry(self, monkeypatch):
        # on a directed 4-cycle each driver reaches every node, so (m, r) =
        # (1, 2) has 4 C(4, 2) = 24 supports; once each has its entry the best
        # can no longer change, and no further window is drawn
        problems, seen = [], []
        real_init, real_draw = netcontrol.elpgm._Problem.__init__, netcontrol.elpgm._draw

        def init(self, *args):
            real_init(self, *args)
            problems.append(self)

        monkeypatch.setattr(netcontrol.elpgm._Problem, "__init__", init)
        monkeypatch.setattr(netcontrol.elpgm, "_draw",
                            lambda *args: seen.append(len(problems[0].entries)) or real_draw(*args))
        a = DirectedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0))).randomized_adjacency(7)
        _, cost = elpgm_optimize(a, 1, 2, ElpgmConfig(k_f=25, restarts=16, m1=3))
        [problem] = problems
        assert problem.supports == len(problem.entries) == 24
        assert seen and max(seen) < 24
        assert cost == brute_best_placement(a, 1, 2)[0]

    def test_edcp_start_evaluated_on_a(self, monkeypatch):
        # every nonzero of A is 1.0, so the graph ELPGM hands EDCP reads as
        # structural: EDCP's exact evaluations must still run on A itself
        module = importlib.import_module("netcontrol.edcp")  # `netcontrol.edcp` is the function
        matrices = []
        real = module._exact_cost
        monkeypatch.setattr(module, "_exact_cost",
                            lambda context, *rest: matrices.append(context.a) or real(context, *rest))
        a = generate_er(12, 3.0, 1).adjacency()
        assert set(np.unique(a)) == {0.0, 1.0}
        elpgm_optimize(a, 2, 6, ElpgmConfig(k_f=5, restarts=2))
        assert matrices
        assert all(np.array_equal(m, a) for m in matrices)

    @pytest.mark.parametrize("a, message", [
        (np.ones(4), "A must be 2-D"),
        (np.ones((3, 4)), "A must be square"),
        (np.array([[0.0, 1.0], [np.nan, 0.0]]), "A has non-finite entries"),
    ], ids=["1-d", "3x4", "nan"])
    def test_bad_a_refused(self, a, message):
        # refused as `gramian` refuses it, before the graph is built; a 1-D A
        # raised "not enough values to unpack", a 3x4 one an edge endpoint out of range
        with pytest.raises(ValueError, match=message):
            elpgm_optimize(a, 1, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ElpgmConfig(eta_b=0.0)
        with pytest.raises(ValueError):
            ElpgmConfig(m1=0)
        with pytest.raises(ValueError):
            ElpgmConfig(restarts=0)
        with pytest.raises(ValueError, match="seed"):
            ElpgmConfig(seed=-1)

    @pytest.mark.parametrize("eta", [0.0, -0.01, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["eta_b", "eta_c"])
    def test_step_size_validation(self, name, eta):
        # NaN passed the old `eta <= 0` test and the descent ran on NaN iterates
        with pytest.raises(ValueError, match="learning rates must be positive and finite"):
            ElpgmConfig(**{name: eta})

    @pytest.mark.parametrize("t_f", [0.0, float("nan"), float("inf")])
    def test_horizon_validation(self, t_f):
        with pytest.raises(ValueError, match="t_f"):
            ElpgmConfig(t_f=t_f)

    def test_one_controllability_check_per_support(self, monkeypatch):
        # the support cache is what lets the descent redraw 20 projections per
        # iterate cheaply: every support, start or draw, is evaluated once.
        # An accepted evaluation makes no rank test and one Gramian, counted
        # as lti's calls of the Van Loan kernel (the gradient integral calls
        # it through elpgm's own binding, after the evaluation); a refused one
        # makes one rank test, which labels it, and at most one Gramian
        calls = {"rank": 0, "gramian": 0, "edcp_gramian": 0}
        for name, key in (("_krylov_test", "rank"), ("_van_loan", "gramian")):
            def counted(*args, real=getattr(netcontrol.lti, name), key=key):
                calls[key] += 1
                return real(*args)

            monkeypatch.setattr(netcontrol.lti, name, counted)
        evaluations = []

        def evaluate(self, drivers, controlled, real=netcontrol.elpgm._Problem._evaluate):
            before = dict(calls)
            entry = real(self, drivers, controlled)
            evaluations.append(((tuple(sorted(drivers)), tuple(sorted(controlled))), entry is not None,
                                calls["rank"] - before["rank"],
                                calls["gramian"] - before["gramian"]))
            return entry

        request = importlib.import_module("netcontrol.edcp")._Request

        def place(*args, real=request.place):
            # EDCP's own exact evaluations are not ELPGM's
            before = calls["gramian"]
            try:
                return real(*args)
            finally:
                calls["edcp_gramian"] += calls["gramian"] - before

        monkeypatch.setattr(netcontrol.elpgm._Problem, "_evaluate", evaluate)
        monkeypatch.setattr(request, "place", place)
        refused = 0
        for seed in (1, 4, 6):
            a = generate_er(12, 3.0, seed).realized_adjacency()
            cfg = ElpgmConfig(k_f=20, restarts=4, seed=seed)
            for update_b, update_c in ((True, True), (False, True), (True, False)):
                evaluations.clear()
                calls.update(gramian=0, edcp_gramian=0)
                elpgm_optimize(a, 2, 6, cfg, update_b=update_b, update_c=update_c)
                supports = [support for support, _, _, _ in evaluations]
                assert supports
                assert len(supports) == len(set(supports))
                assert all((checks, gramians) == (0, 1) if accepted else (checks == 1 and gramians <= 1)
                           for _, accepted, checks, gramians in evaluations)
                assert any(accepted for _, accepted, _, _ in evaluations)
                refused += sum(not accepted for _, accepted, _, _ in evaluations)
                assert calls["gramian"] == sum(g for _, _, _, g in evaluations) + calls["edcp_gramian"]
        assert refused


def _pinned_runs():
    """(a, m, r, cfg, update_b, update_c) of the pinned ELPGM calls."""
    runs = []
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 21))
        g = generate_er(n, 3.0, seed)
        m = int(rng.integers(1, 5))
        r = int(rng.integers(max(m, n // 3), 2 * n // 3 + 1))
        runs.append((g.realized_adjacency(), m, r, ElpgmConfig(k_f=20, restarts=3, seed=seed), True, True))
    for seed in (1, 4):
        a = generate_er(12, 3.0, seed).realized_adjacency()
        cfg = ElpgmConfig(k_f=20, restarts=3, seed=seed)
        runs.append((a, 2, 6, cfg, False, True))
        runs.append((a, 2, 6, cfg, True, False))
    # the benchmark's descent instance: its C pool has 15 candidates
    runs.append((generate_er(20, 3.0, 11).realized_adjacency(), 3, 10, ElpgmConfig(seed=0), True, True))
    return runs


def _wide_runs():
    """(a, m, r, cfg, update_b, update_c) of 150 seeded ELPGM calls.

    They cover what `_pinned_runs` does not: 0/1 matrices (the graph EDCP
    gets reads as unweighted, so EDCP is handed A itself), per-seed
    `randomized_adjacency` weights, BA graphs, a set m1, both frozen
    variants, and requests at the edge of what m drivers cover, where the
    canonical start, EDCP and restart draws fail (a failed restart draw
    falls back to the best placement, or is skipped when there is none).
    """
    runs = []
    for seed in range(150):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 27))
        if n > 4 and rng.random() < 0.4:
            g = generate_ba(n, int(rng.integers(1, 3)), seed)
        else:
            g = generate_er(n, float(rng.uniform(1.5, 5.0)), seed)
        a = g.adjacency() if seed % 2 == 0 else g.randomized_adjacency(seed)
        m = int(rng.integers(1, max(1, n // 3) + 1))
        r = int(rng.integers(m, n + 1))
        if seed % 4 == 3:
            r = max(m, max_controllable_subset(g, m)[1])
        m1 = int(rng.integers(1, 5)) if seed % 3 == 0 else None
        cfg = ElpgmConfig(k_f=int(rng.integers(3, 31)), restarts=int(rng.integers(1, 7)), m1=m1, seed=seed)
        update_b, update_c = ((True, True), (False, True), (True, False))[seed % 5 % 3]
        runs.append((a, m, r, cfg, update_b, update_c))
    return runs


def _four_node_runs():
    """(a, m, r, cfg, update_b, update_c) of three ELPGM calls with criterion 12's config.

    On 4-node graphs nearly every iterate accepts one of its first retries.
    """
    runs = []
    for seed, edges, m, r in ((1, ((0, 1), (1, 2), (2, 3), (3, 0)), 1, 3),
                              (2, ((0, 1), (0, 2), (2, 1), (1, 3), (3, 2)), 2, 3),
                              (3, ((0, 1), (1, 0), (1, 2), (3, 2), (2, 3)), 2, 4)):
        a = DirectedGraph(4, tuple((s, d, 1.0) for s, d in edges)).randomized_adjacency(7)
        runs.append((a, m, r, ElpgmConfig(k_f=25, restarts=16, m1=3, seed=seed), True, True))
    return runs


class TestPinned:
    """Digests of ELPGM results, projections and steering terms.

    A change that alters a single draw, a candidate order or a cost bit
    changes the digest.
    """

    def test_results_pinned_bit_for_bit(self):
        # re-recorded when the Gramian and the gradient integral moved to the
        # block-triangular Van Loan kernel: every placement is kept, costs
        # move in their last bits
        digest = hashlib.sha256()
        for a, m, r, cfg, update_b, update_c in _pinned_runs():
            p, e = elpgm_optimize(a, m, r, cfg, update_b=update_b, update_c=update_c)
            digest.update(repr((p.drivers, p.controlled, float(e).hex())).encode())
        assert digest.hexdigest() == "f84bbd164998bf77333a9c76a26e47b3ab58bbb56db62f5e561e9133ae30d65b"

    def test_wide_results_pinned_bit_for_bit(self):
        # re-recorded when the Gramian and the gradient integral moved to the
        # Van Loan kernel; 33 of the 150 calls refuse, as they did before it
        # and with the sequential sampler before the exponential race
        digest, refusals = hashlib.sha256(), 0
        for a, m, r, cfg, update_b, update_c in _wide_runs():
            try:
                p, e = elpgm_optimize(a, m, r, cfg, update_b=update_b, update_c=update_c)
                item = (p.drivers, p.controlled, float(e).hex())
            except UncontrollableError as exc:
                item, refusals = str(exc), refusals + 1
            digest.update(repr(item).encode())
        assert refusals == 33
        assert digest.hexdigest() == "f56d9131137db306051a18c0a4c704f98823e7b8caf5b86cb1625b4ff6796c7f"

    def test_evaluation_order_pinned(self, monkeypatch):
        # every support the calls evaluate, in the order they evaluate them,
        # as draw-order lists: a change in which uniforms a retry reads shows
        # here even where the results keep their bits
        supports = []
        real = netcontrol.elpgm._Problem._evaluate

        def evaluate(self, drivers, controlled):
            supports.append(([int(v) for v in drivers], [int(v) for v in controlled]))
            return real(self, drivers, controlled)

        monkeypatch.setattr(netcontrol.elpgm._Problem, "_evaluate", evaluate)
        digest = hashlib.sha256()
        for a, m, r, cfg, update_b, update_c in _pinned_runs() + _four_node_runs():
            supports.clear()
            elpgm_optimize(a, m, r, cfg, update_b=update_b, update_c=update_c)
            digest.update(repr(supports).encode())
        assert digest.hexdigest() == "5cdace4f8b5f6ece51f2e350342a6b3f680669dda2ca256858ec013bd8a68907"

    def test_project_pinned_bit_for_bit(self):
        # recorded when the projection became an exponential race; every
        # fifth H has zero rows and every seventeenth is all zero (uniform)
        digest = hashlib.sha256()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 25))
            k = int(rng.integers(1, 4))
            m0 = int(rng.integers(1, n + 1))
            m1 = int(rng.integers(0, n - m0 + 1))
            h = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
            if seed % 5 == 0:
                h[rng.random(n) < 0.5] = 0.0
            if seed % 17 == 0:
                h[:] = 0.0
            out = project(h, m0, m1, rng)
            # the trailing draw pins how many numbers the projection consumed
            picks = np.argmax(out, axis=0).tolist()
            digest.update(repr((out.shape, picks, float(rng.random()).hex())).encode())
        assert digest.hexdigest() == "c845dbe88f3027a2d8e440dd7a309d045be246d21231dcd193d1a9a3646855ae"

    def test_steering_terms_pinned_bit_for_bit(self):
        # the cost, both gradients and the input share one evaluation of
        # (A, B, C, t_f); the digest was re-recorded when the Gramian, e^(A t_f)
        # and the gradient integral moved to the block-triangular Van Loan
        # kernel, and again when the input's exponential and null(C) moved
        # from scipy to numpy (cost and grad_b kept their bits)
        def hexes(x):
            return tuple(float(v).hex() for v in np.ravel(x))

        digest = hashlib.sha256()
        for seed in range(40):
            a, b, c = controllable_relaxation(seed)
            n = a.shape[0]
            placement = ControlPlacement(drivers=tuple(np.argmax(np.abs(b), axis=0).tolist()),
                                         controlled=tuple(np.argmax(np.abs(c), axis=1).tolist()))
            x0 = np.random.default_rng(seed).normal(size=n)
            digest.update(repr((
                hexes(control_cost_matrices(a, b, c, 2.0)), hexes(grad_b(a, b, c, 2.0)),
                hexes(grad_c(a, b, c, 2.0)),
                [hexes(optimal_input(a, placement, x0, t)) for t in (0.0, 0.7, 2.0)],
            )).encode())
        # a rank refusal carries no condition number, a conditioning one its value
        for a, b, c in ((chain_matrix(2), np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]])),
                        (chain_matrix(10), np.eye(10)[:, :1], np.eye(10))):
            for term in (control_cost_matrices, grad_b, grad_c):
                with pytest.raises(UncontrollableError) as exc:
                    term(a, b, c, 2.0)
                condition = exc.value.condition
                digest.update(repr(None if condition is None else condition.hex()).encode())
        assert digest.hexdigest() == "2b2aaeb6d0d8195d2357007890c8b8e84c86fc8914205a1ffcc16eb1ee8422c6"
