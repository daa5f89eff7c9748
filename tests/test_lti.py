import math

import numpy as np
import pytest

from netcontrol.edcp import edcp, string_cost
from netcontrol.graph import generate_ba, generate_er
from netcontrol.lti import (
    CONDITION_LIMIT,
    ControlPlacement,
    UncontrollableError,
    _chain_cost_exact,
    chain_control_cost,
    control_cost,
    control_cost_matrices,
    drive_to_origin,
    gramian,
    mat_exp,
    optimal_input,
    optimal_input_function,
    output_controllable,
    simulate,
)
from netcontrol.pathcover import max_controllable_subset
from oracles import (
    gauss_jordan_chain_cost,
    hilbert_chain_cost,
    reference_steering,
    rk4_reference,
    simpson_gramian,
    taylor_expm,
    van_loan_reference,
    warshall_closure,
)

CHAIN2 = np.array([[0.0, 0.0], [1.0, 0.0]])
# (A, B, C) with edges 2 -> 0, 0 -> 1, 2 -> 1 and 2 -> 3, dense inputs on the
# sinks 1 and 3, and an output on node 0, which no input reaches
UNREACHED_DENSE = (
    np.array([[0.0, 0.0, 0.67, 0.0], [-0.53, 0.0, -0.79, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.08, 0.0]]),
    np.array([[0.0, 0.0], [0.3, 0.7], [0.0, 0.0], [0.9, -0.2]]),
    np.array([[1.0, 0.0, 0.0, 0.0]]),
)


def chain_matrix(length):
    a = np.zeros((length, length))
    for i in range(length - 1):
        a[i + 1, i] = 1.0
    return a


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(mat_exp(np.zeros((3, 3)), 7.0), np.eye(3))

    def test_nilpotent_exact(self):
        got = mat_exp(CHAIN2, 3.0)
        assert np.allclose(got, [[1, 0], [3, 1]], atol=1e-14)

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5)) * 0.6
        got = mat_exp(a, 1.0)
        want = taylor_expm(a)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused(self, t):
        # a NaN t gave an all-NaN matrix and a cast warning from the squaring count
        with pytest.raises(ValueError, match="t must be finite"):
            mat_exp(CHAIN2, t)

    def test_overflowing_product_refused(self):
        with pytest.raises(ValueError, match="A t has non-finite entries"):
            mat_exp(np.array([[1e200, 0.0], [0.0, 1.0]]), 1e200)

    def test_every_pade_degree_matches_extended_precision(self):
        # 1-norms from 0 to 30 reach Pade degrees 3, 5, 7, 9 and 13 and up to
        # three squarings, one matrix per call; measured: at most 1.8e-15
        # relative, 8 eps
        import mpmath

        from netcontrol.lti import expm

        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        a /= np.abs(a).sum(axis=0).max()
        norms = np.array([0.0, 1e-3, 0.2, 0.9, 2.0, 5.0, 12.0, 30.0])
        with mpmath.workdps(40):
            want = [np.array(mpmath.expm(mpmath.matrix((a * s).tolist())).tolist(), dtype=float) for s in norms]
        for s, ref in zip(norms, want):
            got = expm(a * s)
            assert np.linalg.norm(got - ref) <= 50 * np.finfo(float).eps * np.linalg.norm(ref)


class TestGramian:
    def test_scalar_constant_integrand(self):
        assert np.allclose(gramian(np.zeros((1, 1)), np.ones((1, 1)), 2.0), [[2.0]])

    def test_two_chain_closed_form(self):
        w = gramian(CHAIN2, np.array([[1.0], [0.0]]), 2.0)
        assert np.allclose(w, [[2.0, 2.0], [2.0, 8.0 / 3.0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 8)
        a = rng.normal(size=(n, n)) * 0.5 - 0.5 * np.eye(n)
        b = rng.normal(size=(n, rng.integers(1, 3)))
        w = gramian(a, b, 2.0)
        w_ref = simpson_gramian(a, b, 2.0, panels=1024)
        assert np.abs(w - w_ref).max() <= 1e-8 * max(1.0, np.abs(w_ref).max())

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) * 0.4
        b = rng.normal(size=(6, 2))
        w = gramian(a, b, 2.0)
        assert np.abs(w - w.T).max() <= 1e-12 * np.abs(w).max()
        assert np.linalg.eigvalsh(w).min() >= -1e-10 * np.abs(w).max()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gramian(np.zeros((2, 2)), np.zeros((3, 1)), 1.0)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            gramian(np.zeros((2, 2)), np.zeros((2, 1)), 0.0)

    @pytest.mark.parametrize("t_f", [float("nan"), float("inf")])
    def test_nonfinite_horizon(self, t_f):
        with pytest.raises(ValueError, match="t_f"):
            gramian(np.zeros((2, 2)), np.zeros((2, 1)), t_f)


class TestSteeringHorizon:
    @pytest.mark.parametrize("t_f", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["control_cost_matrices", "grad_b", "grad_c"])
    def test_bad_horizon_is_refused(self, name, t_f):
        import netcontrol.elpgm as elpgm
        import netcontrol.lti as lti

        fn = getattr(lti, name, None) or getattr(elpgm, name)
        with pytest.raises(ValueError, match="t_f"):
            fn(CHAIN2, np.array([[1.0], [0.0]]), np.eye(2), t_f)


HORIZONS = (0.5, 2.0, 3.5)


def _kernel_placements():
    """(name, A, placement drivers, placement controlled) of the kernel accuracy cases.

    Unit chains of length 1-8 (nilpotent A) driven at the head, a 3-cycle
    with a tail in and a tail out, and seeded weighted ER and BA graphs
    with a seeded output-controllable placement.
    """
    cases = [(f"chain{n}", chain_matrix(n), (0,), tuple(range(n))) for n in range(1, 9)]
    a = np.zeros((6, 6))
    for s, d in ((0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)):
        a[d, s] = 1.0
    cases.append(("cycle-tail", a, (0,), (1, 2, 3, 4, 5)))
    for seed, g in enumerate((generate_er(12, 3.0, 0), generate_er(10, 3.5, 1),
                              generate_ba(12, 2, 2), generate_ba(10, 2, 3))):
        a, rng = g.realized_adjacency(), np.random.default_rng(seed)
        while True:
            order = rng.permutation(g.n).tolist()
            p = ControlPlacement(tuple(order[:3]), tuple(order[3:3 + g.n // 2]))
            if output_controllable(a, p.b_matrix(g.n), p.c_matrix(g.n)):
                break
        cases.append((f"graph{seed}", a, p.drivers, p.controlled))
    return cases


def _relative(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestVanLoanKernel:
    """`_van_loan`, `gramian` and `control_cost` against a 40-digit mpmath reference.

    Each bound is stated below.  When they were set, scipy's expm of the
    assembled 2n x 2n block was measured on the same cases, and each bound
    is no looser than 10x that error; scipy is not asserted on, so a more
    accurate scipy cannot fail these tests.
    """

    # relative Frobenius error of each block and of W; measured: the kernel
    # about 1.6e-15, scipy's dense block 2.6e-13 (blocks) and 4.3e-13 (W)
    BLOCK_BOUND = 50 * np.finfo(float).eps
    # relative error of E in units of eps cond(C W C^T): the residual error
    # comes from conditioning; measured: the kernel 0.26, scipy's dense block 1.75
    COST_BOUND = 1.0

    def test_blocks_match_extended_precision(self):
        from netcontrol.lti import _van_loan

        cases = [(a, np.diag(np.isin(np.arange(len(a)), drivers)).astype(float))
                 for _, a, drivers, _ in _kernel_placements()]
        # ELPGM's gradient integral: X = -A^T and a dense Q scaled to unit max
        rng = np.random.default_rng(7)
        h = rng.normal(size=(12, 12))
        q = h @ h.T
        cases.append((-generate_er(12, 3.0, 5).realized_adjacency().T, q / np.abs(q).max()))
        error = 0.0
        for x, q in cases:
            for t in HORIZONS:
                error = max(error, *map(_relative, _van_loan(x, q, t), van_loan_reference(x, q, t)))
        assert error <= self.BLOCK_BOUND

    def test_gramian_and_cost_match_extended_precision(self):
        eps = np.finfo(float).eps
        gramian_error = cost_error = 0.0
        for _, a, drivers, controlled in _kernel_placements():
            for t in HORIZONS:
                p = ControlPlacement(drivers, controlled, t)
                n = a.shape[0]
                w_ref, g_ref, e_ref = reference_steering(a, p)
                gramian_error = max(gramian_error, _relative(gramian(a, p.b_matrix(n), t), w_ref))
                condition = np.linalg.cond(g_ref)
                if condition >= CONDITION_LIMIT:  # chains of 6-8 at short horizons
                    with pytest.raises(UncontrollableError):
                        control_cost(a, p)
                    continue
                cost_error = max(cost_error, abs(control_cost(a, p) - e_ref) / (eps * condition * e_ref))
        assert gramian_error <= self.BLOCK_BOUND
        assert cost_error <= self.COST_BOUND

    def test_cost_and_gradient_make_no_expm_call(self, monkeypatch):
        import sys

        import netcontrol.lti as lti
        from netcontrol.elpgm import grad_b

        def refuse(*args):
            raise AssertionError("n x n expm called")

        # every netcontrol module that holds the exponential, so an import of
        # it elsewhere cannot slip past
        for module in [m for name, m in sys.modules.items() if name.startswith("netcontrol")]:
            for attr, value in list(vars(module).items()):
                if value is lti.expm:
                    monkeypatch.setattr(module, attr, refuse)
        _, a, drivers, controlled = next(case for case in _kernel_placements() if case[0] == "graph0")
        p = ControlPlacement(drivers, controlled)
        n = a.shape[0]
        assert control_cost(a, p) > 0
        assert np.all(np.isfinite(grad_b(a, p.b_matrix(n), p.c_matrix(n), 2.0)))


class TestOutputControllable:
    def test_chain_head_drives_tail(self):
        assert output_controllable(CHAIN2, np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]]))

    def test_chain_tail_cannot_drive_head(self):
        assert not output_controllable(CHAIN2, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_explicit_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = (rng.random((n, n)) < 0.4) * rng.uniform(0.5, 1.5, (n, n))
        b = np.zeros((n, 1))
        b[rng.integers(n), 0] = 1.0
        r = int(rng.integers(1, n + 1))
        rows = rng.choice(n, size=r, replace=False)
        c = np.zeros((r, n))
        for k, v in enumerate(rows):
            c[k, v] = 1.0
        blocks = []
        x = b.copy()
        for _ in range(n):
            blocks.append(c @ x)
            x = a @ x
        k_matrix = np.hstack(blocks)
        explicit = np.linalg.matrix_rank(k_matrix, tol=1e-9 * max(1e-300, np.linalg.norm(k_matrix, axis=0).max()))
        assert output_controllable(a, b, c) == (explicit == r)

    @pytest.mark.parametrize("case", ["dense", "single-wire"])
    def test_unreached_output_refused(self, case):
        # an output that no input reaches, where C times the reachable basis
        # is rounding noise that passed the rank test: the dense case was
        # accepted with E = 3.3e32, the single-wire one refused as "C W C^T
        # condition inf"
        if case == "dense":
            a, b, c = UNREACHED_DENSE
        else:
            a, p = generate_er(31, 2.0, 27).realized_adjacency(), ControlPlacement((27, 1, 8), (0,))
            b, c = p.b_matrix(31), p.c_matrix(31)
        assert not output_controllable(a, b, c)
        with pytest.raises(UncontrollableError, match="not output controllable") as exc:
            control_cost_matrices(a, b, c, 2.0)
        assert exc.value.condition is None

    def test_unreached_single_wire_supports_refused(self):
        # single-wire supports with an output that no driver reaches: each is
        # refused as not output controllable, by output_controllable and by
        # the cost, with no condition
        rng = np.random.default_rng(30)
        cases = 0
        for graph_seed in range(30):
            n = int(rng.integers(4, 41))
            g = generate_er(n, 2.0, graph_seed) if graph_seed % 2 else generate_ba(n, 1, graph_seed)
            a = g.realized_adjacency()
            closure = warshall_closure(a)
            for t_f in (0.5, 2.0, 8.0):
                for _ in range(25):
                    drivers = rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
                    reached = closure[drivers].any(axis=0)
                    if reached.all():
                        continue
                    unreached = rng.choice(np.flatnonzero(~reached), size=1).tolist()
                    others = rng.permutation(np.flatnonzero(reached))[:int(rng.integers(0, 4))].tolist()
                    p = ControlPlacement(drivers, unreached + others, t_f)
                    assert not output_controllable(a, p.b_matrix(n), p.c_matrix(n))
                    with pytest.raises(UncontrollableError, match="not output controllable") as exc:
                        control_cost(a, p)
                    assert exc.value.condition is None
                    cases += 1
        assert cases >= 2000


class TestControlCost:
    def test_single_node_string(self):
        assert control_cost(np.zeros((1, 1)), ControlPlacement((0,), (0,), 2.0)) == pytest.approx(0.5)

    def test_two_node_string(self):
        cost = control_cost(CHAIN2, ControlPlacement((0,), (0, 1), 2.0))
        assert cost == pytest.approx(3.5, rel=1e-12)

    def test_scalar_inverse_horizon(self):
        assert control_cost(np.zeros((1, 1)), ControlPlacement((0,), (0,), 4.0)) == pytest.approx(0.25)

    def test_uncontrollable_raises(self):
        with pytest.raises(UncontrollableError):
            control_cost(CHAIN2, ControlPlacement((1,), (0,), 2.0))

    def test_ill_conditioned_raises_with_estimate(self):
        a = chain_matrix(12)
        with pytest.raises(UncontrollableError) as err:
            control_cost(a, ControlPlacement((0,), tuple(range(12)), 2.0))
        assert err.value.condition is not None and err.value.condition >= 1e12

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            ControlPlacement((0, 0), (1,), 2.0)
        with pytest.raises(ValueError):
            ControlPlacement((0,), (1, 1), 2.0)
        with pytest.raises(ValueError):
            ControlPlacement((0,), (1,), 0.0)

    @pytest.mark.parametrize("drivers, controlled, node", [
        ((-3,), (1, 2), -3), ((0,), (-2, -1), -2), ((0,), (1, -1), -1),
    ])
    def test_negative_node_rejected(self, drivers, controlled, node):
        # numpy would wrap -3 to node 0 of a 3-node chain and cost it alike
        with pytest.raises(ValueError, match=f"node {node} is negative"):
            ControlPlacement(drivers, controlled, 2.0)

    @pytest.mark.parametrize("node", [0.7, True, np.float64(1.5), np.bool_(True), "1"],
                             ids=["float", "bool", "numpy-float", "numpy-bool", "string"])
    @pytest.mark.parametrize("side", ["drivers", "controlled"])
    def test_non_integer_node_rejected(self, side, node):
        # int() truncated 0.7 to driver 0, read True as 1 and 1.5 as node 1
        ids = {"drivers": (2,), "controlled": (3,), side: (node,)}
        with pytest.raises(ValueError, match="is not an integer"):
            ControlPlacement(ids["drivers"], ids["controlled"], 2.0)

    def test_numpy_integer_node_accepted(self):
        p = ControlPlacement((np.int64(3), np.int32(1)), (np.uint8(2),), 2.0)
        assert p.drivers == (3, 1) and p.controlled == (2,)
        assert all(type(v) is int for v in p.drivers + p.controlled)

    @pytest.mark.parametrize("name", ["control_cost_matrices", "grad_b", "grad_c"])
    def test_unreached_dense_output_refused_before_any_work(self, monkeypatch, name):
        # the rank test passed this support and E came out 3.3e32; the reach
        # test now refuses it, with no rank test and no Gramian
        import netcontrol.elpgm as elpgm
        import netcontrol.lti as lti

        evaluate = getattr(lti, name, None) or getattr(elpgm, name)
        calls = {"_krylov_test": 0, "_van_loan": 0}
        for kernel in calls:
            def counted(*args, _name=kernel, _real=getattr(lti, kernel)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lti, kernel, counted)
        with pytest.raises(UncontrollableError, match="not output controllable") as exc:
            evaluate(*UNREACHED_DENSE, 2.0)
        assert exc.value.condition is None
        assert calls == {"_krylov_test": 0, "_van_loan": 0}

    def test_node_outside_network_rejected(self):
        placement = ControlPlacement((0,), (1, 3), 2.0)
        assert placement.b_matrix(3).shape == (3, 1)
        with pytest.raises(ValueError, match="node 3 is not in the 3-node network"):
            placement.c_matrix(3)
        with pytest.raises(ValueError, match="node 3 is not in the 3-node network"):
            control_cost(chain_matrix(3), placement)
        with pytest.raises(ValueError, match="node 5 is not in the 3-node network"):
            ControlPlacement((5,), (0,), 2.0).b_matrix(3)

    @pytest.mark.parametrize("t_f", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_horizon_rejected(self, t_f):
        with pytest.raises(ValueError, match="t_f"):
            ControlPlacement((0,), (1,), t_f)

    @pytest.mark.parametrize("drivers, controlled", [((0,), ()), ((), (0,)), ((), ())])
    def test_empty_placement_rejected(self, drivers, controlled):
        # ControlPlacement((0,), ()) reached numpy's "cond is not defined on
        # empty arrays", and an empty driver tuple was "not output controllable"
        with pytest.raises(ValueError, match="at least one driver and one controlled node"):
            ControlPlacement(drivers, controlled, 2.0)

    @pytest.mark.parametrize("b, c", [
        (np.zeros((2, 0)), np.eye(2)), (np.array([[1.0], [0.0]]), np.zeros((0, 2))),
    ], ids=["no-drivers", "no-outputs"])
    def test_steering_without_drivers_or_outputs_rejected(self, monkeypatch, b, c):
        # refused before any work: no reach test, rank test or Gramian
        import netcontrol.lti as lti

        def unreachable(*args):
            raise AssertionError("ran before the refusal")

        for name in ("_krylov_test", "_van_loan"):
            monkeypatch.setattr(lti, name, unreachable)
        monkeypatch.setattr(lti._Context, "reaches", unreachable)
        with pytest.raises(ValueError, match="needs a column of B and a row of C"):
            control_cost_matrices(CHAIN2, b, c, 2.0)


class TestEvaluationContext:
    # at t_f = 2.6 a driver on node 64 of ER n=100 mu=6 seed 0, the node of
    # the largest in-weight, lifts the Van Loan block's 1-norm past
    # 4 theta_13, so these driver sets pick two (degree, squarings) keys
    REQUESTS = (
        ((100, 6.0, 0), 2.6, [(64,), (64, 21), (21, 19, 5), (3, 64, 40), (7,), (19, 21)]),
        ((20, 3.0, 11), 2.0, [(4,), (3, 12), (4, 3, 12), (2, 14, 19), (0, 8), (12, 4)]),
    )

    @pytest.mark.parametrize("graph, t_f, driver_sets", REQUESTS, ids=["er100", "er20"])
    def test_shared_factors_pinned_bit_for_bit(self, graph, t_f, driver_sets):
        # the supports evaluated on one shared context, whose driver-free Van
        # Loan factors each later driver set of a key reads, have the bytes
        # of W, e^(A t_f) and E that a fresh context per support gives, and W
        # that of the public Gramian
        import netcontrol.lti as lti

        a = generate_er(*graph).realized_adjacency()
        shared = lti._Context(a, t_f)
        for drivers in driver_sets:
            # the drivers and what they drive in one step, head first
            controlled = list(drivers) + [v for d in drivers for v in np.flatnonzero(a[:, d]).tolist()
                                          if v not in drivers][:len(drivers)]
            placement = ControlPlacement(drivers, tuple(dict.fromkeys(controlled)), t_f)
            kept, fresh = shared.placed(placement), lti._Context(a, t_f).placed(placement)
            assert kept.w.tobytes() == fresh.w.tobytes() == gramian(a, kept.b, t_f).tobytes()
            assert kept.e_tf.tobytes() == fresh.e_tf.tobytes()
            assert kept.cost.hex() == fresh.cost.hex() == control_cost(a, placement).hex()
        assert len(shared.factors) == (2 if graph[0] == 100 else 1)


def _path_placement(n, seed, drivers=2):
    """A well-conditioned placement: drivers on path heads, four path nodes controlled.

    Only path nodes: free cycles are not reachable from one-wire drivers.
    """
    g = generate_er(n, 2.5, seed=seed)
    cover, _ = max_controllable_subset(g, drivers)
    path_nodes = [v for pth in cover.paths for v in pth]
    placement = ControlPlacement(tuple(pth[0] for pth in cover.paths), tuple(path_nodes[:4]), 2.0)
    return g.randomized_adjacency(seed), placement


class TestOptimalInput:
    def test_zero_state_zero_input(self):
        p = ControlPlacement((0,), (0, 1), 2.0)
        u = optimal_input_function(CHAIN2, p, np.zeros(2))
        assert np.allclose(u(0.7), 0.0)

    def test_scalar_constant_half(self):
        p = ControlPlacement((0,), (0,), 2.0)
        assert optimal_input(np.zeros((1, 1)), p, [1.0], 0.0) == pytest.approx(-0.5)
        assert optimal_input(np.zeros((1, 1)), p, [1.0], 1.9) == pytest.approx(-0.5)

    def test_t_outside_horizon(self):
        p = ControlPlacement((0,), (0,), 2.0)
        with pytest.raises(ValueError):
            optimal_input(np.zeros((1, 1)), p, [1.0], 2.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_realized_energy_matches_quadratic_form(self, seed):
        a, p = _path_placement(6, seed)
        assert output_controllable(a, p.b_matrix(6), p.c_matrix(6))
        x0 = np.random.default_rng(seed).normal(size=6)
        _, residual, energy = drive_to_origin(a, p, x0)
        assert residual <= 1e-6
        c = p.c_matrix(6)
        w = gramian(a, p.b_matrix(6), 2.0)
        y = c @ mat_exp(a, 2.0) @ x0
        analytic = float(y @ np.linalg.solve(c @ w @ c.T, y))
        assert energy == pytest.approx(analytic, rel=1e-8)


class TestDriveToOrigin:
    @pytest.mark.parametrize("case", [0, 1, 2, 3, "er40-edcp"])
    def test_samples_match_pointwise_input(self, case, monkeypatch):
        # the path placements, by seed, and EDCP's (4, 20) placement on ER
        # n=40 mu=4 seed 0, a network with cycles, as `verify` drives it
        import netcontrol.lti as lti

        if case == "er40-edcp":
            g = generate_er(40, 4, 0)
            a, p = g.realized_adjacency(), edcp(g, 4, 20).placement
            x0 = np.random.default_rng(0).normal(size=40)
        else:
            a, p = _path_placement(8, case)
            x0 = np.random.default_rng(case).normal(size=8)
        seen = []
        rk4_orig = lti._rk4

        def recording(a_, b_, samples, x, h, *args):
            seen.append((samples.copy(), h))
            return rk4_orig(a_, b_, samples, x, h, *args)

        monkeypatch.setattr(lti, "_rk4", recording)
        _, residual, _ = drive_to_origin(a, p, x0, steps=2000)
        assert residual <= 1e-6
        [(samples, h)] = seen  # the step map is fed once, at h = t_f / steps
        assert samples.shape == (4001, len(p.drivers)) and h == 2.0 / 2000
        u = optimal_input_function(a, p, x0)
        want = np.array([u(k * h / 2) for k in range(4001)])  # every grid time, as simulate samples it
        assert np.abs(samples - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("x0", [[math.nan, 1.0], [1.0, math.inf]], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        lambda x0: drive_to_origin(CHAIN2, ControlPlacement((0,), (1,)), x0),
        lambda x0: simulate(CHAIN2, np.array([[1.0], [0.0]]), lambda t: np.zeros(1), x0, 2.0),
        lambda x0: optimal_input_function(CHAIN2, ControlPlacement((0,), (1,)), x0),
    ], ids=["drive_to_origin", "simulate", "optimal_input_function"])
    def test_non_finite_start_refused(self, call, x0):
        # a NaN start drove to residual 0.0 with energy NaN: y0 > 0 is False for NaN
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            call(x0)

    def test_expm_calls_per_drive(self, monkeypatch):
        import netcontrol.lti as lti

        a, p = _path_placement(8, 0)
        shapes = []
        expm_orig = lti.expm
        monkeypatch.setattr(lti, "expm", lambda m: shapes.append(m.shape) or expm_orig(m))
        drive_to_origin(a, p, np.ones(8), steps=2000)
        # two-level grid sampling: the 64 powers by recurrence from one
        # exponential, the 63 anchors from six binary powers (8,004 pointwise);
        # the Gramian and e^(A t_f) come from the Van Loan kernel
        assert shapes == [(8, 8)] * 7


class TestSimulate:
    def test_drift_free(self):
        x = simulate(np.zeros((2, 2)), np.zeros((2, 1)), lambda t: np.zeros(1), [1.0, -2.0], 2.0)
        assert np.allclose(x, [1.0, -2.0])

    def test_scalar_reaches_origin(self):
        p = ControlPlacement((0,), (0,), 2.0)
        u = optimal_input_function(np.zeros((1, 1)), p, [1.0])
        x = simulate(np.zeros((1, 1)), np.ones((1, 1)), u, [1.0], 2.0)
        assert abs(x[0]) <= 1e-8

    def test_step_halving_agreement(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) * 0.5
        b = rng.normal(size=(4, 2))
        u = lambda t: np.array([np.sin(t), np.cos(2 * t)])
        x1 = simulate(a, b, u, np.ones(4), 2.0, steps=1000)
        x2 = simulate(a, b, u, np.ones(4), 2.0, steps=2000)
        assert np.abs(x1 - x2).max() <= 1e-9 * max(1.0, np.abs(x2).max())

    @pytest.mark.parametrize("t_f", [float("nan"), float("inf")])
    def test_nonfinite_horizon(self, t_f):
        with pytest.raises(ValueError, match="t_f"):
            simulate(np.zeros((2, 2)), np.zeros((2, 1)), lambda t: np.zeros(1), [1.0, -2.0], t_f)

    def test_trajectory_shape(self):
        ts, xs = simulate(np.zeros((2, 2)), np.zeros((2, 1)), lambda t: np.zeros(1), [0.0, 1.0], 1.0, return_trajectory=True)
        assert len(ts) == len(xs) == 1001

    @pytest.mark.parametrize("steps, calls", [(10, 2001), (1500, 3001)])
    def test_input_called_once_per_grid_time(self, steps, calls):
        times = []

        def u(t):
            times.append(t)
            return np.array([np.sin(t)])

        simulate(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.ones((2, 1)), u, [1.0, 0.0], 2.0, steps=steps)
        # k h / 2 for k = 0..2 steps, increasing; fewer than 1000 steps take 1000
        assert len(times) == calls
        assert np.all(np.diff(times) > 0)
        grid = np.arange(calls) * (2.0 / (calls - 1))
        assert np.abs(np.array(times) - grid).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("value", [np.array([[1.0]]), np.array([1.0, 0.0]), 1.0],
                             ids=["column", "too-long", "scalar"])
    def test_input_of_wrong_shape_refused(self, value):
        # a (1, 1) column would broadcast against x, and a scalar into a sample row
        with pytest.raises(ValueError, match=r"u\(0\.0\) has shape"):
            simulate(CHAIN2, np.array([[1.0], [0.0]]), lambda t: value, [1.0, 0.0], 1.0)

    @pytest.mark.parametrize("a, b", [
        (CHAIN2, np.ones((1, 1))), (CHAIN2, np.ones((3, 1))), (np.ones((2, 3)), np.ones((2, 1))),
    ], ids=["B-one-row", "B-three-rows", "A-not-square"])
    def test_mismatched_system_refused(self, a, b):
        with pytest.raises(ValueError, match=r"A has shape \(\d, \d\) and B \(\d, 1\)"):
            simulate(a, b, lambda t: np.ones(1), [1.0, 0.0], 1.0)


def _rk4_system(system, steps):
    """(A, B, u, x0, t_f) of one step-map accuracy case.

    "sincos" is a seeded 4 x 4 system with a sine and cosine input; (drivers,
    seed) is a steering problem from `_path_placement`, driven by the grid
    samples that `drive_to_origin` feeds `simulate`.
    """
    import netcontrol.lti as lti

    if system == "sincos":
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 4)) * 0.5, rng.normal(size=(4, 2))
        return a, b, lambda t: np.array([np.sin(t), np.cos(2 * t)]), np.ones(4), 2.0
    drivers, seed = system
    a, p = _path_placement(8, seed, drivers)
    s = lti._Context(a, p.t_f).placed(p)
    x0 = np.random.default_rng(seed).normal(size=8)
    samples, delta = lti._input_samples(s, s.costate(x0), 2 * steps), p.t_f / (2 * steps)
    return a, s.b, lambda t: samples[round(t / delta)], x0, p.t_f


class TestSimulateMatchesRk4:
    """`simulate`'s step map against the four-stage RK4 loop of `oracles.rk4_reference`.

    The two are the same integrator and differ in rounding only, which
    accumulates over the steps.  Measured on these cases with one and two
    BLAS threads: at most 4.0e-13 of max|x| (the three-driver problem at
    seed 3 and 2000 steps; 1.3e-13 for sincos), on the end state and the
    trajectory alike; the bound is 7.6x that.
    """

    BOUND = 3e-12

    @pytest.mark.parametrize("steps", [1000, 2000])
    @pytest.mark.parametrize("system", ["sincos", *((d, seed) for d in (1, 3) for seed in range(4))],
                             ids=lambda system: system if system == "sincos" else "drivers%d-seed%d" % system)
    def test_matches_reference(self, system, steps):
        a, b, u, x0, t_f = _rk4_system(system, steps)
        want_times, want = rk4_reference(a, b, u, x0, t_f, steps, return_trajectory=True)
        scale = np.abs(want).max()
        times, states = simulate(a, b, u, x0, t_f, steps=steps, return_trajectory=True)
        assert np.array_equal(times, want_times)
        assert states.shape == want.shape
        assert np.abs(states - want).max() <= self.BOUND * scale
        assert np.abs(simulate(a, b, u, x0, t_f, steps=steps) - want[-1]).max() <= self.BOUND * scale


class TestChainCost:
    # single-driver unit-chain reference costs at t_f = 2
    REFERENCE = [0.5, 4, 51, 1.76e3, 1.11e5, 1.10e7, 1.57e9, 3.07e11, 7.84e13, 2.54e16]

    def test_length_one_exact(self):
        assert chain_control_cost(1, 2.0) == 0.5

    def test_reference_within_factor(self):
        for length, ref in enumerate(self.REFERENCE, start=1):
            ours = chain_control_cost(length, 2.0)
            assert max(ours / ref, ref / ours) <= 1.5

    def test_growth_ratio(self):
        for length in range(3, 10):
            ratio = chain_control_cost(length + 1, 2.0) / chain_control_cost(length, 2.0)
            assert ratio >= 10

    def test_matches_dense_cost_small_lengths(self):
        for length in range(1, 7):
            dense = control_cost(
                chain_matrix(length),
                ControlPlacement((0,), tuple(range(length)), 2.0),
            )
            assert dense == pytest.approx(chain_control_cost(length, 2.0), rel=1e-7)

    def test_scalar_any_horizon(self):
        assert chain_control_cost(1, 0.5) == pytest.approx(2.0)

    def test_past_float_range_is_inf(self):
        # float() of the exact cost raised OverflowError from length 87 on
        assert 1e307 < chain_control_cost(86, 2.0) < math.inf
        assert chain_control_cost(87, 2.0) == chain_control_cost(120, 2.0) == math.inf

    @pytest.mark.parametrize("t_f", [2.0, 0.5, 3.5, 0.3])
    def test_closed_form_is_the_hilbert_inverse_sum(self, t_f):
        # the Legendre sum and the sum over Choi's H^-1 entries are the same
        # rational, not just the same float
        lengths = range(1, 61) if t_f == 2.0 else [*range(1, 21), 33, 47, 60]
        for length in lengths:
            assert _chain_cost_exact(length, t_f) == hilbert_chain_cost(length, t_f)

    @pytest.mark.parametrize("t_f", [-2.0, 0.0, math.inf, math.nan])
    def test_bad_horizon_refused(self, t_f):
        # -2 returned -110547.5, 0 raised ZeroDivisionError, inf OverflowError
        with pytest.raises(ValueError, match="t_f"):
            chain_control_cost(5, t_f)
        with pytest.raises(ValueError, match="t_f"):
            string_cost(12, 3, t_f)

    @pytest.mark.parametrize("t_f, lengths", [
        (2.0, [*range(1, 25), 40]),
        (0.5, range(1, 17)),
        (3.0, range(1, 17)),
    ])
    def test_equals_exact_reference(self, t_f, lengths):
        for length in lengths:
            assert chain_control_cost(length, t_f) == gauss_jordan_chain_cost(length, t_f)
