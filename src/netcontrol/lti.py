"""Dense LTI kernel: matrix exponential, controllability Gramian, output
controllability, minimum control energy and the input that realizes it.

The system is  x'(t) = A x(t) + B u(t),  y(t) = C x(t).  Drivers are single
wires (one nonzero per column of B) and C selects the controlled nodes.  The
expected steering cost over unit-variance random initial states is

    E = tr( C^T (C W C^T)^{-1} C e^{A t_f} e^{A^T t_f} ),

with W the controllability Gramian over [0, t_f]; the minimizing input is
u(t) = -B^T e^{A^T (t_f - t)} C^T (C W C^T)^{-1} C e^{A t_f} x0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, inf, isqrt, perm
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import expm

# C W C^T beyond this condition number is refused.  Accepted placements are
# still limited by float64: the steering residual of drive_to_origin cannot
# fall below about eps * cond(C W C^T), so its 1e-6 contract needs
# cond <~ 4e9, well inside this limit.
CONDITION_LIMIT = 1e12
RANK_TOLERANCE = 1e-9
_MIN_STEPS = 1000  # the fewest RK4 steps `simulate` takes


def _check_horizon(t_f: float) -> None:
    """Refuse a control horizon that is not a positive finite number."""
    if not 0 < t_f < inf:  # NaN fails both comparisons
        raise ValueError(f"t_f must be positive and finite, got {t_f}")


def _check_nodes(nodes: tuple[int, ...], n: int) -> None:
    """Refuse a node id of n or above; a placement refuses negative ids when built."""
    if (highest := max(nodes, default=-1)) >= n:
        raise ValueError(f"node {highest} is not in the {n}-node network")


class UncontrollableError(RuntimeError):
    """The (A, B, C) triple is not output controllable, or C W C^T is too
    ill-conditioned to invert reliably."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class ControlPlacement:
    """Driver-node and controlled-node selection plus the control horizon.

    drivers[m] is the node wired to input m (so B has a single 1 per column);
    controlled[k] is the node reported by output k (a single 1 per row of C).
    """

    drivers: tuple[int, ...]
    controlled: tuple[int, ...]
    t_f: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "drivers", tuple(int(v) for v in self.drivers))
        object.__setattr__(self, "controlled", tuple(int(v) for v in self.controlled))
        if len(set(self.drivers)) != len(self.drivers):
            raise ValueError("duplicate driver node")
        if len(set(self.controlled)) != len(self.controlled):
            raise ValueError("duplicate controlled node")
        if (lowest := min((*self.drivers, *self.controlled), default=0)) < 0:
            raise ValueError(f"node {lowest} is negative")
        _check_horizon(self.t_f)

    def b_matrix(self, n: int) -> np.ndarray:
        _check_nodes(self.drivers, n)
        b = np.zeros((n, len(self.drivers)))
        for col, v in enumerate(self.drivers):
            b[v, col] = 1.0
        return b

    def c_matrix(self, n: int) -> np.ndarray:
        _check_nodes(self.controlled, n)
        c = np.zeros((len(self.controlled), n))
        for row, v in enumerate(self.controlled):
            c[row, v] = 1.0
        return c


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def mat_exp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^(A t) by scaling-and-squaring with Pade approximants."""
    a = _as_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    return expm(a * t)


def gramian(a: np.ndarray, b: np.ndarray, t_f: float) -> np.ndarray:
    """Controllability Gramian W = int_0^tf e^(At) B B^T e^(A^T t) dt.

    Uses the block-exponential identity: with
    Z = exp(t_f [[A, BB^T], [0, -A^T]]), W = Z12 Z11^T to machine precision.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    n = a.shape[0]
    if a.shape[1] != n or b.shape[0] != n:
        raise ValueError("A must be square and B must have matching rows")
    _check_horizon(t_f)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = b @ b.T
    block[n:, n:] = -a.T
    z = expm(block * t_f)
    w = z[:n, n:] @ z[:n, :n].T
    return (w + w.T) / 2.0


def reachable_basis(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of span{B, AB, A^2 B, ...}.

    Grown one Krylov step at a time with re-orthonormalization, which keeps
    long chains well-scaled where the raw block matrix would underflow.
    Column-pivoted QR makes the rank decision robust to zeroed-out columns.
    """
    n = a.shape[0]
    basis = np.zeros((n, 0))
    new = b.copy()
    while basis.shape[1] < n:
        if basis.shape[1]:
            new = new - basis @ (basis.T @ new)
            new = new - basis @ (basis.T @ new)  # second pass for stability
        q, r, _ = scipy.linalg.qr(new, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        scale = max(1.0, float(diag[0])) if diag.size else 1.0
        rank = int(np.sum(diag > tol * scale))
        if rank == 0:
            break
        q = q[:, :rank]
        basis = np.hstack([basis, q])
        new = a @ q
    return basis


def output_controllable(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
    """True iff rank [CB, CAB, ..., CA^(N-1)B] equals the output count.

    The rank is evaluated on C restricted to the reachable subspace, with
    tolerance 1e-9 times the largest column norm.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    c = _as_matrix(c, "C")
    if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
        raise ValueError("incompatible dimensions")
    if c.shape[0] == 0:
        return True
    k = c @ reachable_basis(a, b)
    if k.size == 0:
        return False
    scale = float(np.linalg.norm(k, axis=0).max())
    if scale == 0.0:
        return False
    rank = int(np.sum(np.linalg.svd(k, compute_uv=False) > RANK_TOLERANCE * scale))
    return rank == c.shape[0]


class _Steering:
    """The shared terms of one steering problem (A, B, C, t_f).

    Computed once each, in this order: the output-controllability test, the
    Gramian W, G = C W C^T with its conditioning guard, e^(A t_f), and X_f
    = e^(A t_f) e^(A^T t_f) on first use.  The cost, its gradients and the
    minimum-energy input all derive from them.
    Raises UncontrollableError where the cost is undefined; its condition
    is None for a rank failure.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, t_f: float):
        a, b, c = _as_matrix(a, "A"), _as_matrix(b, "B"), _as_matrix(c, "C")
        if not output_controllable(a, b, c):
            raise UncontrollableError("(A, B, C) is not output controllable")
        w = gramian(a, b, t_f)
        g = c @ w @ c.T
        condition = float(np.linalg.cond(g))
        if not np.isfinite(condition) or condition >= CONDITION_LIMIT:
            raise UncontrollableError(
                f"C W C^T condition {condition:.3e} exceeds {CONDITION_LIMIT:.0e}",
                condition=condition,
            )
        self.a, self.b, self.c, self.t_f, self.w, self.g = a, b, c, t_f, w, g
        self.e_tf = expm(a * t_f)

    @cached_property
    def x_f(self) -> np.ndarray:
        return self.e_tf @ self.e_tf.T

    def cost(self) -> float:
        """E = tr((C W C^T)^-1 C e^(A t_f) e^(A^T t_f) C^T)."""
        y = self.c @ self.e_tf
        return float(np.trace(np.linalg.solve(self.g, y @ y.T)))

    def costate(self, x0: np.ndarray) -> np.ndarray:
        """v = C^T (C W C^T)^-1 C e^(A t_f) x0; the input is -B^T e^(A^T (t_f - t)) v."""
        return self.c.T @ np.linalg.solve(self.g, self.c @ (self.e_tf @ x0))


def control_cost_matrices(a: np.ndarray, b: np.ndarray, c: np.ndarray, t_f: float) -> float:
    """Expected minimum steering energy for dense (not necessarily 0/1) B, C."""
    return _Steering(a, b, c, t_f).cost()


def control_cost(a: np.ndarray, placement: ControlPlacement) -> float:
    """Expected minimum energy to steer the selected outputs to the origin."""
    a = _as_matrix(a, "A")
    n = a.shape[0]
    return control_cost_matrices(a, placement.b_matrix(n), placement.c_matrix(n), placement.t_f)


def optimal_input_function(
    a: np.ndarray, placement: ControlPlacement, x0: np.ndarray
) -> Callable[[float], np.ndarray]:
    """The minimum-energy input u(t) steering y(t_f) to the origin."""
    a = _as_matrix(a, "A")
    n = a.shape[0]
    b = placement.b_matrix(n)
    c = placement.c_matrix(n)
    t_f = placement.t_f
    x0 = np.asarray(x0, dtype=float).reshape(n)
    v = _Steering(a, b, c, t_f).costate(x0)
    at = a.T

    def u(t: float) -> np.ndarray:
        return -b.T @ (expm(at * (t_f - t)) @ v)

    return u


def optimal_input(a: np.ndarray, placement: ControlPlacement, x0: np.ndarray, t: float) -> np.ndarray:
    """u(t) of the minimum-energy input at a single time 0 <= t <= t_f."""
    if not (0 <= t <= placement.t_f):
        raise ValueError("t must lie in [0, t_f]")
    return optimal_input_function(a, placement, x0)(t)


def simulate(
    a: np.ndarray,
    b: np.ndarray,
    u: Callable[[float], np.ndarray],
    x0: np.ndarray,
    t_f: float,
    steps: int = 1000,
    return_trajectory: bool = False,
):
    """Fixed-step RK4 integration of x' = Ax + Bu(t) over [0, t_f].

    Returns x(t_f), or (times, states) when return_trajectory is set.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    _check_horizon(t_f)
    steps = max(int(steps), _MIN_STEPS)
    h = t_f / steps
    x = np.asarray(x0, dtype=float).reshape(a.shape[0]).copy()
    times = [0.0]
    states = [x.copy()]
    u_left = np.asarray(u(0.0), dtype=float)
    for k in range(steps):
        t = k * h
        u_mid = np.asarray(u(t + h / 2), dtype=float)
        u_right = np.asarray(u(t + h), dtype=float)
        k1 = a @ x + b @ u_left
        k2 = a @ (x + h / 2 * k1) + b @ u_mid
        k3 = a @ (x + h / 2 * k2) + b @ u_mid
        k4 = a @ (x + h * k3) + b @ u_right
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        u_left = u_right
        if return_trajectory:
            times.append((k + 1) * h)
            states.append(x.copy())
    if return_trajectory:
        return np.array(times), np.array(states)
    return x


def _input_samples(s: _Steering, v: np.ndarray, m: int) -> np.ndarray:
    """The minimum-energy input at t_k = k t_f / m, k = 0..m, one row each.

    u(t_k) = -B^T e^(A^T j delta) v with j = m - k and delta = t_f / m.
    Splitting j = q K + i with K = ceil(sqrt(m + 1)) gives
    e^(A^T j delta) v = e^(A^T i delta) (e^(A^T q K delta) v): K powers and
    floor(m / K) + 1 anchors, each its own expm, replace one expm per sample.
    Only the (m + 1) x M samples are kept, never an (m + 1) x n trajectory.
    """
    delta = s.t_f / m
    block = isqrt(m) + 1  # ceil(sqrt(m + 1))
    at = s.a.T
    anchors = np.column_stack([expm(at * (q * block * delta)) @ v for q in range(m // block + 1)])
    bt_powers = np.vstack([s.b.T @ expm(at * (i * delta)) for i in range(block)])
    width = s.b.shape[1]
    # entry (i M + col, q) of the product is input col at j = q K + i
    u = -(bt_powers @ anchors).reshape(block, width, -1).transpose(2, 0, 1).reshape(-1, width)
    return u[m::-1]


def drive_to_origin(
    a: np.ndarray, placement: ControlPlacement, x0: np.ndarray, steps: int = 2000
) -> tuple[np.ndarray, float, float]:
    """Simulate the optimal input; report (x(t_f), output residual, energy).

    residual = ||C x(t_f)|| / ||C x0||, energy = int_0^tf u^T u dt.

    The input is sampled once on the RK4 grid t_k = k t_f / m, m =
    2 max(steps, 1000) (step ends and midpoints), by the two-level split of
    `_input_samples`: at steps=2000, 2 ceil(sqrt(4001)) - 1 = 127 expm calls,
    129 per drive with the Gramian and e^(A t_f), where one expm per sample
    would take 8,004.  Each sample is one power times one anchor, so no step
    matrix is applied thousands of times and rounding does not accumulate:
    the samples agree with `optimal_input_function` to about 1e-12
    relative.  The same samples feed `simulate` and the composite Simpson
    energy, so Simpson uses the RK4 grid: m panels also for steps < 1000.

    In float64 the residual cannot fall below about eps * cond(C W C^T):
    the input is built from a solve with C W C^T.  A residual contract of
    1e-6 therefore needs cond <~ 4e9, while CONDITION_LIMIT accepts
    placements up to 1e12; more integration steps do not help.
    """
    a = _as_matrix(a, "A")
    n = a.shape[0]
    return _drive(_Steering(a, placement.b_matrix(n), placement.c_matrix(n), placement.t_f), x0, steps)


def _drive(s: _Steering, x0: np.ndarray, steps: int = 2000) -> tuple[np.ndarray, float, float]:
    """drive_to_origin on an evaluated steering problem."""
    x0 = np.asarray(x0, dtype=float).reshape(s.a.shape[0])
    steps = max(int(steps), _MIN_STEPS)
    m = 2 * steps
    delta = s.t_f / m
    samples = _input_samples(s, s.costate(x0), m)
    x_f = simulate(s.a, s.b, lambda t: samples[round(t / delta)], x0, s.t_f, steps=steps)
    y0 = float(np.linalg.norm(s.c @ x0))
    residual = float(np.linalg.norm(s.c @ x_f)) / y0 if y0 > 0 else 0.0
    weights = np.ones(m + 1)  # composite Simpson, m even
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    energy = float(delta / 3 * np.dot(weights, np.einsum("ij,ij->i", samples, samples)))
    return x_f, residual, energy


@lru_cache(maxsize=None)
def chain_control_cost(length: int, t_f: float = 2.0) -> float:
    """Single-driver cost of a unit-weight directed chain of `length` nodes.

    Exact, in integer and rational arithmetic.  The chain's A is nilpotent,
    so its Gramian is W = t_f D H D with D = diag(t_f^i / i!) and H the
    L x L Hilbert matrix, and column k of e^(A t_f) is t_f^-k D p_k with
    p_k[i] = i! / (i - k)! (0 for i < k).  Hence

        E = tr(W^-1 e^(A t_f) e^(A^T t_f)) = sum_k p_k^T H^-1 p_k / t_f^(2k+1),

    where H^-1 has the integer entries (M.-D. Choi, "Tricks or Treats with
    the Hilbert Matrix", Amer. Math. Monthly 90(5), 1983)

        (H^-1)_ij = (-1)^(i+j) (i+j+1) C(L+i, L-j-1) C(L+j, L-i-1) C(i+j, i)^2.

    This stays accurate far past the point where the floating-point Gramian
    becomes numerically singular (costs grow like 1e16 by length 10).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n = length
    h_inv = [
        [(-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1) * comb(n + j, n - i - 1) * comb(i + j, i) ** 2
         for j in range(n)]
        for i in range(n)
    ]
    tf = Fraction(t_f)
    total = Fraction(0)
    for k in range(n):
        p = [perm(i, k) for i in range(n)]
        total += sum(pi * sum(h * pj for h, pj in zip(row, p)) for pi, row in zip(p, h_inv)) / tf ** (2 * k + 1)
    return float(total)
