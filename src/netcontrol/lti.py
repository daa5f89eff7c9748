"""Dense LTI kernel: matrix exponential, controllability Gramian, output
controllability, minimum control energy and the input that realizes it.

The system is  x'(t) = A x(t) + B u(t),  y(t) = C x(t).  Drivers are single
wires (one nonzero per column of B) and C selects the controlled nodes.  The
expected steering cost over unit-variance random initial states is

    E = tr( C^T (C W C^T)^{-1} C e^{A t_f} e^{A^T t_f} ),

with W the controllability Gramian over [0, t_f]; the minimizing input is
u(t) = -B^T e^{A^T (t_f - t)} C^T (C W C^T)^{-1} C e^{A t_f} x0.

W and e^{A t_f} come from one Van Loan block exponential (Van Loan, IEEE
TAC 23(3), 1978): Z = exp(t_f [[A, B B^T], [0, -A^T]]) gives W = Z12 Z11^T
and e^{A t_f} = Z11.  `_van_loan` computes Z by Pade scaling and squaring
on the block-triangular structure with n x n numpy products only, never
the 2n x 2n block; ELPGM's gradient integral calls it too.

Every steering problem on one (A, t_f) runs on one `_Context`: EDCP's
exact costs, its `refine` and naive cells and ELPGM's supports share the
request's, and `verify` and the public functions build one for their
evaluation.  It holds the one search of what reaches what over A's
nonzero pattern and the Van Loan kernel's driver-free factors, so a
support pays for the reach test, the fused products that read its B and
the cost, and no rank test unless it is reached and refused (`_Steering`,
which labels it on the checked A, B and C); the bits are those of a
fresh evaluation.  `expm` runs the same Pade table on one n x n matrix:
`mat_exp`, the pointwise input and the input samples of `drive_to_origin`
use it, the last seven times per drive.  The module needs numpy alone;
scipy would cost a CLI call more to import than its requests take, and
its own OpenBLAS contended with numpy's on a small host.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, inf, isqrt, log2
from typing import Callable

import numpy as np

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
        for v in (*self.drivers, *self.controlled):  # int() would truncate 0.7 and read True as 1
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"node id {v!r} is not an integer")
        object.__setattr__(self, "drivers", tuple(int(v) for v in self.drivers))
        object.__setattr__(self, "controlled", tuple(int(v) for v in self.controlled))
        if len(set(self.drivers)) != len(self.drivers):
            raise ValueError("duplicate driver node")
        if len(set(self.controlled)) != len(self.controlled):
            raise ValueError("duplicate controlled node")
        if not (self.drivers and self.controlled):
            raise ValueError("a placement needs at least one driver and one controlled node")
        if (lowest := min(*self.drivers, *self.controlled)) < 0:
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


def _as_state(x0, n: int) -> np.ndarray:
    """x0 as n finite floats: a NaN start would report residual 0."""
    return _as_matrix(np.reshape(x0, (1, n)), "x0")[0]


def mat_exp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^(A t) by scaling-and-squaring with Pade approximants; t and A t must be finite."""
    a = _as_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if not -inf < t < inf:  # NaN fails both comparisons
        raise ValueError(f"t must be finite, got {t}")
    with np.errstate(over="ignore"):  # an overflow is refused below
        at = a * t
    if not np.all(np.isfinite(at)):
        raise ValueError("A t has non-finite entries")
    return expm(at)


def _pade_table():
    """(degree m, theta_m, rows, identity) for the Pade degrees 3, 5, 7, 9 and 13.

    theta_m is the 1-norm up to which degree m needs no scaling (Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005).  rows combines the even powers
    M^2, M^4, ... into the Pade polynomials and identity adds their M^0
    terms: for degree 13, W1, W2, Z1, Z2 of U = M (M^6 W1 + W2) and V =
    M^6 Z1 + Z2; below it, the two sums of U = M sum_k b_(2k+1) M^2k and
    V = sum_k b_2k M^2k.
    """
    coefficients = (
        (3, 1.495585217958292e-2, (120, 60, 12, 1)),
        (5, 2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
        (7, 9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)),
        (9, 2.097847961257068e0, (17643225600, 8821612800, 2075673600, 302702400, 30270240,
                                  2162160, 110880, 3960, 90, 1)),
        (13, 5.371920351148152e0, (64764752532480000, 32382376266240000, 7771770303897600,
                                   1187353796428800, 129060195264000, 10559470521600,
                                   670442572800, 33522128640, 1323241920, 40840800, 960960,
                                   16380, 182, 1)),
    )
    table = []
    for m, theta, b in coefficients:
        if m == 13:
            rows, identity = [b[9::2], b[3:8:2], b[8::2], b[2:7:2]], [0, b[1], 0, b[0]]
        else:
            rows, identity = [b[3::2], b[2::2]], [b[1], b[0]]
        table.append((m, theta, np.array(rows, dtype=float), np.array(identity, dtype=float)[:, None]))
    return tuple(table)


_PADE = _pade_table()


def expm(a: np.ndarray) -> np.ndarray:
    """e^A of one square matrix.

    Pade scaling and squaring (Higham 2005) on the `_PADE` table: the lowest
    degree whose theta bounds the 1-norm, else degree 13 with the matrix
    scaled by 2^-s to within theta_13.  With U and V the odd and even parts
    of the Pade numerator, Z solves (V - U) Z = V + U and is squared s times.
    """
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    degree, theta, rows, identity = next((entry for entry in _PADE if norm <= entry[1]), _PADE[-1])
    squarings = int(np.ceil(np.log2(max(norm, theta) / theta)))
    m = a * 2.0 ** -squarings
    powers = np.empty((rows.shape[1] + 1, *a.shape))  # I, M^2, M^4, ...
    powers[0] = np.eye(a.shape[0])
    np.matmul(m, m, out=powers[1])
    for k in range(2, len(powers)):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    polys = np.tensordot(np.hstack([identity, rows]), powers, axes=1)
    if degree == 13:
        w1, w2, z1, z2 = polys
        u = m @ (powers[3] @ w1 + w2)
        v = powers[3] @ z1 + z2
    else:
        w, v = polys
        u = m @ w
    z = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        z = z @ z
    return z


def _van_loan(x: np.ndarray, q: np.ndarray, t: float,
              factors: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Z11, Z12, Z22) of Z = exp(t [[X, Q], [0, -X^T]]), never forming the 2n x 2n block.

    Pade scaling and squaring (Higham 2005) on the block-triangular
    structure, with n x n numpy products only: the lowest Pade degree whose
    theta bounds the block's 1-norm, else degree 13 after 2^-s scaling.
    An even power or even polynomial of M = t [[X, Q], [0, -X^T]] is
    [[P, R], [0, P^T]] (P is a polynomial in X, so its blocks commute),
    held as its top row [P | R]: a product of two is P1 [P2 | R2] + [0 | R1
    P2^T], and M times one is t X [P | R] + [0 | t Q P^T].  With U and V the
    odd and even parts of the Pade numerator, N = V + U and D = V - U have
    lower blocks D11^T and N11^T, so the Pade solve D Z = N takes two n x n
    inverses, of matrices well conditioned up to theta_13: Z22 = (D11
    N11^-1)^T, then [Z11 | Z12] = D11^-1 [N11 | N12 - D12 Z22].  (numpy's
    solve with 2n right-hand sides took twice as long as inv and a
    product.)  Each squaring is Z11 [Z11 | Z12] + [0 | Z12 Z22] and Z22^2.

    factors, when given, is a dict kept for one (X, t): it holds D11^-1 and
    Z22 with its s squares, n^2 (s + 2) floats, under the key (degree, s),
    and a call whose Q picks a kept key reads them instead of computing
    them.  They are the same bits: D11 and N11 are the left blocks of the
    fused n x 2n products, a column of a product reads only the same
    column of its right factor, and at a fixed shape each column is summed
    in the same order whatever the others hold; Q enters the right blocks
    and the key alone.  The products stay fused on purpose: `a @ top[:,
    :n]` is another shape, and its bits differ from `(a @ top)[:, :n]` on
    OpenBLAS at n = 20-129.
    """
    n = x.shape[0]
    top = np.hstack([x, q])  # [A | B] of M = [[A, B], [0, -A^T]], scaled below
    sums = np.abs(top).sum(axis=0)
    sums[n:] += np.abs(x).sum(axis=1)
    norm = t * sums.max(initial=0.0)  # ||M||_1
    degree, theta, rows, identity = next((entry for entry in _PADE if norm <= entry[1]), _PADE[-1])
    squarings = ceil(log2(norm / theta)) if norm > theta else 0
    top *= t * 2.0 ** -squarings
    a, b = top[:, :n], top[:, n:]
    powers = np.empty((rows.shape[1], n, 2 * n))  # M^2, M^4, ... as top rows
    np.matmul(a, top, out=powers[0])
    powers[0, :, n:] -= b @ a.T
    a2 = powers[0, :, :n]
    for k in range(1, rows.shape[1]):
        np.matmul(powers[k - 1, :, :n], powers[0], out=powers[k])
        powers[k, :, n:] += powers[k - 1, :, n:] @ a2.T
    polys = rows @ powers.reshape(rows.shape[1], -1)
    polys[:, ::2 * n + 1] += identity  # the diagonal of each P block
    polys = polys.reshape(-1, n, 2 * n)
    if degree == 13:
        w1, w2, z1, z2 = polys
        p6, r6 = powers[2, :, :n], powers[2, :, n:]
        w = p6 @ w1 + w2
        w[:, n:] += r6 @ w1[:, :n].T
        v = p6 @ z1 + z2
        v[:, n:] += r6 @ z1[:, :n].T
    else:
        w, v = polys
    u = a @ w
    u[:, n:] += b @ w[:, :n].T
    num, den = v + u, v - u
    kept = None if factors is None else factors.get((degree, squarings))
    if kept is None:
        squares = [(den[:, :n] @ np.linalg.inv(num[:, :n])).T]  # Z22, Z22^2, ..., Z22^(2^s)
        for _ in range(squarings):
            squares.append(squares[-1] @ squares[-1])
        kept = np.linalg.inv(den[:, :n]), squares
        if factors is not None:
            factors[degree, squarings] = kept
    den11_inv, squares = kept
    num[:, n:] -= den[:, n:] @ squares[0]
    top = den11_inv @ num
    for z22 in squares[:-1]:
        squared = top[:, :n] @ top
        squared[:, n:] += top[:, n:] @ z22
        top = squared
    return top[:, :n], top[:, n:], squares[-1]


def _gramian(a: np.ndarray, b: np.ndarray, t_f: float,
             factors: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(W, e^(A t_f)) from one `_van_loan` call on checked A, B; factors as `_van_loan` keeps them."""
    z11, z12, _ = _van_loan(a, b @ b.T, t_f, factors)
    w = z12 @ z11.T
    return (w + w.T) / 2.0, z11


def gramian(a: np.ndarray, b: np.ndarray, t_f: float) -> np.ndarray:
    """Controllability Gramian W = int_0^tf e^(At) B B^T e^(A^T t) dt.

    Uses the block-exponential identity (Van Loan, IEEE TAC 23(3), 1978):
    with Z = exp(t_f [[A, BB^T], [0, -A^T]]), W = Z12 Z11^T to machine
    precision, and Z11 = e^(A t_f).  Z comes from `_van_loan`.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    n = a.shape[0]
    if a.shape[1] != n or b.shape[0] != n:
        raise ValueError("A must be square and B must have matching rows")
    _check_horizon(t_f)
    return _gramian(a, b, t_f)[0]


def _krylov_test(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
    """Whether C has full row rank on span{B, AB, A^2 B, ...}, for checked A, B and C.

    The span's basis grows one Krylov step at a time, re-orthonormalized so
    long chains stay well-scaled: a step adds the left singular vectors of
    its projected block above 1e-10 * max(1, s_0).  The rank of C times the
    basis counts singular values above RANK_TOLERANCE * its largest column norm.
    """
    n = a.shape[0]
    basis = np.zeros((n, 0))
    new = b
    while basis.shape[1] < n:
        if basis.shape[1]:
            new = new - basis @ (basis.T @ new)
            new = new - basis @ (basis.T @ new)  # second pass for stability
        u, s, _ = np.linalg.svd(new, full_matrices=False)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0]))) if s.size else 0
        if rank == 0:
            break
        q = u[:, :rank]
        basis = np.hstack([basis, q])
        new = a @ q
    k = c @ basis
    scale = float(np.linalg.norm(k, axis=0).max(initial=0.0))
    if scale == 0.0:
        return False
    return int(np.sum(np.linalg.svd(k, compute_uv=False) > RANK_TOLERANCE * scale)) == c.shape[0]


def output_controllable(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
    """True iff rank [CB, CAB, ..., CA^(N-1)B] equals the output count.

    False where B reaches no node of a row of C (`_Context.reaches`, as
    `_Steering` refuses); else the Krylov test (`_krylov_test`): the rank
    of C restricted to the reachable subspace, with tolerance 1e-9 times
    the largest column norm.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    c = _as_matrix(c, "C")
    if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
        raise ValueError("incompatible dimensions")
    if c.shape[0] == 0:
        return True
    return _Context(a, 1.0).reaches(b, c) and _krylov_test(a, b, c)  # the reach search does not read t_f


_NOT_OUTPUT_CONTROLLABLE = "(A, B, C) is not output controllable"


class _Context:
    """One (A, t_f): the evaluation context that every steering problem on it shares.

    It holds the only search over A's nonzero pattern, `reached`: the reach
    test and ELPGM's closure run it; refusal labels need no other context.
    It keeps the Gramian's Van Loan factors that no driver set changes, n^2
    (s + 2) floats per (degree, squarings) key that a driver set's Q picks
    (`_van_loan`).  Each support's W and e^(A t_f) are computed afresh,
    with the same bits as without the context; they are not kept.
    """

    def __init__(self, a: np.ndarray, t_f: float):
        _check_horizon(t_f)
        self.a, self.t_f = _as_matrix(a, "A"), t_f
        if self.a.shape[0] != self.a.shape[1]:
            raise ValueError("incompatible dimensions")
        self.factors: dict = {}  # `_van_loan`'s on (A, t_f)

    @cached_property
    def successors(self) -> list[list[int]]:
        """successors[j] lists the i with A[i, j] != 0: the edges j -> i."""
        return [np.flatnonzero(column).tolist() for column in self.a.T]

    def reached(self, sources) -> np.ndarray:
        """Boolean mask of the nodes that sources reach over A's nonzero
        pattern, sources included: a breadth-first search, O(n + nnz)."""
        frontier, reached = list(sources), [False] * len(self.successors)
        for v in frontier:
            reached[v] = True
        while frontier:
            ahead = []
            for v in frontier:
                for w in self.successors[v]:
                    if not reached[w]:
                        reached[w] = True
                        ahead.append(w)
            frontier = ahead
        return np.array(reached)

    @cached_property
    def closure(self) -> np.ndarray:
        """Boolean n x n matrix whose row v marks the nodes v reaches, v included."""
        return np.array([self.reached([v]) for v in range(len(self.a))])

    def reaches(self, b: np.ndarray, c: np.ndarray) -> bool:
        """Whether every row of C has a nonzero on a node that B's nonzero rows reach."""
        return bool(c[:, self.reached(np.flatnonzero(b.any(axis=1)).tolist())].any(axis=1).all())

    def placed(self, placement: ControlPlacement) -> "_Steering":
        """The steering problem of a single-wire placement whose t_f is the context's."""
        n = self.a.shape[0]
        return _Steering(self, placement.b_matrix(n), placement.c_matrix(n))


class _Steering:
    """The shared terms of one steering problem (A, B, C, t_f), on the context of (A, t_f).

    Computed once each, in this order: the reach test, the Gramian W and
    e^(A t_f) from one `_van_loan` call on the context's factors, G = C W
    C^T, its conditioning guard, the cost E, and, on first use, X_f = e^(A
    t_f) e^(A^T t_f) and G^-1 C.  The cost, its gradients and the
    minimum-energy input all derive from them.  Raises UncontrollableError
    where the cost is undefined: e^(A t_f), W, G or E past the float range,
    or a guard that fails; its condition is None where none was computed
    (terms past the float range) or where the reach or Krylov test labels
    the refusal.  Reading x_f raises it too when X_f is past the float range,
    although E may be finite: the gradients are undefined.

    A support with a row of C on nodes that no input reaches is refused by
    the reach test alone (`_Context.reaches`), before any rank test or
    Gramian: such a row is zero on the reachable subspace (structural
    controllability, Lin, IEEE TAC 19(3), 1974), while the Krylov test,
    whose tolerance is relative to C times the reachable basis, can pass
    it on rounding noise.  It passed 8,029 of 27,852 unreached dense
    supports (12 then accepted with E of 3e33-4e36) and 9 of 5,805
    single-wire ones (refused by the guard at cond = inf).  On a reached
    support the Krylov test (`_krylov_test`) runs only after a refusal, to
    label it "not output controllable" where it fails: of 21,427 reached
    supports in a measured family of 31,068, every one it refused also
    failed the guard.  It runs on the A, B and C checked here: a label
    needs no second context or reach search.
    """

    def __init__(self, context: _Context, b: np.ndarray, c: np.ndarray):
        a, t_f = context.a, context.t_f
        b, c = _as_matrix(b, "B"), _as_matrix(c, "C")
        if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
            raise ValueError("incompatible dimensions")
        if not (b.shape[1] and c.shape[0]):
            raise ValueError("a steering problem needs a column of B and a row of C")
        if not context.reaches(b, c):
            raise UncontrollableError(_NOT_OUTPUT_CONTROLLABLE)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms are refused below
                w, e_tf = _gramian(a, b, t_f, context.factors)
                g = c @ w @ c.T
            if not (np.isfinite(e_tf).all() and np.isfinite(w).all() and np.isfinite(g).all()):
                raise UncontrollableError("e^(A t_f), W or C W C^T is past the float range")
            condition = float(np.linalg.cond(g))
            if not np.isfinite(condition) or condition >= CONDITION_LIMIT:
                raise UncontrollableError(
                    f"C W C^T condition {condition:.3e} exceeds {CONDITION_LIMIT:.0e}",
                    condition=condition,
                )
            with np.errstate(over="ignore", invalid="ignore"):  # E = tr(G^-1 C e^(A t_f) e^(A^T t_f) C^T)
                y = c @ e_tf
                self.cost = float(np.trace(np.linalg.solve(g, y @ y.T)))
            if not np.isfinite(self.cost):
                raise UncontrollableError(f"the cost E = {self.cost} is past the float range")
        except (UncontrollableError, np.linalg.LinAlgError):
            if not _krylov_test(a, b, c):
                raise UncontrollableError(_NOT_OUTPUT_CONTROLLABLE) from None
            raise
        self.a, self.b, self.c, self.t_f, self.w, self.g, self.e_tf = a, b, c, t_f, w, g, e_tf

    @cached_property
    def x_f(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X_f is refused below
            x_f = self.e_tf @ self.e_tf.T
        if not np.isfinite(x_f).all():
            raise UncontrollableError("X_f = e^(A t_f) e^(A^T t_f) is past the float range")
        return x_f

    @cached_property
    def ginv_c(self) -> np.ndarray:
        """G^-1 C, read by both gradients."""
        return np.linalg.solve(self.g, self.c)

    def costate(self, x0: np.ndarray) -> np.ndarray:
        """v = C^T (C W C^T)^-1 C e^(A t_f) x0; the input is -B^T e^(A^T (t_f - t)) v."""
        return self.c.T @ np.linalg.solve(self.g, self.c @ (self.e_tf @ x0))


def control_cost_matrices(a: np.ndarray, b: np.ndarray, c: np.ndarray, t_f: float) -> float:
    """Expected minimum steering energy for dense (not necessarily 0/1) B, C."""
    return _Steering(_Context(a, t_f), b, c).cost


def control_cost(a: np.ndarray, placement: ControlPlacement) -> float:
    """Expected minimum energy to steer the selected outputs to the origin."""
    return _Context(a, placement.t_f).placed(placement).cost


def optimal_input_function(
    a: np.ndarray, placement: ControlPlacement, x0: np.ndarray
) -> Callable[[float], np.ndarray]:
    """The minimum-energy input u(t) steering y(t_f) to the origin."""
    a = _as_matrix(a, "A")
    x0 = _as_state(x0, a.shape[0])
    s = _Context(a, placement.t_f).placed(placement)
    v = s.costate(x0)

    def u(t: float) -> np.ndarray:
        return -s.b.T @ (expm(s.a.T * (s.t_f - t)) @ v)

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

    On a linear system an RK4 step is a linear map (Hairer & Wanner,
    Solving ODEs II, IV.2).  With h = t_f / steps, H = hA and u_k the
    input at t = k h / 2, step k is

        x_(k+1) = Phi x_k + G_L u_(2k) + G_M u_(2k+1) + G_R u_(2k+2),

    Phi = I + H + H^2/2 + H^3/6 + H^4/24, RK4's stability polynomial, and

        G_L = h/6 (B + HB + H^2 B/2 + H^3 B/4),
        G_M = h/6 (4B + 2HB + H^2 B/2),
        G_R = h/6 B,

    the same integrator with the same truncation error as its four stages,
    at one matvec pair per step.  u is called once at each t = k h / 2,
    k = 0..2 steps, in increasing order, and must return an array of shape
    (M,) for the M columns of B; the samples are then stepped by `_rk4`.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    n, width = a.shape[0], b.shape[1]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"A has shape {a.shape} and B {b.shape}: A must be square and B must have {n} rows")
    _check_horizon(t_f)
    x0 = _as_state(x0, n)
    steps = max(int(steps), _MIN_STEPS)
    h = t_f / steps
    samples = np.empty((2 * steps + 1, width))
    for k in range(2 * steps + 1):
        value = np.asarray(u(k * h / 2), dtype=float)
        if value.shape != (width,):  # samples[k] = value would broadcast it
            raise ValueError(f"u({k * h / 2}) has shape {value.shape}, not ({width},) for B's {width} columns")
        samples[k] = value
    return _rk4(a, b, samples, x0, h, return_trajectory)


def _rk4(a: np.ndarray, b: np.ndarray, samples: np.ndarray, x: np.ndarray, h: float,
         return_trajectory: bool = False):
    """`simulate`'s step map on checked A, B and x0, with the input already
    sampled: row k of samples is u(k h / 2), k = 0..2 steps."""
    n, steps = a.shape[0], (len(samples) - 1) // 2
    big_h = h * a
    hb = big_h @ b
    h2b = big_h @ hb
    h3b = big_h @ h2b
    gamma = h / 6 * np.hstack([b + hb + h2b / 2 + h3b / 4, 4 * b + 2 * hb + h2b / 2, b])
    h2 = big_h @ big_h
    phi = np.eye(n) + big_h + h2 / 2 + h2 @ big_h / 6 + h2 @ h2 / 24
    states = [x] if return_trajectory else None
    for k in range(steps):
        x = phi @ x + gamma @ samples[2 * k:2 * k + 3].reshape(-1)
        if return_trajectory:
            states.append(x)
    if return_trajectory:
        return np.arange(steps + 1) * h, np.array(states)
    return x


def _input_samples(s: _Steering, v: np.ndarray, m: int) -> np.ndarray:
    """The minimum-energy input at t_k = k t_f / m, k = 0..m, one row each.

    u(t_k) = -B^T e^(A^T j delta) v with j = m - k and delta = t_f / m.
    Splitting j = q K + i with K = ceil(sqrt(m + 1)) gives
    e^(A^T j delta) v = e^(A^T i delta) (e^(A^T q K delta) v).  The K powers
    come by recurrence from e^(A^T delta), and each anchor applies to v the
    binary powers e^(A^T 2^b K delta) of q's bits b, lowest bit first:
    1 + bit_length(floor(m / K)) exponentials in all.  Only the (m + 1) x M
    samples are kept, never an (m + 1) x n trajectory.
    """
    delta = s.t_f / m
    block = isqrt(m) + 1  # ceil(sqrt(m + 1))
    at, width = s.a.T, s.b.shape[1]
    step = expm(at * delta)
    bt_powers = [s.b.T]  # B^T e^(A^T i delta), i = 0..K-1
    for _ in range(1, block):
        bt_powers.append(bt_powers[-1] @ step)
    q = np.arange(m // block + 1)
    anchors = np.repeat(v[:, None], len(q), axis=1)  # column q becomes e^(A^T q K delta) v
    for bit in range((m // block).bit_length()):
        cols = np.flatnonzero(q >> bit & 1)
        anchors[:, cols] = expm(at * ((1 << bit) * block * delta)) @ anchors[:, cols]
    # entry (i M + col, q) of the product is input col at j = q K + i
    u = -(np.vstack(bt_powers) @ anchors).reshape(block, width, -1).transpose(2, 0, 1)
    return u.reshape(-1, width)[m::-1]


def drive_to_origin(
    a: np.ndarray, placement: ControlPlacement, x0: np.ndarray, steps: int = 2000
) -> tuple[np.ndarray, float, float]:
    """Simulate the optimal input; report (x(t_f), output residual, energy).

    residual = ||C x(t_f)|| / ||C x0||, energy = int_0^tf u^T u dt.

    The input is sampled once on the RK4 grid t_k = k t_f / m, m =
    2 max(steps, 1000) (step ends and midpoints), by `_input_samples`: at
    steps=2000, 7 `expm` calls per drive (the Gramian and e^(A t_f) come
    from `_van_loan`), where one per sample would take 8,004.  Each sample
    is a power of at most 63 recurrence steps times an anchor of at most
    six products, so rounding does not accumulate over the grid: the
    samples agree with `optimal_input_function` to about 1e-11 relative.
    The state is stepped by `simulate`'s RK4 step map, Phi x + Gamma u, as
    RK4's stages stepped it.  The same samples feed the step map (`_rk4`,
    directly) and the composite Simpson energy, so Simpson uses the RK4
    grid: m panels also for steps < 1000.

    In float64 the residual cannot fall below about eps * cond(C W C^T):
    the input is built from a solve with C W C^T.  A residual contract of
    1e-6 therefore needs cond <~ 4e9, while CONDITION_LIMIT accepts
    placements up to 1e12; more integration steps do not help.
    """
    return _drive(_Context(a, placement.t_f).placed(placement), x0, steps)


def _drive(s: _Steering, x0: np.ndarray, steps: int = 2000) -> tuple[np.ndarray, float, float]:
    """drive_to_origin on an evaluated steering problem."""
    x0 = _as_state(x0, s.a.shape[0])
    steps = max(int(steps), _MIN_STEPS)
    m = 2 * steps
    delta = s.t_f / m
    samples = _input_samples(s, s.costate(x0), m)
    x_f = _rk4(s.a, s.b, samples, x0, s.t_f / steps)
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

    Exact, in integer and rational arithmetic, and correctly rounded.  The
    chain's A is nilpotent, so its Gramian is W = t_f D H D with
    D = diag(t_f^i / i!) and H the L x L Hilbert matrix, and column k of
    e^(A t_f) is t_f^-k D p_k with p_k[i] = i! / (i - k)! (0 for i < k).
    Hence

        E = tr(W^-1 e^(A t_f) e^(A^T t_f)) = sum_k p_k^T H^-1 p_k / t_f^(2k+1).

    H is the Gram matrix of the monomials on [0, 1], so
    H^-1 = sum_m (2m+1) l_m l_m^T over the coefficient vectors l_m of the
    shifted Legendre polynomials P~_m, m < L, which are orthogonal with
    norm^2 1/(2m+1).  And p_k^T l_m is the k-th derivative of P~_m at 1,
    (m+k)! / (k! (m-k)!).  So E = sum_k q_k / t_f^(2k+1) with the integers

        q_k = sum_{m=k}^{L-1} (2m+1) (C(m+k, k) m! / (m-k)!)^2,

    the same rational as the sum over Choi's integer entries of H^-1
    (M.-D. Choi, "Tricks or Treats with the Hilbert Matrix", Amer. Math.
    Monthly 90(5), 1983), in O(L^2) integer products.
    This stays accurate far past the point where the floating-point
    Gramian becomes numerically singular (costs grow like 1e16 by length
    10).  A cost past the float range (length 87 and up at t_f = 2) is
    returned as inf.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    _check_horizon(t_f)
    try:
        return float(_chain_cost_exact(length, t_f))
    except OverflowError:
        return inf


def _chain_cost_exact(length: int, t_f: float) -> Fraction:
    """`chain_control_cost` as an exact rational."""
    q = [0] * length
    for m in range(length):
        v = 1  # the k-th derivative of P~_m at 1, from k = 0
        for k in range(m + 1):
            q[k] += (2 * m + 1) * v * v
            v = v * (m + k + 1) * (m - k) // (k + 1)
    tf = Fraction(t_f)
    a, b = tf.numerator, tf.denominator
    # sum_k q_k (b/a)^(2k+1) over the common denominator a^(2L-1), by Horner
    acc, b_pow = 0, 1
    for qk in q:
        acc = acc * a * a + qk * b_pow
        b_pow *= b * b
    return Fraction(b * acc, a ** (2 * length - 1))
