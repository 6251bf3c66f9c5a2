"""Verification code the test suite checks the package against.

``oracle_solve`` is a brute-force grid solver for the mode-power problems
that only ever evaluates the raw objectives, so it is independent of the
water-filling closed forms it verifies.  ``rearrangement_bounds`` is the
sorted-sequence product-sum inequality behind the mode-pairing argument,
``check_kk_identity`` the matrix identity behind the equivalence of the
two network-capacity forms, and ``direct_link_capacity`` the capacity of
the bare direct link that the relay network is measured against.
"""

import math

import numpy as np

from relay_rtm.errors import ValidationError


def direct_link_capacity(h0: np.ndarray, pb, dims) -> float:
    """Capacity in bits of the bare source-to-destination link (no relay),
    log2 det(I + p1/t H0^H H0)."""
    h0 = np.asarray(h0, dtype=complex)
    logdet = np.linalg.slogdet(np.eye(dims.t) + (pb.p1 / dims.t) * (h0.conj().T @ h0))[1]
    return float(logdet / math.log(2.0))


def check_kk_identity(k: np.ndarray) -> float:
    """Frobenius residual of K^H (I + K K^H)^-1 K = I - (I + K^H K)^-1.

    The identity underpins the equivalence of the two network-capacity
    forms; the suite keeps it as a permanent guard.
    """
    k = np.asarray(k, dtype=complex)
    n, m = k.shape
    lhs = k.conj().T @ np.linalg.inv(np.eye(n) + k @ k.conj().T) @ k
    rhs = np.eye(m) - np.linalg.inv(np.eye(m) + k.conj().T @ k)
    return float(np.linalg.norm(lhs - rhs))


def rearrangement_bounds(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Extreme values of sum(a_i * b_pi(i)) over all permutations pi.

    Both inputs must be nonnegative and sorted nonincreasing.  Returns
    (lower, upper) = (reversed pairing, aligned pairing); every other
    pairing lands in between.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValidationError("sequences must be 1-d and of equal length")
    for name, v in (("a", a), ("b", b)):
        if v.size and float(v.min()) < 0.0:
            raise ValidationError(f"sequence {name} must be nonnegative")
        if np.any(np.diff(v) > 0.0):
            raise ValidationError(f"sequence {name} must be sorted nonincreasing")
    return float(a @ b[::-1]), float(a @ b)


def _objective(kind: str, alpha: np.ndarray):
    if kind == "capacity":
        def f(x):
            return -np.sum(np.log(1.0 - alpha / (1.0 + x)), axis=-1)
    else:
        def f(x):
            return np.sum(alpha / (1.0 + x), axis=-1)
    return f


def _simplex_lattice(k: int, rho: int) -> np.ndarray:
    """All length-rho nonnegative integer vectors summing to k."""
    if rho == 1:
        return np.array([[k]])
    ranges = np.stack(
        np.meshgrid(*([np.arange(k + 1)] * (rho - 1)), indexing="ij"), axis=-1
    ).reshape(-1, rho - 1)
    tail = k - ranges.sum(axis=1)
    keep = tail >= 0
    return np.concatenate([ranges[keep], tail[keep, None]], axis=1)


def _pairwise_polish(f, x: np.ndarray, beta: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Local pairwise coordinate descent on the budget-equality set.

    Transfers budget between mode pairs with an exact 1-d convex line
    search; a point stationary against every pairwise transfer is the
    constrained optimum for these convex objectives.
    """
    rho = x.size
    x = x.copy()
    for _ in range(sweeps):
        best = f(x)
        improved = False
        for i in range(rho):
            for j in range(rho):
                if i == j:
                    continue
                lo, hi = -x[i] * beta[i], x[j] * beta[j]
                if hi <= lo:
                    continue
                def line(tr):
                    trial = x.copy()
                    trial[i] += tr / beta[i]
                    trial[j] -= tr / beta[j]
                    return f(np.maximum(trial, 0.0))
                for _ in range(90):
                    m1 = lo + (hi - lo) / 3.0
                    m2 = hi - (hi - lo) / 3.0
                    if line(m1) <= line(m2):
                        hi = m2
                    else:
                        lo = m1
                tr = 0.5 * (lo + hi)
                cand = x.copy()
                cand[i] = max(cand[i] + tr / beta[i], 0.0)
                cand[j] = max(cand[j] - tr / beta[j], 0.0)
                val = f(cand)
                if val < best - 1e-16:
                    x, best, improved = cand, val, True
        if not improved:
            break
    return x


def oracle_solve(
    objective: str,
    alpha: np.ndarray,
    beta: np.ndarray,
    p2: float,
    grid_step: float = 1e-3,
) -> tuple[np.ndarray, float]:
    """Brute-force verification solver for the mode-power problems.

    Searches the budget-equality simplex {x >= 0 : sum beta_i x_i = p2}
    on a lattice (full enumeration at the finest affordable resolution,
    then pattern-search refinement of the lattice down to ``grid_step``
    in budget-fraction units), followed by a local pairwise
    coordinate-descent refinement pass.  Only the raw objective is ever
    evaluated, so the result is independent of the water-filling
    closed forms it is used to verify.

    Returns the best point and its objective value (nats for the
    "capacity" objective, the plain trace sum for "ostbc").
    """
    if objective not in ("capacity", "ostbc"):
        raise ValidationError(f"unknown objective {objective!r}")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    rho = alpha.size
    if rho > 4:
        raise ValidationError(f"grid oracle supports at most 4 modes, got {rho}")
    if grid_step <= 0.0:
        raise ValidationError("grid_step must be positive")
    if np.any(beta <= 0.0) or np.any(alpha < 0.0) or p2 < 0.0:
        raise ValidationError("need alpha >= 0, beta > 0, p2 >= 0")
    if objective == "capacity" and np.any(alpha >= 1.0):
        raise ValidationError("capacity objective needs alpha < 1")

    f = _objective(objective, alpha)
    if p2 == 0.0 or not np.any(alpha > 0.0):
        x = np.zeros(rho)
        return x, float(f(x))
    if rho == 1:
        x = np.array([p2 / beta[0]])
        return x, float(f(x))

    # Full lattice at the finest resolution whose size stays reasonable.
    caps = {2: 2000, 3: 180, 4: 46}
    k0 = min(int(math.ceil(1.0 / grid_step)), caps[rho])
    lattice = _simplex_lattice(k0, rho) / float(k0)
    points = lattice * (p2 / beta)
    frac = lattice[int(np.argmin(f(points)))].copy()

    # Pattern-search refinement: halve the lattice spacing down to
    # grid_step, walking to the best improving neighbor at each level.
    deltas = []
    d = 1.0 / k0
    while d > grid_step * 1.0000001:
        d = max(d / 2.0, grid_step)
        deltas.append(d)
    eye = np.eye(rho)
    moves = [eye[i] - eye[j] for i in range(rho) for j in range(rho) if i != j]
    for d in deltas:
        for _ in range(400):
            cands = [frac + d * mv for mv in moves]
            cands = [c for c in cands if c.min() >= -1e-15]
            if not cands:
                break
            cands = np.maximum(np.array(cands), 0.0)
            vals = f(cands * (p2 / beta))
            best = int(np.argmin(vals))
            if vals[best] < f(frac * (p2 / beta)) - 1e-16:
                frac = cands[best]
            else:
                break

    x = _pairwise_polish(f, frac * (p2 / beta), beta)
    return x, float(f(x))
