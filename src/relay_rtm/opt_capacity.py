"""Capacity-optimal relay transform matrices.

The pipeline has three independent stages:

1. ``build_capacity_spectra`` reduces the network to per-mode scalars: a
   gain ``alpha_i`` in [0, 1) and a power cost ``beta_i`` > 0 per servable
   mode, together with the eigenvector factors needed later.
2. ``waterfill_capacity`` splits the relay power budget across the modes.
   Mode ``i`` receives ``x_i = phi_i(xi)`` where

       phi_i(xi) = max(0, alpha_i/2 - 1 + sqrt(alpha_i^2/4 + alpha_i/beta_i * xi))

   and the water level ``xi > 0`` is the unique root of
   ``sum_i beta_i * phi_i(xi) = p2``.  The budget curve is continuous and
   increasing in ``xi``, with kinks at the activation thresholds
   ``(1 - alpha_i) * beta_i / alpha_i``; between consecutive thresholds it
   is a sum of square roots, so concave.  A scan over the sorted
   thresholds finds the segment that holds the root, and Newton's method
   started at the segment's left end then climbs to the root from below:
   on a concave increasing curve the tangent lies above the curve, so no
   step overshoots.
3. ``assemble_rtm`` lifts the mode powers back to the u x s matrix
   ``X = U_b diag(sqrt(x / lam_b)) U_a^H`` over the active modes.

All functions are pure; a solver call owns all of its intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DeadRelayError, NumericalError, ValidationError
from .matalg import DEFAULT_RANK_TOL, herm_eig, hermitian_part, inv_sqrt_diag, thin_ud
from .network import ChannelSet, Dims, PowerBudget, validate

__all__ = [
    "SpectraBundle",
    "WaterfillSolution",
    "RtmSolution",
    "build_capacity_spectra",
    "waterfill_capacity",
    "assemble_rtm",
    "optimize_capacity_rtm",
    "activation_thresholds",
]

#: Relative budget tolerance and iteration cap of ``waterfill_capacity``.
_BUDGET_RTOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class SpectraBundle:
    """Per-mode spectra of a relay network plus the factors that rebuild X.

    ``alpha``/``beta`` cover the ``rho = min(s, rho_b)`` servable modes
    (``alpha`` zero-padded past ``rho_a``).  ``alpha_tail`` holds the gain
    spectrum beyond the servable modes (nonempty only when the first-hop
    rank exceeds ``rho``); those modes are stuck at zero power but still
    enter the parametric capacity.  ``variant`` is "capacity" (gains
    strictly below 1) or "ostbc" (gains unbounded).
    """

    variant: str
    alpha: np.ndarray       # (rho,) mode gains, nonincreasing
    beta: np.ndarray        # (rho,) mode power costs, > 0
    u_a_thin: np.ndarray    # (s, rho) semi-unitary receive-side factor
    u_b_thin: np.ndarray    # (u, rho_b) semi-unitary transmit-side factor
    lam_b_thin: np.ndarray  # (rho_b,) second-hop eigenvalues, > 0
    rho: int
    rho_a: int
    rho_b: int
    alpha_tail: np.ndarray  # (s - rho,) gains of the unservable modes
    c_matrix: np.ndarray    # (s, s) relay input shaping matrix


@dataclass(frozen=True)
class WaterfillSolution:
    """Mode powers from a water-filling solve.

    ``xi`` is the water level; ``None`` is the explicit "no water" state
    (all gains zero: nothing to pour the budget into).
    """

    x: np.ndarray
    xi: Optional[float]
    active: np.ndarray
    achieved_budget: float


@dataclass(frozen=True)
class RtmSolution:
    """A relay transform matrix with its construction diagnostics.

    ``kind`` is one of "opt1" (capacity-optimal), "opt2" (OSTBC-optimal),
    "naf" / "naf-rect" (scaled identity).  ``spectra`` is None for the
    NAF kinds, which are not built from an eigenstructure.
    """

    x_matrix: np.ndarray
    wf: WaterfillSolution
    spectra: Optional[SpectraBundle]
    relay_power_used: float
    kind: str


def _shaping_matrix(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> np.ndarray:
    """The relay input shaping matrix C = I + (p1/t) H1 H1^H.

    It is the covariance of the relay's received signal, so a transform X
    spends relay power tr(X C X^H).
    """
    return np.eye(dims.s) + (pb.p1 / dims.t) * hermitian_part(ch.h1 @ ch.h1.conj().T)


def _spectra_from_parts(
    variant: str, a: np.ndarray, ch: ChannelSet, pb: PowerBudget, dims: Dims
) -> SpectraBundle:
    """Shared spectra assembly for both optimization criteria, from the
    criterion's gain matrix ``a``."""
    ud_b = thin_ud(hermitian_part(ch.h2.conj().T @ ch.h2))
    if ud_b.rank == 0:
        raise DeadRelayError(
            "relay path dead: the relay-to-destination channel has rank 0"
        )
    rho_b = ud_b.rank
    rho = min(dims.s, rho_b)

    eig_a = herm_eig(a)
    lam_a = np.clip(eig_a.eigenvalues, 0.0, None)
    cut = DEFAULT_RANK_TOL * max(float(lam_a[0]), 1.0)
    rho_a = int(np.sum(lam_a > cut))
    lam_a = np.where(lam_a > cut, lam_a, 0.0)

    alpha = lam_a[:rho].copy()
    alpha_tail = lam_a[rho:].copy()
    if variant == "capacity":
        top = float(alpha.max(initial=0.0))
        if top >= 1.0 + 1e-12:
            raise NumericalError(
                f"capacity mode gain {top} exceeds 1; the first-hop reduction is "
                "contractive by construction, so the inputs are inconsistent"
            )
        np.minimum(alpha, np.nextafter(1.0, 0.0), out=alpha)
        np.minimum(alpha_tail, np.nextafter(1.0, 0.0), out=alpha_tail)

    c = _shaping_matrix(ch, pb, dims)
    u_a = eig_a.eigenvectors[:, :rho].copy()
    cost = np.real(np.einsum("ji,jk,ki->i", u_a.conj(), c, u_a))
    beta = cost / ud_b.lam_thin[:rho]
    return SpectraBundle(
        variant=variant,
        alpha=alpha,
        beta=beta,
        u_a_thin=u_a,
        u_b_thin=ud_b.u_thin,
        lam_b_thin=ud_b.lam_thin,
        rho=rho,
        rho_a=rho_a,
        rho_b=rho_b,
        alpha_tail=alpha_tail,
        c_matrix=c,
    )


def build_capacity_spectra(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> SpectraBundle:
    """Reduce a network to the capacity-criterion mode spectra.

    The gain matrix is A = H1 (t/p1 I + H0^H H0 + H1^H H1)^-1 H1^H (its
    eigenvalues are the ``alpha``, strictly below 1 because the bracket
    dominates H1^H H1), the second hop enters through B = H2^H H2, and the
    cost of mode i is beta_i = (U_a^H C U_a)_ii / lam_b_i with C the relay
    input shaping matrix (``SpectraBundle.c_matrix``).

    Raises DeadRelayError when H2 has rank 0 (no mode can be served).
    """
    validate(dims, ch, pb)
    h0, h1 = ch.h0, ch.h1
    g = hermitian_part(
        (dims.t / pb.p1) * np.eye(dims.t) + h0.conj().T @ h0 + h1.conj().T @ h1
    )
    a = hermitian_part(h1 @ np.linalg.solve(g, h1.conj().T))
    return _spectra_from_parts("capacity", a, ch, pb, dims)


def _phi(alpha: np.ndarray, beta: np.ndarray, xi: float) -> np.ndarray:
    # alpha/2 - 1 + sqrt(alpha^2/4 + q) in rationalized form, which does not
    # cancel near the threshold q = 1 - alpha; zero-gain modes give 0 / 1.
    q = alpha / beta * xi
    return np.maximum(q - (1.0 - alpha), 0.0) / (
        1.0 - alpha / 2.0 + np.sqrt(alpha ** 2 / 4.0 + q)
    )


def activation_thresholds(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Water level at which each mode starts receiving power.

    ``(1 - alpha_i) * beta_i / alpha_i`` for servable modes, +inf for
    zero-gain modes (they never activate).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    out = np.full(alpha.shape, np.inf)
    pos = alpha > 0.0
    out[pos] = (1.0 - alpha[pos]) * beta[pos] / alpha[pos]
    return out


def _activation_order(thresholds: np.ndarray) -> np.ndarray:
    """Indices of the servable modes (finite thresholds), cheapest first."""
    order = np.argsort(thresholds)
    return order[np.isfinite(thresholds[order])]


def _dry(thresholds: np.ndarray, order: np.ndarray) -> WaterfillSolution:
    """All-zero mode powers: the "no water" state when no mode is servable,
    else (p2 == 0) the just-dry water level, the lowest threshold."""
    n = thresholds.size
    return WaterfillSolution(
        x=np.zeros(n),
        xi=float(thresholds[order[0]]) if order.size else None,
        active=np.zeros(n, dtype=bool),
        achieved_budget=0.0,
    )


def _validate_wf_inputs(alpha, beta, p2, *, alpha_below_one: bool):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or alpha.shape != beta.shape:
        raise ValidationError("alpha and beta must be 1-d vectors of equal length")
    if not math.isfinite(p2) or p2 < 0.0:
        raise ValidationError(f"relay power budget must be finite and >= 0, got {p2}")
    if np.any(alpha < 0.0):
        raise ValidationError("mode gains must be nonnegative")
    if alpha_below_one and np.any(alpha >= 1.0):
        raise ValidationError("capacity mode gains must lie in [0, 1)")
    if np.any(beta <= 0.0) or not np.all(np.isfinite(beta)):
        raise ValidationError("mode power costs must be finite and strictly positive")
    return alpha, beta


def waterfill_capacity(alpha: np.ndarray, beta: np.ndarray, p2: float) -> WaterfillSolution:
    """Split a relay power budget across modes for the capacity criterion.

    Finds the water level ``xi`` such that ``sum beta_i * phi_i(xi) = p2``
    (see module docstring) to relative budget tolerance 1e-12, or as close
    as a float ``xi`` gets to it.  The budget binds exactly whenever
    some gain is positive and p2 > 0; with all gains zero the "no water"
    solution is returned.
    """
    alpha, beta = _validate_wf_inputs(alpha, beta, p2, alpha_below_one=True)
    thresholds = activation_thresholds(alpha, beta)
    order = _activation_order(thresholds)
    if order.size == 0 or p2 == 0.0:
        return _dry(thresholds, order)

    # The root lies left of the first threshold at which the budget reaches
    # p2, or past the last threshold if there is none.
    xi = float(thresholds[order[0]])
    for i in order[1:]:
        if float(beta @ _phi(alpha, beta, thresholds[i])) >= p2:
            break
        xi = float(thresholds[i])

    # Iterates approach the root from below.  A negative residual means
    # rounding put xi one float past the root, the closest it can get.
    x = _phi(alpha, beta, xi)
    for _ in range(_MAX_ITER):
        resid = p2 - float(beta @ x)
        if resid <= _BUDGET_RTOL * p2:
            break
        # right derivative: a mode counts from its threshold on, where
        # d(beta_i x_i)/dxi = alpha_i / (2 sqrt(alpha_i^2/4 + q_i))
        #                   = alpha_i / (2 + 2 x_i - alpha_i)
        live = thresholds <= xi
        slope = float(np.sum(alpha[live] / (2.0 + 2.0 * x[live] - alpha[live])))
        xi_next = xi + resid / slope
        if xi_next == xi:
            break
        xi = xi_next
        x = _phi(alpha, beta, xi)
    return WaterfillSolution(
        x=x,
        xi=xi,
        active=x > 0.0,
        achieved_budget=float(beta @ x),
    )


def assemble_rtm(spectra: SpectraBundle, wf: WaterfillSolution) -> RtmSolution:
    """Build the relay transform matrix from spectra and mode powers.

    X = U_b diag(sqrt(x_i / lam_b_i)) U_a^H over the active modes; zero
    modes are skipped so the returned matrix has rank equal to the active
    count.  ``relay_power_used`` is the exact trace tr(X C X^H).
    """
    if wf.x.shape != (spectra.rho,):
        raise ValidationError(
            f"water-filling solution has {wf.x.shape[0]} modes, spectra expect {spectra.rho}"
        )
    u_rows = spectra.u_b_thin.shape[0]
    s_rows = spectra.u_a_thin.shape[0]
    idx = np.flatnonzero(wf.x > 0.0)
    if idx.size:
        scale = np.sqrt(wf.x[idx]) * inv_sqrt_diag(spectra.lam_b_thin[idx])
        x_matrix = (spectra.u_b_thin[:, idx] * scale) @ spectra.u_a_thin[:, idx].conj().T
    else:
        x_matrix = np.zeros((u_rows, s_rows), dtype=complex)
    power = float(np.real(np.trace(x_matrix @ spectra.c_matrix @ x_matrix.conj().T)))
    kind = "opt1" if spectra.variant == "capacity" else "opt2"
    return RtmSolution(
        x_matrix=x_matrix,
        wf=wf,
        spectra=spectra,
        relay_power_used=power,
        kind=kind,
    )


def optimize_capacity_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """End-to-end capacity-optimal relay transform for one realization."""
    spectra = build_capacity_spectra(ch, pb, dims)
    wf = waterfill_capacity(spectra.alpha, spectra.beta, pb.p2)
    return assemble_rtm(spectra, wf)
