"""Scalar figures of merit for relay networks.

Capacity is computed in bit/s/Hz through two algebraically equivalent
log-det forms (the direct whitened-channel form and the matrix-inversion
identity form); both are evaluated on every call and a disagreement above
1e-9 bits raises, turning the underlying identity into a permanent
regression guard.  Also here: the OSTBC (trace) capacity, the bare
direct-link capacity, the naive scaled-identity relay baseline, and KKT
residual reporting for the capacity water-filler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .matalg import hermitian_part
from .network import ChannelSet, Dims, PowerBudget
from .opt_capacity import RtmSolution, WaterfillSolution, _shaping_matrix

__all__ = [
    "CapacityReport",
    "KktReport",
    "capacity",
    "capacity_forms",
    "ostbc_capacity",
    "direct_link_capacity",
    "naf_rtm",
    "verify_kkt_capacity",
]

_FORM_AGREEMENT_BITS = 1e-9


@dataclass(frozen=True)
class CapacityReport:
    """A capacity figure in bit/s/Hz with its context."""

    bits: float
    variant: str          # "capacity" | "ostbc"
    symbol_rate: float    # meaningful for the ostbc variant, 1.0 otherwise


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals of a water-filling solution.

    All four are reported as nonnegative magnitudes; a correct solution
    drives every one of them to numerical zero.
    """

    stationarity_residual: float
    complementary_slackness: float
    primal_feasibility: float
    dual_feasibility: float


def _check_x_shape(dims: Dims, x_matrix: np.ndarray) -> np.ndarray:
    x_matrix = np.asarray(x_matrix, dtype=complex)
    if x_matrix.shape != (dims.u, dims.s):
        raise ValidationError(
            f"relay transform must have shape {(dims.u, dims.s)}, got {x_matrix.shape}"
        )
    return x_matrix


def _logdet_bits(m: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(hermitian_part(m))
    if sign <= 0.0 or not math.isfinite(logdet):
        raise NumericalError(
            f"log-det argument is not positive definite (sign {sign}, logdet {logdet})"
        )
    return logdet / math.log(2.0)


def _whitened_inner(ch: ChannelSet, x_matrix: np.ndarray) -> np.ndarray:
    """The t x t relay-path information matrix
    H1^H X^H H2^H (I + H2 X X^H H2^H)^-1 H2 X H1."""
    k = ch.h2 @ x_matrix
    r = k.shape[0]
    kh1 = k @ ch.h1
    gram = hermitian_part(np.eye(r) + k @ k.conj().T)
    return hermitian_part(kh1.conj().T @ np.linalg.solve(gram, kh1))


def capacity_forms(
    ch: ChannelSet, pb: PowerBudget, dims: Dims, x_matrix: np.ndarray
) -> tuple[float, float]:
    """Both equivalent network-capacity forms, in bits.

    Returns (direct form, identity form).  The first evaluates the
    whitened two-hop channel directly; the second replaces the relay-path
    term by I + (p1/t)(H0^H H0 + H1^H H1) minus the residual
    (p1/t) H1^H (I + X^H H2^H H2 X)^-1 H1.
    """
    x_matrix = _check_x_shape(dims, x_matrix)
    t = dims.t
    scale = pb.p1 / t
    h0, h1, h2 = ch.h0, ch.h1, ch.h2
    g0 = h0.conj().T @ h0

    direct = _logdet_bits(np.eye(t) + scale * (g0 + _whitened_inner(ch, x_matrix)))

    bx = x_matrix.conj().T @ (h2.conj().T @ h2) @ x_matrix
    gram = hermitian_part(np.eye(dims.s) + bx)
    residual = h1.conj().T @ np.linalg.solve(gram, h1)
    ident = _logdet_bits(
        np.eye(t) + scale * (g0 + h1.conj().T @ h1) - scale * residual
    )
    return direct, ident


def capacity(
    ch: ChannelSet, pb: PowerBudget, dims: Dims, x_matrix: np.ndarray
) -> CapacityReport:
    """Network capacity achieved with a given relay transform matrix.

    Both capacity forms are evaluated and must agree to 1e-9 bits; this
    cross-check costs nothing at these sizes and hard-fails on numerical
    trouble instead of returning a silently wrong figure.
    """
    direct, ident = capacity_forms(ch, pb, dims, x_matrix)
    if abs(direct - ident) > _FORM_AGREEMENT_BITS:
        raise NumericalError(
            f"capacity forms disagree: {direct!r} vs {ident!r} bits"
        )
    return CapacityReport(bits=direct, variant="capacity", symbol_rate=1.0)


def ostbc_capacity(
    ch: ChannelSet,
    pb: PowerBudget,
    dims: Dims,
    x_matrix: np.ndarray,
    symbol_rate: float = 1.0,
) -> CapacityReport:
    """OSTBC capacity with symbol rate R:
    R * log2(1 + p1/(t R) * tr[H0^H H0 + relay-path information matrix]).

    The trace argument reuses the same whitened inner matrix as the
    log-det capacity.
    """
    if not (0.0 < symbol_rate <= 1.0):
        raise ValidationError(f"symbol rate must lie in (0, 1], got {symbol_rate}")
    x_matrix = _check_x_shape(dims, x_matrix)
    trace_arg = float(
        np.real(np.trace(ch.h0.conj().T @ ch.h0))
        + np.real(np.trace(_whitened_inner(ch, x_matrix)))
    )
    bits = symbol_rate * math.log2(1.0 + pb.p1 / (dims.t * symbol_rate) * trace_arg)
    if not math.isfinite(bits):
        raise NumericalError(f"OSTBC capacity is not finite (trace {trace_arg})")
    return CapacityReport(bits=bits, variant="ostbc", symbol_rate=float(symbol_rate))


def direct_link_capacity(h0: np.ndarray, pb: PowerBudget, dims: Dims) -> CapacityReport:
    """Capacity of the bare source-to-destination link (no relay)."""
    h0 = np.asarray(h0, dtype=complex)
    if h0.shape != (dims.r, dims.t):
        raise ValidationError(
            f"h0 must have shape {(dims.r, dims.t)}, got {h0.shape}"
        )
    bits = _logdet_bits(np.eye(dims.t) + (pb.p1 / dims.t) * (h0.conj().T @ h0))
    return CapacityReport(bits=bits, variant="capacity", symbol_rate=1.0)


def naf_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """Naive amplify-and-forward baseline: a scaled identity transform.

    The gain is chosen so that tr(X C X^H) meets the relay budget exactly.
    For s != u the identity pattern is rectangular (ones on the main
    diagonal) and the solution is flagged "naf-rect".
    """
    s, u = dims.s, dims.u
    c = _shaping_matrix(ch, pb, dims)
    k = min(s, u)
    denom = float(np.real(np.trace(c[:k, :k])))
    gain = math.sqrt(pb.p2 / denom)
    x_matrix = np.zeros((u, s), dtype=complex)
    x_matrix[np.arange(k), np.arange(k)] = gain
    power = float(np.real(np.trace(x_matrix @ c @ x_matrix.conj().T)))
    wf = WaterfillSolution(
        x=np.full(k, gain ** 2),
        xi=None,
        active=np.full(k, gain > 0.0),
        achieved_budget=power,
    )
    return RtmSolution(
        x_matrix=x_matrix,
        wf=wf,
        spectra=None,
        relay_power_used=power,
        kind="naf" if s == u else "naf-rect",
    )


def verify_kkt_capacity(
    alpha: np.ndarray, beta: np.ndarray, p2: float, wf: WaterfillSolution
) -> KktReport:
    """Reconstruct the multipliers of a capacity water-filling solution and
    report all first-order optimality residuals.

    The budget multiplier is 1/xi (zero in the no-water state) and the
    per-mode slack multipliers follow from the gradient equations
    lambda_i = 1/(1+x_i) - 1/(1-alpha_i+x_i) + beta_i/xi.  Active modes
    must carry a zero multiplier (stationarity), x_i > 0 forces
    lambda_i = 0 (complementarity), the budget must bind whenever some
    gain is positive (primal), and no multiplier may be negative (dual).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    x = np.asarray(wf.x, dtype=float)
    lam0 = 0.0 if wf.xi is None else 1.0 / wf.xi

    grad = 1.0 / (1.0 + x) - 1.0 / (1.0 - alpha + x)
    lam = grad + lam0 * beta
    active = x > 0.0

    stationarity = float(np.max(np.abs(lam[active]), initial=0.0))
    complementarity = float(np.max(np.abs(lam * x), initial=0.0))
    budget = float(beta @ x)
    if np.any(alpha > 0.0):
        primal = abs(budget - p2)
    else:
        primal = max(0.0, budget - p2)
    primal = max(primal, float(np.max(-x, initial=0.0)))
    dual = max(0.0, float(np.max(-lam, initial=0.0)), -lam0)
    return KktReport(
        stationarity_residual=stationarity,
        complementary_slackness=complementarity,
        primal_feasibility=primal,
        dual_feasibility=dual,
    )

