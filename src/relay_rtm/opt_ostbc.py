"""OSTBC-capacity-optimal relay transform matrices.

Same three-stage pipeline as the capacity criterion, but the mode gains
are the raw first-hop eigenvalues (eigenvalues of H1 H1^H, unbounded
above) and the per-mode power is

    psi_i(xi) = max(0, xi * sqrt(alpha_i / beta_i) - 1).

The budget curve ``sum beta_i * psi_i(xi)`` is piecewise LINEAR in the
water level, so the constraint is solved exactly: sort the activation
thresholds ``sqrt(beta_i / alpha_i)``, find the segment containing the
root, and solve the linear equation on it.  No iteration, no tolerance.
"""

from __future__ import annotations

import numpy as np

from .matalg import hermitian_part
from .network import ChannelSet, Dims, PowerBudget, validate
from .opt_capacity import (
    RtmSolution,
    SpectraBundle,
    WaterfillSolution,
    _activation_order,
    _dry,
    _spectra_from_parts,
    _validate_wf_inputs,
    assemble_rtm,
)

__all__ = [
    "build_ostbc_spectra",
    "waterfill_ostbc",
    "optimize_ostbc_rtm",
    "activation_thresholds",
]


def build_ostbc_spectra(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> SpectraBundle:
    """Reduce a network to the OSTBC-criterion mode spectra.

    The gain matrix is H1 H1^H; second hop and shaping matrix are the same
    as for the capacity criterion.
    """
    validate(dims, ch, pb)
    a = hermitian_part(ch.h1 @ ch.h1.conj().T)
    return _spectra_from_parts("ostbc", a, ch, pb, dims)


def activation_thresholds(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Water level at which each mode activates: sqrt(beta_i / alpha_i),
    +inf for zero-gain modes."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    out = np.full(alpha.shape, np.inf)
    pos = alpha > 0.0
    out[pos] = np.sqrt(beta[pos] / alpha[pos])
    return out


def _psi(alpha: np.ndarray, beta: np.ndarray, xi: float) -> np.ndarray:
    return np.maximum(xi * np.sqrt(alpha / beta) - 1.0, 0.0)


def waterfill_ostbc(alpha: np.ndarray, beta: np.ndarray, p2: float) -> WaterfillSolution:
    """Split a relay power budget across modes for the OSTBC criterion.

    Exact piecewise-linear solve of ``sum beta_i * psi_i(xi) = p2``: with
    the k cheapest thresholds active the budget is
    ``xi * sum sqrt(alpha_i beta_i) - sum beta_i``, linear in ``xi``, so
    the first segment whose solution does not overshoot the next
    threshold contains the root.
    """
    alpha, beta = _validate_wf_inputs(alpha, beta, p2, alpha_below_one=False)
    thresholds = activation_thresholds(alpha, beta)
    order = _activation_order(thresholds)
    if order.size == 0 or p2 == 0.0:
        return _dry(thresholds, order)
    thr_sorted = thresholds[order]
    slope = np.cumsum(np.sqrt(alpha * beta)[order])
    offset = np.cumsum(beta[order])
    n = thr_sorted.size
    for k in range(n):
        xi = float((p2 + offset[k]) / slope[k])
        if k + 1 == n or xi <= thr_sorted[k + 1]:
            break
    x = _psi(alpha, beta, xi)
    return WaterfillSolution(
        x=x,
        xi=xi,
        active=x > 0.0,
        achieved_budget=float(beta @ x),
    )


def optimize_ostbc_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """End-to-end OSTBC-capacity-optimal relay transform.

    The same matrix maximizes the OSTBC capacity for every symbol rate
    simultaneously (the trace argument does not involve the rate).
    """
    spectra = build_ostbc_spectra(ch, pb, dims)
    wf = waterfill_ostbc(spectra.alpha, spectra.beta, pb.p2)
    return assemble_rtm(spectra, wf)

