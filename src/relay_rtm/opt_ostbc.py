"""OSTBC-capacity-optimal relay transform matrices.

Same three-stage pipeline as the capacity criterion, but the mode gains
are the raw first-hop eigenvalues (eigenvalues of H1 H1^H, unbounded
above) and the per-mode power is

    psi_i(xi) = max(0, xi * sqrt(alpha_i / beta_i) - 1).

The budget curve ``sum beta_i * psi_i(xi)`` is piecewise LINEAR in the
water level, with kinks at the activation thresholds
``sqrt(beta_i / alpha_i)``, so the constraint is solved exactly: the
linear equation of the segment that holds the root.  No iteration, no
tolerance.
Like the capacity pipeline, every stage takes a stack of problems.
"""

from __future__ import annotations

import numpy as np

from .network import ChannelSet, Dims, PowerBudget, _h1_gram
from .opt_capacity import (
    RtmSolution,
    SpectraBundle,
    WaterfillSolution,
    _mode_sum,
    _relay_side,
    _solution,
    _spectra_from_parts,
    _validate_wf_inputs,
    _wet,
    assemble_rtm,
)

__all__ = [
    "build_ostbc_spectra",
    "waterfill_ostbc",
    "optimize_ostbc_rtm",
    "activation_thresholds",
]


def build_ostbc_spectra(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> SpectraBundle:
    """Reduce a network (or a stack of networks) to the OSTBC-criterion
    mode spectra.

    The gain matrix is H1 H1^H; second hop and shaping matrix are the same
    as for the capacity criterion.
    """
    return _spectra_from_parts("ostbc", _h1_gram(ch), _relay_side(ch, pb, dims), dims)


def activation_thresholds(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Water level at which each mode activates: sqrt(beta_i / alpha_i),
    +inf for zero-gain modes."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    out = np.divide(beta, alpha, out=np.full(alpha.shape, np.inf), where=alpha > 0.0)
    return np.sqrt(out, out=out)


def _psi(alpha: np.ndarray, beta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return np.maximum(xi * np.sqrt(alpha / beta) - 1.0, 0.0)


def waterfill_ostbc(alpha: np.ndarray, beta: np.ndarray, p2: float) -> WaterfillSolution:
    """Split a relay power budget across modes for the OSTBC criterion.

    Exact solve of ``sum beta_i * psi_i(xi) = p2``.  For any set of modes,
    ``xi * sum sqrt(alpha_i beta_i) - sum beta_i`` over the set is a linear
    function of ``xi`` that nowhere exceeds the budget curve, so where it
    reaches p2 lies at or right of the root; for the set of modes active at
    the root it is the budget curve there.  The root is therefore the
    smallest such solution over the sets {i : threshold_i <= threshold_j},
    one per mode j, among which the active set is.  ``alpha`` and ``beta``
    may be stacks ``(..., modes)``, as for ``waterfill_capacity``.
    """
    alpha, beta = _validate_wf_inputs(alpha, beta, p2, alpha_below_one=False)
    thresholds = activation_thresholds(alpha, beta)
    lowest, wet = _wet(thresholds, p2)
    sets = thresholds[..., None, :] <= thresholds[..., :, None]  # (..., set j, mode i)
    # a problem without servable modes gets a unit slope, so nothing divides by 0
    slope = _mode_sum(sets * np.sqrt(alpha * beta)[..., None, :]) + ~wet[..., None]
    xi = ((p2 + _mode_sum(sets * beta[..., None, :])) / slope).min(axis=-1, initial=np.inf)
    x = _psi(alpha, beta, (xi * wet)[..., None])
    return _solution(x, xi, wet, lowest, beta)


def optimize_ostbc_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """End-to-end OSTBC-capacity-optimal relay transform for one
    realization, or for each realization of a stacked ``ChannelSet``.

    The same matrix maximizes the OSTBC capacity for every symbol rate
    simultaneously (the trace argument does not involve the rate).
    """
    spectra = build_ostbc_spectra(ch, pb, dims)
    wf = waterfill_ostbc(spectra.alpha, spectra.beta, pb.p2)
    return assemble_rtm(spectra, wf)

