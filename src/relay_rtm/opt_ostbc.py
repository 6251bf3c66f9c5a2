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
Like the capacity pipeline, every stage takes a stack of problems.  A
lone problem (1-d ``alpha``) is checked, thresholded, scanned and poured
on Python floats, in any order of its modes, and its ``WaterfillSolution``
built from them.  Each makes the operations of the array code in their
order: bit-identical to a stack member, without numpy's per-call cost.
"""

from __future__ import annotations

import math

import numpy as np

from .network import ChannelSet, Dims, PowerBudget
from .opt_capacity import (
    RtmSolution,
    SpectraBundle,
    WaterfillSolution,
    _first_hop,
    _lone_problem,
    _lone_solution,
    _mode_sum,
    _mode_vectors,
    _relay_side,
    _solution,
    _spectra_from_parts,
    _validate_wf_inputs,
    _wet,
    _wf_arrays,
    assemble_rtm,
)


def build_ostbc_spectra(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> SpectraBundle:
    """Reduce a network (or a stack of networks) to the OSTBC-criterion
    mode spectra.

    The gain matrix is H1 H1^H; second hop and shaping matrix are the same
    as for the capacity criterion.  Its factorization is memoized on
    ``ch`` (``_first_hop``), where the capacity criterion reads it too
    for a network without the direct link.
    """
    # the network is validated (``_relay_side``) before H1 H1^H is factorized
    return _spectra_from_parts("ostbc", _relay_side(ch, pb, dims), _first_hop(ch), dims)


def activation_thresholds(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Water level at which each mode activates: sqrt(beta_i / alpha_i),
    +inf for zero-gain modes."""
    alpha, beta = _mode_vectors(alpha, beta)
    out = np.divide(beta, alpha, out=np.full(alpha.shape, np.inf), where=alpha > 0.0)
    return np.sqrt(out, out=out)


def _psi(alpha, beta, xi):
    # a float level with gains and costs as lists gives a list, by the
    # same operations
    if isinstance(xi, float):
        return [max(xi * math.sqrt(a / b) - 1.0, 0.0) for a, b in zip(alpha, beta)]
    return np.maximum(xi * np.sqrt(alpha / beta) - 1.0, 0.0)


def _scan(thresholds: np.ndarray, alpha: np.ndarray, beta: np.ndarray, p2: float, dry) -> np.ndarray:
    """The candidate-set scan of ``waterfill_ostbc`` on arrays.  ``dry``
    is 1 for a problem without servable modes, which then gets a unit
    slope, so nothing divides by 0."""
    sets = thresholds[..., None, :] <= thresholds[..., :, None]  # (..., set j, mode i)
    slope = _mode_sum(sets * np.sqrt(alpha * beta)[..., None, :]) + dry
    return ((p2 + _mode_sum(sets * beta[..., None, :])) / slope).min(axis=-1, initial=np.inf)


def _lone_scan(thresholds: list, alpha: list, beta: list, p2: float) -> float:
    """The candidate-set scan of ``waterfill_ostbc`` on Python floats, for
    one problem that takes power.  Each set {i : threshold_i <= threshold_j}
    is summed in index order, as the array scan sums it, so the level is
    bit-identical to a stack member's whatever the order of the modes."""
    xi = math.inf
    for level in thresholds:
        slope = budget = 0.0
        for t, a, b in zip(thresholds, alpha, beta):
            if t <= level:
                slope += math.sqrt(a * b)
                budget += b
        # numpy divides a positive budget by a zero slope to +inf
        xi = min(xi, (p2 + budget) / slope if slope else math.inf)
    return xi


def waterfill_ostbc(alpha: np.ndarray, beta: np.ndarray, p2: float) -> WaterfillSolution:
    """Split a relay power budget across modes for the OSTBC criterion.

    Exact solve of ``sum beta_i * psi_i(xi) = p2``.  For any set of modes,
    ``xi * sum sqrt(alpha_i beta_i) - sum beta_i`` over the set is a linear
    function of ``xi`` that nowhere exceeds the budget curve, so where it
    reaches p2 lies at or right of the root; for the set of modes active at
    the root it is the budget curve there.  The root is therefore the
    smallest such solution over the sets {i : threshold_i <= threshold_j},
    one per mode j, among which the active set is.  ``alpha`` and ``beta``
    may be stacks ``(..., modes)``, as for ``waterfill_capacity``; one
    problem is solved on Python floats, bit-identical to a stack member
    (see the module docstring).
    """
    alpha, beta = _wf_arrays(alpha, beta, p2)
    if alpha.ndim == 1:
        # one problem: checks, thresholds, scan, pour and solution on Python
        # floats; a problem that takes no power pours at level 0
        gains, costs, p2, thresholds, lowest, wet = _lone_problem(alpha, beta, p2, math.inf, lambda a, b: math.sqrt(b / a))
        xi = _lone_scan(thresholds, gains, costs, p2) if wet else 0.0
        return _lone_solution(_psi(gains, costs, xi), xi, wet, lowest)
    _validate_wf_inputs(alpha, beta, np.inf)
    thresholds = activation_thresholds(alpha, beta)
    lowest, wet = _wet(thresholds, p2)
    xi = _scan(thresholds, alpha, beta, p2, ~wet[..., None])
    x = _psi(alpha, beta, np.where(wet, xi, 0.0)[..., None])
    return _solution(x, xi, wet, lowest)


def optimize_ostbc_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """End-to-end OSTBC-capacity-optimal relay transform for one
    realization, or for each realization of a stacked ``ChannelSet``.

    The same matrix maximizes the OSTBC capacity for every symbol rate
    simultaneously (the trace argument does not involve the rate).
    """
    spectra = build_ostbc_spectra(ch, pb, dims)
    wf = waterfill_ostbc(spectra.alpha, spectra.beta, pb.p2)
    return assemble_rtm(spectra, wf)

