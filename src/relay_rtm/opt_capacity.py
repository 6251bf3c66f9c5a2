"""Capacity-optimal relay transform matrices.

The pipeline has three independent stages:

1. ``build_capacity_spectra`` reduces the network to per-mode scalars: a
   gain ``alpha_i`` in [0, 1) and a power cost ``beta_i`` > 0 per servable
   mode, together with the eigenvector factors needed later.  With the
   direct link it factorizes the gain matrix A; without it A shares the
   eigenbasis of H1 H1^H, so the gains are read off opt2's factorization
   of H1 H1^H and A is never built.
2. ``waterfill_capacity`` splits the relay power budget across the modes.
   Mode ``i`` receives ``x_i = phi_i(xi)`` where

       phi_i(xi) = max(0, alpha_i/2 - 1 + sqrt(alpha_i^2/4 + alpha_i/beta_i * xi))

   and the water level ``xi > 0`` is the unique root of
   ``sum_i beta_i * phi_i(xi) = p2``.  The budget curve is continuous and
   increasing in ``xi``, with kinks at the activation thresholds
   ``(1 - alpha_i) * beta_i / alpha_i``; between consecutive thresholds it
   is a sum of square roots, so concave.  The budget at every threshold
   locates the segment that holds the root, and Newton's method started
   at the segment's left end then climbs to the root from below: on a
   concave increasing curve the tangent lies above the curve, so no step
   overshoots.
3. ``assemble_rtm`` lifts the mode powers back to the u x s matrix
   ``X = U_b diag(sqrt(x / lam_b)) U_a^H`` over the active modes.

Every stage also takes a stack of problems (a stacked ``ChannelSet``, or
spectra and mode powers with leading batch axes) and treats each member
exactly as it would treat it alone: a member's X, relay power and mode
powers are bit-identical whatever stack it is solved in.  Members with
fewer servable modes than the widest member are padded with zero-gain
modes, which never receive power.

One problem keeps its bookkeeping on Python floats.  A lone network's
spectra make the rank cut, capacity clamp and mode counts on the
eigenvalue lists; a lone water-filling problem (1-d ``alpha``) makes its
input checks, activation thresholds, segment choice, Newton climb and
``WaterfillSolution`` on lists, and only its threshold scan stays one
array ``_phi`` call.  Every float step makes the IEEE operations of the
array code in its order (``_phi`` takes a float level and lists, and sums
add in index order), and every eigendecomposition, solve and product is
the numpy call a stack makes, so a lone solve is bit-identical to a stack
member's.  numpy costs about a microsecond per call whatever the size,
and a Newton step on <= 8 modes makes ~30 calls; a stack shares that cost
among its members, so it keeps the arrays, and the helpers it uses
(``_validate_wf_inputs``, ``_wet``, ``_solution``) see only stacks.

All functions are pure.  What a solver builds from the network alone
(the second hop's factorization and C in ``_relay_side``, H1 H1^H's
factorization in ``_first_hop``) is memoized, read-only, on the
``ChannelSet`` (``network._memoized``) and shared with every other solver
and metric called on it; a solver call owns all of its other
intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DeadRelayError, NumericalError, ValidationError
from .matalg import DEFAULT_RANK_TOL, HermEig, _any, _eye, _numbers, _solve, conj_transpose, herm_eig, hermitian_part, thin_ud
from .network import ChannelSet, Dims, PowerBudget, _finite, _g0, _h1_gram, _memoized, _read_only, validate

#: Relative budget tolerance and iteration cap of ``waterfill_capacity``.
_BUDGET_RTOL = 1e-12
_MAX_ITER = 200
#: Capacity mode gains are clamped just below 1, the water-filler's bound.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class SpectraBundle:
    """Per-mode spectra of a relay network plus the factors that rebuild X.

    ``alpha``/``beta`` cover the ``rho = min(s, rho_b)`` servable modes
    (``alpha`` zero-padded past ``rho_a``).  ``variant`` is "capacity"
    (gains strictly below 1) or "ostbc" (gains unbounded).

    For a stack, every array gains the leading batch axes of the inputs it
    is built from (broadcast; e.g. ``u_a_thin`` and ``c_matrix`` are
    ``(trials, 1, ...)`` on a stack whose ``h2`` alone has a point axis,
    and so is ``u_b_thin`` on a rho2 sweep chunk, whose second hop is
    factorized once per trial; see ``_relay_side``),
    the counts are int arrays, and the mode axis is as wide as the largest
    ``rho``; a member's modes past its own ``rho`` (or ``rho_b``) have zero
    gain and unit ``lam_b_thin``.
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
    c_matrix: np.ndarray    # (s, s) relay input shaping matrix


@dataclass(frozen=True)
class WaterfillSolution:
    """Mode powers from a water-filling solve.

    ``x`` holds the power of each mode (a mode is active where it is
    positive); ``xi`` is the water level, and ``None`` is the explicit "no
    water" state (all gains zero: nothing to pour the budget into).  For a
    stack, ``xi`` is an array and NaN marks "no water".  The relay power
    the modes spend is read off the transform X, as
    ``RtmSolution.relay_power_used``.
    """

    x: np.ndarray
    xi: Optional[float]


@dataclass(frozen=True)
class RtmSolution:
    """A relay transform matrix with its construction diagnostics.

    ``kind`` is one of "opt1" (capacity-optimal), "opt2" (OSTBC-optimal),
    "naf" / "naf-rect" (scaled identity).  ``wf`` and ``spectra`` are None
    for the NAF kinds, which are built from neither a water-filling solve
    nor an eigenstructure.  ``c_matrix`` is the network's relay input
    shaping matrix C, the read-only array memoized on its ``ChannelSet``.
    For a stack, ``x_matrix`` is a stack of matrices with the broadcast
    batch axes of the channel matrices the kind is built from: all three
    for opt1 (``h1`` and ``h2`` when no member has the direct link, as
    opt1 then reads no ``h0``), ``h1`` and ``h2`` for opt2, ``h1`` for
    NAF.
    """

    x_matrix: np.ndarray
    wf: Optional[WaterfillSolution]
    spectra: Optional[SpectraBundle]
    c_matrix: np.ndarray
    kind: str

    @property
    def relay_power_used(self):
        """The relay power tr(X C X^H) X spends, computed when read (a
        sweep reports metrics of X alone and never reads it): numpy's
        float64 for one network, an array with X's batch axes for a stack."""
        x = self.x_matrix
        return (x @ self.c_matrix @ conj_transpose(x)).trace(axis1=-2, axis2=-1).real


@_memoized
def _shaping_matrix(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> np.ndarray:
    """The relay input shaping matrix C = I + (p1/t) H1 H1^H.

    It is the covariance of the relay's received signal, so a transform X
    spends relay power tr(X C X^H).  Every kind and metric asks for it
    first, so its first build validates the network, once per ``ch``,
    budget and ``dims``, before anything reads it.
    """
    validate(dims, ch, pb)
    return _eye(dims.s) + (pb.p1 / dims.t) * _h1_gram(ch)


@_memoized
def _relay_side(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> tuple:
    """What both criteria build from the network alone, before their gain
    matrices differ: the shaping matrix C, which validates the network,
    and the thin diagonalization of B = H2^H H2.  It is memoized on
    ``ch``, so B is factorized once for every kind solved on it, be it one
    realization or a sweep chunk; NAF asks for C alone and so never needs
    B.

    B is a^2 B0, with B0 the Gram matrix of the unit-variance draw that
    ``ch`` records for its second hop (``network``'s module docstring):
    B0 is factorized, and ``thin_ud`` multiplies its eigenvalues by a^2
    before the PSD check and the rank cut.  On a rho2 sweep chunk the
    draw is ``(trials, 1, r, u)`` and the gains ``(points, 1)``, so one
    eigensolve per trial serves every point, and ``u_thin`` keeps the
    draw's batch axes.

    Raises DeadRelayError when H2 has rank 0 (no mode can be served).
    """
    c = _shaping_matrix(ch, pb, dims)
    draw, gain = ch._h2_draw
    ud_b = thin_ud(hermitian_part(conj_transpose(draw) @ draw), _gain=gain)
    if _any(np.equal(ud_b.rank, 0)):
        raise DeadRelayError(
            "relay path dead: the relay-to-destination channel has rank 0"
        )
    _read_only(ud_b.u_thin, ud_b.lam_thin, ud_b.rank)
    return ud_b, c


@_memoized
def _first_hop(ch: ChannelSet) -> HermEig:
    """The eigendecomposition of H1 H1^H.  It is opt2's gain matrix, and
    without the direct link its eigenbasis is opt1's too (see
    ``build_capacity_spectra``), so one factorization serves both.  It is
    keyed on ``ch`` alone, so a lookup hashes no budget or dims; callers
    reach ``_relay_side`` first, which validates the network."""
    eig = herm_eig(_h1_gram(ch))
    # the eigenvectors leave the package (``u_a_thin``); the eigenvalues do not
    eig.eigenvectors.setflags(write=False)
    return eig


def _spectra_from_parts(variant: str, relay: tuple, modes: HermEig, dims: Dims) -> SpectraBundle:
    """Shared spectra assembly for both optimization criteria, from the
    network's ``_relay_side`` and the mode gains and eigenvectors
    (``modes``) of the criterion's gain matrix (one matrix or a stack)."""
    ud_b, c = relay
    lam_a, u_a = modes.eigenvalues, modes.eigenvectors
    width = min(dims.s, ud_b.lam_thin.shape[-1])
    # Every product here has shapes fixed by ``dims``, not by the mode
    # count: BLAS may round a column differently in a product of another
    # width, and a padded member must come out as it would alone.
    cost = (u_a.conj() * (c @ u_a)).real.sum(axis=-2)[..., :width]
    split = _lone_modes if u_a.ndim == ud_b.u_thin.ndim == 2 else _stacked_modes
    alpha, beta, lam_b, rho, rho_a = split(variant, lam_a, cost, ud_b, width)
    return SpectraBundle(
        variant=variant,
        alpha=alpha,
        beta=beta,
        u_a_thin=u_a[..., :width],
        u_b_thin=ud_b.u_thin,
        lam_b_thin=lam_b,
        rho=rho,
        rho_a=rho_a,
        rho_b=ud_b.rank,
        c_matrix=c,
    )


def _stacked_modes(variant: str, lam_a, cost, ud_b, width: int) -> tuple:
    """A stack's mode gains, costs, second-hop eigenvalues and mode
    counts ``rho`` and ``rho_a``, from the eigenvalues of its gain
    matrices, its mode costs times lam_b and its second hop's thin
    diagonalization; ``width`` is the widest member's ``rho``."""
    # Modes past a stack member's own count are padded with zero gain and
    # unit second-hop eigenvalue: they never receive power.
    lam_b = np.where(ud_b.lam_thin > 0.0, ud_b.lam_thin, 1.0)
    kept = lam_a > DEFAULT_RANK_TOL * np.maximum(lam_a[..., :1], 1.0)
    lam_a = np.where(kept, lam_a, 0.0)
    alpha = np.where(ud_b.lam_thin[..., :width] > 0.0, lam_a[..., :width], 0.0)
    if variant == "capacity":
        _check_capacity_gain(float(alpha.max(initial=0.0)))
        np.minimum(alpha, _BELOW_ONE, out=alpha)
    return alpha, cost / lam_b[..., :width], lam_b, np.minimum(width, ud_b.rank), kept.sum(axis=-1)


def _lone_modes(variant: str, lam_a, cost, ud_b, width: int) -> tuple:
    """``_stacked_modes`` for one network: the same rank cut, clamp and
    counts on the eigenvalue lists, by the same comparisons, so the result
    is bit-identical to a stack member's.  A lone thin diagonalization
    keeps positive eigenvalues only, so no mode is padded."""
    lam_a, cost = lam_a.tolist(), cost.tolist()
    cut = DEFAULT_RANK_TOL * max(lam_a[0], 1.0)
    lam_a = [v if v > cut else 0.0 for v in lam_a]
    alpha = lam_a[:width]
    if variant == "capacity":
        _check_capacity_gain(max(alpha, default=0.0))
        alpha = [min(v, _BELOW_ONE) for v in alpha]
    beta = [k / b for k, b in zip(cost, ud_b.lam_thin.tolist())]
    # rho_a counts the kept gains, which lie above the cut, so are never 0
    return np.array(alpha), np.array(beta), ud_b.lam_thin, int(width), len(lam_a) - lam_a.count(0.0)


def _check_capacity_gain(top: float) -> None:
    if top >= 1.0 + 1e-12:
        raise NumericalError(
            f"capacity mode gain {top} exceeds 1; the first-hop reduction is "
            "contractive by construction, so the inputs are inconsistent"
        )


def _link_off(ch: ChannelSet):
    """Whether the direct link is off, G0 == 0 (as ``translate_scenario``
    makes it without the link): True or False when every member of a
    stack agrees, else each member's flag."""
    g0 = _g0(ch)
    if g0.ndim == 2:
        return not np.count_nonzero(g0)
    on = g0.any(axis=(-2, -1))
    count = np.count_nonzero(on)
    return ~on if 0 < count < on.size else not count


def build_capacity_spectra(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> SpectraBundle:
    """Reduce a network (or a stack of networks) to the capacity-criterion
    mode spectra.

    The gain matrix is A = H1 (t/p1 I + H0^H H0 + H1^H H1)^-1 H1^H (its
    eigenvalues are the ``alpha``, strictly below 1 because the bracket
    dominates H1^H H1), the second hop enters through B = H2^H H2, and the
    cost of mode i is beta_i = (U_a^H C U_a)_ii / lam_b_i with C the relay
    input shaping matrix (``SpectraBundle.c_matrix``).

    Without the direct link (G0 = H0^H H0 == 0) A = U diag(lam / (t/p1 +
    lam)) U^H, with U and lam the eigenpairs of H1 H1^H, so A is neither
    built nor factorized: the gains map opt2's memoized eigenvalues
    (``_first_hop``), and a mode that opt2's rank cut drops gets gain 0.
    A stack whose members differ in the link builds both and gives each
    member its own path's modes, so each is as it would be alone.

    Raises DeadRelayError when H2 has rank 0 (no mode can be served).
    """
    relay = _relay_side(ch, pb, dims)
    off = _link_off(ch)
    if off is not True:
        h1, h1_h = ch.h1, conj_transpose(ch.h1)
        # G only feeds a solve; A feeds the eigensolver, which needs it exactly Hermitian
        g = (dims.t / pb.p1) * _eye(dims.t) + _g0(ch) + h1_h @ h1
        modes = herm_eig(hermitian_part(h1 @ _solve(g, h1_h)))
    if off is not False:
        # a stack whose members differ in the link takes each member's
        # modes from its own path
        first = _first_hop_modes(ch, pb, dims)
        modes = first if off is True else HermEig(np.where(off[..., None], first.eigenvalues, modes.eigenvalues),
                                                  np.where(off[..., None, None], first.eigenvectors, modes.eigenvectors))
    return _spectra_from_parts("capacity", relay, modes, dims)


def _first_hop_modes(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> HermEig:
    """opt1's modes without the direct link, read off ``_first_hop``: the
    eigenvectors of H1 H1^H with gains lam / (t/p1 + lam) of its
    eigenvalues lam.  A mode that opt2's rank cut drops gets gain 0, so
    that rounding noise of a rank-deficient H1 H1^H is not lifted above
    the capacity cut.  One network's gains are made on the eigenvalue
    list, by the same operations as a stack's."""
    eig, shift = _first_hop(ch), dims.t / pb.p1
    lam = eig.eigenvalues
    if lam.ndim == 1:
        cut = DEFAULT_RANK_TOL * max(lam[0].item(), 1.0)
        return HermEig(np.array([v / (shift + v) if v > cut else 0.0 for v in lam.tolist()]), eig.eigenvectors)
    kept = lam > DEFAULT_RANK_TOL * np.maximum(lam[..., :1], 1.0)
    return HermEig(np.where(kept, lam / (shift + lam), 0.0), eig.eigenvectors)


def _phi_terms(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """The parts of ``_phi`` that do not depend on the water level."""
    return alpha / beta, 1.0 - alpha, 1.0 - alpha / 2.0, alpha ** 2 / 4.0


def _phi(terms: tuple, xi):
    # alpha/2 - 1 + sqrt(alpha^2/4 + q) with q = alpha/beta * xi, in
    # rationalized form, which does not cancel near the threshold
    # q = 1 - alpha; zero-gain modes give 0 / 1.  A float level with terms
    # as lists gives a list, by the same operations in the same order.
    if isinstance(xi, float):
        return [max(r * xi - m, 0.0) / (b + math.sqrt(s + r * xi)) for r, m, b, s in zip(*terms)]
    ratio, one_minus, base, square = terms
    q = ratio * xi
    return np.maximum(q - one_minus, 0.0) / (base + np.sqrt(square + q))


def _mode_sum(v: np.ndarray) -> np.ndarray:
    """Sum over the mode (last) axis in index order.  Unlike ``np.sum``,
    whose order depends on the length, trailing zero modes leave it
    bit-identical, so a padded member of a stack sums as it would alone."""
    if v.shape[-1] == 0:
        return np.zeros(v.shape[:-1], dtype=v.dtype)
    return np.add.accumulate(v, axis=-1)[..., -1]


def activation_thresholds(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Water level at which each mode starts receiving power.

    ``(1 - alpha_i) * beta_i / alpha_i`` for servable modes, +inf for
    zero-gain modes (they never activate).
    """
    alpha, beta = _mode_vectors(alpha, beta)
    return np.divide((1.0 - alpha) * beta, alpha, out=np.full(alpha.shape, np.inf), where=alpha > 0.0)


def _wet(thresholds: np.ndarray, p2: float) -> tuple:
    """Each problem's lowest activation threshold (kept as a length-1 mode
    axis) and whether it takes power: some mode is servable and p2 > 0."""
    lowest = thresholds.min(axis=-1, keepdims=True, initial=np.inf)
    return lowest, np.isfinite(lowest[..., 0]) & (p2 > 0.0)


def _solution(x, xi, wet, lowest) -> WaterfillSolution:
    """Mode powers and water levels of a stack as a ``WaterfillSolution``.
    A problem that takes no power reports the just-dry level, its lowest
    threshold, or NaN ("no water") when no mode is servable."""
    if _any(~wet):
        lowest = lowest[..., 0]
        xi = np.where(wet, xi, np.where(np.isfinite(lowest), lowest, np.nan))
    return WaterfillSolution(x=x, xi=xi)


def _lone_solution(x: list, xi: float, wet: bool, lowest: float) -> WaterfillSolution:
    """``_solution`` for one problem on Python floats: its level is a
    float, or None for "no water"."""
    # a dry problem reports its just-dry level, or NaN with no servable mode
    xi = xi if wet else lowest if lowest < math.inf else math.nan
    return WaterfillSolution(x=np.array(x, dtype=float), xi=None if math.isnan(xi) else xi)


def _mode_vectors(alpha, beta) -> tuple:
    """Mode gains ``alpha`` and costs ``beta`` as float arrays of one
    shape with a mode axis: vectors, or stacks of vectors."""
    alpha, beta = _numbers("alpha", alpha, float), _numbers("beta", beta, float)
    if alpha.ndim < 1 or alpha.shape != beta.shape:
        raise ValidationError("alpha and beta must be vectors (or stacks of vectors) of equal shape")
    return alpha, beta


def _wf_arrays(alpha, beta, p2) -> tuple:
    """``_mode_vectors(alpha, beta)``, with the relay budget ``p2`` checked."""
    alpha, beta = _mode_vectors(alpha, beta)
    if not (_finite(p2) and p2 >= 0.0):
        raise ValidationError(f"relay power budget must be a finite number >= 0, got {p2!r}")
    return alpha, beta


def _check_modes(gains_ok: bool, costs_ok: bool, products_ok: bool, ratios_ok: bool, top: float) -> None:
    # The OSTBC scan weighs each mode by sqrt(alpha * beta), and both pours
    # scale the level by alpha / beta, so an overflowing product or ratio
    # is rejected too; a non-finite entry fails the checks before them.
    if not gains_ok:
        raise ValidationError(f"mode gains must be finite and lie in [0, {top})")
    if not costs_ok:
        raise ValidationError("mode power costs must be finite and strictly positive")
    if not products_ok:
        raise ValidationError("each mode's gain times its power cost must be finite")
    if not ratios_ok:
        raise ValidationError("each mode's gain over its power cost must be finite")


def _validate_wf_inputs(alpha: np.ndarray, beta: np.ndarray, top: float) -> None:
    # a NaN makes min and max NaN, which fails every comparison
    gains_ok = alpha.min(initial=0.0) >= 0.0 and alpha.max(initial=0.0) < top
    costs_ok = beta.min(initial=1.0) > 0.0 and beta.max(initial=1.0) < np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        products_ok = (alpha * beta).max(initial=0.0) < np.inf
        ratios_ok = (alpha / beta).max(initial=0.0) < np.inf
    _check_modes(gains_ok, costs_ok, products_ok, ratios_ok, top)


def _lone_problem(alpha: np.ndarray, beta: np.ndarray, p2: float, top: float, threshold) -> tuple:
    """One problem's gains, costs and activation thresholds (``threshold``
    of each servable mode) as lists, its budget as a float, its lowest
    threshold and whether it takes power.  The gains and costs are checked
    as a stack's are; Python's min and max let a NaN through or not by
    where it sits, so every entry is compared, and a NaN fails."""
    alpha, beta = alpha.tolist(), beta.tolist()
    costs_ok = all(0.0 < b < math.inf for b in beta)
    # a zero cost fails its check before a ratio divides by it
    _check_modes(all(0.0 <= a < top for a in alpha), costs_ok,
                 all(a * b < math.inf for a, b in zip(alpha, beta)),
                 costs_ok and all(a / b < math.inf for a, b in zip(alpha, beta)), top)
    thresholds = [threshold(a, b) if a > 0.0 else math.inf for a, b in zip(alpha, beta)]
    lowest = min(thresholds, default=math.inf)
    return alpha, beta, float(p2), thresholds, lowest, lowest < math.inf and p2 > 0.0


def _lone_capacity(alpha: np.ndarray, beta: np.ndarray, p2: float) -> WaterfillSolution:
    """``waterfill_capacity`` for one problem, on Python floats.  Its
    checks, thresholds, segment choice, Newton climb and solution make the
    IEEE operations of the stack path in its order, so the result is
    bit-identical to a stack member's, without numpy's cost per call,
    which dominates on <= 8 modes.  The threshold scan stays one array
    ``_phi`` call, so the budget curve is evaluated as often as for a
    one-member stack."""
    gains, costs, p2, thresholds, lowest, wet = _lone_problem(alpha, beta, p2, 1.0, lambda a, b: (1.0 - a) * b / a)
    # the stack path's segment choice: the highest threshold at which the
    # budget is still below p2, or the lowest threshold
    terms = _phi_terms(alpha, beta)
    t = [v if v < math.inf else 0.0 for v in thresholds]
    scan = _phi(tuple(v[None, :] for v in terms), np.array(t)[:, None])
    below = (_mode_sum(beta * scan) < p2).tolist()
    xi = max([tv for v, tv, b in zip(thresholds, t, below) if wet and v < math.inf and (b or v == lowest)], default=0.0)

    terms = tuple(v.tolist() for v in terms)
    x = _phi(terms, xi)
    for _ in range(_MAX_ITER):
        # Both sums add in index order, as ``_mode_sum`` does; the built-in
        # ``sum`` compensates its rounding on Python 3.12 and later.
        budget = slope = 0.0
        for a, b, th, v in zip(gains, costs, thresholds, x):
            budget += b * v
            if th <= xi:
                slope += a / (2.0 - a + 2.0 * v)
        resid = p2 - budget
        if not (wet and resid > _BUDGET_RTOL * p2):
            break
        # numpy divides a positive residual by a zero slope to +inf
        xi_next = xi + resid / slope if slope else math.inf
        if xi_next == xi:
            break
        xi = xi_next
        x = _phi(terms, xi)
    return _lone_solution(x, xi, wet, lowest)


def waterfill_capacity(alpha: np.ndarray, beta: np.ndarray, p2: float) -> WaterfillSolution:
    """Split a relay power budget across modes for the capacity criterion.

    Finds the water level ``xi`` such that ``sum beta_i * phi_i(xi) = p2``
    (see module docstring) to relative budget tolerance 1e-12, or as close
    as a float ``xi`` gets to it.  The budget binds exactly whenever
    some gain is positive and p2 > 0; with all gains zero the "no water"
    solution is returned.  ``alpha`` and ``beta`` may be stacks
    ``(..., modes)`` of problems sharing ``p2``; each is solved as alone,
    and a stack's water levels are an array with NaN for "no water".  One
    problem is solved on Python floats (see the module docstring),
    bit-identical to its solve as a stack member.
    """
    alpha, beta = _wf_arrays(alpha, beta, p2)
    if alpha.ndim == 1:
        return _lone_capacity(alpha, beta, p2)
    _validate_wf_inputs(alpha, beta, 1.0)
    thresholds = activation_thresholds(alpha, beta)
    finite = np.isfinite(thresholds)
    lowest, wet = _wet(thresholds, p2)
    terms = _phi_terms(alpha, beta)

    # The budget is increasing in xi, so the root lies right of the highest
    # threshold at which it is still below p2 (the lowest threshold always
    # qualifies) and left of the next one.
    t = np.where(finite, thresholds, 0.0)
    below = _mode_sum(beta[..., None, :] * _phi(tuple(v[..., None, :] for v in terms), t[..., :, None])) < p2
    left = wet[..., None] & finite & (below | (thresholds == lowest))
    xi = np.where(left, t, 0.0).max(axis=-1, initial=0.0)

    # Newton from the segment's left end climbs to the root from below; a
    # negative residual means rounding put xi one float past the root, the
    # closest it can get.  A problem stops when its residual is within
    # tolerance or its step no longer moves xi, and the loop when every
    # problem has stopped, so each ends where it would alone.
    x = _phi(terms, xi[..., None])
    dry = ~wet
    two_minus = 2.0 - alpha
    for _ in range(_MAX_ITER):
        resid = p2 - _mode_sum(beta * x)
        climb = wet & (resid > _BUDGET_RTOL * p2)
        if not _any(climb):
            break
        # right derivative: a mode counts from its threshold on, where
        # d(beta_i x_i)/dxi = alpha_i / (2 sqrt(alpha_i^2/4 + q_i))
        #                   = alpha_i / (2 + 2 x_i - alpha_i)
        live = thresholds <= xi[..., None]
        slope = _mode_sum(live * alpha / (two_minus + 2.0 * x)) + dry
        xi_next = xi + climb * resid / slope
        if not _any(xi_next != xi):
            break
        xi = xi_next
        x = _phi(terms, xi[..., None])
    return _solution(x, xi, wet, lowest)


def assemble_rtm(spectra: SpectraBundle, wf: WaterfillSolution) -> RtmSolution:
    """Build the relay transform matrix from spectra and mode powers.

    X = U_b diag(sqrt(x_i / lam_b_i)) U_a^H; modes without power add
    nothing, so the returned matrix has rank equal to the active count.
    ``lam_b_thin`` is positive by construction (a stack pads it with 1), so
    ``lam_b_i ** -0.5`` needs no check.  The solution's
    ``relay_power_used``, the exact trace tr(X C X^H), is computed when
    read, not here.  Stacked spectra and mode powers give a stack of
    matrices.
    """
    width = spectra.alpha.shape[-1]
    if wf.x.shape != spectra.alpha.shape:
        raise ValidationError(
            f"water-filling solution has {wf.x.shape[-1]} modes, spectra expect {width}"
        )
    scale = np.sqrt(wf.x) * spectra.lam_b_thin[..., :width] ** -0.5
    # a sum of rank-one terms added in mode order, one (..., u, s) term at
    # a time, rather than a product over the modes: zero modes padded onto
    # a stack member then change nothing
    u_b = (spectra.u_b_thin[..., :width] * scale[..., None, :])[..., :, None, :]
    u_a = spectra.u_a_thin.conj()[..., None, :, :]
    x_matrix = u_b[..., 0] * u_a[..., 0] if width else np.zeros(np.broadcast_shapes(u_b.shape, u_a.shape)[:-1], complex)
    for m in range(1, width):
        x_matrix += u_b[..., m] * u_a[..., m]
    kind = "opt1" if spectra.variant == "capacity" else "opt2"
    return RtmSolution(x_matrix=x_matrix, wf=wf, spectra=spectra, c_matrix=spectra.c_matrix, kind=kind)


def optimize_capacity_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """End-to-end capacity-optimal relay transform for one realization, or
    for each realization of a stacked ``ChannelSet``."""
    spectra = build_capacity_spectra(ch, pb, dims)
    wf = waterfill_capacity(spectra.alpha, spectra.beta, pb.p2)
    return assemble_rtm(spectra, wf)
