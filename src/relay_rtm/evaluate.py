"""Scalar figures of merit for relay networks.

Capacity is computed in bit/s/Hz through two algebraically equivalent
log-det forms (the direct whitened-channel form and the matrix-inversion
identity form); both are evaluated on every call and a disagreement above
1e-9 bits raises, turning the underlying identity into a permanent
regression guard.  Also here: the OSTBC (trace) capacity, the naive
scaled-identity relay baseline, and KKT residual reporting for the
capacity water-filler.

Both metrics are read off one relay-path information matrix per transform
X.  A ``ChannelSet`` remembers that matrix, with K = H2 X, for the last
transform evaluated on it, so ``capacity`` and then ``ostbc_capacity`` of
one X build it once.

``capacity``, ``capacity_forms``, ``ostbc_capacity`` and ``naf_rtm`` also
take a stacked ``ChannelSet`` (and a stack of transforms): each member is
evaluated exactly as it would be alone, and figures come back as arrays;
an empty stack gives empty arrays.  ``capacity`` evaluates both forms
once, for one network as for a stack, and one pair decides the 1e-9-bit
check: one network's own pair, or the pair, as floats, of the stack
member whose forms differ most.  That pair is handed to
``capacity_forms``, which returns it as it is, so a watcher of
``capacity_forms`` sees the largest gap of every call.  An empty stack
has no member to check or hand over.
For one network, the finiteness checks of each log-det and of the OSTBC
figure test Python floats; a figure that fails them takes the array
check, which words the error.

Nothing here symmetrizes a matrix: the log-det arguments, the relay-path
matrix and Z = K^H K are Hermitian up to rounding, and a log-det, a
solve and a trace's real part need no more (``_logdet_bits``).  Only the
matrices an eigensolver reads are made exactly Hermitian, in
``network`` and ``opt_capacity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .matalg import _any, _eye, _numbers, _slogdet, _solve, conj_transpose
from .network import ChannelSet, Dims, PowerBudget, _g0, _is_number, _read_only
from .opt_capacity import RtmSolution, WaterfillSolution, _shaping_matrix, _wf_arrays

__all__ = [
    "CapacityReport",
    "KktReport",
    "capacity",
    "capacity_forms",
    "ostbc_capacity",
    "naf_rtm",
    "verify_kkt_capacity",
]

_FORM_AGREEMENT_BITS = 1e-9


@dataclass(frozen=True)
class CapacityReport:
    """A capacity figure in bit/s/Hz: a float for one network, an array
    for a stack."""

    bits: float


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


def _check_x_shape(ch: ChannelSet, dims: Dims, x_matrix: np.ndarray) -> np.ndarray:
    x_matrix = _numbers("relay transform", x_matrix, complex)
    if x_matrix.shape[-2:] != (dims.u, dims.s):
        raise ValidationError(
            f"relay transform must have shape {(dims.u, dims.s)}, got {x_matrix.shape}"
        )
    # One X broadcasts against any network, and a stack with the batch axes
    # of one of the network's matrices does whenever the network does
    # (``validate`` checks that); only another stack pays numpy's broadcast
    # check, which costs microseconds per call.
    batch = x_matrix.shape[:-2]
    if batch and batch not in (ch.h0.shape[:-2], ch.h1.shape[:-2], ch.h2.shape[:-2]):
        try:
            np.broadcast_shapes(*(m.shape[:-2] for m in (x_matrix, ch.h0, ch.h1, ch.h2)))
        except ValueError:
            raise ValidationError(
                f"batch axes of the relay transform {x_matrix.shape} do not broadcast against "
                f"the network's h0 {ch.h0.shape}, h1 {ch.h1.shape} and h2 {ch.h2.shape}"
            ) from None
    return x_matrix


def _first(values, bad):
    """The first entry of ``values`` where ``bad`` holds, for messages."""
    return np.ravel(values)[np.flatnonzero(bad)[0]]


def _logdet_bits(m: np.ndarray) -> np.ndarray:
    """log2 det M of a Hermitian positive-definite M, or of each in a
    stack, as a Python float for one matrix.  M is Hermitian up to
    rounding and is not symmetrized first: for a Hermitian positive-definite
    A and an anti-Hermitian rounding term E, log|det(A + E)| - log det A
    is second order in E, because tr(A^-1 E) is imaginary."""
    sign, logdet = _slogdet(m)
    # One matrix that passes is checked on Python floats (numpy orders
    # complex numbers by real, then imaginary part); any other takes the
    # array check, which words the error.
    if m.ndim == 2 and (sign.real.item(), sign.imag.item()) > (0.0, 0.0) and math.isfinite(logdet):
        return logdet.item() / math.log(2.0)
    bad = (sign <= 0.0) | ~np.isfinite(logdet)
    if _any(bad):
        raise NumericalError(
            f"log-det argument is not positive definite (sign {_first(sign, bad)}, "
            f"logdet {_first(logdet, bad)})"
        )
    return logdet / math.log(2.0)


def _build_relay_path(ch: ChannelSet, x_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K = H2 X, K^H and the t x t relay-path information matrix
    H1^H K^H (I + K K^H)^-1 K H1, of one network or of each in a stack.
    The direct capacity form and the OSTBC capacity read the matrix, the
    identity form reads K and K^H only.  The matrix is Hermitian up to
    rounding and is used as it is: a log-det does not need it exactly
    Hermitian (see ``_logdet_bits``), and a trace reads the real diagonal."""
    k = ch.h2 @ x_matrix
    k_h = conj_transpose(k)
    kh1 = k @ ch.h1
    gram = _eye(k.shape[-2]) + k @ k_h
    return k, k_h, conj_transpose(kh1) @ _solve(gram, kh1)


def _relay_path(ch: ChannelSet, pb: PowerBudget, dims: Dims, x_matrix: np.ndarray) -> tuple:
    """``_build_relay_path(ch, X)``, which ``ch`` remembers, read-only, for
    the last X only, keyed by X's bytes: memory stays bounded over many X,
    and a changed X is rebuilt.  The slot is written as one tuple with no
    lock, so a race between threads only rebuilds the pair.  The network
    is validated (``_shaping_matrix``) before the first build reads it."""
    key = (x_matrix.shape, x_matrix.tobytes())
    last = ch._memo.get("relay_path")
    if last is not None and last[0] == key:
        return last[1]
    _shaping_matrix(ch, pb, dims)
    path = _build_relay_path(ch, x_matrix)
    _read_only(*path)
    ch._memo["relay_path"] = key, path
    return path


def _forms(ch, pb, dims, x_matrix):
    # x_matrix is checked by the caller
    k, k_h, inner = _relay_path(ch, pb, dims, x_matrix)
    eye = _eye(dims.t)
    scale = pb.p1 / dims.t
    g0 = _g0(ch)
    direct = _logdet_bits(eye + scale * (g0 + inner))

    z = k_h @ k
    relay_side = _solve(_eye(dims.s) + z, z)
    ident = _logdet_bits(eye + scale * (g0 + conj_transpose(ch.h1) @ relay_side @ ch.h1))
    return direct, ident


def capacity_forms(
    ch: ChannelSet, pb: PowerBudget, dims: Dims, x_matrix: np.ndarray, *, _pair=None
) -> tuple[float, float]:
    """Both equivalent network-capacity forms, in bits.

    Returns (direct form, identity form).  The first evaluates the
    whitened two-hop channel on the destination side,
    K^H (I + K K^H)^-1 K with K = H2 X; the second uses the
    matrix-inversion identity to evaluate the same term on the relay side,
    (I + Z)^-1 Z with Z = K^H K.  Neither form subtracts, so both keep
    their accuracy when one term dominates at high SNR.  The identity form
    reads only K and its exact conjugate K^H from the relay path, never
    the relay-path matrix or its solve, so the forms share no rounding
    past K; neither log-det argument is symmetrized (``_logdet_bits``).
    For a stacked ``ChannelSet`` and X both forms are arrays; an empty
    stack gives empty arrays.
    """
    # _pair= is the pair that decides a ``capacity`` call (a stack's worst
    # member's), returned as it is so that whoever watches this function
    # (the benchmark's tracer, which reduces scalar pairs) sees the largest
    # gap of every evaluation; it goes once that tracer reduces stacked pairs
    if _pair is not None:
        return _pair
    return _forms(ch, pb, dims, _check_x_shape(ch, dims, x_matrix))


def capacity(ch: ChannelSet, pb: PowerBudget, dims: Dims, x_matrix: np.ndarray) -> CapacityReport:
    """Network capacity achieved with a given relay transform matrix.

    Both capacity forms are evaluated and must agree to 1e-9 bits; this
    cross-check costs nothing at these sizes and hard-fails on numerical
    trouble instead of returning a silently wrong figure.  The forms are
    evaluated once, and one pair decides the cross-check for the call:
    one network's own pair or, for a stack (which gives an array of
    bits), the pair, as floats, of the member whose forms differ most.
    That pair is what a watcher of ``capacity_forms`` sees.  An empty
    stack gives empty bits.
    """
    x_matrix = _check_x_shape(ch, dims, x_matrix)
    bits, ident = _forms(ch, pb, dims, x_matrix)
    pair = bits, ident
    # one network's forms are Python floats (_logdet_bits)
    if type(bits) is not float:
        if not bits.size:
            return CapacityReport(bits=bits)
        worst = np.argmax(np.abs(bits - ident))
        pair = float(bits.flat[worst]), float(ident.flat[worst])
    direct, ident = capacity_forms(ch, pb, dims, x_matrix, _pair=pair)
    if abs(direct - ident) > _FORM_AGREEMENT_BITS:
        raise NumericalError(f"capacity forms disagree: {direct!r} vs {ident!r} bits")
    return CapacityReport(bits=bits)


def ostbc_capacity(
    ch: ChannelSet,
    pb: PowerBudget,
    dims: Dims,
    x_matrix: np.ndarray,
    symbol_rate: float = 1.0,
) -> CapacityReport:
    """OSTBC capacity with symbol rate R:
    R * log2(1 + p1/(t R) * tr[H0^H H0 + relay-path information matrix]).

    The trace argument reads the same relay-path matrix as the log-det
    capacity, which ``ch`` remembers for X.  A stack gives an array of
    bits.
    """
    if not (_is_number(symbol_rate) and 0.0 < symbol_rate <= 1.0):
        raise ValidationError(f"symbol rate must lie in (0, 1], got {symbol_rate!r}")
    x_matrix = _check_x_shape(ch, dims, x_matrix)
    inner = _relay_path(ch, pb, dims, x_matrix)[-1]
    trace_arg = _g0(ch).trace(axis1=-2, axis2=-1).real + inner.trace(axis1=-2, axis2=-1).real
    bits = symbol_rate * np.log2(1.0 + pb.p1 / (dims.t * symbol_rate) * trace_arg)
    # one network's figure is checked as a Python float; any other figure,
    # and a lone one that fails, take the array check
    if bits.ndim == 0 and math.isfinite(bits):
        return CapacityReport(bits=float(bits))
    bad = ~np.isfinite(bits)
    if _any(bad):
        raise NumericalError(f"OSTBC capacity is not finite (trace {_first(trace_arg, bad)})")
    return CapacityReport(bits=bits)


def naf_rtm(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> RtmSolution:
    """Naive amplify-and-forward baseline: a scaled identity transform.

    The gain is chosen so that tr(X C X^H) meets the relay budget exactly.
    For s != u the identity pattern is rectangular (ones on the main
    diagonal) and the solution is flagged "naf-rect".  No water-filling
    solve or spectra go into it, so ``wf`` and ``spectra`` are None.  A
    stacked ``ChannelSet`` gives a stack of transforms.
    """
    s, u = dims.s, dims.u
    c = _shaping_matrix(ch, pb, dims)
    k = min(s, u)
    gain = np.sqrt(pb.p2 / c[..., :k, :k].trace(axis1=-2, axis2=-1).real)
    x_matrix = np.eye(u, s, dtype=complex) * gain[..., None, None]
    return RtmSolution(x_matrix=x_matrix, wf=None, spectra=None, c_matrix=c, kind="naf" if s == u else "naf-rect")


def verify_kkt_capacity(
    alpha: np.ndarray, beta: np.ndarray, p2: float, wf: WaterfillSolution
) -> KktReport:
    """Reconstruct the multipliers of a capacity water-filling solution and
    report all first-order optimality residuals.

    The budget multiplier is 1/xi (zero in the no-water state, which a
    lone solve marks by ``xi`` None and a stack member by a NaN) and the
    per-mode slack multipliers follow from the gradient equations
    lambda_i = 1/(1+x_i) - 1/(1-alpha_i+x_i) + beta_i/xi.  Active modes
    must carry a zero multiplier (stationarity), x_i > 0 forces
    lambda_i = 0 (complementarity), the budget must bind whenever some
    gain is positive (primal), and no multiplier may be negative (dual).
    It checks one problem: ``alpha``, ``beta`` and ``wf.x`` are vectors
    over the same modes.
    """
    alpha, beta = _wf_arrays(alpha, beta, p2)
    x = _numbers("mode powers x", wf.x, float)
    if alpha.ndim > 1 or x.ndim != 1:
        raise ValidationError(f"verify_kkt_capacity checks one problem, got alpha {alpha.shape} and x {x.shape}")
    if x.shape != alpha.shape:
        raise ValidationError(f"water-filling solution has {x.shape[-1]} modes, spectra expect {alpha.shape[-1]}")
    lam0 = 0.0 if wf.xi is None or math.isnan(wf.xi) else 1.0 / wf.xi

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

