"""Domain types for the two-hop relay network and the SNR-normalized
scenario translation used by the Monte Carlo experiments.

Conventions: the source has ``t`` transmit antennas, the destination ``r``
receive antennas, the relay ``s`` receive and ``u`` transmit antennas.
``h0`` (r x t) is the direct source-to-destination channel, ``h1`` (s x t)
source-to-relay, ``h2`` (r x u) relay-to-destination.  Noise variances are
never stored: they are absorbed into the SNR scaling of the channel
matrices, so every formula downstream works on whitened channels.

A ``ChannelSet`` may hold a stack of realizations: matrices
``(..., rows, cols)`` whose leading batch axes broadcast against each
other, so a matrix that does not vary along an axis of the stack can keep
a singleton axis there (a sweep stack gives only the swept matrix its
point axis).  ``validate`` and ``translate_scenario`` take such stacks,
and so do the solvers and metrics downstream.

A ``ChannelSet`` is immutable: it holds read-only copies of the matrices
it is given; the arrays the package builds itself, such as
``translate_scenario``'s scaled matrices, are made read-only in place
instead of copied.  So what is built from the network alone (the Gram
matrices G0 = H0^H H0 and H1 H1^H, Re tr G0 and H1^H here, the second
hop's factorization and the shaping matrix in ``opt_capacity``) is built
by ``_memoized`` functions once per instance, on first use, and shared by
every solver and metric called on it; so is the ``validate`` check
(``_validated``), which every solver and metric reaches first.
``evaluate`` keeps one more slot in the same memo: the relay-path matrix
of the last transform evaluated on the instance.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DeadRelayWarning, ValidationError
from .matalg import _any, conj_transpose, hermitian_part

__all__ = [
    "Dims",
    "ChannelSet",
    "PowerBudget",
    "SnrScenario",
    "translate_scenario",
    "validate",
]


def _is_number(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _check_count(name: str, val, minimum: int) -> None:
    if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {val!r}")


def _check_snr_db(name: str, val) -> None:
    """Reject an SNR that is not a finite float64 number of dB, or whose
    linear power 10^(dB/10) overflows float64 (above about 3082.5 dB):
    ``_amplitude`` could not scale a channel by it."""
    try:
        finite = _is_number(val) and math.isfinite(val)
    except OverflowError:  # an integer beyond float64's range
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be a finite number, got {val!r}")
    try:
        10.0 ** (float(val) / 10.0)
    except OverflowError:
        raise ValidationError(f"{name} {val!r} dB overflows float64 as a linear power 10^(dB/10)") from None


@dataclass(frozen=True)
class Dims:
    """Antenna counts: source transmit, destination receive, relay receive,
    relay transmit."""

    t: int
    r: int
    s: int
    u: int

    def __post_init__(self):
        for name in ("t", "r", "s", "u"):
            _check_count(f"antenna count {name}", getattr(self, name), 1)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the three complex channel matrices, or a stack
    of realizations whose leading batch axes broadcast against each other
    (checked by ``validate`` and ``translate_scenario``).

    The matrices are read-only copies of the arrays given, so the memo of
    ``_memoized`` stays valid for the life of the instance (``_owned``
    skips the copy for arrays the package has just built)."""

    h0: np.ndarray  # (..., r, t) source -> destination
    h1: np.ndarray  # (..., s, t) source -> relay
    h2: np.ndarray  # (..., r, u) relay -> destination

    def __post_init__(self):
        for name in ("h0", "h1", "h2"):
            try:
                arr = np.array(getattr(self, name), dtype=complex)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{name} must hold numbers: {exc}") from None
            if arr.ndim < 2:
                raise ValidationError(f"{name} must be a matrix or a stack of matrices, got ndim {arr.ndim}")
            object.__setattr__(self, name, arr)
        _seal(self)

    def __reduce__(self):
        # a copy or an unpickled instance is built anew: read-only, no memo
        return ChannelSet, (self.h0, self.h1, self.h2)


def _seal(ch: ChannelSet) -> None:
    """Make the matrices of ``ch`` read-only and give it an empty memo."""
    ch.h0.flags.writeable = ch.h1.flags.writeable = ch.h2.flags.writeable = False
    object.__setattr__(ch, "_memo", {})


def _owned(h0: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> ChannelSet:
    """A ChannelSet of complex matrices (or stacks) that the package has
    just built and shares with no caller: they are made read-only in place
    rather than copied a second time.  Pickling still goes through
    ``ChannelSet(...)``."""
    ch = object.__new__(ChannelSet)
    for name, arr in (("h0", h0), ("h1", h1), ("h2", h2)):
        object.__setattr__(ch, name, arr)
    _seal(ch)
    return ch


def _read_only(*values) -> None:
    """Make the arrays among ``values`` read-only; other values pass."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False


def _memoized(build):
    """``build(ch, *args)``, built once per ChannelSet ``ch`` and ``args``.

    An array result is made read-only, since every caller shares it.  The
    memo is a plain dict lookup with no lock, so concurrent callers never
    wait on each other; a race builds an equal value twice and keeps the
    first.  An exception is not memoized: the next call builds again.
    """

    @functools.wraps(build)
    def memoized(ch, *args):
        key = (build, *args)
        try:
            return ch._memo[key]
        except KeyError:
            value = build(ch, *args)
            _read_only(value)
            return ch._memo.setdefault(key, value)

    return memoized


@_memoized
def _g0(ch: ChannelSet) -> np.ndarray:
    """G0 = H0^H H0, the direct link's Gram matrix."""
    return conj_transpose(ch.h0) @ ch.h0


@_memoized
def _g0_trace(ch: ChannelSet):
    """Re tr G0, the direct link's term of the OSTBC capacity."""
    return _g0(ch).trace(axis1=-2, axis2=-1).real


@_memoized
def _h1_h(ch: ChannelSet) -> np.ndarray:
    """H1^H, which the capacity spectra and the identity form share."""
    return conj_transpose(ch.h1)


@_memoized
def _h1_gram(ch: ChannelSet) -> np.ndarray:
    """The Hermitian part of H1 H1^H: opt2's gain matrix and the core of
    the shaping matrix C."""
    return hermitian_part(ch.h1 @ conj_transpose(ch.h1))


@dataclass(frozen=True)
class PowerBudget:
    """Average transmit power limits (linear units) for source and relay."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (_is_number(self.p1) and math.isfinite(self.p1) and self.p1 > 0.0):
            raise ValidationError(f"source power p1 must be a finite number > 0, got {self.p1!r}")
        if not (_is_number(self.p2) and math.isfinite(self.p2) and self.p2 >= 0.0):
            raise ValidationError(f"relay power p2 must be a finite number >= 0, got {self.p2!r}")


@dataclass(frozen=True)
class SnrScenario:
    """An experiment point expressed in per-link SNRs (dB).

    When ``direct_link_enabled`` is false the direct channel is forced to
    zero and ``rho0_db`` is ignored.
    """

    rho0_db: float
    rho1_db: float
    rho2_db: float
    dims: Dims
    direct_link_enabled: bool = field(default=True)

    def __post_init__(self):
        for name in ("rho0_db", "rho1_db", "rho2_db"):
            _check_snr_db(name, getattr(self, name))


def _check_shapes(dims: Dims, ch: ChannelSet) -> None:
    expected = {
        "h0": (dims.r, dims.t),
        "h1": (dims.s, dims.t),
        "h2": (dims.r, dims.u),
    }
    shapes = (ch.h0.shape, ch.h1.shape, ch.h2.shape)
    for (name, shape), got in zip(expected.items(), shapes):
        if got[-2:] != shape:
            raise ValidationError(f"{name} must have shape {got[:-2] + shape}, got {got}")
    # numpy's broadcast check costs microseconds; equal batch axes need none
    if not shapes[0][:-2] == shapes[1][:-2] == shapes[2][:-2]:
        try:
            np.broadcast_shapes(*(got[:-2] for got in shapes))
        except ValueError:
            raise ValidationError(
                f"batch axes of h0 {shapes[0]}, h1 {shapes[1]} and h2 {shapes[2]} do not broadcast"
            ) from None


def validate(dims: Dims, ch: ChannelSet, pb: PowerBudget) -> None:
    """Check shape consistency and finiteness of a network description.

    Raises ValidationError on hard inconsistencies.  All-zero h1 or h2 is
    legal (a degenerate network) and only triggers a DeadRelayWarning, one
    per matrix for a stack in which some member has it, issued at the first
    frame outside the package.
    """
    _check_shapes(dims, ch)
    for name in ("h0", "h1", "h2"):
        if not np.isfinite(getattr(ch, name)).all():
            raise ValidationError(f"{name} contains non-finite entries")
    for name in ("h1", "h2"):
        if _any(~getattr(ch, name).any(axis=(-2, -1))):
            warnings.warn(
                f"relay path dead: {name} is identically zero",
                DeadRelayWarning,
                stacklevel=_caller_stacklevel(),
            )


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by the function that
    calls this names the first frame outside the package: the code that
    called into it, which a filter on its module can match.  Frames are
    walked only when a warning is issued."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


@_memoized
def _validated(ch: ChannelSet, pb: PowerBudget, dims: Dims) -> None:
    """``validate``, once per ChannelSet: every solver and metric calls it
    before it reads the matrices, and the first call checks them."""
    validate(dims, ch, pb)


def _amplitude(snr_db: float) -> float:
    """The gain sqrt(10^(dB/10)) that scales a unit-variance channel to a
    per-link SNR given in dB."""
    return math.sqrt(10.0 ** (snr_db / 10.0))


def translate_scenario(scn: SnrScenario, raw: ChannelSet) -> tuple[ChannelSet, PowerBudget]:
    """Map an SNR scenario onto canonical channel matrices and powers.

    ``raw`` holds unit-variance channel draws.  Each matrix is scaled by
    the square root of its linear SNR (the direct channel is zeroed when
    the direct link is disabled) and the canonical powers are p1 = t,
    p2 = u.  Feeding the result into the generic capacity and power
    constraint reproduces the SNR-normalized expressions exactly, so the
    optimizers never need to know about SNRs.  ``raw`` may be a stack of
    draws; every member is scaled alike.
    """
    dims = scn.dims
    _check_shapes(dims, raw)
    h0 = _amplitude(scn.rho0_db) * raw.h0 if scn.direct_link_enabled else np.zeros_like(raw.h0)
    ch = _owned(h0, _amplitude(scn.rho1_db) * raw.h1, _amplitude(scn.rho2_db) * raw.h2)
    return ch, PowerBudget(p1=float(dims.t), p2=float(dims.u))
