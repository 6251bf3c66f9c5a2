"""Domain types for the two-hop relay network and the SNR-normalized
scenario translation used by the Monte Carlo experiments.

Conventions: the source has ``t`` transmit antennas, the destination ``r``
receive antennas, the relay ``s`` receive and ``u`` transmit antennas.
``h0`` (r x t) is the direct source-to-destination channel, ``h1`` (s x t)
source-to-relay, ``h2`` (r x u) relay-to-destination.  Noise variances are
never stored: they are absorbed into the SNR scaling of the channel
matrices, so every formula downstream works on whitened channels.

The input rules the domain types share live here once: ``_channel_shapes``
gives the shapes of h0, h1 and h2 for ``Dims`` (``sample_channels`` draws
them, ``validate`` and ``translate_scenario`` check them), ``_finite``
accepts a real number, not a bool, that is finite as a float64 (powers,
SNRs and the water-fillers' budget; an integer beyond float64's range
fails it rather than raise ``OverflowError``), and ``_check_count`` an
integer count.

A ``ChannelSet`` may hold a stack of realizations: matrices
``(..., rows, cols)`` whose leading batch axes broadcast against each
other, so a matrix that does not vary along an axis of the stack can keep
a singleton axis there (a sweep stack gives only the swept matrix its
point axis).  ``validate`` and ``translate_scenario`` take such stacks,
and so do the solvers and metrics downstream.

A ``ChannelSet`` is immutable: it holds read-only copies of the matrices
it is given; the arrays the package builds itself, such as
``translate_scenario``'s scaled matrices, are made read-only in place
instead of copied.  So what is built from the network alone can be
built by ``_memoized`` functions once per instance, on first use, and
shared by every solver and metric called on it.  A slot is kept only for
a factorization or product that several calls share and that costs more
to rebuild than to look up: the Gram matrices G0 = H0^H H0 and H1 H1^H
here, and in ``opt_capacity`` the shaping matrix (whose first build runs
the ``validate`` check, which every solver and metric reaches first), the
factorization of the second hop and that of H1 H1^H.  ``evaluate`` keeps
one more slot in the same memo: the relay-path matrix of the last
transform evaluated on the instance.

Besides its matrices, a ``ChannelSet`` records where its second hop came
from: the unit-variance draw that h2 scales and the draw's power gain
a^2.  The second hop enters the optimizers only through B = H2^H H2 =
a^2 B0, so they factorize B0 of the draw and scale its eigenvalues
(``opt_capacity._relay_side``).  ``translate_scenario`` records the raw
h2 and a^2, and a rho2 sweep chunk its per-trial draws and a gain per
point, so B0 is factorized once per trial along the whole axis, and a
sweep member makes the operations of its lone ``translate_scenario``
solve.  A network built by hand is its own draw at gain 1.0 and factorizes
its own B; its X agrees with the translated network's of the same
matrices up to per-mode phases (eigenvectors are unique up to a unit
phase, ``matalg.herm_eig``), and every figure to rounding level.  Copies
and pickles keep the record.
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
from .matalg import _any, _numbers, conj_transpose, hermitian_part


def _is_number(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _check_count(name: str, val, minimum: int) -> None:
    if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {val!r}")


def _finite(val) -> bool:
    """Whether ``val`` is a real number (not a bool) that is finite as a
    float64: an integer beyond float64's range is not."""
    try:
        return _is_number(val) and math.isfinite(val)
    except OverflowError:
        return False


def _check_snr_db(name: str, val) -> None:
    """Reject an SNR that is not a finite float64 number of dB, or whose
    linear power 10^(dB/10) overflows float64 (above about 3082.5 dB):
    ``_amplitude`` could not scale a channel by it."""
    if not _finite(val):
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
    skips the copy for arrays the package has just built).  An instance
    built by hand records its own h2 as the second hop's draw, at power
    gain 1.0 (see the module docstring)."""

    h0: np.ndarray  # (..., r, t) source -> destination
    h1: np.ndarray  # (..., s, t) source -> relay
    h2: np.ndarray  # (..., r, u) relay -> destination

    def __post_init__(self):
        for name in ("h0", "h1", "h2"):
            arr = np.array(_numbers(name, getattr(self, name), complex))
            if arr.ndim < 2:
                raise ValidationError(f"{name} must be a matrix or a stack of matrices, got ndim {arr.ndim}")
            object.__setattr__(self, name, arr)
        _seal(self)

    def __reduce__(self):
        # a copy or an unpickled instance keeps the read-only matrices and
        # the second hop's record, with an empty memo
        return _owned, (self.h0, self.h1, self.h2, *self._h2_draw)


def _seal(ch: ChannelSet, draw: np.ndarray | None = None, gain=1.0) -> None:
    """Make the matrices of ``ch`` read-only, give it an empty memo and
    record the unit-variance draw its h2 scales, with the draw's power
    gain (a float, or an array that broadcasts against the eigenvalues of
    the draw's Gram matrix): by default h2 itself at gain 1.0."""
    draw = ch.h2 if draw is None else draw
    ch.h0.flags.writeable = ch.h1.flags.writeable = ch.h2.flags.writeable = draw.flags.writeable = False
    object.__setattr__(ch, "_memo", {})
    object.__setattr__(ch, "_h2_draw", (draw, gain))


def _owned(h0: np.ndarray, h1: np.ndarray, h2: np.ndarray, draw: np.ndarray | None = None, gain=1.0) -> ChannelSet:
    """A ChannelSet of complex matrices (or stacks) that the package has
    just built and shares with no caller: they are made read-only in place
    rather than copied a second time.  ``draw`` and ``gain`` go to
    ``_seal``."""
    ch = object.__new__(ChannelSet)
    for name, arr in (("h0", h0), ("h1", h1), ("h2", h2)):
        object.__setattr__(ch, name, arr)
    _seal(ch, draw, gain)
    return ch


def _read_only(*values) -> None:
    """Make the arrays among ``values`` read-only; other values pass."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)


_MISSING = object()


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
        # a miss costs a lookup, not a raised KeyError
        value = ch._memo.get(key, _MISSING)
        if value is _MISSING:
            value = build(ch, *args)
            _read_only(value)
            value = ch._memo.setdefault(key, value)
        return value

    return memoized


@_memoized
def _g0(ch: ChannelSet) -> np.ndarray:
    """G0 = H0^H H0, the direct link's Gram matrix."""
    return conj_transpose(ch.h0) @ ch.h0


@_memoized
def _h1_gram(ch: ChannelSet) -> np.ndarray:
    """The Hermitian part of H1 H1^H: opt2's gain matrix, which the
    eigensolver needs exactly Hermitian, and the core of the shaping
    matrix C."""
    return hermitian_part(ch.h1 @ conj_transpose(ch.h1))


@dataclass(frozen=True)
class PowerBudget:
    """Average transmit power limits (linear units) for source and relay."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (_finite(self.p1) and self.p1 > 0.0):
            raise ValidationError(f"source power p1 must be a finite number > 0, got {self.p1!r}")
        if not (_finite(self.p2) and self.p2 >= 0.0):
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
        if not isinstance(self.direct_link_enabled, bool):
            raise ValidationError(f"direct_link_enabled must be True or False, got {self.direct_link_enabled!r}")


def _channel_shapes(dims: Dims) -> tuple:
    """The (rows, columns) of h0, h1 and h2 in a network of ``dims``."""
    return (dims.r, dims.t), (dims.s, dims.t), (dims.r, dims.u)


def _check_shapes(dims: Dims, ch: ChannelSet) -> None:
    shapes = (ch.h0.shape, ch.h1.shape, ch.h2.shape)
    for name, shape, got in zip(("h0", "h1", "h2"), _channel_shapes(dims), shapes):
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
    draws; every member is scaled alike.  The result records ``raw.h2``
    and its power gain a^2, from which the optimizers factorize the
    second hop; its figures agree with a ``ChannelSet``'s built by hand
    from the same scaled matrices to rounding level, not bit for bit, and
    its transforms up to per-mode phases.
    """
    dims = scn.dims
    _check_shapes(dims, raw)
    h0 = _amplitude(scn.rho0_db) * raw.h0 if scn.direct_link_enabled else np.zeros_like(raw.h0)
    a = _amplitude(scn.rho2_db)
    ch = _owned(h0, _amplitude(scn.rho1_db) * raw.h1, a * raw.h2, raw.h2, a * a)
    return ch, PowerBudget(p1=float(dims.t), p2=float(dims.u))
