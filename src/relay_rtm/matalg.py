"""Dense complex-matrix primitives for the relay optimizers.

Problem sizes are a handful of antennas, so everything is dense
double-precision complex and LAPACK (via numpy) is the only backend worth
having.  All functions are pure: safe to call concurrently, though
threads add no throughput (numpy holds the GIL outside LAPACK, so caller
threads mostly wait on each other; ``run_sweep(workers=...)`` runs
processes).

``hermitian_part``, ``herm_eig`` and ``thin_ud`` accept a stack of
matrices (any leading batch axes, ``(..., n, n)``) as well as a single
matrix; numpy's batched ``eigh`` factorizes each member exactly as it
would factorize it alone, so a member's result does not depend on the
stack it is in.  For one matrix, ``thin_ud`` scales its eigenvalues and
makes its PSD check and rank cut on the eigenvalue list with the
operations of the stack path, which skips numpy's cost per call.

The eigensolver reads one triangle, so the package symmetrizes exactly
the matrices it factorizes: ``hermitian_part`` of B0 = H2^H H2 of the
second hop's unit-variance draw (``thin_ud`` scales its eigenvalues to
those of B), of H1 H1^H and, with the direct link, of opt1's gain matrix
A (without it opt1 reads H1 H1^H's factorization), which ``herm_eig``
then clears with one exact comparison (any other input has its asymmetry
measured against 1e-12).  Matrices that only feed a log-det, a solve or a trace stay
Hermitian up to rounding, which those need no better.

``_numbers`` is the package's one conversion of an input to a numeric
array: a value that holds strings, numeric or not (also as entries of an
object array), or that numpy cannot convert (an object, a ragged nesting)
raises a ValidationError that names the input, not numpy's bare
``ValueError`` or ``TypeError`` or a quiet parse of ``"1"``.  Channel
matrices, transforms, matrices given to ``herm_eig`` and mode vectors all
go through it.

Every LAPACK call of the package goes through ``_solve``, ``_slogdet``
and ``_eigh`` here.  Each calls the gufunc of
``numpy.linalg._umath_linalg``, numpy's own backend for ``numpy.linalg``,
with the complex signature ``numpy.linalg`` picks for complex128 input.
At a handful of antennas the LAPACK work is a few microseconds, and
``numpy.linalg``'s Python wrapper (array conversion, type resolution, the
square check, result casts) costs about as much again on every call.
Every input is already complex128, so a kernel makes the wrapper's LAPACK
call on the same bytes and returns the same result.  ``_solve`` and
``_eigh`` run under the wrapper's ``np.errstate``, so a singular system or
a failed eigensolve raises ``LinAlgError`` with numpy's message, and
``_slogdet`` of a singular matrix gives numpy's ``(0, -inf)``.  Tested on
numpy 2.4; ``_umath_linalg`` is private to numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ValidationError

__all__ = [
    "HermEig",
    "ThinUd",
    "herm_eig",
    "thin_ud",
    "hermitian_part",
    "conj_transpose",
    "DEFAULT_RANK_TOL",
]

#: Relative rank cutoff for thin diagonalizations (floored at absolute 1e-10).
DEFAULT_RANK_TOL = 1e-10

_HERM_ATOL = 1e-12


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix (or of each in a stack).

    ``eigenvalues`` are real and sorted nonincreasing along the last axis;
    column ``i`` of ``eigenvectors`` pairs with ``eigenvalues[..., i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ThinUd:
    """Rank-truncated unitary diagonalization of a Hermitian PSD matrix.

    ``u_thin`` is an n-by-m semi-unitary factor (``u_thin^H u_thin = I_m``)
    and ``lam_thin`` holds the m retained eigenvalues, all strictly
    positive and nonincreasing.  For a stack, ``rank`` is the array of
    member ranks and m is the largest of them; ``lam_thin`` is zero past a
    member's own rank, where ``u_thin`` keeps the member's eigenvectors.
    ``u_thin``'s batch axes broadcast against ``lam_thin``'s, which may
    have more (``thin_ud``'s gains).
    """

    u_thin: np.ndarray
    lam_thin: np.ndarray
    rank: int | np.ndarray


def _any(mask) -> bool:
    """Whether a numpy boolean array or scalar has a true entry.  A lone
    value skips numpy's reduction, which costs microseconds per call."""
    return bool(mask.any() if mask.ndim else mask)


def _numbers(name: str, value, dtype) -> np.ndarray:
    """``np.asarray(value, dtype=dtype)``; a value that does not convert
    (an object, a ragged nesting) or holds strings, numeric or not, raises
    a ValidationError that names the input.  An ndarray pays only its
    dtype test; an object array also tests each entry for a string, which
    numpy would parse."""
    try:
        array = value if isinstance(value, np.ndarray) else np.asarray(value)
        kind = array.dtype.kind
        if kind in "US" or kind == "O" and any(isinstance(v, (str, bytes)) for v in array.flat):
            raise TypeError(f"got {array.dtype} strings")
        return np.asarray(array, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold numbers: {exc}") from None


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 B of complex128 matrices, or of each pair in broadcast stacks:
    ``np.linalg.solve`` without its wrapper."""
    return _umath_linalg.solve(a, b, signature="DD->D")


def _slogdet(a: np.ndarray) -> tuple:
    """Sign and log |det| of a complex128 matrix, or of each in a stack:
    ``np.linalg.slogdet`` without its wrapper."""
    return _umath_linalg.slogdet(a, signature="D->Dd")


@np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _eigh(a: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvectors of a complex128 Hermitian
    matrix from its lower triangle, or of each in a stack:
    ``np.linalg.eigh`` without its wrapper."""
    return _umath_linalg.eigh_lo(a, signature="D->dD")


@functools.lru_cache(maxsize=64)
def _eye(n: int) -> np.ndarray:
    """The n x n float identity, built once per n and shared read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=64)
def _arange(n: int) -> np.ndarray:
    """``np.arange(n)``, built once per n and shared read-only."""
    index = np.arange(n)
    index.flags.writeable = False
    return index


def conj_transpose(m: np.ndarray) -> np.ndarray:
    """M^H of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M^H)/2 of a float or complex M (or of each matrix in a
    stack) as a new array, exactly Hermitian in floating point."""
    out = m + conj_transpose(m)
    out *= 0.5
    return out


def _fix_phases(v: np.ndarray) -> np.ndarray:
    # Reproducible eigenvector representatives: rotate each column so its
    # largest-magnitude entry (first such index on ties) is real positive.
    # Eigenvectors have unit norm, so that entry is never zero.  One matrix
    # picks its entries in place; a stack is flattened to one batch axis.
    n = v.shape[-1]
    if v.ndim == 2:
        lead = v[np.abs(v).argmax(axis=0), _arange(n)]
        return v / (lead / np.abs(lead))
    flat = v.reshape(-1, n, n)
    lead = flat[np.arange(len(flat))[:, None], np.abs(flat).argmax(axis=1), np.arange(n)]
    lead = lead.reshape(v.shape[:-2] + (1, n))
    return v / (lead / np.abs(lead))


def herm_eig(m: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Eigenvalues are returned nonincreasing.  Ties keep the order produced
    by the underlying LAPACK factorization (which is deterministic for
    identical input), and every eigenvector is re-phased so that its
    largest-magnitude component is real positive, making repeated calls
    bit-reproducible.  Every entry must be finite, and the maximum
    elementwise asymmetry |m - m^H| must not exceed 1e-12.  ``m`` may be
    a stack ``(..., n, n)``.
    """
    m = _numbers("matrix", m, complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {m.shape}")
    # the package passes finite, exactly Hermitian matrices, which one
    # comparison clears; any other input is measured against the bound,
    # its asymmetry only once its entries are known to be finite, so that
    # numpy warns of no invalid subtraction first
    if not (np.isfinite(m) & (m == conj_transpose(m))).all():
        if not np.isfinite(m).all():
            raise ValidationError("matrix has non-finite entries")
        with np.errstate(over="ignore"):
            asym = float(np.abs(m - conj_transpose(m)).max(initial=0.0))
        if not asym <= _HERM_ATOL:
            raise ValidationError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {_HERM_ATOL:.3e}"
            )
    w, v = _eigh(m)
    return HermEig(eigenvalues=w[..., ::-1], eigenvectors=_fix_phases(v[..., ::-1]))


def thin_ud(m: np.ndarray, *, _gain=1.0) -> ThinUd:
    """Thin unitary diagonalization of a Hermitian PSD matrix.

    Eigenpairs with eigenvalue above ``DEFAULT_RANK_TOL * max(lam_max, 1)``
    are retained; negative round-off eigenvalues are clamped to zero first.
    Eigenvalues below ``-1e-10 * max(lam_max, 1)`` fail the PSD check, and
    eigenvalues that overflow float64 raise a ValidationError.  ``m`` may
    be a stack ``(..., n, n)``; see ``ThinUd`` for the result.

    Inside the package, ``_gain`` gives the diagonalization of ``_gain *
    m`` from m's eigenvectors: the eigenvalues are scaled before the PSD
    check and the cut, which are not scale-free.  An array of gains may
    add batch axes, which the eigenvalues then have and the eigenvectors
    do not (a second hop swept along rho2).  A gain of 1.0 leaves every
    eigenvalue's bits as they are.
    """
    eig = herm_eig(m)
    w = eig.eigenvalues
    if w.ndim == 1:
        # one matrix: the same operations on Python floats, which skip
        # numpy's cost per call
        w = [v * _gain for v in w.tolist()]
        floor = max(w[0], 1.0)
        if floor == np.inf:
            raise ValidationError("matrix eigenvalues overflow float64")
        if w[-1] < -1e-10 * floor:
            raise ValidationError(f"matrix is not positive semidefinite: smallest eigenvalue {w[-1]:.3e}")
        cut = DEFAULT_RANK_TOL * floor
        rank = sum(v > cut for v in w)
        return ThinUd(eig.eigenvectors[:, :rank], np.array([v if v > cut else 0.0 for v in w[:rank]]), rank)
    w = w * _gain
    floor = np.maximum(w[..., :1], 1.0)
    if _any(floor == np.inf):
        raise ValidationError("matrix eigenvalues overflow float64")
    bad = w[..., -1:] < -1e-10 * floor
    if _any(bad):
        raise ValidationError(
            f"matrix is not positive semidefinite: smallest eigenvalue {w[..., -1:][bad][0]:.3e}"
        )
    keep = w > DEFAULT_RANK_TOL * floor
    rank = keep.sum(axis=-1)
    width = int(rank.max(initial=0))
    return ThinUd(
        u_thin=eig.eigenvectors[..., :width],
        lam_thin=np.where(keep, w, 0.0)[..., :width],
        rank=rank,
    )
