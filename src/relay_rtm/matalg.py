"""Dense complex-matrix primitives for the relay optimizers.

Problem sizes are a handful of antennas, so everything is dense
double-precision complex and LAPACK (via numpy) is the only backend worth
having.  All functions are pure: safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "HermEig",
    "ThinUd",
    "herm_eig",
    "thin_ud",
    "inv_sqrt_diag",
    "hermitian_part",
    "DEFAULT_RANK_TOL",
]

#: Relative rank cutoff for thin diagonalizations (floored at absolute 1e-10).
DEFAULT_RANK_TOL = 1e-10

_HERM_ATOL = 1e-12


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted nonincreasing; column ``i`` of
    ``eigenvectors`` pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ThinUd:
    """Rank-truncated unitary diagonalization of a Hermitian PSD matrix.

    ``u_thin`` is an n-by-m semi-unitary factor (``u_thin^H u_thin = I_m``)
    and ``lam_thin`` holds the m retained eigenvalues, all strictly
    positive and nonincreasing.
    """

    u_thin: np.ndarray
    lam_thin: np.ndarray
    rank: int


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M^H)/2, which is exactly Hermitian in floating point."""
    return 0.5 * (m + m.conj().T)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    # Reproducible eigenvector representatives: rotate each column so its
    # largest-magnitude entry (first such index on ties) is real positive.
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mag = np.abs(lead)
    phase = np.where(mag > 0.0, lead / np.where(mag > 0.0, mag, 1.0), 1.0)
    return v / phase


def herm_eig(m: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Eigenvalues are returned nonincreasing.  Ties keep the order produced
    by the underlying LAPACK factorization (which is deterministic for
    identical input), and every eigenvector is re-phased so that its
    largest-magnitude component is real positive, making repeated calls
    bit-reproducible.  The maximum elementwise asymmetry |m - m^H| must
    not exceed 1e-12.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > _HERM_ATOL:
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {_HERM_ATOL:.3e}"
        )
    w, v = np.linalg.eigh(m)
    return HermEig(eigenvalues=w[::-1].copy(), eigenvectors=_fix_phases(v[:, ::-1]))


def thin_ud(m: np.ndarray) -> ThinUd:
    """Thin unitary diagonalization of a Hermitian PSD matrix.

    Eigenpairs with eigenvalue above ``DEFAULT_RANK_TOL * max(lam_max, 1)``
    are retained; negative round-off eigenvalues are clamped to zero first.
    Eigenvalues below ``-1e-10 * max(lam_max, 1)`` fail the PSD check.
    """
    eig = herm_eig(m)
    w = eig.eigenvalues
    top = float(w[0])
    if float(w[-1]) < -1e-10 * max(top, 1.0):
        raise ValidationError(
            f"matrix is not positive semidefinite: smallest eigenvalue {w[-1]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    cut = DEFAULT_RANK_TOL * max(top, 1.0)
    rank = int(np.sum(w > cut))
    return ThinUd(
        u_thin=eig.eigenvectors[:, :rank].copy(),
        lam_thin=w[:rank].copy(),
        rank=rank,
    )


def inv_sqrt_diag(lam: np.ndarray) -> np.ndarray:
    """Elementwise lam^(-1/2); entries must be strictly positive."""
    lam = np.asarray(lam, dtype=float)
    if lam.size and float(lam.min()) <= 0.0:
        raise ValidationError("inv_sqrt_diag requires strictly positive entries")
    return lam ** -0.5

