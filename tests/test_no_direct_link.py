"""Networks without the direct link.

There opt1's gain matrix A = H1 (t/p1 I + H1^H H1)^-1 H1^H shares the
eigenbasis of H1 H1^H, with eigenvalues lam / (t/p1 + lam), so
``build_capacity_spectra`` reads its modes off opt2's factorization
instead of building and factorizing A.  The first two properties write
the general construction out in numpy and check the shortcut against it,
its capacities evaluated in mpmath, since float rounding exceeds 1e-12
bits at high SNR; the third checks that each optimizer beats the other
kinds on its own criterion, realization by realization.  One pinned draw
checks the KKT residuals where 1/(1 - alpha) is large.
"""

from dataclasses import replace

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import canonical_budget, crandn, db_to_lin
from relay_rtm.evaluate import capacity, naf_rtm, ostbc_capacity, verify_kkt_capacity
from relay_rtm.network import ChannelSet, Dims, PowerBudget
from relay_rtm.opt_capacity import assemble_rtm, build_capacity_spectra, optimize_capacity_rtm, waterfill_capacity
from relay_rtm.opt_ostbc import optimize_ostbc_rtm

_COUNTS = st.integers(1, 8)


def _network(seed, dims, rho1_db, rho2_db, orthogonal):
    """Rayleigh H1 and H2 at the given SNRs and H0 = 0; with
    ``orthogonal``, H1's columns (or rows, when t > s) are orthonormal
    before scaling, so its nonzero singular values all repeat."""
    rng = np.random.default_rng(seed)
    h1 = crandn(rng, (dims.s, dims.t))
    if orthogonal:
        q, _ = np.linalg.qr(h1 if dims.s >= dims.t else h1.conj().T)
        h1 = q if dims.s >= dims.t else q.conj().T
    h2 = crandn(rng, (dims.r, dims.u))
    h0 = np.zeros((dims.r, dims.t), dtype=complex)
    return ChannelSet(h0, np.sqrt(db_to_lin(rho1_db)) * h1, np.sqrt(db_to_lin(rho2_db)) * h2)


def _general_spectra(ch, pb, dims, spectra):
    """``spectra`` with its first hop built the general way: A formed by a
    solve, made Hermitian and factorized, its eigenvalues cut at
    1e-10 * max(lam_max, 1) and clamped below 1, and the mode costs read
    off its eigenvectors."""
    h1 = ch.h1
    g = (dims.t / pb.p1) * np.eye(dims.t) + h1.conj().T @ h1
    a = h1 @ np.linalg.solve(g, h1.conj().T)
    lam, u = np.linalg.eigh(0.5 * (a + a.conj().T))
    lam, u = lam[::-1], u[:, ::-1]
    lam = np.where(lam > 1e-10 * max(lam[0], 1.0), lam, 0.0)
    width = spectra.alpha.size
    cost = (u.conj() * (spectra.c_matrix @ u)).real.sum(axis=0)[:width]
    return replace(
        spectra,
        alpha=np.minimum(lam[:width], np.nextafter(1.0, 0.0)),
        beta=cost / spectra.lam_b_thin[:width],
        u_a_thin=u[:, :width],
        rho_a=int(np.count_nonzero(lam)),
    )


def _exact_bits(ch, pb, dims, x) -> float:
    """The capacity of X without the direct link, evaluated in 40-digit
    arithmetic: log2 det(I + p1/t H1^H (I - (I + K^H K)^-1) H1), K = H2 X."""
    mat = lambda a: mpmath.matrix(a.tolist())
    with mpmath.workdps(40):
        h1, k = mat(ch.h1), mat(ch.h2 @ x)
        eye = mpmath.eye(dims.s)
        phi = eye - mpmath.inverse(eye + k.H * k)
        m = mpmath.eye(dims.t) + (mpmath.mpf(pb.p1) / dims.t) * (h1.H * phi * h1)
        return float(mpmath.log(mpmath.re(mpmath.det(m)), 2))


def _networks(top_db):
    """Arguments of ``_network`` with dims <= 8 and SNRs in [-40, top_db]."""
    snr = st.floats(-40.0, top_db)
    return dict(seed=st.integers(0, 2**32 - 1), t=_COUNTS, r=_COUNTS, s=_COUNTS, u=_COUNTS,
                rho1_db=snr, rho2_db=snr, orthogonal=st.booleans())


#: The source power as a multiple of the canonical p1 = t, so that the
#: shift t/p1 of the gain map is not always 1.
_P1_SCALES = st.sampled_from([1.0, 0.1, 3.0])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(**_networks(60.0), p1_scale=_P1_SCALES)
def test_shortcut_matches_the_general_construction(seed, t, r, s, u, rho1_db, rho2_db, orthogonal, p1_scale):
    # A rank-deficient H1 (t < s) leaves rounding noise in H1 H1^H's null
    # space; the shortcut cuts it there, as opt2 does, before mapping.
    dims = Dims(t, r, s, u)
    ch = _network(seed, dims, rho1_db, rho2_db, orthogonal)
    pb = PowerBudget(p1_scale * t, float(u))
    spectra = build_capacity_spectra(ch, pb, dims)
    general = _general_spectra(ch, pb, dims, spectra)
    assert spectra.rho_a == general.rho_a
    assert np.abs(spectra.alpha - general.alpha).max(initial=0.0) <= 1e-12
    # Stationarity and dual feasibility are relative to the terms of each
    # multiplier, so the ulps of 1/(1 - alpha) ~ 1e7 (rho1 above ~50 dB
    # with a weak second hop) stay far below 1e-9; see the pinned draw below.
    wf = optimize_capacity_rtm(ch, pb, dims).wf
    kkt = verify_kkt_capacity(spectra.alpha, spectra.beta, pb.p2, wf)
    assert max(kkt.stationarity_residual, kkt.complementary_slackness,
               kkt.primal_feasibility, kkt.dual_feasibility) <= 1e-9


def test_kkt_residuals_are_free_of_the_rounding_of_large_terms():
    # rho1 60 dB over a -35 dB second hop: 1/(1 - alpha) reaches ~1.9e7, and
    # stationarity and dual feasibility read 3.7e-9 (its ulps) as absolute
    # residuals
    dims = Dims(8, 8, 5, 7)
    ch = _network(4, dims, 60.0, -35.0, False)
    pb = canonical_budget(dims)
    sol = optimize_capacity_rtm(ch, pb, dims)
    assert 1.0 / (1.0 - sol.spectra.alpha.max()) > 1e7
    kkt = verify_kkt_capacity(sol.spectra.alpha, sol.spectra.beta, pb.p2, sol.wf)
    assert max(kkt.stationarity_residual, kkt.complementary_slackness,
               kkt.primal_feasibility, kkt.dual_feasibility) <= 1e-9


@settings(derandomize=True, max_examples=40, deadline=None)
@given(**_networks(60.0), p1_scale=_P1_SCALES)
def test_shortcut_transform_has_the_general_capacity(seed, t, r, s, u, rho1_db, rho2_db, orthogonal, p1_scale):
    # both transforms evaluated exactly: the float evaluation of either
    # moves by more than 1e-12 bits at high SNR (1.1e-12 at 55 dB here)
    dims = Dims(t, r, s, u)
    ch = _network(seed, dims, rho1_db, rho2_db, orthogonal)
    pb = PowerBudget(p1_scale * t, float(u))
    sol = optimize_capacity_rtm(ch, pb, dims)
    general = _general_spectra(ch, pb, dims, sol.spectra)
    x = assemble_rtm(general, waterfill_capacity(general.alpha, general.beta, pb.p2)).x_matrix
    assert abs(_exact_bits(ch, pb, dims, sol.x_matrix) - _exact_bits(ch, pb, dims, x)) <= 1e-12


@settings(derandomize=True, max_examples=150, deadline=None)
@given(**_networks(50.0))
def test_each_optimizer_dominates_on_its_criterion(seed, t, r, s, u, rho1_db, rho2_db, orthogonal):
    # without the direct link opt1 is capacity-optimal and opt2
    # OSTBC-optimal, so each beats the other kinds on its own metric, up to
    # rounding (-1e-9 bits); above 50 dB the capacity forms' own rounding
    # grows past that
    dims = Dims(t, r, s, u)
    ch = _network(seed, dims, rho1_db, rho2_db, orthogonal)
    pb = canonical_budget(dims)
    xs = {kind: solve(ch, pb, dims).x_matrix
          for kind, solve in (("opt1", optimize_capacity_rtm), ("opt2", optimize_ostbc_rtm), ("naf", naf_rtm))}
    cap = {kind: capacity(ch, pb, dims, x).bits for kind, x in xs.items()}
    ost = {kind: ostbc_capacity(ch, pb, dims, x).bits for kind, x in xs.items()}
    assert min(cap["opt1"] - cap["opt2"], cap["opt1"] - cap["naf"]) >= -1e-9
    assert min(ost["opt2"] - ost["opt1"], ost["opt2"] - ost["naf"]) >= -1e-9
