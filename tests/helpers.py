"""Shared helpers for the test suite."""

import numpy as np

from relay_rtm import evaluate, matalg, montecarlo, network, opt_capacity, opt_ostbc
from relay_rtm.montecarlo import sample_channels
from relay_rtm.network import ChannelSet, Dims, PowerBudget

#: one "ACCEPTANCE n: PASS/FAIL" line per criterion, echoed by conftest's
#: terminal summary so they stay visible under output capture
ACCEPTANCE_LINES = []


def crandn(rng, shape):
    """Unit-variance circular complex Gaussian array."""
    z = rng.standard_normal((2, *shape))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def db_to_lin(db):
    return 10.0 ** (db / 10.0)


def scaled_channels(rng, dims: Dims, rho0_db=None, rho1_db=10.0, rho2_db=10.0):
    """Rayleigh channels scaled to per-link SNRs; rho0_db=None disables the
    direct link.  Pair with canonical_budget(dims)."""
    if rho0_db is None:
        h0 = np.zeros((dims.r, dims.t), dtype=complex)
    else:
        h0 = np.sqrt(db_to_lin(rho0_db)) * crandn(rng, (dims.r, dims.t))
    h1 = np.sqrt(db_to_lin(rho1_db)) * crandn(rng, (dims.s, dims.t))
    h2 = np.sqrt(db_to_lin(rho2_db)) * crandn(rng, (dims.r, dims.u))
    return ChannelSet(h0=h0, h1=h1, h2=h2)


def edited_sampler(edit):
    """A stand-in for ``sample_channels`` that passes each trial's draw
    through ``edit(trial, raw)``; like the sampler, it takes one trial
    index or a range of them."""

    def channels(dims, seed, trial_index):
        if isinstance(trial_index, range):
            members = [channels(dims, seed, trial) for trial in trial_index]
            return ChannelSet(*(np.stack([getattr(m, name) for m in members]) for name in ("h0", "h1", "h2")))
        return edit(trial_index, sample_channels(dims, seed, trial_index))

    return channels


def count_calls(monkeypatch, fn):
    """Replace ``fn`` wherever a package module holds it by a wrapper that
    counts its calls; returns the list of calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (montecarlo, network, matalg, opt_capacity, opt_ostbc, evaluate):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counting)
    return calls


def canonical_budget(dims: Dims) -> PowerBudget:
    return PowerBudget(p1=float(dims.t), p2=float(dims.u))


def scalar_network():
    """The worked 1x1x1x1 example: h0=0, h1=1, h2=1."""
    dims = Dims(1, 1, 1, 1)
    ch = ChannelSet(
        h0=np.zeros((1, 1)), h1=np.ones((1, 1)), h2=np.ones((1, 1))
    )
    return dims, ch
