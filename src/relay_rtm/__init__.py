"""Optimal relay transform matrices for two-hop amplify-and-forward MIMO
relay networks with a direct link, under the capacity and OSTBC-capacity
criteria, plus a seeded Monte Carlo engine for ergodic-capacity sweeps.

The names imported below are the public API; no module keeps an export
list.  ``from relay_rtm import *`` therefore also binds the submodule
names (``errors``, ``evaluate``, ...), and not ``__version__``.
"""

from .errors import (
    ConfigError,
    DeadRelayError,
    DeadRelayWarning,
    NumericalError,
    RelayRtmError,
    ValidationError,
)
from .evaluate import (
    CapacityReport,
    KktReport,
    capacity,
    capacity_forms,
    naf_rtm,
    ostbc_capacity,
    verify_kkt_capacity,
)
from .matalg import HermEig, ThinUd, herm_eig, thin_ud
from .montecarlo import CurvePoint, SweepSpec, run_sweep, sample_channels
from .network import (
    ChannelSet,
    Dims,
    PowerBudget,
    SnrScenario,
    translate_scenario,
    validate,
)
from .opt_capacity import (
    RtmSolution,
    SpectraBundle,
    WaterfillSolution,
    assemble_rtm,
    build_capacity_spectra,
    optimize_capacity_rtm,
    waterfill_capacity,
)
from .opt_ostbc import build_ostbc_spectra, optimize_ostbc_rtm, waterfill_ostbc

__version__ = "0.1.0"
