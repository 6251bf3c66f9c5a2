"""Optimal relay transform matrices for two-hop amplify-and-forward MIMO
relay networks with a direct link, under the capacity and OSTBC-capacity
criteria, plus a seeded Monte Carlo engine for ergodic-capacity sweeps.
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

__all__ = [
    "RelayRtmError",
    "ValidationError",
    "DeadRelayError",
    "NumericalError",
    "ConfigError",
    "DeadRelayWarning",
    "HermEig",
    "ThinUd",
    "herm_eig",
    "thin_ud",
    "Dims",
    "ChannelSet",
    "PowerBudget",
    "SnrScenario",
    "translate_scenario",
    "validate",
    "SpectraBundle",
    "WaterfillSolution",
    "RtmSolution",
    "build_capacity_spectra",
    "waterfill_capacity",
    "assemble_rtm",
    "optimize_capacity_rtm",
    "build_ostbc_spectra",
    "waterfill_ostbc",
    "optimize_ostbc_rtm",
    "CapacityReport",
    "KktReport",
    "capacity",
    "capacity_forms",
    "ostbc_capacity",
    "naf_rtm",
    "verify_kkt_capacity",
    "SweepSpec",
    "CurvePoint",
    "sample_channels",
    "run_sweep",
    "__version__",
]
