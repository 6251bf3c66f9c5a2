"""Outside-in tracing of the program's layers.

A ``Tracer`` wraps each traced function at every module attribute its
callers look up (scanning the layer modules for the function object), and
at the ``montecarlo._BUILDERS`` entries the sweep engine dispatches
through.  While installed, every call records a span: its count, its
inclusive time and its self time (inclusive minus the time of the traced
calls it made).  Leaving the ``with`` block restores every attribute.

Two more wrappers only count: ``opt_capacity._phi`` calls, one per
evaluation of the capacity budget curve, and ``evaluate.capacity_forms``
results, kept so that the form gap is computed after the run, outside any
timed span.  These and ``_BUILDERS`` are the only private names used.
"""

from __future__ import annotations

import functools
import time

from relay_rtm import cli, evaluate, matalg, montecarlo, network, opt_capacity, opt_ostbc

LAYERS = {
    "montecarlo": montecarlo,
    "network": network,
    "matalg": matalg,
    "opt_capacity": opt_capacity,
    "opt_ostbc": opt_ostbc,
    "evaluate": evaluate,
    "cli": cli,
}

TRACED = (
    "montecarlo.run_sweep",
    "montecarlo.sample_channels",
    "network.translate_scenario",
    "network.validate",
    "matalg.herm_eig",
    "matalg.thin_ud",
    "opt_capacity.optimize_capacity_rtm",
    "opt_capacity.build_capacity_spectra",
    "opt_capacity.waterfill_capacity",
    "opt_capacity.assemble_rtm",
    "opt_ostbc.optimize_ostbc_rtm",
    "opt_ostbc.build_ostbc_spectra",
    "opt_ostbc.waterfill_ostbc",
    "evaluate.naf_rtm",
    "evaluate.capacity",
    "evaluate.ostbc_capacity",
    "cli.parse_config",
)
BUDGET_EVAL = "opt_capacity._phi"
FORMS = "evaluate.capacity_forms"


def _lookup(name: str):
    module, attr = name.split(".")
    return getattr(LAYERS[module], attr)


class Tracer:
    """Span statistics of the traced functions for the calls made while
    installed.  Single-threaded use only."""

    def __init__(self):
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}
        self.budget_evals = 0
        self.form_pairs = []
        self._stack = [0.0]  # time of traced children, one slot per open span
        self._patched = []

    def _span(self, name, fn):
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - children

        return wrapper

    def _count_budget_eval(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.budget_evals += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_forms(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pair = fn(*args, **kwargs)
            self.form_pairs.append(pair)
            return pair

        return wrapper

    def __enter__(self):
        wrappers = {id(_lookup(name)): self._span(name, _lookup(name)) for name in TRACED}
        wrappers[id(_lookup(BUDGET_EVAL))] = self._count_budget_eval(_lookup(BUDGET_EVAL))
        wrappers[id(_lookup(FORMS))] = self._record_forms(_lookup(FORMS))
        targets = [vars(m) for m in LAYERS.values()] + [montecarlo._BUILDERS]
        for namespace in targets:
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((namespace, key, value))
                    namespace[key] = wrapper
        return self

    def __exit__(self, *exc):
        for namespace, key, value in reversed(self._patched):
            namespace[key] = value
        self._patched.clear()
        return False

    def form_gap_max_bits(self) -> float:
        return max((abs(d - i) for d, i in self.form_pairs), default=0.0)
