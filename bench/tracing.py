"""Spans around the library's public functions, recorded from outside it.

`install()` wraps each function listed in LAYERS at every name it is bound
to inside the `usc_relax` package, so callers that did
`from .eigen import diagonalize` are traced too.  Each call records a span
(id, parent id, layer, start, end) and the layer's counts; spans stay in
memory until `dump()`.  A function that no longer exists is listed as
absent instead of failing the run.  `layer_totals()` derives each layer's
self time: its spans' durations minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _dim3(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return {"eigen.dim3_sum": op.dim ** 3}


def _calls(metric):
    return lambda args, kwargs, result: {metric: 1}


def _generator(args, kwargs, result):
    arrays = [result] if hasattr(result, "nbytes") else list(vars(result).values())
    return {
        "lindblad.assemble_calls": 1,
        "lindblad.generator_bytes": sum(a.nbytes for a in arrays if hasattr(a, "nbytes")),
    }


def _spectrum(args, kwargs, result):
    lv = args[0] if args else kwargs["lv"]
    return {"lindblad.spectrum_dim3_sum": lv.matrix.shape[0] ** 3}


def _lines(args, kwargs, result):
    return {"response.lines": len(result.peaks)}


def _scan(args, kwargs, result):
    return {"scan.points": result.values.size, "scan.failed_points": len(result.failures)}


# layer -> (module, {function: count hook or None})
LAYERS = {
    "operators.build": ("usc_relax.operators", {
        "build_rabi": _calls("operators.build_calls"),
        "build_polaron_rabi": _calls("operators.build_calls"),
    }),
    "eigen.diagonalize": ("usc_relax.eigen", {
        "diagonalize": lambda a, k, r: {"eigen.diagonalize_calls": 1, **_dim3(a, k, r)},
    }),
    "eigen.certify": ("usc_relax.eigen", {
        "certified_eigensystem": _calls("eigen.certify_calls"),
        "convergence_check": None,
    }),
    "grwa": ("usc_relax.grwa", {
        "symmetric_levels": _calls("grwa.calls"),
        "asymmetric_levels": _calls("grwa.calls"),
        "rabi_frequency": _calls("grwa.calls"),
    }),
    "lindblad.assemble": ("usc_relax.lindblad", {
        "build_liouvillian": _generator,
        "lindblad_superoperator": _generator,
    }),
    "lindblad.spectrum": ("usc_relax.lindblad", {
        "liouvillian_eigenvalues": _spectrum,
        "liouvillian_gap": None,
    }),
    "lindblad.propagate": ("usc_relax.lindblad", {"evolve": _calls("lindblad.propagate_calls")}),
    "lindblad.fit": ("usc_relax.lindblad", {"fit_rabi_decay": None}),
    "dynamics.run": ("usc_relax.dynamics", {"run_tunneling_oscillations": None}),
    "response.structure_factor": ("usc_relax.response", {
        "cavity_structure_factor": _lines,
        "dipole_structure_factor": _lines,
    }),
    "response.transmission": ("usc_relax.response", {"transmission": None, "system_impedance": None}),
    "edm.rates": ("usc_relax.edm", {"gamma_T": _calls("edm.rate_calls"), "total_rate": None}),
    "edm.ladder_evolve": ("usc_relax.edm", {"effective_dipole_evolve": None}),
    "dipole.tla": ("usc_relax.dipole", {"tla_parameters": None}),
    "scan.gap_scan": ("usc_relax.scan", {"gap_scan": _scan}),
    "scan.emit": ("usc_relax.scan", {"write_table": None}),
    "config.load": ("usc_relax.config", {
        "load_config": None,
        "apply_overrides": None,
        "parse_config": None,
    }),
    "cli.main": ("usc_relax.cli", {"main": None}),
}

COUNTS = (
    "operators.build_calls",
    "eigen.diagonalize_calls",
    "eigen.dim3_sum",
    "eigen.certify_calls",
    "grwa.calls",
    "lindblad.assemble_calls",
    "lindblad.generator_bytes",
    "lindblad.spectrum_dim3_sum",
    "lindblad.propagate_calls",
    "response.lines",
    "edm.rate_calls",
    "scan.points",
    "scan.failed_points",
)


class Recorder:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors = 0
        self._stack = [-1]
        self._next_id = 0

    def wrap(self, layer: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, layer, start, end))
            if hook is not None:
                try:
                    for key, value in hook(args, kwargs, result).items():
                        self.counts[key] += value
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.hook_errors += 1
            return result

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }


def install() -> Recorder:
    """Wrap every function in LAYERS wherever the package binds it."""
    import importlib

    rec = Recorder()
    for layer, (module_name, functions) in LAYERS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            rec.absent.extend(f"{module_name}.{f}" for f in functions)
            continue
        for fname, hook in functions.items():
            original = getattr(module, fname, None)
            if original is None:
                rec.absent.append(f"{module_name}.{fname}")
                continue
            wrapper = rec.wrap(layer, original, hook)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("usc_relax"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return rec


def layer_totals(spans) -> dict[str, float]:
    """Self time per layer: span durations minus their direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, layer, start, end in spans:
        totals[layer] += (end - start) - child_time[span_id]
    return dict(totals)
