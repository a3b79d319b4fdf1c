"""Span tracer that measures modlab's layers from outside the package.

``Tracer`` rebinds each function in ``TRACED`` at every ``modlab.*`` module
attribute that holds it (``cli``, ``scenario`` and ``correlator`` import
names directly, so patching the defining module alone would miss their
calls) and wraps the ``SpectralAmplitudes.a_at``/``b_at`` class attributes.
Each call records a span: name, start, end, parent span and operation id.
Spans stay in flat in-memory columns (the sampled-amplitude workload records
about half a million per operation) and are written out by ``save``.

A traced name that no longer exists, or that no module binds, raises
``TracingError``: a rename must fail the traced run, not report a zero layer.
"""

import functools
import hashlib
import importlib
import inspect
import math
import pickle
import sys
import time
from array import array

import numpy as np

# (module, attribute) under the modlab package; "Class.method" wraps a method
TRACED = (
    ("cli", "main"),
    ("cli", "parse_config"),
    ("cli", "emit_trace"),
    ("cli", "run_validate"),
    ("correlator", "singles_rate"),
    ("correlator", "coincidence_trace"),
    ("correlator", "coincidence_full"),
    ("correlator", "sideband_areas"),
    ("numerics", "adaptive_simpson"),
    ("spdc_core", "SpectralAmplitudes.a_at"),
    ("spdc_core", "SpectralAmplitudes.b_at"),
    ("spdc_core", "propagate_envelopes"),
    ("modulation", "sinusoidal_coeffs"),
    ("modulation", "coeffs_from_waveform"),
    ("modulation", "compose_nonlocal"),
    ("modulation", "bessel_j_series"),
    ("scenario", "fit_scale"),
    ("scenario", "synthesize_counts"),
)
LABELS = tuple(f"{module}.{attr}" for module, attr in TRACED)


class TracingError(RuntimeError):
    """The tracer could not cover a named function, or its spans are inconsistent."""


class Tracer:
    """Context manager: installs the span wrappers on entry, removes them on exit.

    One tracer covers one operation (``op_id``). Besides spans it counts
    integrand evaluations, RK4 pair steps, emitted CSV rows, fit iterations
    and the distinct inputs of ``singles_rate`` at the same boundaries.
    """

    def __init__(self, op_id):
        self.op_id = op_id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self._stack = []
        self._undo = []
        self.integrand_evals = 0
        self.rk4_pair_steps = 0
        self.emitted_rows = 0
        self.fit_iterations = 0
        self.singles_inputs = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        loaded = [mod for name, mod in list(sys.modules.items())
                  if name == "modlab" or name.startswith("modlab.")]
        try:
            for index, (module, attr) in enumerate(TRACED):
                self._install(index, importlib.import_module(f"modlab.{module}"), attr, loaded)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _install(self, index, home, attr, loaded):
        label = LABELS[index]
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            original = vars(owner).get(method) if isinstance(owner, type) else None
            if not callable(original):
                raise TracingError(f"modlab.{label} no longer exists; update {__file__}")
            self._patch(owner, method, self._wrap(index, original))
            return
        original = getattr(home, attr, None)
        if not callable(original):
            raise TracingError(f"modlab.{label} no longer exists; update {__file__}")
        wrapper = self._wrap(index, original, *self._hooks(label, original))
        bindings = [(mod, key) for mod in loaded
                    for key, value in list(vars(mod).items()) if value is original]
        if not bindings:
            raise TracingError(f"no modlab module binds {label}; nothing was patched")
        for mod, key in bindings:
            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- spans and counters -------------------------------------------------

    def _wrap(self, index, fn, before=None, after=None):
        clock = time.perf_counter
        start, end, parent, name, stack = (self.start, self.end, self.parent,
                                           self.name, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(index)
            end.append(math.nan)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, label, fn):
        """(before, after) callbacks that count work at this boundary."""
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            return call

        if label == "numerics.adaptive_simpson":
            def count_integrand(args, kwargs):
                call = bound(args, kwargs)
                integrand = call.arguments["f"]

                def counted(x):
                    self.integrand_evals += 1
                    return integrand(x)

                call.arguments["f"] = counted
                return call.args, call.kwargs
            return count_integrand, None
        if label == "spdc_core.propagate_envelopes":
            def count_steps(args, kwargs):
                call = bound(args, kwargs)
                pairs = (call.arguments["grid"].points + 1) // 2
                self.rk4_pair_steps += pairs * call.arguments["steps"]
                return args, kwargs
            return count_steps, None
        if label == "cli.emit_trace":
            def count_rows(args, kwargs):
                self.emitted_rows += len(bound(args, kwargs).arguments["trace"].delta_axis)
                return args, kwargs
            return count_rows, None
        if label == "correlator.singles_rate":
            def record_inputs(args, kwargs):
                call = bound(args, kwargs)
                key = pickle.dumps((call.arguments["amps"], call.arguments["mod"],
                                    call.arguments["filt"], call.arguments["convention"]))
                self.singles_inputs.append(hashlib.sha256(key).hexdigest())
                return args, kwargs
            return record_inputs, None
        if label == "scenario.fit_scale":
            def count_iterations(result):
                self.fit_iterations += result.iterations
            return None, count_iterations
        return None, None

    # -- analysis -------------------------------------------------------------

    def columns(self):
        return (np.frombuffer(self.start, dtype=float), np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.uint16))

    def span_times(self):
        """Per-label (calls, inclusive seconds, self seconds) after checking nesting.

        A span's self time is its duration minus the durations of its direct
        children; children run sequentially inside their parent.
        """
        start, end, parent, name = self.columns()
        if np.isnan(end).any():
            raise TracingError("a span was never closed")
        duration = end - start
        nested = parent >= 0
        up = parent[nested]
        if ((start[nested] < start[up]).any() or (end[nested] > end[up]).any()
                or (up >= np.flatnonzero(nested)).any()):
            raise TracingError("a span does not nest inside its parent")
        children = np.bincount(up, weights=duration[nested], minlength=len(start))
        own = duration - children
        n = len(LABELS)
        return (np.bincount(name, minlength=n),
                np.bincount(name, weights=duration, minlength=n),
                np.bincount(name, weights=own, minlength=n))

    def layer_metrics(self, traced_wall, overhead):
        """Per-layer metrics of the operation, plus the consistency checks.

        The self times of all spans must add up to the traced wall time of
        the operation's modlab calls, short by at most the tracing overhead
        measured against the untraced run (plus 1 ms of glue between calls).
        """
        calls, incl, own = self.span_times()
        at = {label: i for i, label in enumerate(LABELS)}
        total_self = float(own.sum())
        gap = traced_wall - total_self
        if not -1e-6 <= gap <= abs(overhead) + 1e-3:
            raise TracingError(
                f"span self times sum to {total_self:.6f} s, traced wall time is "
                f"{traced_wall:.6f} s, measured overhead {overhead:.6f} s")
        lookups = [at["spdc_core.SpectralAmplitudes.a_at"], at["spdc_core.SpectralAmplitudes.b_at"]]
        singles = int(calls[at["correlator.singles_rate"]])
        emit_s = float(incl[at["cli.emit_trace"]])
        metrics = {
            "cli.emit_trace_s": emit_s,
            "cli.emit_us_per_row": 1e6 * emit_s / self.emitted_rows if self.emitted_rows else 0.0,
            "cli.parse_config_s": float(incl[at["cli.parse_config"]]),
            "cli.run_validate_s": float(incl[at["cli.run_validate"]]),
            "correlator.singles_rate_s": float(incl[at["correlator.singles_rate"]]),
            "correlator.singles_rate_calls": singles,
            "correlator.singles_distinct_ratio":
                len(set(self.singles_inputs)) / singles if singles else 0.0,
            "correlator.coincidence_trace_self_s": float(own[at["correlator.coincidence_trace"]]),
            "correlator.coincidence_full_self_s": float(own[at["correlator.coincidence_full"]]),
            "correlator.sideband_areas_s": float(incl[at["correlator.sideband_areas"]]),
            "numerics.adaptive_simpson_s": float(incl[at["numerics.adaptive_simpson"]]),
            "numerics.adaptive_simpson_calls": int(calls[at["numerics.adaptive_simpson"]]),
            "numerics.integrand_evals": self.integrand_evals,
            "spdc_core.amplitude_lookups": int(calls[lookups].sum()),
            "spdc_core.amplitude_lookup_s": float(incl[lookups].sum()),
            "spdc_core.propagate_envelopes_s": float(incl[at["spdc_core.propagate_envelopes"]]),
            "spdc_core.rk4_pair_steps": self.rk4_pair_steps,
            "modulation.sinusoidal_coeffs_s": float(incl[at["modulation.sinusoidal_coeffs"]]),
            "modulation.coeffs_from_waveform_s":
                float(incl[at["modulation.coeffs_from_waveform"]]),
            "modulation.compose_nonlocal_s": float(incl[at["modulation.compose_nonlocal"]]),
            "modulation.bessel_j_series_calls": int(calls[at["modulation.bessel_j_series"]]),
            "scenario.fit_scale_s": float(incl[at["scenario.fit_scale"]]),
            "scenario.fit_iterations": self.fit_iterations,
            "scenario.synthesize_counts_s": float(incl[at["scenario.synthesize_counts"]]),
            "trace.overhead_s": overhead,
        }
        layer_self = {}
        for label, seconds in zip(LABELS, own):
            layer = label.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(seconds)
        checks = {"spans": len(self.start), "self_time_sum_s": total_self,
                  "uncovered_s": gap, "layer_self_s": layer_self}
        return metrics, checks

    def save(self, path):
        start, end, parent, name = self.columns()
        np.savez(path, start=start, end=end, parent=parent, name=name,
                 op=np.full(len(start), self.op_id, dtype=np.int32), labels=np.array(LABELS))
