"""In-memory spans and per-layer counters for the traced benchmark run.

The tracer wraps public functions of the ``epriccati`` modules in every
module namespace that imported them, so calls made inside the package (for
example ``comparison.certify_global`` calling ``run_coupled``) are timed as
well.  No code under ``src/`` changes.  Each wrapped call records its calls,
total time and the time covered by wrapped calls nested inside it, so a
layer's self time is its total minus that child time.

Hot leaf calls (the ODE right-hand side, coefficient evaluation, region
tests, off-grid spectral evaluation) are counted and timed but not kept as
individual spans; every other wrapped call is kept as a span
``(id, name, start, end, parent)`` and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

RHS = "riccati.rhs"
FFT_NAMES = ("rfft2", "irfft2", "fft2")


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._stack = []  # frames: [name, start, child_time, span_id or parent span_id]
        self._next_id = 0

    def self_time(self, name):
        return self.total[name] - self.child[name]

    def _call(self, name, fn, args, kwargs, keep_span):
        parent = self._stack[-1][3] if self._stack else None
        span_id = parent
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.calls[name] += 1
            self.total[name] += duration
            self.child[name] += frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if keep_span:
                self.spans.append((span_id, name, frame[1], end, parent))

    def timed(self, fn, name, keep_span=True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, keep_span)

        return traced

    # --- wrappers with extra bookkeeping ---

    def _system_factory(self, fn):
        """Wrap ``ep_system``/``coupled_system`` so the returned RHS is traced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            system = fn(*args, **kwargs)
            rhs = system.rhs

            def traced_rhs(t, Y):
                self.counts["riccati.rhs_rows"] += Y.shape[0]
                return self._call(RHS, rhs, (t, Y), {}, False)

            return dataclasses.replace(system, rhs=traced_rhs)

        return traced

    def _integrate(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rhs_before = self.calls[RHS]
            traj = self._call("integrate.single", fn, args, kwargs, True)
            rhs_calls = self.calls[RHS] - rhs_before
            # one initial RHS call, then six per attempted Dormand-Prince step
            self.counts["integrate.attempted_steps"] += (rhs_calls - 1) // 6
            self.counts["integrate.accepted_steps"] += len(traj.t) - 1
            return traj

        return traced

    def _certify(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cert = self._call("comparison.certify_global", fn, args, kwargs, True)
            self.counts["comparison.certified"] += cert is not None
            return cert

        return traced

    def _run_example(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call("simulate.run_example", fn, args, kwargs, True)
            frames = result.history or []
            self.counts["simulate.history_frames"] += len(frames)
            self.counts["simulate.history_bytes"] += sum(f.rho.nbytes + f.u.nbytes for f in frames)
            return result

        return traced

    def _fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            where = self._stack[-1][0] if self._stack else "-"
            self.counts[f"fft.{fn.__name__}@{where}"] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installation ---

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        """Replace ``original`` in every loaded epriccati module that imported it."""
        for name, module in list(sys.modules.items()):
            if name == "epriccati" or name.startswith("epriccati."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def install(self):
        from epriccati import (
            coefficients,
            comparison,
            fieldio,
            regions,
            riccati,
            simulate,
            spectral,
            tracing,
        )

        # the package attribute ``integrate`` is the function, not the submodule
        integrate = importlib.import_module("epriccati.integrate")

        targets = [
            (riccati.ep_system, self._system_factory(riccati.ep_system)),
            (comparison.coupled_system, self._system_factory(comparison.coupled_system)),
            (integrate.integrate, self._integrate(integrate.integrate)),
            (integrate.integrate_batch, self.timed(integrate.integrate_batch, "integrate.batch")),
            (regions.classify, self.timed(regions.classify, "regions.classify", False)),
            (
                regions.in_certified_interior,
                self.timed(regions.in_certified_interior, "regions.in_certified_interior", False),
            ),
            (comparison.certify_global, self._certify(comparison.certify_global)),
            (comparison.run_coupled, self.timed(comparison.run_coupled, "comparison.run_coupled")),
            (
                comparison.check_envelope,
                self.timed(comparison.check_envelope, "comparison.check_envelope"),
            ),
            (simulate.run_example, self._run_example(simulate.run_example)),
            (spectral.step_ep, self.timed(spectral.step_ep, "spectral.step_ep")),
            (spectral.diagnostics, self.timed(spectral.diagnostics, "spectral.diagnostics")),
            (spectral.eval_point, self.timed(spectral.eval_point, "spectral.eval_point", False)),
            (
                tracing.trace_characteristic,
                self.timed(tracing.trace_characteristic, "tracing.trace_characteristic"),
            ),
        ]
        for name in fieldio.__all__:
            if name.startswith("write_"):
                fn = getattr(fieldio, name)
                targets.append((fn, self.timed(fn, f"fieldio.{name}")))
        for original, replacement in targets:
            self._patch_everywhere(original, replacement)
        values = coefficients.CoefficientModel.values
        self._patch(
            coefficients.CoefficientModel,
            "values",
            self.timed(values, "coefficients.values", False),
        )
        for name in FFT_NAMES:
            self._patch(np.fft, name, self._fft(getattr(np.fft, name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ---

    def ffts(self, where, names=FFT_NAMES):
        return sum(self.counts[f"fft.{n}@{where}"] for n in names)

    def layer_metrics(self):
        """Per-layer numbers for the calls recorded since the last reset."""
        calls, total, counts = self.calls, self.total, self.counts
        steps = calls["spectral.step_ep"]
        return {
            "integrate.batch_s": total["integrate.batch"],
            "integrate.single_s": total["integrate.single"],
            "integrate.self_s": self.self_time("integrate.batch")
            + self.self_time("integrate.single"),
            "integrate.accepted_steps": counts["integrate.accepted_steps"],
            "integrate.accept_ratio": _ratio(
                counts["integrate.accepted_steps"], counts["integrate.attempted_steps"]
            ),
            "riccati.rhs_calls": calls[RHS],
            "riccati.rhs_rows": counts["riccati.rhs_rows"],
            "riccati.rhs_s": total[RHS],
            "coefficients.values_calls": calls["coefficients.values"],
            "coefficients.values_s": total["coefficients.values"],
            "regions.classify_s": total["regions.classify"],
            "regions.interior_tests": calls["regions.in_certified_interior"],
            "comparison.check_envelope_calls": calls["comparison.check_envelope"],
            "comparison.check_envelope_s": total["comparison.check_envelope"],
            "comparison.run_coupled_s": total["comparison.run_coupled"],
            "comparison.certified_frac": _ratio(
                counts["comparison.certified"], calls["comparison.certify_global"]
            ),
            "simulate.run_s": total["simulate.run_example"],
            "simulate.self_s": self.self_time("simulate.run_example"),
            "simulate.history_frames": counts["simulate.history_frames"],
            "simulate.history_mb": counts["simulate.history_bytes"] / 1e6,
            "spectral.step_ep_calls": steps,
            "spectral.step_ep_ms": _ratio(1e3 * total["spectral.step_ep"], steps),
            "spectral.ffts_per_step": _ratio(self.ffts("spectral.step_ep"), steps),
            "spectral.diagnostics_s": total["spectral.diagnostics"],
            "tracing.trace_s": total["tracing.trace_characteristic"],
            "tracing.eval_point_calls": calls["spectral.eval_point"],
            "tracing.eval_point_s": total["spectral.eval_point"],
            # each frame a tracer builds costs three fft2 calls (rho, u1, u2)
            "tracing.frames_built_per_frame": _ratio(
                self.ffts("tracing.trace_characteristic", ("fft2",)) / 3,
                counts["simulate.history_frames"],
            ),
            "fieldio.write_s": sum(
                (v for k, v in total.items() if k.startswith("fieldio.")), 0.0
            ),
        }


def _ratio(part, whole):
    """``part / whole``, or 0 for a layer the workload does not use."""
    return part / whole if whole else 0.0
