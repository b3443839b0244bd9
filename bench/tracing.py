"""Span tracing of dyncool's public functions, for the benchmark's traced run.

The tracer replaces each public function under every name a caller looks it
up by: the defining module's global (so calls inside that module are seen),
the bindings other modules made with ``from .x import f``, and the package
namespace. ``HermitianOperator`` is a class that ``isinstance`` checks need
intact, so its validating ``__post_init__`` is wrapped instead. Nothing in
``src/`` is edited; ``uninstall`` puts every original back.

Each call records a span (name, start, end, parent span, job id) in memory.
A call that re-enters a function already on the stack (``to_json`` recurses
once per value) runs unwrapped inside the outer span, so a document costs
one span, not one per float.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = {
    "operators": ("eig", "evolve", "spectral_norm", "projector_below", "HermitianOperator"),
    "signfun": ("fourier_sign", "spectral_values", "eval_fourier"),
    "gqsp": ("synthesize_angles", "complete", "compute_angles", "assemble_and_extract"),
    "dyson": ("leakage", "effective_error", "sample_gue"),
    "cooling": ("run", "qpe_project", "build_hsign", "cooling_step"),
    "serialization": ("run_record", "to_json", "trajectory_csv_text", "write_text_atomic"),
    "cli": ("generate_hamiltonian", "generate_perturbation", "main"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

SETUP_JOB = -1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Owns the spans and the patched bindings of one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job id)
        self.observations = []  # (name, job id, OBSERVERS[name] output)
        self.job = SETUP_JOB
        self._stack = []
        self._active = defaultdict(int)
        self._patches = []  # (owner, attribute, original)

    @contextmanager
    def span(self, name):
        """A span the benchmark itself opens (a job)."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(name, *state)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, perf_counter()

    def _close(self, name, index, parent, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.job)

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            tracer._active[name] += 1
            index, parent, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, index, parent, start)
                tracer._active[name] -= 1
            if observe is not None:
                tracer.observations.append((name, tracer.job, observe(args, kwargs, result)))
            return result

        return traced

    def install(self):
        """Patch every binding of every traced function."""
        import dyncool

        modules = [dyncool] + [
            sys.modules[f"dyncool.{layer}"] for layer in LAYERS
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"dyncool.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    init = original.__post_init__
                    self._patch(original, "__post_init__", self._wrap(name, init))
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        self._patch(module, fn_name, wrapper)

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def self_times(self):
        """Per span index: its duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, origin):
        """Spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as handle:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


# Scalars read from the arguments or result of a call, for the gauges.
OBSERVERS = {
    "signfun.eval_fourier": lambda a, k, r: (
        _arg(a, k, 0, "S").degree,
        int(np.size(_arg(a, k, 1, "x"))),
    ),
    "gqsp.complete": lambda a, k, r: r.identity_residual,
    "gqsp.compute_angles": lambda a, k, r: r.peel_residual,
    "gqsp.synthesize_angles": lambda a, k, r: r[2],
    "gqsp.assemble_and_extract": lambda a, k, r: (r.cu_applications, r.cu_dag_applications),
    "dyson.leakage": lambda a, k, r: r / _arg(a, k, 2, "delta"),
    "dyson.effective_error": lambda a, k, r: r / _arg(a, k, 2, "delta"),
    "cooling.run": lambda a, k, r: (
        len(r.steps),
        r.success,
        r.steps[-1].queries_eiH if r.steps else 0,
        r.steps[-1].queries_UA if r.steps else 0,
    ),
    "cooling.cooling_step": lambda a, k, r: _arg(a, k, 3, "cutoff"),
    "serialization.write_text_atomic": lambda a, k, r: len(_arg(a, k, 1, "text").encode()),
}
