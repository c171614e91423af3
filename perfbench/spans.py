"""Spans and counts recorded from outside the program.

A `Tracer` replaces the public names the program's callers resolve at call
time (module attributes and class methods) with wrappers that record a span
(name, start, end, parent) and a few work counts, and puts the originals
back on exit.  Spans stay in memory until the caller dumps them.  Self
time is a span's duration minus the durations of its direct children.
"""

import hashlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

from hilbert_mfg import cli, fp_particles, hjb, measures, mfg, ou_kernel

# (owner, attribute, span name); an owner appears once per name its callers
# resolve, so `mfg.propagate` and `fp_particles.propagate` both count.
TARGETS = (
    (mfg, "fixed_point_iterate", "mfg.fixed_point"),
    (mfg, "moment_bound_audit", "mfg.audit"),
    (mfg, "solve_hjb_mild", "hjb.solve"),
    (hjb, "solve_hjb_mild", "hjb.solve"),
    (hjb.GridValueField, "grad_at", "hjb.grad_at"),
    (ou_kernel.OUKernel, "apply_Rt", "ou_kernel.apply"),
    (ou_kernel.OUKernel, "gradient_DRt", "ou_kernel.gradient"),
    (hjb.SeparatedHamiltonian, "value", "models.hamiltonian"),
    (hjb.SeparatedHamiltonian, "grad_p", "models.hamiltonian"),
    (measures, "wasserstein1", "measures.w1_exact"),
    (measures, "wasserstein1_sliced", "measures.w1_sliced"),
    (measures, "path_sup_distance", "measures.path_sup"),
    (mfg, "path_sup_distance", "measures.path_sup"),
    (measures, "path_modulus", "measures.path_modulus"),
    (mfg, "path_modulus", "measures.path_modulus"),
    (measures, "mixture_paths", "measures.mixture"),
    (mfg, "mixture_paths", "measures.mixture"),
    (fp_particles, "propagate", "fp_particles.propagate"),
    (mfg, "propagate", "fp_particles.propagate"),
    (fp_particles.DriftField, "__call__", "fp_particles.drift"),
    (fp_particles, "weak_residual_profile", "fp_particles.weak_residual"),
    (cli, "_write_csv", "cli.artifact"),
    (measures, "path_to_dir", "cli.artifact"),
    (hjb.GridValueField, "to_dir", "cli.artifact"),
)

# Per-layer metric -> (unit, how it is computed from the spans and counts).
# "calls:X" counts spans named X, "incl:X" sums their durations, "self:X"
# sums their self times, "count:K" reads a counter kept by the wrappers;
# None marks a metric computed by hand below or by the harness in run.py.
LAYER_METRICS = {
    "hjb.solves": ("count", "calls:hjb.solve"),
    "hjb.repeat_solves": ("count", "count:hjb.repeat_solves"),
    "hjb.sweeps": ("count", "count:hjb.sweeps"),
    "hjb.solve_s": ("s", "incl:hjb.solve"),
    "hjb.grad_at_calls": ("count", "calls:hjb.grad_at"),
    "hjb.grad_at_points": ("count", "count:hjb.grad_at_points"),
    "hjb.grad_at_s": ("s", "incl:hjb.grad_at"),
    "ou_kernel.apply_calls": ("count", "calls:ou_kernel.apply"),
    "ou_kernel.gradient_calls": ("count", "calls:ou_kernel.gradient"),
    "ou_kernel.integrand_points": ("count", "count:ou_kernel.integrand_points"),
    "ou_kernel.repeat_share": ("ratio", None),
    "ou_kernel.self_s": ("s", "self:ou_kernel.apply+ou_kernel.gradient"),
    "models.hamiltonian_calls": ("count", "calls:models.hamiltonian"),
    "models.hamiltonian_s": ("s", "incl:models.hamiltonian"),
    "measures.w1_exact_calls": ("count", "calls:measures.w1_exact"),
    "measures.w1_sliced_calls": ("count", "calls:measures.w1_sliced"),
    "measures.w1_exact_s": ("s", "incl:measures.w1_exact"),
    "measures.w1_sliced_s": ("s", "incl:measures.w1_sliced"),
    "measures.path_sup_s": ("s", "incl:measures.path_sup"),
    "measures.path_modulus_s": ("s", "incl:measures.path_modulus"),
    "measures.mixture_s": ("s", "incl:measures.mixture"),
    "mfg.outer_iterations": ("count", "count:mfg.outer_iterations"),
    "mfg.audit_s": ("s", "incl:mfg.audit"),
    "fp_particles.propagate_calls": ("count", "calls:fp_particles.propagate"),
    "fp_particles.particle_steps": ("count", "count:fp_particles.particle_steps"),
    "fp_particles.propagate_s": ("s", "incl:fp_particles.propagate"),
    "fp_particles.drift_s": ("s", "incl:fp_particles.drift"),
    "fp_particles.weak_residual_s": ("s", "incl:fp_particles.weak_residual"),
    "cli.artifact_s": ("s", "incl:cli.artifact"),
    "cli.artifact_bytes": ("B", None),
    "trace.overhead_s": ("s", None),
}


def _path_key(path, config):
    h = hashlib.sha256(repr(config).encode())
    for mu in path.measures:
        h.update(mu.points.tobytes())
    return h.hexdigest()


class _CountedField:
    """A field callable that counts the points it is evaluated at and keeps
    every attribute of the field it wraps (the kernel reads `box`)."""

    def __init__(self, phi, counts):
        self._phi = phi
        self._counts = counts

    def __call__(self, X):
        self._counts["ou_kernel.integrand_points"] += X.size // X.shape[-1]
        return self._phi(X)

    def __getattr__(self, name):
        return getattr(self._phi, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._solved = set()
        self._last_apply = None
        self._saved = []

    def __enter__(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False

    def _wrap(self, fn, name):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Hooks by span name: `_before_*` may replace the positional arguments.

    def _before_hjb_solve(self, args, kwargs):
        # solve_hjb_mild(H, G, m, spec, config, box=None)
        key = _path_key(args[2], args[4])
        if key in self._solved:
            self.counts["hjb.repeat_solves"] += 1
        self._solved.add(key)
        return args

    def _after_hjb_solve(self, args, kwargs, v):
        self.counts["hjb.sweeps"] += len(v.history) + 1  # + the R_{T-t} G sweep

    def _before_hjb_grad_at(self, args, kwargs):
        X = np.asarray(args[2])
        self.counts["hjb.grad_at_points"] += X.size // X.shape[-1]
        return args

    def _before_ou_kernel_apply(self, args, kwargs):
        kernel, phi, t, x = args
        self._last_apply = (phi, t, x)
        return (kernel, _CountedField(phi, self.counts), t, x)

    def _before_ou_kernel_gradient(self, args, kwargs):
        kernel, phi, t, x = args
        last = self._last_apply
        if last is not None and last[0] is phi and last[1] == t and last[2] is x:
            self.counts["ou_kernel.repeat_gradients"] += 1
        return (kernel, _CountedField(phi, self.counts), t, x)

    def _after_mfg_fixed_point(self, args, kwargs, sol):
        self.counts["mfg.outer_iterations"] += len(sol.iterations)

    def _after_fp_particles_propagate(self, args, kwargs, path):
        self.counts["fp_particles.particle_steps"] += (len(path.times) - 1) * path.measures[0].M

    def layer_metrics(self):
        """The per-layer metrics the spans and counts give, as plain numbers."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        tables = {"calls": calls, "incl": incl, "self": self_s, "count": self.counts}
        out = {}
        for metric, (_, source) in LAYER_METRICS.items():
            if source is None:
                continue
            kind, names = source.split(":")
            out[metric] = sum(tables[kind][n] for n in names.split("+"))
        gradients = calls["ou_kernel.gradient"]
        out["ou_kernel.repeat_share"] = (
            self.counts["ou_kernel.repeat_gradients"] / gradients if gradients else 0.0)
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end (seconds from the
        first span) and parent index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - origin, 9),
                                     "end": round(end - origin, 9),
                                     "parent": parent}) + "\n")
