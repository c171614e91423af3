"""The four benchmark workloads: inputs made from a seed, the timed call,
the checks on its outputs, and a digest of what it produced.

Each workload is called through the names its real callers use: the two
`solve-mfg` runs and `solve-fp` go through `hilbert_mfg.cli.main` in this
process, and `transport-w1` calls the library functions through their
modules, so the spans in `spans.py` see every call.  See README.md for why
each workload was chosen.
"""

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hilbert_mfg import cli, fp_particles, measures, mfg, rng
from hilbert_mfg.config import SolverConfig
from hilbert_mfg.hjb import GridValueField, default_box, hjb_residual
from hilbert_mfg.models import make_model


@dataclass
class Outcome:
    """What one call produced: the CLI exit code and captured output, or the
    library results, plus the run directory it wrote (if any)."""

    out: Path
    code: int = 0
    log: str = ""
    results: list = field(default_factory=list)


@dataclass
class Verdict:
    """Checks on one call's outputs: problems found (empty when the call is
    correct), the digest of its outputs, and values worth printing."""

    problems: list
    digest: str
    info: dict = field(default_factory=dict)


def _ini(sections):
    lines = []
    for section, items in sections.items():
        lines.append("[%s]" % section)
        lines += ["%s = %s" % kv for kv in items.items()]
        lines.append("")
    return "\n".join(lines)


def _run_cli(command, ini, out):
    """Run one CLI command in process.  It runs from the run directory's
    parent with a relative --out: config.echo records --out, and the digest
    must not depend on where the checkout is."""
    buf = io.StringIO()
    ini, cwd = Path(ini).resolve(), os.getcwd()
    os.chdir(out.parent)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([command, "--config", str(ini), "--out", out.name])
    finally:
        os.chdir(cwd)
    return Outcome(out=out, code=code, log=buf.getvalue())


def _read_csv_table(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


def dir_digest(root):
    """sha256 over every file of a run directory, by relative path, with
    the wallclock column of iterations.csv left out: it is the one artifact
    that differs between reruns of one seed."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if rel.endswith("iterations.csv"):
            rows = [line.split(",") for line in data.decode().splitlines()]
            if "wallclock" in rows[0]:
                col = rows[0].index("wallclock")
                rows = [r[:col] + r[col + 1:] for r in rows]
            data = "\n".join(",".join(r) for r in rows).encode()
        h.update(rel.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def dir_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


@dataclass(frozen=True)
class MfgWorkload:
    """`solve-mfg` on a model-zoo problem through the CLI entry point."""

    name: str
    model: str
    numerics: dict

    def prepare(self, seed, workdir):
        ini = Path(workdir) / ("%s.ini" % self.name)
        ini.write_text(_ini({"problem": {"model": self.model},
                             "numerics": self.numerics,
                             "run": {"seed": seed}}))
        return {"ini": ini, "problem": make_model(self.model)}

    def call(self, prep, out):
        return _run_cli("solve-mfg", prep["ini"], out)

    def verify(self, prep, outcome):
        problems = []
        if outcome.code != 0:
            problems.append("solve-mfg exited %d: %s" % (outcome.code, outcome.log.strip()[-400:]))
            return Verdict(problems=problems, digest="")
        summary = dict(row for row in _read_csv_table(outcome.out / "summary.csv")[1:])
        for key, want in (("status", "converged"), ("certified", "yes"), ("audit", "pass")):
            if summary.get(key) != want:
                problems.append("summary.csv %s = %r, expected %r" % (key, summary.get(key), want))
        return Verdict(problems=problems, digest=dir_digest(outcome.out),
                       info={"psi_residual": float(summary["psi_residual"]),
                             "iterations": int(summary["iterations"])})

    def residual(self, prep, out):
        """The plug-back residual of the final value field, recomputed from
        the run directory at the 25 samples `solve-hjb` reports."""
        cfg, _ = cli.parse_run_config(str(prep["ini"]), "solve-mfg", out_override=str(out))
        prob = prep["problem"]
        v = GridValueField.from_dir(out / "v")
        m = measures.path_from_dir(out / "m")
        box = default_box(prob.spectrum, prob.m0, cfg.solver.box_scale)
        mesh = cfg.solver.mesh()
        xs = np.linspace(-0.5 * box, 0.5 * box, 5)
        samples = [(float(t), np.full(prob.spectrum.N, x))
                   for t in mesh[:-1:max(1, len(mesh) // 4)] for x in xs]
        return hjb_residual(v, prob.hamiltonian, prob.terminal, m, samples,
                            prob.spectrum, cfg.solver)


@dataclass(frozen=True)
class FpWorkload:
    """`solve-fp` on an explicit spectrum through the CLI entry point."""

    name: str
    problem: dict
    numerics: dict

    def prepare(self, seed, workdir):
        ini = Path(workdir) / ("%s.ini" % self.name)
        ini.write_text(_ini({"problem": self.problem, "numerics": self.numerics,
                             "run": {"seed": seed}}))
        return {"ini": ini}

    def call(self, prep, out):
        return _run_cli("solve-fp", prep["ini"], out)

    def verify(self, prep, outcome):
        if outcome.code != 0:
            return Verdict(problems=["solve-fp exited %d: %s"
                                     % (outcome.code, outcome.log.strip()[-400:])], digest="")
        rows = _read_csv_table(outcome.out / "residuals.csv")[1:]
        problems = []
        if not rows:
            problems.append("residuals.csv has no rows")
        for row in rows:
            if not all(math.isfinite(float(x)) for x in row[2:]):
                problems.append("non-finite residual row %s" % row)
        return Verdict(problems=problems, digest=dir_digest(outcome.out))

    residual = None


@dataclass(frozen=True)
class TransportWorkload:
    """Transport and W1 without a value solve: for each model and particle
    count, propagate two paths under a closed-form bounded drift, compare
    and mix them, and run the moment audit on one."""

    name: str
    models: tuple
    particles: tuple
    dt: float

    def prepare(self, seed, workdir):
        cases = []
        for model in self.models:
            prob = make_model(model)
            ham = prob.hamiltonian
            drift = fp_particles.DriftField(
                fn=lambda t, X, ham=ham: ham.grad_p(X, 0.7 * np.cos(X + t), None),
                bound=float(ham.bound_Hp), label="grad_p(0.7 cos(x + t))")
            for M in self.particles:
                cfg = SolverConfig(horizon=prob.horizon, dt=self.dt, particles=M,
                                   seed=rng.derive_seed(seed, len(cases)))
                cases.append((model, prob, drift, cfg))
        return {"cases": cases}

    def call(self, prep, out):
        results = []
        for model, prob, drift, cfg in prep["cases"]:
            legs = [fp_particles.propagate(drift, prob.m0, prob.spectrum,
                                           cfg.with_(seed=rng.derive_seed(cfg.seed, leg)))
                    for leg in (1, 2)]
            dist = measures.path_sup_distance(*legs, exact_budget=cfg.exact_w1_budget,
                                              projections=cfg.sliced_projections,
                                              seed=cfg.seed)
            mix = measures.mixture_paths(*legs, 0.5, seed=cfg.seed)
            audit = mfg.moment_bound_audit(prob, legs[0], cfg)
            results.append((model, cfg.particles, dist, mix, audit))
        return Outcome(out=out, results=results)

    def verify(self, prep, outcome):
        problems = []
        h = hashlib.sha256()
        for model, M, dist, mix, audit in outcome.results:
            for label, d in (("path sup distance", dist),
                             ("path modulus constant", audit.modulus_constant)):
                if not (math.isfinite(d) and d > 0):
                    problems.append("%s M=%d: %s is %r" % (model, M, label, d))
            if not audit.ok:
                problems.append("%s M=%d: moment audit failed" % (model, M))
            numbers = [dist, audit.c0, audit.fourth_bound, audit.fourth_observed,
                       audit.modulus_constant]
            numbers += [x for r in audit.rows for x in (r.bound, r.observed)]
            h.update(repr((model, M, numbers)).encode())
            for mu in mix.measures:
                h.update(mu.points.tobytes())
        return Verdict(problems=problems, digest=h.hexdigest())

    residual = None


WORKLOADS = {
    wl.name: wl for wl in (
        MfgWorkload("mfg-1d", "cap1d_monotone",
                    {"dt": 0.1, "particles": 4000, "grid_points": 32,
                     "quad_nodes": 8, "tau_nodes": 17, "fp_tol": 6e-2}),
        MfgWorkload("mfg-2d", "cap2d_f2",
                    {"dt": 0.2, "particles": 3000, "grid_points": 14,
                     "quad_nodes": 5, "tau_nodes": 7, "fp_tol": 4e-2}),
        TransportWorkload("transport-w1", ("cap1d_monotone", "cap2d_f2"),
                          (4000, 256), 0.1),
        FpWorkload("fp-3d",
                   {"eigenvalues": "-1 -4 -9", "family": "power 1.0 2.0",
                    "m0": "gaussian", "m0_mean": "0.2 0 -0.1",
                    "m0_var": "0.2 0.1 0.05", "drift": "const 0.3 -0.2 0.1"},
                   {"dt": 0.02, "particles": 10000}),
    )
}

