"""Batch entry point: flat .ini configs in, CSV diagnostics and .npy arrays (the
value field, the law path) out.

Four subcommands wire the library pipelines: `solve-hjb` (value field
against a frozen measure path), `solve-fp` (particle transport plus weak
residual diagnostics), `solve-mfg` (damped fixed point with the moment
audit), `check` (coupling monotonicity, declared-bound spot checks, and
the two-start experiment).  Every run echoes its resolved config and
refuses to reuse an existing output directory, so a run directory is a
complete, diffable record.  The ranges of the [numerics] keys are checked
in one place, SolverConfig, and the spectrum assumptions in another,
validate_spectrum; the parser names the section.

Exit codes: 0 success, 2 config error, 3 non-convergence (an inner
value-solve stall included), 4 audit failure, 1 internal error.  Heavy
imports happen after the `--threads` cap is exported so BLAS pools honor
it.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

from .tables import FLOAT_FMT

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_AUDIT = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ConfigError(Exception):
    """Raised for any parse or validation problem; the message names the
    offending [section] key."""


@dataclass
class RunConfig:
    """Resolved run description: a model-zoo problem or an explicit
    spectrum, numerics, seed and output directory."""

    command: str
    model: str
    horizon: float
    spectrum: object     # SpectrumSpec from the eigenvalues key, or None
    m0_kind: str
    m0_mean: tuple
    m0_var: tuple
    drift: tuple        # ("zero",) or ("const", c_1, ..., c_N)
    measure_source: str  # "zero-drift" or a saved path directory
    hamiltonian: str     # solve-hjb: "model" or "zero"
    uniqueness: bool
    solver: object       # SolverConfig
    seed: int
    out: str

    def problem(self):
        from .models import make_model
        return make_model(self.model)


# Every key the parser reads, by section, with the cast of each numerics key.
_NUMERICS = (("dt", float), ("particles", int), ("grid_points", int),
             ("box_scale", float), ("quad_nodes", int), ("tau_nodes", int),
             ("picard_tol", float), ("picard_max", int),
             ("fp_tol", float), ("fp_max", int), ("damping", float))
_KEYS = {
    "problem": ("model", "horizon", "eigenvalues", "delta", "family", "m0",
                "m0_mean", "m0_var", "drift", "measure_source", "hamiltonian"),
    "numerics": tuple(key for key, _ in _NUMERICS),
    "run": ("seed", "out", "uniqueness"),
}


def _check_keys(cp):
    """Refuse a section or key the parser does not read: a misspelt key
    would otherwise be dropped and its default used without a word."""
    sections = ([cp.default_section] if cp.defaults() else []) + cp.sections()
    for section in sections:
        if section not in _KEYS:
            raise ConfigError("[%s]: unknown section (expected %s)"
                              % (section, ", ".join("[%s]" % s for s in _KEYS)))
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError("[%s] %s: unknown key (expected one of %s)"
                                  % (section, key, ", ".join(_KEYS[section])))


def _floats(text):
    """One or more whitespace-separated finite numbers."""
    vals = tuple(float(tok) for tok in text.split())
    if not vals:
        raise ValueError("expected at least one number")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("entries must be finite, got %r" % text)
    return vals


def _family(text):
    toks = text.split()
    if len(toks) != 3 or toks[0] != "power":
        raise ValueError("expected 'power c p'")
    return ("power",) + _floats(" ".join(toks[1:]))


def _drift(text):
    toks = text.split()
    if toks == ["zero"]:
        return ("zero",)
    if toks[:1] == ["const"]:
        return ("const",) + _floats(" ".join(toks[1:]))
    raise ValueError("expected 'zero' or 'const c_1 ... c_N'")


def _parse(cp, section, key, cast, default=None, required=False):
    try:
        raw = cp.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ConfigError("[%s] %s: required key missing" % (section, key))
        return default
    try:
        return cast(raw.strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError("[%s] %s: %s" % (section, key, exc))


def _bool(text):
    low = text.lower()
    if low in ("1", "yes", "true", "on"):
        return True
    if low in ("0", "no", "false", "off"):
        return False
    raise ValueError("expected yes/no, got %r" % text)


def parse_run_config(path, command, seed_override=None, out_override=None):
    """Load, validate, and resolve one run configuration file."""
    from .config import SolverConfig
    from .models import MODEL_NAMES
    from .spectrum import SpectrumSpec, validate_spectrum

    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        found = cp.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError("[%s] %s: key given more than once (line %d)"
                          % (exc.section, exc.option, exc.lineno))
    except configparser.Error as exc:
        raise ConfigError("%s: %s" % (path, exc))
    if not found:
        raise ConfigError("config file not found or unreadable: %s" % path)
    _check_keys(cp)

    model = _parse(cp, "problem", "model", str)
    if model is not None and model not in MODEL_NAMES:
        raise ConfigError("[problem] model: unknown model %r (shipped: %s)"
                          % (model, ", ".join(MODEL_NAMES)))
    horizon = _parse(cp, "problem", "horizon", float, default=1.0)
    if not 0 < horizon < math.inf:
        raise ConfigError("[problem] horizon: must be positive and finite")

    eigenvalues = _parse(cp, "problem", "eigenvalues", _floats)
    delta = _parse(cp, "problem", "delta", float, default=0.5)
    family = _parse(cp, "problem", "family", _family)
    spectrum = None
    if eigenvalues is not None:
        if len(eigenvalues) > 3:
            raise ConfigError("[problem] eigenvalues: at most 3 modes supported")
        spectrum = SpectrumSpec(eigenvalues=eigenvalues, delta=delta, family=family)
        violations = validate_spectrum(spectrum).violations
        if violations:  # each leads with its key; a failed trace condition is not one
            raise ConfigError("[problem] %s" % violations[0])

    m0_kind = _parse(cp, "problem", "m0", str, default="dirac")
    if m0_kind not in ("dirac", "gaussian"):
        raise ConfigError("[problem] m0: expected 'dirac' or 'gaussian'")
    m0_mean = _parse(cp, "problem", "m0_mean", _floats)
    m0_var = _parse(cp, "problem", "m0_var", _floats)
    if m0_var is not None and min(m0_var) <= 0:
        raise ConfigError("[problem] m0_var: variances must be positive")
    if m0_kind == "gaussian" and model is None and m0_var is None:
        raise ConfigError("[problem] m0_var: required for gaussian m0")

    drift = _parse(cp, "problem", "drift", _drift, default=("zero",))

    measure_source = _parse(cp, "problem", "measure_source", str, default="zero-drift")
    hamiltonian = _parse(cp, "problem", "hamiltonian", str,
                         default="model" if model else "zero")
    if hamiltonian not in ("model", "zero"):
        raise ConfigError("[problem] hamiltonian: expected 'model' or 'zero'")
    if hamiltonian == "model" and model is None:
        raise ConfigError("[problem] model: required when hamiltonian = model")
    # solve-fp without a model and solve-hjb with H = 0 build the spectrum
    # from the eigenvalues key, never from the model's
    if spectrum is None and (command == "solve-fp" and model is None
                             or command == "solve-hjb" and hamiltonian == "zero"):
        raise ConfigError("[problem] eigenvalues: required when no model spectrum is used "
                          "(solve-fp without a model, solve-hjb with hamiltonian = zero)")

    num = {}
    for key, cast in _NUMERICS:
        val = _parse(cp, "numerics", key, cast)
        if val is not None:
            num[key] = val

    seed = seed_override
    if seed is None:
        seed = _parse(cp, "run", "seed", int, required=True)
    if seed < 0:
        raise ConfigError("[run] seed: must be a nonnegative integer")
    out = out_override if out_override is not None else _parse(cp, "run", "out", str)
    if out is None:
        raise ConfigError("[run] out: required (or pass --out)")
    uniqueness = _parse(cp, "run", "uniqueness", _bool, default=True)

    try:
        solver = SolverConfig(horizon=horizon, seed=seed, **num)
    except ValueError as exc:  # the message leads with the offending key
        raise ConfigError("[numerics] %s" % exc)
    if model is not None:
        # preset problems own their horizon; the config echoes it resolved
        from .models import make_model
        solver = solver.with_(horizon=make_model(model).horizon)

    # resolved values flow back so config.echo is the effective record
    for section in ("problem", "numerics", "run"):
        if not cp.has_section(section):
            cp.add_section(section)
    cp.set("problem", "horizon", repr(solver.horizon))
    for key in _KEYS["numerics"]:
        cp.set("numerics", key, repr(getattr(solver, key)))
    cp.set("run", "seed", str(seed))
    cp.set("run", "out", out)

    return RunConfig(command=command, model=model, horizon=solver.horizon,
                     spectrum=spectrum,
                     m0_kind=m0_kind, m0_mean=m0_mean, m0_var=m0_var,
                     drift=drift, measure_source=measure_source,
                     hamiltonian=hamiltonian, uniqueness=uniqueness,
                     solver=solver, seed=seed, out=out), cp


def _make_run_dir(cfg, cp):
    from pathlib import Path
    d = Path(cfg.out)
    if d.exists():
        raise ConfigError("[run] out: run directory %s already exists" % d)
    d.mkdir(parents=True)
    with open(d / "config.echo", "w") as fh:
        cp.write(fh)
    return d


def _m0_from(cfg, n_modes):
    import numpy as np
    from .measures import Dirac, ProductGaussian
    mean = cfg.m0_mean if cfg.m0_mean is not None else (0.0,) * n_modes
    if len(mean) != n_modes:
        raise ConfigError("[problem] m0_mean: expected %d entries" % n_modes)
    if cfg.m0_kind == "dirac":
        return Dirac(mean)
    var = cfg.m0_var
    if var is None or len(var) != n_modes:
        raise ConfigError("[problem] m0_var: expected %d entries" % n_modes)
    return ProductGaussian(mean=mean, var=var)


def _drift_from(cfg, n_modes):
    from .fp_particles import DriftField
    if cfg.drift[0] == "zero":
        return DriftField.zero(n_modes)
    vec = cfg.drift[1:]
    if len(vec) != n_modes:
        raise ConfigError("[problem] drift: expected %d constants" % n_modes)
    return DriftField.constant(list(vec), label="const")


def _write_csv(path, header, rows):
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x):
    return FLOAT_FMT % float(x)


def _saved_path(source, spec, mesh):
    """solve-hjb's saved measure path, loaded and checked against the mesh
    and the spectrum before any run directory exists."""
    from .config import same_mesh
    from .measures import path_from_dir
    try:
        m = path_from_dir(source)
    except (OSError, EOFError, ValueError) as exc:  # EOFError: an empty points.npy
        raise ConfigError("[problem] measure_source: cannot read %s: %s" % (source, exc))
    if not same_mesh(m.times, mesh):
        raise ConfigError("[problem] measure_source: %s is not on the config mesh "
                          "(%d times from 0 to %g)" % (source, len(mesh), mesh[-1]))
    if m.N != spec.N:
        raise ConfigError("[problem] measure_source: %s has %d modes, the spectrum %d"
                          % (source, m.N, spec.N))
    return m


def cmd_solve_hjb(cfg, cp):
    """Mild value solve against a frozen measure path; artifacts: the value
    field directory (residual in its metadata) and the sweep history."""
    import numpy as np
    from .fp_particles import DriftField, propagate
    from .hjb import default_box, hjb_residual, solve_hjb_mild, zero_hamiltonian

    if cfg.hamiltonian == "model":
        prob = cfg.problem()
        spec, ham, terminal = prob.spectrum, prob.hamiltonian, prob.terminal
        m0 = prob.m0
    else:
        spec = cfg.spectrum
        ham = zero_hamiltonian(spec.N)
        terminal = lambda X, mu: np.cos(X[..., 0])
        m0 = _m0_from(cfg, spec.N)

    if cfg.measure_source == "zero-drift":
        m = propagate(DriftField.zero(spec.N), m0, spec, cfg.solver)
    else:
        m = _saved_path(cfg.measure_source, spec, cfg.solver.mesh())

    d = _make_run_dir(cfg, cp)
    v = solve_hjb_mild(ham, terminal, m, spec, cfg.solver)

    box = default_box(spec, m0, cfg.solver.box_scale)
    mesh = cfg.solver.mesh()
    xs = np.linspace(-0.5 * box, 0.5 * box, 5)
    samples = [(float(t), np.full(spec.N, x))
               for t in mesh[:-1:max(1, len(mesh) // 4)] for x in xs]
    residual = hjb_residual(v, ham, terminal, m, samples, spec, cfg.solver)

    v.to_dir(d / "v", extra={"hjb_residual": residual})
    _write_csv(d / "iterations.csv",
               ["iteration", "weighted_gradient_change"],
               [[i + 1, _fmt(h)] for i, h in enumerate(v.history)])
    if v.status != "converged":
        print("solve-hjb: no convergence after %d sweeps" % len(v.history),
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print("solve-hjb: converged, residual %.3e, artifacts in %s" % (residual, d))
    return EXIT_OK


def cmd_solve_fp(cfg, cp):
    """Particle transport; artifacts: the measure path, per-mode second
    moments against the driftless closed form, and weak-form residuals."""
    import numpy as np
    from .fp_particles import (FourierTestFunction, bootstrap_stderr, propagate,
                               weak_residual_profile)
    from .measures import moments, path_to_dir
    from .spectrum import covariance_qk

    spec = cfg.spectrum if cfg.model is None else cfg.problem().spectrum
    m0 = _m0_from(cfg, spec.N)
    w = _drift_from(cfg, spec.N)

    d = _make_run_dir(cfg, cp)
    m = propagate(w, m0, spec, cfg.solver)
    path_to_dir(m, d / "m")

    mom = moments(m.points)
    rows = [[_fmt(t), k + 1, _fmt(mom.second[j, k]), _fmt(covariance_qk(spec, k + 1, t)),
             _fmt(3.0 * float(mom.second_stderr[j, k]))]
            for j, t in enumerate(m.times) for k in range(spec.N)]
    _write_csv(d / "moments.csv",
               ["time", "mode", "second_moment", "ou_variance", "stderr3"], rows)

    T = float(m.times[-1])
    rrows = []
    for k in range(1, spec.N + 1):
        h = [0.0] * spec.N
        h[k - 1] = 1.0
        phi = FourierTestFunction(h=h)
        prof = weak_residual_profile(m, w, phi, T, spec)
        rrows.append(["weak_form_residual", "cos(x_%d)" % k,
                      _fmt(float(np.mean(prof))),
                      _fmt(3.0 * bootstrap_stderr(prof, seed=cfg.seed))])
    _write_csv(d / "residuals.csv", ["op", "test_function", "value", "stderr3"],
               rrows)
    print("solve-fp: %d mesh times, artifacts in %s" % (len(m.times), d))
    return EXIT_OK


def _audit_rows(audit):
    rows = []
    for r in audit.rows:
        rows.append(["moment_bound_audit", r.mode, _fmt(r.bound),
                     "" if not r.sampled else _fmt(r.observed),
                     "" if not r.sampled else _fmt(3.0 * r.stderr),
                     "pass" if r.passed else "FAIL"])
    rows.append(["check_Qm0_membership", "norm^4", _fmt(audit.fourth_bound),
                 _fmt(audit.fourth_observed), _fmt(3.0 * audit.fourth_stderr),
                 "pass" if audit.fourth_pass else "FAIL"])
    rows.append(["path_modulus", "fit", _fmt(audit.modulus_constant), "", "",
                 "pass" if audit.ok else "info"])
    return rows


def cmd_solve_mfg(cfg, cp):
    """Damped fixed point; artifacts: iteration trace, final value field and
    measure path, moment audit, and a summary of the certificate."""
    from .mfg import ValueSolveStalled, fixed_point_iterate
    from .measures import path_to_dir

    if cfg.model is None:
        raise ConfigError("[problem] model: solve-mfg needs a model-zoo selection")
    prob = cfg.problem()
    d = _make_run_dir(cfg, cp)

    def write_iterations(records):
        _write_csv(d / "iterations.csv",
                   ["iteration", "rho_inf_change", "psi_residual", "wallclock"],
                   [[r.index, _fmt(r.rho_change), _fmt(r.psi_residual),
                     "%.3f" % r.wallclock] for r in records])

    try:
        sol = fixed_point_iterate(prob, cfg.solver)
    except ValueSolveStalled as exc:
        write_iterations(exc.iterations)  # the outer iterations that did finish
        raise
    write_iterations(sol.iterations)
    sol.v.to_dir(d / "v")
    path_to_dir(sol.m, d / "m")
    _write_csv(d / "audit.csv",
               ["op", "mode", "bound", "observed", "stderr3", "result"],
               _audit_rows(sol.audit))
    budget = cfg.solver.fp_tol + 3.0 * sol.psi_residual_stderr
    _write_csv(d / "summary.csv", ["key", "value"], [
        ["status", sol.status],
        ["iterations", len(sol.iterations)],
        ["psi_residual", _fmt(sol.psi_residual)],
        ["psi_residual_stderr", _fmt(sol.psi_residual_stderr)],
        ["certificate_budget", _fmt(budget)],
        ["certified", "yes" if sol.psi_residual < budget else "no"],
        ["audit", "pass" if sol.audit.ok else "FAIL"],
        ["w1_method", sol.w1_method],
    ])
    if sol.status != "converged":
        print("solve-mfg: no convergence in %d iterations" % len(sol.iterations),
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if not sol.audit.ok or sol.psi_residual >= budget:
        print("solve-mfg: converged but audit/certificate failed", file=sys.stderr)
        return EXIT_AUDIT
    print("solve-mfg: converged in %d iterations, residual %.3e, artifacts in %s"
          % (len(sol.iterations), sol.psi_residual, d))
    return EXIT_OK


def cmd_check(cfg, cp):
    """Assumption gate: coupling monotonicity, declared-bound spot checks,
    and (optionally) the two-start uniqueness experiment, all reported to
    check.csv; FAIL in a gating row exits 4."""
    import numpy as np
    from .fp_particles import DriftField, propagate
    from .measures import ProductGaussian
    from .mfg import uniqueness_experiment
    from .models import assumption_check, monotonicity_check
    from .spectrum import stationary_variances

    if cfg.model is None:
        raise ConfigError("[problem] model: check needs a model-zoo selection")
    prob = cfg.problem()
    d = _make_run_dir(cfg, cp)
    rows = []
    failed = False

    coupling = getattr(prob.hamiltonian, "coupling", None)
    if coupling is not None:
        rep = monotonicity_check(coupling, trials=400, seed=cfg.seed,
                                 n_modes=prob.spectrum.N)
        rows.append(["monotonicity_check", "min_pairing", _fmt(rep.min_pairing),
                     _fmt(-1e-9 - 3.0 * rep.min_stderr),
                     "pass" if rep.passed else "FAIL"])
        if rep.identity_gap is not None:
            rows.append(["monotonicity_check", "identity_gap",
                         _fmt(rep.identity_gap), _fmt(1e-12),
                         "pass" if rep.identity_gap < 1e-12 else "FAIL"])
        failed = failed or not rep.passed

    arep = assumption_check(prob.hamiltonian, n_modes=prob.spectrum.N,
                            trials=150, seed=cfg.seed)
    rows.append(["assumption_check", "sup|H_p|", _fmt(arep.hp_worst),
                 _fmt(arep.hp_declared), "pass" if arep.hp_ok else "FAIL"])
    rows.append(["assumption_check", "lip_p", _fmt(arep.lip_p_worst),
                 "" if arep.lip_p_declared is None else _fmt(arep.lip_p_declared),
                 "pass" if arep.lip_ok else "FAIL"])
    rows.append(["assumption_check", "lip_mu", _fmt(arep.lip_mu_worst),
                 "" if arep.lip_mu_declared is None else _fmt(arep.lip_mu_declared),
                 "pass" if arep.lip_ok else "FAIL"])
    failed = failed or not arep.ok

    if cfg.uniqueness:
        from . import rng
        spec = prob.spectrum
        start_a = propagate(DriftField.zero(spec.N), prob.m0, spec,
                            cfg.solver.with_(seed=rng.derive_seed(cfg.seed, 0xA1)))
        stat = ProductGaussian(mean=[0.0] * spec.N,
                               var=list(stationary_variances(spec)))
        start_b = propagate(DriftField.zero(spec.N), stat, spec,
                            cfg.solver.with_(seed=rng.derive_seed(cfg.seed, 0xB1)))
        urep, _, _ = uniqueness_experiment(prob, start_a, start_b, cfg.solver)
        # reported, never gating: the negative control runs through here too
        rows.append(["uniqueness_experiment", "rho_between",
                     _fmt(urep.rho_between), "", "info"])
        rows.append(["uniqueness_experiment", "value_sup_distance",
                     _fmt(urep.value_sup_distance), "", "info"])
        rows.append(["uniqueness_experiment", "status",
                     "%s/%s" % (urep.status_a, urep.status_b), "", "info"])

    _write_csv(d / "check.csv", ["op", "metric", "value", "threshold", "result"],
               rows)
    if failed:
        print("check: FAIL rows written to %s" % (d / "check.csv"), file=sys.stderr)
        return EXIT_AUDIT
    print("check: all gates pass, report in %s" % d)
    return EXIT_OK


_COMMANDS = {
    "solve-hjb": cmd_solve_hjb,
    "solve-fp": cmd_solve_fp,
    "solve-mfg": cmd_solve_mfg,
    "check": cmd_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hilbert-mfg",
        description="Spectral solver pipelines driven by flat .ini configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None,
                       help="cap numeric thread pools")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("config error: --threads must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        for var in _THREAD_VARS:  # must precede the numpy import
            os.environ[var] = str(args.threads)
    from .mfg import ValueSolveStalled
    try:
        cfg, cp = parse_run_config(args.config, args.command,
                                   seed_override=args.seed,
                                   out_override=args.out)
        return _COMMANDS[args.command](cfg, cp)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except ValueSolveStalled as exc:
        print("%s: no convergence: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except Exception as exc:  # noqa: BLE001 - the contract maps crashes to 1
        import traceback
        traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
