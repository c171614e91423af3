"""Batch entry point: flat .ini configs in, CSV diagnostics and .npy arrays (the
value field, the law path) out.

Four subcommands wire the library pipelines: `solve-hjb` (value field
against a frozen measure path), `solve-fp` (particle transport plus weak
residual diagnostics), `solve-mfg` (damped fixed point with the moment
audit), `check` (coupling monotonicity, declared-bound spot checks, and
the two-start experiment).  parse_run_config alone decides which keys a
command reads and resolves them into the objects the command runs, so each
command is straight-line code; an entry of the file it does not read is a
config error, never dropped.  Every run echoes its resolved config and
refuses to reuse an existing output directory, so a run directory is a
complete, diffable record.  The ranges of the [numerics] keys are checked
in one place, SolverConfig, and the spectrum assumptions in another,
validate_spectrum; the parser names the section.

The commands only lay out rows: tables.write_rows formats every float cell,
and each threshold and verdict a row prints is read from its report.

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
from functools import partial

from .tables import write_rows as _write_csv

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
    """One run resolved for its command: the objects it runs and where it
    writes them.  Without a model (solve-fp) or with hamiltonian = zero
    (solve-hjb) the problem is built from the keys with H = 0."""

    problem: object      # MFGProblem
    drift: object        # DriftField: the drift key for solve-fp, else zero
    measure: object      # solve-hjb: the saved measure_source path, or None
    uniqueness: bool     # check: run the two-start experiment
    solver: object       # SolverConfig, the seed included
    out: str

    @property
    def seed(self):
        return self.solver.seed


# Every key the parser knows, by section, with the cast of each numerics key.
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


def _refuse_unread(cp, read, command):
    """Refuse every entry of the file no resolver read: an unknown section
    or key, or a key this command does not use, would otherwise be dropped
    and the run would solve another problem than the file states."""
    sections = ([cp.default_section] if cp.defaults() else []) + cp.sections()
    for section in sections:
        if section not in _KEYS:
            raise ConfigError("[%s]: unknown section (expected %s)"
                              % (section, ", ".join("[%s]" % s for s in _KEYS)))
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError("[%s] %s: unknown key (expected one of %s)"
                                  % (section, key, ", ".join(_KEYS[section])))
            if (section, key) not in read:
                raise ConfigError("[%s] %s: not read by %s with this config; remove it"
                                  % (section, key, command))


def _floats(text, n_modes=None):
    """One or more whitespace-separated finite numbers, n_modes of them
    when given."""
    vals = tuple(float(tok) for tok in text.split())
    if not vals:
        raise ValueError("expected at least one number")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("entries must be finite, got %r" % text)
    if n_modes is not None and len(vals) != n_modes:
        raise ValueError("expected %d entries" % n_modes)
    return vals


def _one_of(*choices):
    def cast(text):
        if text not in choices:
            raise ValueError("expected one of %s, got %r" % (", ".join(choices), text))
        return text
    return cast


def _family(text):
    toks = text.split()
    if len(toks) != 3 or toks[0] != "power":
        raise ValueError("expected 'power c p'")
    return ("power",) + _floats(" ".join(toks[1:]))


def _drift(text, n_modes):
    """'zero' or 'const c_1 ... c_N' as its DriftField."""
    from .fp_particles import DriftField
    toks = text.split()
    if toks == ["zero"]:
        return DriftField.zero(n_modes)
    if toks[:1] == ["const"]:
        return DriftField.constant(list(_floats(" ".join(toks[1:]), n_modes)), label="const")
    raise ValueError("expected 'zero' or 'const c_1 ... c_N'")


def _bool(text):
    low = text.lower()
    if low in ("1", "yes", "true", "on"):
        return True
    if low in ("0", "no", "false", "off"):
        return False
    raise ValueError("expected yes/no, got %r" % text)


def _read_file(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        found = cp.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError("[%s] %s: key given more than once (line %d)"
                          % (exc.section, exc.option, exc.lineno))
    except configparser.Error as exc:
        raise ConfigError("%s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: cannot decode the file as text: %s" % (path, exc))
    if not found:
        raise ConfigError("config file not found or unreadable: %s" % path)
    return cp


def _spectrum(get):
    """The explicit spectrum of the eigenvalues, delta and family keys,
    refused on its first validate_spectrum violation."""
    from .spectrum import SpectrumSpec, validate_spectrum
    eigenvalues = get("problem", "eigenvalues", _floats,
                      required="when no model spectrum is used (solve-fp without a "
                               "model, solve-hjb with hamiltonian = zero)")
    spectrum = SpectrumSpec(eigenvalues=eigenvalues,
                            delta=get("problem", "delta", float, default=0.5),
                            family=get("problem", "family", _family))
    if spectrum.N > 3:
        raise ConfigError("[problem] eigenvalues: at most 3 modes supported")
    violations = validate_spectrum(spectrum).violations
    if violations:  # each leads with its key; a failed trace condition is not one
        raise ConfigError("[problem] %s" % violations[0])
    return spectrum


def _m0(get, n_modes):
    """The initial law of the m0 keys: a point mass at m0_mean (the origin
    by default) or a product Gaussian, which alone reads m0_var."""
    from .measures import Dirac, ProductGaussian
    vector = partial(_floats, n_modes=n_modes)
    kind = get("problem", "m0", _one_of("dirac", "gaussian"), default="dirac")
    mean = get("problem", "m0_mean", vector, default=(0.0,) * n_modes)
    if kind == "dirac":
        return Dirac(mean)
    var = get("problem", "m0_var", vector, required="for gaussian m0")
    if min(var) <= 0:
        raise ConfigError("[problem] m0_var: variances must be positive")
    return ProductGaussian(mean=mean, var=var)


def parse_run_config(path, command, seed_override=None, out_override=None):
    """Load one run configuration file and resolve it for `command`.

    Each resolver reads only the keys the command uses and builds the
    objects it runs; afterwards every entry of the file that none of them
    read is refused, all before any run directory exists."""
    import numpy as np
    from .config import SolverConfig
    from .fp_particles import DriftField
    from .hjb import zero_hamiltonian
    from .mfg import MFGProblem
    from .models import MODEL_NAMES, make_model

    cp = _read_file(path)
    read = set()

    def get(section, key, cast, default=None, required=None):
        """One entry cast, recorded as read; a missing one is refused if
        `required` says why."""
        read.add((section, key))
        try:
            raw = cp.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                raise ConfigError("[%s] %s: required %s" % (section, key, required))
            return default
        try:
            return cast(raw.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError("[%s] %s: %s" % (section, key, exc))

    model = get("problem", "model", _one_of(*MODEL_NAMES),
                required="by " + command if command in ("solve-mfg", "check") else None)
    problem = None if model is None else make_model(model)
    # solve-fp without a model and solve-hjb with H = 0 take the spectrum
    # from the keys; a model owns the spectrum and the horizon otherwise
    keyed = command == "solve-fp" and problem is None
    if command == "solve-hjb":
        hamiltonian = get("problem", "hamiltonian", _one_of("model", "zero"),
                          default="zero" if problem is None else "model")
        if hamiltonian == "model" and problem is None:
            raise ConfigError("[problem] model: required when hamiltonian = model")
        keyed = hamiltonian == "zero"
    horizon = (get("problem", "horizon", float, default=1.0) if problem is None
               else problem.horizon)
    if not 0 < horizon < math.inf:
        raise ConfigError("[problem] horizon: must be positive and finite")
    if keyed:
        spectrum = _spectrum(get)
        try:
            problem = MFGProblem(spectrum=spectrum, hamiltonian=zero_hamiltonian(spectrum.N),
                                 terminal=lambda X, mu: np.cos(X[..., 0]),
                                 m0=_m0(get, spectrum.N), horizon=horizon)
        except ValueError as exc:  # an m0 whose fourth moment overflows
            raise ConfigError("[problem] m0: %s" % exc)
    spectrum = problem.spectrum
    drift = DriftField.zero(spectrum.N)
    if command == "solve-fp":
        drift = get("problem", "drift", partial(_drift, n_modes=spectrum.N), default=drift)

    num = {key: get("numerics", key, cast, default=getattr(SolverConfig, key))
           for key, cast in _NUMERICS}

    read.update({("run", "seed"), ("run", "out")})  # an override reads its key too
    seed = seed_override
    if seed is None:
        seed = get("run", "seed", int, required="(there is no entropy default)")
    out = out_override
    if out is None:
        out = get("run", "out", str, required="(or pass --out)")
    uniqueness = command == "check" and get("run", "uniqueness", _bool, default=True)

    try:
        solver = SolverConfig(horizon=horizon, seed=seed, **num)
    except ValueError as exc:  # the message leads with the offending key
        raise ConfigError("[%s] %s" % ("run" if str(exc).startswith("seed:") else "numerics", exc))
    source = "zero-drift"
    if command == "solve-hjb":
        source = get("problem", "measure_source", str, default=source)
    measure = None if source == "zero-drift" else _saved_path(source, spectrum, solver.mesh())
    _refuse_unread(cp, read, command)

    # resolved values flow back so config.echo is the effective record
    for section in ("problem", "numerics", "run"):
        if not cp.has_section(section):
            cp.add_section(section)
    cp.set("problem", "horizon", repr(solver.horizon))
    for key in _KEYS["numerics"]:
        cp.set("numerics", key, repr(getattr(solver, key)))
    cp.set("run", "seed", str(seed))
    cp.set("run", "out", out)

    return RunConfig(problem=problem, drift=drift, measure=measure,
                     uniqueness=uniqueness, solver=solver, out=out), cp


def _make_run_dir(cfg, cp):
    from pathlib import Path
    d = Path(cfg.out)
    if d.exists():
        raise ConfigError("[run] out: run directory %s already exists" % d)
    d.mkdir(parents=True)
    with open(d / "config.echo", "w") as fh:
        cp.write(fh)
    return d


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
    from .fp_particles import propagate
    from .hjb import default_box, hjb_residual, solve_hjb_mild

    prob, m = cfg.problem, cfg.measure
    spec, ham, terminal = prob.spectrum, prob.hamiltonian, prob.terminal
    if m is None:
        m = propagate(cfg.drift, prob.m0, spec, cfg.solver)

    d = _make_run_dir(cfg, cp)
    v = solve_hjb_mild(ham, terminal, m, spec, cfg.solver)

    box = default_box(spec, prob.m0, cfg.solver.box_scale)
    mesh = cfg.solver.mesh()
    xs = np.linspace(-0.5 * box, 0.5 * box, 5)
    samples = [(float(t), np.full(spec.N, x))
               for t in mesh[:-1:max(1, len(mesh) // 4)] for x in xs]
    residual = hjb_residual(v, ham, terminal, m, samples, spec, cfg.solver)

    v.to_dir(d / "v", extra={"hjb_residual": residual})
    _write_csv(d / "iterations.csv", ["iteration", "weighted_gradient_change"],
               enumerate(v.history, start=1))
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

    spec, w = cfg.problem.spectrum, cfg.drift
    d = _make_run_dir(cfg, cp)
    m = propagate(w, cfg.problem.m0, spec, cfg.solver)
    path_to_dir(m, d / "m")

    mom = moments(m.points)
    rows = [[t, k + 1, mom.second[j, k], covariance_qk(spec, k + 1, t),
             3.0 * mom.second_stderr[j, k]]
            for j, t in enumerate(m.times) for k in range(spec.N)]
    _write_csv(d / "moments.csv",
               ["time", "mode", "second_moment", "ou_variance", "stderr3"], rows)

    T = float(m.times[-1])
    phis = [FourierTestFunction(h=h) for h in np.eye(spec.N)]
    prof = weak_residual_profile(m, w, phis, T, spec)
    se = bootstrap_stderr(prof, seed=cfg.seed)
    rrows = [["weak_form_residual", "cos(x_%d)" % (k + 1), np.mean(prof[k]), 3.0 * se[k]]
             for k in range(spec.N)]
    _write_csv(d / "residuals.csv", ["op", "test_function", "value", "stderr3"], rrows)
    print("solve-fp: %d mesh times, artifacts in %s" % (len(m.times), d))
    return EXIT_OK


def _audit_rows(audit):
    """audit.csv: one row per mode (a tail mode has no sample), then the
    fourth moment and the path modulus."""
    return [["moment_bound_audit", r.mode, r.bound, r.observed if r.sampled else None,
             3.0 * r.stderr if r.sampled else None, "pass" if r.passed else "FAIL"]
            for r in audit.rows] + [
        ["moment_bound_audit", "norm^4", audit.fourth_bound, audit.fourth_observed,
         3.0 * audit.fourth_stderr, "pass" if audit.fourth_pass else "FAIL"],
        ["path_modulus", "fit", audit.modulus_constant, None, None,
         "pass" if audit.ok else "info"]]


def cmd_solve_mfg(cfg, cp):
    """Damped fixed point; artifacts: iteration trace, final value field and
    measure path, moment audit, and a summary of the certificate."""
    from .mfg import fixed_point_iterate, stall_message
    from .measures import path_to_dir

    d = _make_run_dir(cfg, cp)
    sol = fixed_point_iterate(cfg.problem, cfg.solver)
    _write_csv(d / "iterations.csv",
               ["iteration", "rho_inf_change", "psi_residual", "wallclock"],
               [[r.index, r.rho_change, r.psi_residual, "%.3f" % r.wallclock]
                for r in sol.iterations])
    if sol.status == "value-solve-stalled":  # iterations.csv holds the iterations done
        _write_csv(d / "summary.csv", ["key", "value"],
                   [["status", sol.status], ["iterations", len(sol.iterations)]])
        print("solve-mfg: no convergence: %s" % stall_message(sol.v), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    sol.v.to_dir(d / "v")
    path_to_dir(sol.m, d / "m")
    _write_csv(d / "audit.csv",
               ["op", "mode", "bound", "observed", "stderr3", "result"],
               _audit_rows(sol.audit))
    _write_csv(d / "summary.csv", ["key", "value"], [
        ["status", sol.status],
        ["iterations", len(sol.iterations)],
        ["psi_residual", sol.psi_residual],
        ["psi_residual_stderr", sol.psi_residual_stderr],
        ["certificate_budget", sol.certificate_budget],
        ["certified", "yes" if sol.certified else "no"],
        ["audit", "pass" if sol.audit.ok else "FAIL"],
        ["w1_method", sol.w1_method],
    ])
    if sol.status != "converged":
        print("solve-mfg: no convergence in %d iterations" % len(sol.iterations),
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if not (sol.audit.ok and sol.certified):
        print("solve-mfg: converged but audit/certificate failed", file=sys.stderr)
        return EXIT_AUDIT
    print("solve-mfg: converged in %d iterations, residual %.3e, artifacts in %s"
          % (len(sol.iterations), sol.psi_residual, d))
    return EXIT_OK


def cmd_check(cfg, cp):
    """Assumption gate: coupling monotonicity, declared-bound spot checks,
    and (optionally) the two-start uniqueness experiment, all reported to
    check.csv with the threshold and verdict of each report; the run exits
    4 iff a row of check.csv reads FAIL."""
    from .fp_particles import propagate
    from .measures import ProductGaussian
    from .mfg import uniqueness_experiment
    from .models import assumption_check, monotonicity_check
    from .spectrum import stationary_variances

    prob, spec = cfg.problem, cfg.problem.spectrum
    d = _make_run_dir(cfg, cp)
    rows = []

    coupling = getattr(prob.hamiltonian, "coupling", None)
    if coupling is not None:
        rep = monotonicity_check(coupling, trials=400, seed=cfg.seed, n_modes=spec.N)
        rows.append(["monotonicity_check", "min_pairing", rep.min_pairing, rep.floor,
                     "pass" if rep.passed else "FAIL"])
        if rep.identity_gap is not None:
            rows.append(["monotonicity_check", "identity_gap", rep.identity_gap,
                         rep.identity_tol, "pass" if rep.identity_ok else "FAIL"])

    arep = assumption_check(prob.hamiltonian, n_modes=spec.N, trials=150, seed=cfg.seed)
    rows.append(["assumption_check", "sup|H_p|", arep.hp_worst, arep.hp_declared,
                 "pass" if arep.hp_ok else "FAIL"])
    rows.append(["assumption_check", "lip_p", arep.lip_p_worst, arep.lip_p_declared,
                 "pass" if arep.lip_p_ok else "FAIL"])
    rows.append(["assumption_check", "lip_mu", arep.lip_mu_worst, arep.lip_mu_declared,
                 "pass" if arep.lip_mu_ok else "FAIL"])

    if cfg.uniqueness:
        from . import rng
        start_a = propagate(cfg.drift, prob.m0, spec,
                            cfg.solver.with_(seed=rng.derive_seed(cfg.seed, 0xA1)))
        stat = ProductGaussian(mean=[0.0] * spec.N,
                               var=list(stationary_variances(spec)))
        start_b = propagate(cfg.drift, stat, spec,
                            cfg.solver.with_(seed=rng.derive_seed(cfg.seed, 0xB1)))
        urep, _, _ = uniqueness_experiment(prob, start_a, start_b, cfg.solver)
        # reported, never gating: the negative control runs through here too
        rows.append(["uniqueness_experiment", "rho_between", urep.rho_between, "", "info"])
        rows.append(["uniqueness_experiment", "value_sup_distance", urep.value_sup_distance,
                     "", "info"])
        rows.append(["uniqueness_experiment", "status",
                     "%s/%s" % (urep.status_a, urep.status_b), "", "info"])

    _write_csv(d / "check.csv", ["op", "metric", "value", "threshold", "result"], rows)
    if any(row[-1] == "FAIL" for row in rows):
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
    try:
        cfg, cp = parse_run_config(args.config, args.command,
                                   seed_override=args.seed,
                                   out_override=args.out)
        return _COMMANDS[args.command](cfg, cp)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the contract maps crashes to 1
        import traceback
        traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
