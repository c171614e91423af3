"""Config parsing, subcommand pipelines, exit codes, artifact layout."""

import csv
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hilbert_mfg
from hilbert_mfg.cli import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    RunConfig,
    main,
    parse_run_config,
)
from hilbert_mfg.measures import ProductGaussian
from hilbert_mfg.models import make_model

FP_INI = """
[problem]
eigenvalues = -1.0
m0 = dirac
m0_mean = 0.0
drift = zero

[numerics]
dt = 0.1
particles = 20000

[run]
seed = 0
"""

HJB_INI = """
[problem]
eigenvalues = -1.0
hamiltonian = zero
m0 = dirac
m0_mean = 0.0

[numerics]
dt = 0.1
particles = 2000
grid_points = 32
quad_nodes = 8
tau_nodes = 17

[run]
seed = 0
"""

MFG_INI = """
[problem]
model = cap1d_monotone

[numerics]
dt = 0.1
particles = 3000
grid_points = 32
quad_nodes = 8
tau_nodes = 17
fp_tol = 4e-2

[run]
seed = 9
"""

CHECK_ANTI_INI = """
[problem]
model = cap1d_antimonotone

[numerics]
dt = 0.1
particles = 2000
grid_points = 32
quad_nodes = 8
tau_nodes = 17
fp_max = 3

[run]
seed = 0
uniqueness = no
"""

CHECK_MONO_INI = CHECK_ANTI_INI.replace("cap1d_antimonotone", "cap1d_monotone")


def write_ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_malformed_config_names_the_field(tmp_path, capsys):
    bad = FP_INI.replace("dt = 0.1", "dt = 0.1\npicard_tol = -1e-4")
    code = main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "picard_tol" in err and "numerics" in err


def test_missing_seed_is_a_config_error(tmp_path, capsys):
    bad = FP_INI.replace("seed = 0", "")
    code = main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "flag"])
def test_seed_outside_the_philox_key_range_is_a_config_error(tmp_path, capsys, where):
    big = str(2 ** 128)
    ini = FP_INI.replace("seed = 0", "seed = " + big) if where == "file" else FP_INI
    flag = ["--seed", big] if where == "flag" else []
    code = main(["solve-fp", "--config", write_ini(tmp_path, ini),
                 "--out", str(tmp_path / "r")] + flag)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[run] seed:" in err and "internal error" not in err
    assert not (tmp_path / "r").exists()
    cfg, _ = parse_run_config(write_ini(tmp_path, FP_INI), "solve-fp",
                              seed_override=2 ** 128 - 1, out_override=str(tmp_path / "r"))
    assert cfg.seed == 2 ** 128 - 1


def test_undecodable_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(b"\xff\xfe" + FP_INI.encode())
    code = main(["solve-fp", "--config", str(path), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and "internal error" not in err
    assert not (tmp_path / "r").exists()


def test_unknown_model_and_missing_file(tmp_path, capsys):
    bad = MFG_INI.replace("cap1d_monotone", "mystery")
    assert main(["solve-mfg", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert main(["solve-mfg", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "r2")]) == EXIT_CONFIG


def test_too_many_modes_rejected(tmp_path):
    bad = FP_INI.replace("eigenvalues = -1.0", "eigenvalues = -1 -2 -3 -4")
    assert main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG


def test_existing_run_directory_is_refused(tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    code = main(["solve-fp", "--config", write_ini(tmp_path, FP_INI),
                 "--out", str(out)])
    assert code == EXIT_CONFIG


def test_solve_fp_variance_column_matches_closed_form(tmp_path):
    out = tmp_path / "fp"
    assert main(["solve-fp", "--config", write_ini(tmp_path, FP_INI),
                 "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "moments.csv")
    assert len(rows) > 5
    for row in rows:
        gap = abs(float(row["second_moment"]) - float(row["ou_variance"]))
        assert gap <= float(row["stderr3"]) + 1e-12
    res = read_rows(out / "residuals.csv")
    assert res[0]["op"] == "weak_form_residual"
    assert abs(float(res[0]["value"])) < max(float(res[0]["stderr3"]), 2e-2)
    assert (out / "config.echo").exists()
    # (J+1, M, N): dt 0.1 on [0, 1], 20000 particles, one mode
    assert np.load(out / "m" / "points.npy").shape == (11, 20000, 1)


def test_solve_fp_with_a_model_starts_from_the_model_m0(tmp_path):
    out = tmp_path / "fp"
    ini = ("[problem]\nmodel = cap2d_f2\n\n[numerics]\ndt = 0.5\nparticles = 4000\n\n"
           "[run]\nseed = 3\n")
    assert main(["solve-fp", "--config", write_ini(tmp_path, ini),
                 "--out", str(out)]) == EXIT_OK
    start = [r for r in read_rows(out / "moments.csv") if float(r["time"]) == 0.0]
    m0 = make_model("cap2d_f2").m0
    assert [int(r["mode"]) for r in start] == [1, 2]
    for r in start:
        want = m0.mode_second_moment(int(r["mode"]))  # 0.24 and 0.1
        assert abs(float(r["second_moment"]) - want) <= float(r["stderr3"])


def test_solve_hjb_zero_hamiltonian_single_sweep(tmp_path):
    out = tmp_path / "hjb"
    assert main(["solve-hjb", "--config", write_ini(tmp_path, HJB_INI),
                 "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "iterations.csv")
    assert len(rows) == 1  # H == 0: the first correction already vanishes
    meta = {r["key"]: r["value"] for r in read_rows(out / "v" / "metadata.csv")}
    assert meta["status"] == "converged"
    assert float(meta["hjb_residual"]) < 1e-2


def test_solve_mfg_monotone_model_all_pass(tmp_path):
    out = tmp_path / "mfg"
    assert main(["solve-mfg", "--config", write_ini(tmp_path, MFG_INI),
                 "--out", str(out)]) == EXIT_OK
    audit = read_rows(out / "audit.csv")
    assert ("moment_bound_audit", "norm^4") in {(r["op"], r["mode"]) for r in audit}
    assert all(r["result"] in ("pass", "info") for r in audit)
    summary = {r["key"]: r["value"] for r in read_rows(out / "summary.csv")}
    assert summary["status"] == "converged"
    assert summary["certified"] == "yes"
    assert int(summary["iterations"]) <= 50
    head = open(out / "iterations.csv").readline().strip()
    assert head == "iteration,rho_inf_change,psi_residual,wallclock"
    assert (out / "v" / "metadata.csv").exists()
    # (J+1, M, N): dt 0.1 on [0, 1], 3000 particles, one mode
    assert np.load(out / "m" / "points.npy").shape == (11, 3000, 1)
    # (J+1, *grid) and (J, *grid, N) on 32 grid points
    assert np.load(out / "v" / "values.npy").shape == (11, 32)
    assert np.load(out / "v" / "grads.npy").shape == (10, 32, 1)


def test_check_negative_control_fails_with_audit_exit(tmp_path, capsys):
    out = tmp_path / "chk"
    code = main(["check", "--config", write_ini(tmp_path, CHECK_ANTI_INI),
                 "--out", str(out)])
    assert code == EXIT_AUDIT  # distinguishable from a crash (exit 1)
    rows = read_rows(out / "check.csv")
    mono = [r for r in rows if r["op"] == "monotonicity_check"
            and r["metric"] == "min_pairing"]
    assert mono and mono[0]["result"] == "FAIL"
    assert float(mono[0]["value"]) < 0


def test_check_monotone_model_passes_with_uniqueness(tmp_path):
    ini = CHECK_MONO_INI.replace("uniqueness = no", "uniqueness = yes")
    ini = ini.replace("fp_max = 3", "fp_max = 8\nfp_tol = 4e-2")
    out = tmp_path / "chk"
    assert main(["check", "--config", write_ini(tmp_path, ini),
                 "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "check.csv")
    ops = {r["op"] for r in rows}
    assert {"monotonicity_check", "assumption_check",
            "uniqueness_experiment"} <= ops
    uniq = [r for r in rows if r["metric"] == "rho_between"]
    assert np.isfinite(float(uniq[0]["value"]))


def test_check_gates_each_lipschitz_row_on_its_own_bound(tmp_path, monkeypatch):
    """Only the measure Lipschitz ratio exceeds its bound: lip_p passes,
    lip_mu fails, and the FAIL row sets the exit code."""
    import hilbert_mfg.models as models_mod
    from hilbert_mfg.models import AssumptionReport

    monkeypatch.setattr(models_mod, "assumption_check", lambda *args, **kwargs: AssumptionReport(
        hp_worst=0.5, hp_declared=1.0, lip_p_worst=1.0, lip_p_declared=2.0,
        lip_mu_worst=3.0, lip_mu_declared=2.0))
    out = tmp_path / "chk"
    assert main(["check", "--config", write_ini(tmp_path, CHECK_MONO_INI),
                 "--out", str(out)]) == EXIT_AUDIT
    rows = {r["metric"]: r["result"] for r in read_rows(out / "check.csv")}
    assert (rows["sup|H_p|"], rows["lip_p"], rows["lip_mu"]) == ("pass", "pass", "FAIL")


def test_check_exits_4_on_a_failed_identity_gap_row(tmp_path, monkeypatch):
    """A monotone coupling whose pairing misses its closed form writes a
    FAIL identity_gap row, and that row alone exits 4."""
    import hilbert_mfg.models as models_mod

    check = models_mod.monotonicity_check

    def off_identity(*args, **kwargs):
        rep = check(*args, **kwargs)
        rep.passed, rep.identity_gap = True, 1e-6
        return rep

    monkeypatch.setattr(models_mod, "monotonicity_check", off_identity)
    out = tmp_path / "chk"
    assert main(["check", "--config", write_ini(tmp_path, CHECK_MONO_INI),
                 "--out", str(out)]) == EXIT_AUDIT
    rows = {r["metric"]: r["result"] for r in read_rows(out / "check.csv")}
    assert rows["identity_gap"] == "FAIL"
    assert [r for r in rows.values() if r == "FAIL"] == ["FAIL"]


def test_seed_override_lands_in_echo(tmp_path):
    out = tmp_path / "fp"
    assert main(["solve-fp", "--config", write_ini(tmp_path, FP_INI),
                 "--out", str(out), "--seed", "123"]) == EXIT_OK
    echo = (out / "config.echo").read_text()
    assert "seed = 123" in echo


def test_threads_flag_validation(tmp_path, capsys):
    assert main(["solve-fp", "--config", write_ini(tmp_path, FP_INI),
                 "--out", str(tmp_path / "r"), "--threads", "0"]) == EXIT_CONFIG


def test_rerun_is_byte_identical_outside_wallclock(tmp_path):
    cfg = write_ini(tmp_path, MFG_INI)
    out = tmp_path / "run"
    assert main(["solve-mfg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    keep = tmp_path / "first"
    shutil.move(str(out), str(keep))
    assert main(["solve-mfg", "--config", cfg, "--out", str(out)]) == EXIT_OK

    first = sorted(p.relative_to(keep) for p in keep.rglob("*") if p.is_file())
    second = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert first == second
    for rel in first:
        a, b = (keep / rel), (out / rel)
        if rel.name == "iterations.csv":
            # wallclock is the one permitted difference
            ra = [row[:3] for row in csv.reader(open(a))]
            rb = [row[:3] for row in csv.reader(open(b))]
            assert ra == rb
        else:
            assert a.read_bytes() == b.read_bytes(), rel


def test_solve_fp_loads_no_scipy(tmp_path):
    # scipy serves only exact W1 on N >= 2 modes, which imports it itself
    src = str(Path(hilbert_mfg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    ini = write_ini(tmp_path, FP_INI.replace("particles = 20000", "particles = 200"))
    probe = ("import sys\n"
             "import hilbert_mfg.cli, hilbert_mfg.mfg, hilbert_mfg.models, hilbert_mfg.fp_particles\n"
             "code = hilbert_mfg.cli.main(['solve-fp', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe, ini, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == "%d []" % EXIT_OK


def test_one_mode_solve_mfg_loads_no_scipy(tmp_path):
    # one mode takes every W1 by sorting, so no assignment imports scipy
    src = str(Path(hilbert_mfg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    ini = write_ini(tmp_path, TINY_MFG_INI % "cap1d_monotone")
    probe = ("import sys\n"
             "import hilbert_mfg.cli\n"
             "code = hilbert_mfg.cli.main(['solve-mfg', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe, ini, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, loaded = done.stdout.strip().splitlines()[-1].split(" ", 1)
    assert int(code) in (EXIT_OK, EXIT_NO_CONVERGENCE, EXIT_AUDIT) and loaded == "[]"


def test_parse_run_config_roundtrip(tmp_path):
    cfg, cp = parse_run_config(write_ini(tmp_path, MFG_INI), "solve-mfg",
                               out_override=str(tmp_path / "o"))
    assert cfg.solver.fp_tol == pytest.approx(4e-2)
    assert cfg.solver.seed == 9
    assert cp.get("numerics", "grid_points") == "32"


def test_solve_fp_without_a_model_builds_its_problem_from_the_keys(tmp_path):
    ini = FP_INI.replace("eigenvalues = -1.0", "eigenvalues = -1.0 -4.0").replace(
        "m0_mean = 0.0", "m0_mean = 0.5 -0.25")
    cfg, _ = parse_run_config(write_ini(tmp_path, ini), "solve-fp",
                              out_override=str(tmp_path / "o"))
    assert [f.name for f in fields(RunConfig)] == [
        "problem", "drift", "measure", "uniqueness", "solver", "out"]
    prob = cfg.problem
    assert prob.spectrum.eigenvalues == (-1.0, -4.0)
    assert isinstance(prob.m0, ProductGaussian)
    assert (prob.m0.mean.tolist(), prob.m0.var.tolist()) == ([0.5, -0.25], [0.0, 0.0])
    assert prob.hamiltonian.label == "zero" and prob.hamiltonian.bound_Hp == 0.0


@pytest.mark.parametrize("command, text", [("solve-fp", FP_INI), ("solve-hjb", HJB_INI)],
                         ids=["solve-fp", "solve-hjb"])
def test_an_m0_whose_fourth_moment_overflows_exits_2(tmp_path, capsys, command, text):
    out = tmp_path / "r"
    ini = write_ini(tmp_path, text.replace("m0_mean = 0.0", "m0_mean = 1e100"))
    assert main([command, "--config", ini, "--out", str(out)]) == EXIT_CONFIG
    assert "[problem] m0: initial law needs a finite fourth moment" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where, name", [("file", "run%1"), ("flag", "x%y"), ("file", "%(seed)s")],
                         ids=["lone-percent-in-file", "percent-in-flag", "interpolation-in-file"])
def test_config_values_are_read_literally(tmp_path, where, name):
    # '%' is no syntax: a lone one crashed the run and %(seed)s named the
    # run directory after the seed
    out = tmp_path / name
    ini = FP_INI.replace("particles = 20000", "particles = 200")
    if where == "file":
        args = ["--config", write_ini(tmp_path, ini + "out = %s\n" % out)]
    else:
        args = ["--config", write_ini(tmp_path, ini), "--out", str(out)]
    assert main(["solve-fp"] + args) == EXIT_OK
    assert "out = %s\n" % out in (out / "config.echo").read_text()


def test_inner_value_stall_exits_3_with_iterations_file(tmp_path, capsys):
    bad = MFG_INI.replace("fp_tol = 4e-2", "fp_tol = 4e-2\npicard_max = 1")
    out = tmp_path / "r"
    code = main(["solve-mfg", "--config", write_ini(tmp_path, bad), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "stalled" in err and "internal error" not in err
    assert (out / "config.echo").exists()
    head = open(out / "iterations.csv").readline().strip()
    assert head == "iteration,rho_inf_change,psi_residual,wallclock"


def test_inner_value_stall_writes_a_summary_with_its_status(tmp_path, monkeypatch):
    """A value solve that stalls after one completed outer iteration leaves
    summary.csv naming the stall and counting that iteration."""
    import hilbert_mfg.mfg as mfg_mod
    from hilbert_mfg.hjb import solve_hjb_mild

    solves = []

    def stall_second(*args, **kwargs):
        solves.append(None)
        v = solve_hjb_mild(*args, **kwargs)
        if len(solves) == 2:
            v.status = "max-iterations"
        return v

    monkeypatch.setattr(mfg_mod, "solve_hjb_mild", stall_second)
    ini = """
[problem]
model = cap1d_monotone

[numerics]
dt = 0.25
particles = 200
grid_points = 9
quad_nodes = 4
tau_nodes = 5
fp_max = 3

[run]
seed = 1
"""
    out = tmp_path / "r"
    code = main(["solve-mfg", "--config", write_ini(tmp_path, ini), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert len(solves) == 2
    assert [r["iteration"] for r in read_rows(out / "iterations.csv")] == ["1"]
    summary = {r["key"]: r["value"] for r in read_rows(out / "summary.csv")}
    assert summary == {"status": "value-solve-stalled", "iterations": "1"}


def test_check_reports_a_stalled_uniqueness_leg_and_exits_by_its_gates(tmp_path):
    ini = """
[problem]
model = cap1d_monotone

[numerics]
dt = 0.25
particles = 200
grid_points = 9
quad_nodes = 4
tau_nodes = 5
picard_max = 1
picard_tol = 1e-12
fp_max = 2

[run]
seed = 1
"""
    out = tmp_path / "chk"
    assert main(["check", "--config", write_ini(tmp_path, ini),
                 "--out", str(out)]) == EXIT_OK
    rows = {r["metric"]: r for r in read_rows(out / "check.csv")}
    assert rows["min_pairing"]["result"] == "pass" and rows["lip_mu"]["result"] == "pass"
    assert rows["status"]["value"] == "value-solve-stalled/value-solve-stalled"
    assert rows["rho_between"]["value"] == "nan"
    assert rows["value_sup_distance"]["value"] == "nan"


@pytest.mark.parametrize("key, text", [("damping", "damping = 1.5"),
                                       ("grid_points", "grid_points = 1"),
                                       ("box_scale", "box_scale = 0"),
                                       ("picard_max", "picard_max = 0"),
                                       ("dt", "dt = nan"),
                                       ("dt", "dt = inf")])
def test_out_of_range_numerics_exit_2_naming_the_key(tmp_path, capsys, key, text):
    keep = "" if key == "dt" else "dt = 0.1\n"  # a dt case replaces the base dt
    bad = FP_INI.replace("dt = 0.1", keep + text)
    code = main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "numerics" in err and "internal error" not in err
    assert not (tmp_path / "r").exists()


def test_duplicated_numerics_key_exits_2_naming_the_key(tmp_path, capsys):
    bad = FP_INI.replace("dt = 0.1", "dt = 0.1\ndt = 0.2")
    code = main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dt" in err and "numerics" in err and "internal error" not in err


@pytest.mark.parametrize("anchor, line, named", [
    ("m0 = dirac", "m0_shape = flat", "[problem] m0_shape"),
    ("dt = 0.1", "particels = 100", "[numerics] particels"),
    ("dt = 0.1", "exact_w1_budget = 64", "[numerics] exact_w1_budget"),
    ("seed = 0", "sede = 3", "[run] sede"),
    ("seed = 0", "\n[solver]\ndt = 0.2", "[solver]"),
])
def test_unknown_section_or_key_exits_2_before_the_run_directory(
        tmp_path, capsys, anchor, line, named):
    bad = FP_INI.replace(anchor, anchor + "\n" + line)
    code = main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, anchor, text, named", [
    pytest.param("solve-fp", "drift = zero", "drift = zero\nfamily = power abc 2", "family",
                 id="family-word"),
    pytest.param("solve-fp", "drift = zero", "drift =", "drift", id="drift-empty"),
    pytest.param("solve-fp", "drift = zero", "drift = const inf", "drift", id="drift-inf"),
    pytest.param("solve-fp", "eigenvalues = -1.0", "eigenvalues =", "eigenvalues",
                 id="eigenvalues-empty"),
    pytest.param("solve-fp", "eigenvalues = -1.0", "eigenvalues = nan", "eigenvalues",
                 id="eigenvalues-nan"),
    pytest.param("solve-fp", "eigenvalues = -1.0", "eigenvalues = -1e400", "eigenvalues",
                 id="eigenvalues-overflow"),
    pytest.param("solve-fp", "m0_mean = 0.0", "m0_mean = nan", "m0_mean", id="m0_mean-nan"),
    pytest.param("solve-fp", "m0 = dirac", "m0 = gaussian\nm0_var = nan", "m0_var",
                 id="m0_var-nan"),
    pytest.param("solve-fp", "drift = zero", "drift = zero\nhorizon = inf", "horizon",
                 id="horizon-inf"),
    pytest.param("solve-hjb", "eigenvalues = -1.0", "model = cap1d_monotone", "eigenvalues",
                 id="hjb-zero-hamiltonian-without-eigenvalues"),
    pytest.param("solve-fp", "drift = zero", "drift = zero\ndelta = nan", "delta",
                 id="delta-nan"),
    pytest.param("solve-fp", "drift = zero", "drift = zero\ndelta = 1.5", "delta",
                 id="delta-above-1"),
    pytest.param("solve-fp", "drift = zero", "drift = zero\nfamily = power -1 2", "family",
                 id="family-negative-constant"),
    pytest.param("solve-fp", "eigenvalues = -1.0", "eigenvalues = -1 -2\nfamily = power 1 2",
                 "family", id="family-mismatch"),
    pytest.param("solve-fp", "drift = zero", "drift = zero 5 6", "drift",
                 id="drift-trailing-tokens"),
    pytest.param("solve-hjb", "m0 = dirac", "model = cap1d_monotone\nm0 = gaussian\nm0_var = -1",
                 "m0_var", id="hjb-model-m0_var-negative"),
    pytest.param("solve-fp", "eigenvalues = -1.0\nm0 = dirac",
                 "model = cap1d_monotone\nm0 = gaussian", "m0", id="fp-model-m0-dropped"),
    # a key the command does not read is refused, never dropped
    pytest.param("solve-fp", "eigenvalues = -1.0",
                 "model = cap1d_monotone\neigenvalues = -5.0\ndelta = 0.9", "eigenvalues",
                 id="fp-model-eigenvalues-dropped"),
    pytest.param("solve-fp", "eigenvalues = -1.0", "model = cap1d_monotone\nhorizon = 2.0",
                 "horizon", id="fp-model-horizon-dropped"),
    pytest.param("solve-fp", "drift = zero", "drift = zero\nmeasure_source = saved",
                 "measure_source", id="fp-measure_source-dropped"),
    pytest.param("solve-fp", "m0 = dirac", "m0 = dirac\nm0_var = 0.5", "m0_var",
                 id="fp-dirac-m0_var-dropped"),
    pytest.param("solve-hjb", "eigenvalues = -1.0\nhamiltonian = zero\nm0 = dirac\nm0_mean = 0.0",
                 "model = cap1d_monotone\nhamiltonian = model\nm0 = gaussian", "m0",
                 id="hjb-model-m0-dropped"),
    pytest.param("solve-hjb", "m0_mean = 0.0", "m0_mean = 0.0\ndrift = const 1", "drift",
                 id="hjb-drift-dropped"),
    pytest.param("solve-mfg", "model = cap1d_monotone", "model = cap1d_monotone\nhorizon = 2.0",
                 "horizon", id="mfg-horizon-dropped"),
    pytest.param("solve-mfg", "model = cap1d_monotone",
                 "model = cap1d_monotone\neigenvalues = -1.0", "eigenvalues",
                 id="mfg-eigenvalues-dropped"),
    pytest.param("solve-mfg", "seed = 9", "seed = 9\nuniqueness = no", "[run] uniqueness",
                 id="mfg-uniqueness-dropped"),
    pytest.param("check", "model = cap1d_monotone", "model = cap1d_monotone\nm0_mean = 0.5",
                 "m0_mean", id="check-m0_mean-dropped"),
])
def test_bad_problem_entry_exits_2_before_the_run_directory(
        tmp_path, capsys, command, anchor, text, named):
    base = {"solve-fp": FP_INI, "solve-hjb": HJB_INI, "solve-mfg": MFG_INI, "check": MFG_INI}
    bad = base[command].replace(anchor, text)
    assert bad != base[command]
    code = main([command, "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    named = named if named.startswith("[") else "[problem] " + named
    assert named + ":" in err and "internal error" not in err
    assert not (tmp_path / "r").exists()


ALL_NUMERICS = """
[numerics]
dt = 0.1
particles = 3000
grid_points = 32
box_scale = 6.0
quad_nodes = 8
tau_nodes = 17
picard_tol = 1e-4
picard_max = 40
fp_tol = 4e-2
fp_max = 50
damping = 0.5
"""
SPECTRUM = "eigenvalues = -1.0\ndelta = 0.5\nfamily = power 1.0 3.0\n"
GAUSSIAN_M0 = "m0 = gaussian\nm0_mean = 0.1\nm0_var = 0.2\n"


# One case per row of the README key table, naming every key the row lists;
# a resolver that stops reading one of them makes its case exit 2.
@pytest.mark.parametrize("command, problem, run", [
    pytest.param("solve-fp", "horizon = 1.0\n" + SPECTRUM + GAUSSIAN_M0 + "drift = const 0.5",
                 "", id="solve-fp"),
    pytest.param("solve-fp", "model = cap1d_monotone\ndrift = const 0.5", "",
                 id="solve-fp-model"),
    pytest.param("solve-hjb", "model = cap1d_monotone\nhamiltonian = model\n"
                 "measure_source = zero-drift", "", id="solve-hjb-model"),
    pytest.param("solve-hjb", "hamiltonian = zero\nmeasure_source = zero-drift\nhorizon = 1.0\n"
                 + SPECTRUM + GAUSSIAN_M0, "", id="solve-hjb-zero"),
    pytest.param("solve-hjb", "model = cap1d_monotone\nhamiltonian = zero\n"
                 "measure_source = zero-drift\n" + SPECTRUM + GAUSSIAN_M0, "",
                 id="solve-hjb-zero-model"),
    pytest.param("solve-mfg", "model = cap1d_monotone", "", id="solve-mfg"),
    pytest.param("check", "model = cap1d_monotone", "uniqueness = no", id="check"),
])
def test_every_key_the_table_lists_is_read(tmp_path, command, problem, run):
    out = tmp_path / "r"
    ini = "[problem]\n%s\n%s\n[run]\nseed = 9\nout = %s\n%s\n" % (
        problem, ALL_NUMERICS, out, run)
    assert main([command, "--config", write_ini(tmp_path, ini)]) == EXIT_OK
    assert (out / "config.echo").exists()


TINY_MFG_INI = """
[problem]
model = %s

[numerics]
dt = 0.5
particles = 600
grid_points = 8
quad_nodes = 3
tau_nodes = 3
fp_max = 2

[run]
seed = 5
"""


@pytest.mark.parametrize("model, method", [("cap1d_monotone", "exact"),
                                           ("cap2d_f2", "sliced")])
def test_summary_names_the_w1_method(tmp_path, model, method):
    # 600 particles exceed the assignment budget: one mode still sorts exactly
    out = tmp_path / "r"
    code = main(["solve-mfg", "--config", write_ini(tmp_path, TINY_MFG_INI % model),
                 "--out", str(out)])
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE, EXIT_AUDIT)
    rows = read_rows(out / "summary.csv")
    assert rows[-1] == {"key": "w1_method", "value": method}


def test_outer_non_convergence_exits_3_with_a_complete_run_directory(tmp_path, capsys):
    # converging takes two quiet iterations in a row, so one can never do
    ini = (TINY_MFG_INI % "cap1d_monotone").replace("fp_max = 2", "fp_max = 1")
    out = tmp_path / "r"
    code = main(["solve-mfg", "--config", write_ini(tmp_path, ini), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert "no convergence in 1 iterations" in capsys.readouterr().err
    assert "status,max-iterations" in (out / "summary.csv").read_text().splitlines()
    assert (out / "v").is_dir() and (out / "m").is_dir() and (out / "audit.csv").is_file()
    assert [r["iteration"] for r in read_rows(out / "iterations.csv")] == ["1"]


def test_increasing_spectrum_exits_2_but_a_failed_trace_condition_runs(tmp_path, capsys):
    bad = FP_INI.replace("eigenvalues = -1.0", "eigenvalues = -4.0 -1.0")
    code = main(["solve-fp", "--config", write_ini(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[problem] eigenvalues" in err and "non-increasing" in err
    assert not (tmp_path / "r").exists()
    # p (1 - delta) = 1 fails the trace condition; that is reported, not refused
    ok = FP_INI.replace("eigenvalues = -1.0",
                        "eigenvalues = -1.0 -4.0\nfamily = power 1.0 2.0\ndelta = 0.5")
    ok = ok.replace("m0_mean = 0.0", "m0_mean = 0.0 0.0").replace("20000", "2000")
    assert main(["solve-fp", "--config", write_ini(tmp_path, ok),
                 "--out", str(tmp_path / "ok")]) == EXIT_OK


def test_importing_the_cli_loads_no_numpy():
    # --threads is exported inside main(); numpy must not be loaded before it
    src = str(Path(hilbert_mfg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, hilbert_mfg.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_every_public_name_resolves_through_the_lazy_getattr():
    # a stale _EXPORTS entry would raise AttributeError here
    for name in hilbert_mfg.__all__:
        assert hilbert_mfg.__getattr__(name) is not None, name


def write_saved_path(d, times, points, allow_pickle=False):
    """A measure_source directory in the layout path_to_dir writes."""
    d.mkdir()
    np.savetxt(d / "times.csv", times, fmt="%.17g", header="t", comments="")
    np.save(d / "points.npy", points, allow_pickle=allow_pickle)


@pytest.mark.parametrize("case", ["missing", "mesh", "modes", "length", "float32",
                                  "pickled", "empty", "valid"])
def test_measure_source_is_checked_before_the_run_directory(tmp_path, capsys, case):
    # HJB_INI: one mode, dt 0.1 on [0, 1]
    times = np.linspace(0.0, 1.0, 6 if case == "mesh" else 11)
    points = np.stack([np.full((5, 2 if case == "modes" else 1), 0.1 * j)
                       for j in range(len(times))])
    points = {"length": points[:-1], "float32": points.astype(np.float32),
              "pickled": points.astype(object)}.get(case, points)
    src = tmp_path / "saved"
    if case != "missing":
        write_saved_path(src, times, points, allow_pickle=case == "pickled")
    if case == "empty":
        (src / "points.npy").write_bytes(b"")
    ini = HJB_INI.replace("m0_mean = 0.0", "m0_mean = 0.0\nmeasure_source = %s" % src)
    out = tmp_path / "r"
    code = main(["solve-hjb", "--config", write_ini(tmp_path, ini), "--out", str(out)])
    if case == "valid":
        assert code == EXIT_OK
        return
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[problem] measure_source" in err and "internal error" not in err
    assert not out.exists()
