"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread variables before numpy loads)

spans, workloads = run._import_program()


def tiny(name, **numerics):
    """A copy of a workload at a size that runs in about a second."""
    wl = workloads.WORKLOADS[name]
    if isinstance(wl, workloads.MfgWorkload):
        small = dict(dt=0.25, particles=600, grid_points=8, quad_nodes=4,
                     tau_nodes=4, fp_tol=0.5, picard_tol=1e-2)
        return dataclasses.replace(wl, numerics=dict(wl.numerics, **small, **numerics))
    if isinstance(wl, workloads.TransportWorkload):
        return dataclasses.replace(wl, particles=(300, 64), dt=0.25)
    return dataclasses.replace(wl, numerics=dict(wl.numerics, particles=500, dt=0.1))


@pytest.mark.parametrize("name", run.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    res = run.measure(tiny(name), 3, 0.0, 0, tmp_path / "w", spans, setup_s=0.5,
                      report=lambda line: None)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, run.MIN_CALLS, 0)
    assert set(res["metrics"]) == set(run.END_TO_END_UNITS)
    for metric, m in res["metrics"].items():
        assert m["unit"] == run.END_TO_END_UNITS[metric]
        assert math.isfinite(m["value"]) and m["value"] > 0
    assert not (tmp_path / "w").exists()


def test_traced_run_reports_every_layer_metric_and_repeats_counts(tmp_path):
    lines = []
    res = run.measure(tiny("mfg-1d"), 3, 0.0, 1, tmp_path / "w", spans,
                      report=lines.append)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(spans.LAYER_METRICS)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # two outer iterations, the final solve, and three certificate repeats
    # against the final path
    assert (m["mfg.outer_iterations"], m["hjb.solves"], m["hjb.repeat_solves"]) == (2, 6, 3)
    assert m["ou_kernel.repeat_share"] == 1.0
    assert m["cli.artifact_bytes"] > 0 and m["fp_particles.particle_steps"] > 0
    assert [line.split()[3] for line in lines if " call " in line] == \
        [("untraced", "traced", "traced")[i % 3] for i in range(run.MIN_CALLS)]
    dumped = (tmp_path / "spans-mfg-1d-seed3.jsonl").read_text().splitlines()
    assert {json.loads(line)["name"] for line in dumped} >= {"hjb.solve", "ou_kernel.apply"}


def test_tracing_restores_the_program():
    from hilbert_mfg import hjb, mfg
    before = (mfg.solve_hjb_mild, hjb.GridValueField.__dict__["grad_at"])
    with spans.Tracer():
        assert mfg.solve_hjb_mild is not before[0]
    assert (mfg.solve_hjb_mild, hjb.GridValueField.__dict__["grad_at"]) == before


def test_failed_check_counts_as_failed_operation(tmp_path):
    res = run.measure(tiny("mfg-1d", fp_max=1), 3, 0.0, 0, tmp_path / "w", spans,
                      setup_s=0.5, report=lambda line: None)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == run.MIN_CALLS


def test_digest_ignores_only_the_wallclock_column(tmp_path):
    for d, clock in (("a", "1.000"), ("b", "2.500")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "iterations.csv").write_text(
            "iteration,rho_inf_change,wallclock\r\n1,0.5,%s\r\n" % clock)
    assert workloads.dir_digest(tmp_path / "a") == workloads.dir_digest(tmp_path / "b")
    (tmp_path / "b" / "iterations.csv").write_text(
        "iteration,rho_inf_change,wallclock\r\n1,0.25,2.500\r\n")
    assert workloads.dir_digest(tmp_path / "a") != workloads.dir_digest(tmp_path / "b")


def test_digest_does_not_depend_on_the_work_directory(tmp_path):
    digests = []
    for d in ("a", "deeper/b"):
        lines = []
        run.measure(tiny("fp-3d"), 3, 0.0, 0, tmp_path / d, spans, setup_s=0.5,
                    report=lines.append)
        digests.append([line for line in lines if " digest " in line])
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_setup_seconds_times_fresh_processes():
    assert 0 < run.setup_seconds("fp-3d", 3) < 60


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mfg-1d"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
