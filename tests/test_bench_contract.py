"""What the benchmark in perfbench/ needs of the program, checked without
running a workload: every name `spans.Tracer` wraps still exists, every
workload config that goes through the CLI still parses, and BENCHMARK.json
declares the workloads and per-layer metrics the harness defines."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hilbert_mfg import cli, fp_particles

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A perfbench module, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")

COMMANDS = {workloads.MfgWorkload: "solve-mfg", workloads.FpWorkload: "solve-fp"}


def test_benchmark_json_declares_the_harness_workloads_and_layer_metrics():
    # run.py is not imported: it sets the thread variables when imported
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [wl["name"] for wl in declared["workloads"]] == list(workloads.WORKLOADS)
    assert ([(metric["name"], metric["unit"]) for metric in declared["per_layer"]]
            == [(name, unit) for name, (unit, _) in spans.LAYER_METRICS.items()])


def test_tracer_wraps_every_target_and_puts_the_originals_back():
    # checked before entering: a failed __enter__ would leave its patches behind
    missing = [(owner.__name__, attr) for owner, attr, _ in spans.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    with spans.Tracer() as tracer:
        assert len(tracer._saved) == len(spans.TARGETS) == 24
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr, _), fn in zip(spans.TARGETS, originals))
    assert all(owner.__dict__[attr] is fn
               for (owner, attr, _), fn in zip(spans.TARGETS, originals))


@pytest.mark.parametrize("name", [name for name, wl in workloads.WORKLOADS.items()
                                  if type(wl) in COMMANDS])
def test_workload_config_parses(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    prep = wl.prepare(11, tmp_path)
    cfg, _ = cli.parse_run_config(str(prep["ini"]), COMMANDS[type(wl)],
                                  out_override=str(tmp_path / "out"))
    assert cfg.seed == 11 and not (tmp_path / "out").exists()


def test_solve_fp_audits_every_test_function_in_one_traced_call(tmp_path, monkeypatch):
    # the fp_particles.weak_residual span wraps this name; solve-fp must
    # resolve it, once, for all of its test functions
    calls = []
    original = fp_particles.weak_residual_profile

    def counting(path, w, phis, t, spec):
        calls.append(len(phis))
        return original(path, w, phis, t, spec)

    monkeypatch.setattr(fp_particles, "weak_residual_profile", counting)
    ini = tmp_path / "fp.ini"
    ini.write_text("[problem]\neigenvalues = -1 -4\nhorizon = 0.5\ndrift = const 0.3 -0.2\n\n"
                   "[numerics]\ndt = 0.1\nparticles = 200\n\n[run]\nseed = 1\n")
    assert cli.main(["solve-fp", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    assert calls == [2]
