"""Acceptance gate: one test per quantitative claim, at stated tolerance.

Each test prints a single pass/fail line (visible with -s, or in the
failure report), then asserts.  Everything runs at desk scale; jointly
the module finishes in a few minutes.
"""

import csv
import shutil

import numpy as np

from hilbert_mfg import rng
from hilbert_mfg.cli import EXIT_OK, main
from hilbert_mfg.config import SolverConfig
from hilbert_mfg.fp_particles import (
    DriftField,
    bootstrap_stderr,
    propagate,
    residual_audit_cases,
    weak_residual_profile,
)
from hilbert_mfg.hjb import hjb_residual, solve_hjb_mild, solve_kolmogorov
from hilbert_mfg.measures import (
    Dirac,
    MeasurePath,
    ParticleMeasure,
    ProductGaussian,
    wasserstein1,
    wasserstein1_sliced,
)
from hilbert_mfg.mfg import mode_bounds, psi_map, uniqueness_experiment
from hilbert_mfg.models import (
    CappedControlHamiltonian,
    eval_DH1,
    eval_H1,
    make_model,
    monotonicity_check,
)
from hilbert_mfg.ou_kernel import OUKernel, QuadratureRule
from hilbert_mfg.spectrum import SpectrumSpec, covariance_qk, semigroup_factors


def report(num, name, ok, detail=""):
    print("criterion %02d %-36s %s  %s" % (num, name, "PASS" if ok else "FAIL", detail))
    return ok


SPEC1 = SpectrumSpec(eigenvalues=(-1.0,))
SPEC2 = SpectrumSpec(eigenvalues=(-1.0, -2.0))


def test_criterion_01_ou_kernel_exactness():
    kernel = OUKernel(SPEC1, QuadratureRule(nodes_per_mode=32))
    xs = np.linspace(-2.0, 2.0, 9)[:, None]
    worst = 0.0
    for t in (0.1, 0.5, 1.3):
        e = float(semigroup_factors(SPEC1, t)[0])
        q = covariance_qk(SPEC1, 1, t)
        cases = [
            (lambda X: np.ones(X.shape[:-1]), np.ones(len(xs))),
            (lambda X: X[..., 0], e * xs[:, 0]),
            (lambda X: X[..., 0] ** 2, e * e * xs[:, 0] ** 2 + q),
        ]
        for phi, want in cases:
            got = kernel.apply_Rt(phi, t, xs)
            worst = max(worst, np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))
    poly = lambda X: X[..., 0] ** 4 - 2 * X[..., 0] ** 3 + 0.5 * X[..., 0] ** 2 + X[..., 0] - 3
    sup_poly = 0.0
    for t, s in ((0.3, 0.5), (0.2, 0.9)):
        inner = lambda X: kernel.apply_Rt(poly, s, X)
        composed = kernel.apply_Rt(inner, t, xs)
        direct = kernel.apply_Rt(poly, t + s, xs)
        sup_poly = max(sup_poly, np.max(np.abs(composed - direct)) / np.max(np.abs(direct)))
    ok = worst < 1e-6 and sup_poly < 1e-6
    assert report(1, "ou_kernel_exactness", ok,
                  "closed-form rel %.1e, semigroup rel %.1e" % (worst, sup_poly))


def test_criterion_02_gradient_fidelity():
    kernel = OUKernel(SPEC1, QuadratureRule(nodes_per_mode=32))
    phi = lambda X: np.tanh(X[..., 0]) + 0.3 * np.cos(1.4 * X[..., 0])
    xs = np.linspace(-2.0, 2.0, 21)[:, None]
    h = 1e-4
    worst = 0.0
    for t in (0.05, 0.2, 1.0):
        an = kernel.gradient_DRt(phi, t, xs)[:, 0]
        fd = (kernel.apply_Rt(phi, t, xs + h) - kernel.apply_Rt(phi, t, xs - h)) / (2 * h)
        worst = max(worst, np.max(np.abs(fd - an)) / np.max(np.abs(an)))
    kernel2 = OUKernel(SPEC2, QuadratureRule(nodes_per_mode=24))
    eig_gap = 0.0
    pts = np.array([[0.4, -1.1], [0.0, 0.0], [1.7, 0.6]])
    for k in (1, 2):
        lin = lambda X, k=k: X[..., k - 1]
        grad = kernel2.gradient_DRt(lin, 0.3, pts)
        want = np.zeros(2)
        want[k - 1] = float(semigroup_factors(SPEC2, 0.3)[k - 1])
        eig_gap = max(eig_gap, float(np.max(np.abs(grad - want))))
    ok = worst < 1e-2 and eig_gap < 1e-10
    assert report(2, "gradient_fidelity", ok,
                  "fd rel %.1e, eigenrelation %.1e" % (worst, eig_gap))


def test_criterion_03_linear_kolmogorov_oracle():
    cfg = SolverConfig(horizon=1.0, dt=0.1, grid_points=64, quad_nodes=24,
                       tau_nodes=17)
    v = solve_kolmogorov(None, lambda X: np.cos(X[..., 0]), SPEC1, cfg)
    x = v.axes[0]
    interior = x[(x > -3.0) & (x < 3.0)][:, None]
    sup = 0.0
    for t in cfg.mesh():
        s = 1.0 - float(t)
        want = np.exp(-covariance_qk(SPEC1, 1, s) / 2.0) * np.cos(np.exp(-s) * interior[:, 0])
        got = v.value_at(float(t), interior)
        sup = max(sup, float(np.max(np.abs(got - want))))
    assert report(3, "linear_kolmogorov_oracle", sup < 1e-4, "sup %.2e" % sup)


ODE_MEAN_ORACLE = 0.3103705727798336  # int_0^1 1.5 cos(2s) e^{-(1-s)} ds


def test_criterion_04_fp_law_correctness():
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=100_000, seed=41)
    path = propagate(DriftField.zero(1), Dirac([0.0]), SPEC1, cfg)
    var_ok = True
    for j, t in enumerate(path.times):
        if t == 0.0:
            continue
        mu = path.measures[j]
        se = float(np.std(mu.points[:, 0] ** 2) / np.sqrt(mu.M))
        var_ok = var_ok and abs(mu.mode_second_moment(1) - covariance_qk(SPEC1, 1, t)) <= 3 * se

    c = 0.8
    pathc = propagate(DriftField.constant([c]), Dirac([0.0]), SPEC1,
                      cfg.with_(seed=42))
    mean_ok = True
    for j, t in enumerate(pathc.times):
        mu = pathc.measures[j]
        se = float(np.std(mu.points[:, 0]) / np.sqrt(mu.M))
        want = c * (1.0 - np.exp(-t))
        mean_ok = mean_ok and abs(float(np.mean(mu.points[:, 0])) - want) <= 3 * se

    # first-order splitting bias, isolated deterministically: a single
    # particle with a time-dependent drift, noise cancelled by seed reuse
    w = DriftField(fn=lambda t, X: np.full_like(X, 1.5 * np.cos(2.0 * t)),
                   bound=1.5, label="pulse")
    errs = {}
    for h in (0.1, 0.05):
        c1 = SolverConfig(horizon=1.0, dt=h, particles=1, seed=7)
        drifted = propagate(w, Dirac([0.0]), SPEC1, c1)
        plain = propagate(DriftField.zero(1), Dirac([0.0]), SPEC1, c1)
        mean = float(drifted.measures[-1].points[0, 0] - plain.measures[-1].points[0, 0])
        errs[h] = abs(mean - ODE_MEAN_ORACLE)
    ratio = errs[0.1] / errs[0.05]
    ok = var_ok and mean_ok and ratio >= 1.8
    assert report(4, "fp_law_correctness", ok,
                  "var %s mean %s bias ratio %.2f" % (var_ok, mean_ok, ratio))


def test_criterion_05_weak_form_residual():
    ok = True
    details = []
    for case in residual_audit_cases():
        out = {}
        for tag, M, h in (("c", 10_000, 0.01), ("f", 40_000, 0.005)):
            cfg = SolverConfig(horizon=1.0, dt=h, particles=M, seed=case.seed)
            path = propagate(case.w, case.m0, case.spec, cfg)
            prof = weak_residual_profile(path, case.w, [case.phi], 1.0, case.spec)[0]
            out[tag] = (float(np.mean(prof)), bootstrap_stderr(prof, seed=1))
        (rc, sec), (rf, sef) = out["c"], out["f"]
        fitted = abs(rc - rf) / 0.005
        budget = 3 * sec + fitted * 0.01
        good = abs(rc) < budget and abs(rf) < abs(rc) and sef < sec
        ok = ok and good
        details.append("%s %.4f<%.4f" % (case.label, abs(rc), budget))
    assert report(5, "weak_form_residual", ok, "; ".join(details))


def test_criterion_06_moment_bound_audit():
    runs = [
        ("cap1d_monotone", SolverConfig(dt=0.05, particles=10_000, grid_points=48,
                                        quad_nodes=12, tau_nodes=25, seed=6)),
        ("cap1d_antimonotone", SolverConfig(dt=0.05, particles=10_000, grid_points=48,
                                            quad_nodes=12, tau_nodes=25, seed=6)),
        ("cap2d_f2", SolverConfig(dt=0.1, particles=4_000, grid_points=24,
                                  quad_nodes=8, tau_nodes=17, picard_tol=1e-3, seed=6)),
    ]
    ok = True
    worst = -np.inf
    for name, cfg in runs:
        prob = make_model(name)
        N = prob.spectrum.N
        m_in = propagate(DriftField.zero(N), prob.m0, prob.spectrum,
                         cfg.with_(seed=16))
        psi = psi_map(prob, m_in, cfg, fp_seed=26)
        bounds = mode_bounds(prob)
        for j in range(len(psi.times)):
            mu = psi.measures[j]
            for k in range(1, N + 1):
                se = float(np.std(mu.points[:, k - 1] ** 2) / np.sqrt(mu.M))
                margin = mu.mode_second_moment(k) - (bounds[k - 1] + 3 * se)
                worst = max(worst, margin)
                ok = ok and margin <= 0
    assert report(6, "moment_bound_audit", ok, "worst margin %.3e" % worst)


def test_criterion_07_hjb_picard_convergence():
    prob = make_model("cap1d_monotone")
    spec, H, G = prob.spectrum, prob.hamiltonian, prob.terminal

    def dirac_flow(cfg):
        ts = cfg.mesh()
        return MeasurePath(times=ts, points=[[[0.3 * np.exp(-t)]] for t in ts])

    base = SolverConfig(dt=0.1, grid_points=48, quad_nodes=16, tau_nodes=17,
                        picard_tol=1e-5)
    fine = SolverConfig(dt=0.05, grid_points=96, quad_nodes=32, tau_nodes=33,
                        picard_tol=1e-5)
    vb = solve_hjb_mild(H, G, dirac_flow(base), spec, base)
    vf = solve_hjb_mild(H, G, dirac_flow(fine), spec, fine)

    hist = np.asarray(vb.history)
    fit_ratio = float(np.exp(np.polyfit(np.arange(len(hist)), np.log(hist), 1)[0]))
    xs = np.linspace(-3.0, 3.0, 41)[:, None]
    sup = max(float(np.max(np.abs(vb.value_at(float(t), xs) - vf.value_at(float(t), xs))))
              for t in base.mesh())
    samples = [(float(t), np.array([x])) for t in base.mesh()[:-1:3]
               for x in (-1.0, -0.3, 0.2, 0.9)]
    res = hjb_residual(vb, H, G, dirac_flow(base), samples, spec, base)
    ok = fit_ratio < 1.0 and sup < 1e-2 and res < 5e-3
    assert report(7, "hjb_picard_convergence", ok,
                  "ratio %.3f sup %.2e residual %.2e" % (fit_ratio, sup, res))


MFG_INI = """
[problem]
model = cap1d_monotone

[numerics]
dt = 0.05
particles = 20000
grid_points = 64
quad_nodes = 16
tau_nodes = 33
fp_tol = 1e-2
fp_max = 50

[run]
seed = 0
"""


def test_criterion_08_mfg_fixed_point(tmp_path):
    ini = tmp_path / "mfg.ini"
    ini.write_text(MFG_INI)
    out = tmp_path / "run"
    code = main(["solve-mfg", "--config", str(ini), "--out", str(out)])
    with open(out / "summary.csv", newline="") as fh:
        summary = {r["key"]: r["value"] for r in csv.DictReader(fh)}
    with open(out / "iterations.csv", newline="") as fh:
        its = list(csv.DictReader(fh))
    cert = float(summary["psi_residual"])
    budget = 1e-2 + 3 * float(summary["psi_residual_stderr"])
    ok = (code == EXIT_OK and summary["status"] == "converged"
          and len(its) <= 50 and float(its[-1]["rho_inf_change"]) < 1e-2
          and cert < budget)
    assert report(8, "mfg_fixed_point", ok,
                  "%d iterations, certificate %.4f < %.4f" % (len(its), cert, budget))


def test_criterion_09_uniqueness():
    prob = make_model("cap1d_monotone")
    cfg = SolverConfig(seed=0)
    start_a = propagate(DriftField.zero(1), prob.m0, prob.spectrum,
                        cfg.with_(seed=rng.derive_seed(7, 1)))
    start_b = propagate(DriftField.zero(1), ProductGaussian([0.0], [0.5]),
                        prob.spectrum, cfg.with_(seed=rng.derive_seed(7, 2)))
    rep, _, _ = uniqueness_experiment(prob, start_a, start_b, cfg)
    two_start_ok = (rep.both_converged and rep.rho_between < 2e-2
                    and rep.value_sup_distance < 2e-2)

    anti = make_model("cap1d_antimonotone")
    small = SolverConfig(dt=0.1, particles=2000, grid_points=32, quad_nodes=8,
                         tau_nodes=17, fp_max=5, seed=0)
    sa = propagate(DriftField.zero(1), anti.m0, anti.spectrum, small.with_(seed=1))
    sb = propagate(DriftField.zero(1), ProductGaussian([0.0], [0.5]),
                   anti.spectrum, small.with_(seed=2))
    neg, _, _ = uniqueness_experiment(anti, sa, sb, small)
    neg_ok = np.isfinite(neg.rho_between) and neg.status_a in (
        "converged", "max-iterations")
    ok = two_start_ok and neg_ok
    assert report(9, "uniqueness", ok,
                  "rho %.4f vsup %.4f; negative control rho %.4f (%s/%s)"
                  % (rep.rho_between, rep.value_sup_distance,
                     neg.rho_between, neg.status_a, neg.status_b))


def test_criterion_10_monotonicity_identity():
    f1 = make_model("cap1d_monotone").hamiltonian.coupling
    f2 = make_model("cap2d_f2").hamiltonian.coupling
    r1 = monotonicity_check(f1, trials=1000, seed=0, n_modes=1)
    r2 = monotonicity_check(f2, trials=1000, seed=1, n_modes=2)
    ok = (r1.identity_ok and r1.min_pairing >= -1e-9
          and r2.identity_ok and r2.min_pairing >= -1e-9)
    assert report(10, "monotonicity_identity", ok,
                  "gaps %.1e / %.1e, minima %.1e / %.1e"
                  % (r1.identity_gap, r2.identity_gap, r1.min_pairing, r2.min_pairing))


def test_criterion_11_w1_oracle_equivalence():
    g = rng.generator(110, 0)
    worst = 0.0
    for _ in range(100):
        M = int(g.integers(2, 200))
        a = np.sort(g.uniform(-3, 3, M))
        b = np.sort(g.uniform(-3, 3, M))
        sorted_w1 = float(np.mean(np.abs(a - b)))
        assigned = wasserstein1(ParticleMeasure(g.permutation(a)[:, None]),
                                ParticleMeasure(g.permutation(b)[:, None]))
        worst = max(worst, abs(assigned - sorted_w1))

    # the sliced surrogate is unbiased only where projections are the
    # identity (N = 1); the N = 2 projection bias is measured and reported
    M = 4096
    mu1 = ParticleMeasure(g.standard_normal((M, 1)))
    nu1 = ParticleMeasure(0.5 + 0.8 * g.standard_normal((M, 1)))
    e1 = wasserstein1(mu1, nu1)
    s1 = wasserstein1_sliced(mu1, nu1, projections=64, seed=0)
    rel1 = abs(s1 - e1) / e1

    mu2 = ParticleMeasure(g.standard_normal((M, 2)))
    nu2 = ParticleMeasure(0.4 + 0.8 * g.standard_normal((M, 2)))
    e2 = wasserstein1(mu2, nu2)
    s2 = wasserstein1_sliced(mu2, nu2, projections=64, seed=0)
    rel2 = abs(s2 - e2) / e2

    ok = worst < 1e-10 and rel1 < 0.10
    assert report(11, "w1_oracle_equivalence", ok,
                  "assignment gap %.1e; sliced rel N=1 %.4f (N=2 bias %.2f, reported)"
                  % (worst, rel1, rel2))


def test_criterion_12_hamiltonian_closed_forms():
    g = rng.generator(112, 0)
    worst_v, worst_g = 0.0, 0.0
    cap = CappedControlHamiltonian(R=1.0, a=1.0)
    for i in range(100):
        n = int(g.integers(1, 4))
        scale = 0.8 if i % 2 == 0 else 4.0
        p = scale * g.uniform(-1.0, 1.0, n)
        r = np.linalg.norm(p)
        s = np.linspace(0.0, 1.0, 200_001)
        brute = float(np.max(s * r - s * s))
        worst_v = max(worst_v, abs(eval_H1(p, 1.0, cap.a) - brute))
        if abs(r - 2.0) > 0.1 and r > 0.1:
            h = 1e-6
            grad = eval_DH1(p, 1.0, cap.a)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                fd = (eval_H1(p + e, 1.0, cap.a)
                      - eval_H1(p - e, 1.0, cap.a)) / (2 * h)
                worst_g = max(worst_g, abs(fd - grad[k]))
    lip_worst = 0.0
    for _ in range(400):
        p, q = g.uniform(-4, 4, 2), g.uniform(-4, 4, 2)
        d = np.linalg.norm(p - q)
        if d > 1e-9:
            lip_worst = max(lip_worst, np.linalg.norm(
                eval_DH1(p, 1.0, cap.a) - eval_DH1(q, 1.0, cap.a)) / d)
    ok = worst_v < 1e-4 and worst_g < 1e-3 and lip_worst <= cap.grad_lipschitz + 1e-9
    assert report(12, "hamiltonian_closed_forms", ok,
                  "value %.1e grad %.1e lip %.3f<=%.3f"
                  % (worst_v, worst_g, lip_worst, cap.grad_lipschitz))


FP_INI = """
[problem]
eigenvalues = -1.0
m0 = dirac
m0_mean = 0.0
drift = const 0.5

[numerics]
dt = 0.05
particles = 20000

[run]
seed = 3
"""


def test_criterion_13_reproducibility(tmp_path):
    ini = tmp_path / "fp.ini"
    ini.write_text(FP_INI)
    out = tmp_path / "run"
    assert main(["solve-fp", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    keep = tmp_path / "first"
    shutil.move(str(out), str(keep))
    assert main(["solve-fp", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    files_a = sorted(p.relative_to(keep) for p in keep.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    same = files_a == files_b and all(
        (keep / rel).read_bytes() == (out / rel).read_bytes() for rel in files_a)
    assert report(13, "reproducibility", same,
                  "%d artifacts byte-identical" % len(files_a))
