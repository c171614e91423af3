"""Mild backward solves: linear oracles, Picard behavior, residual audit.

The linear solver is checked against closed forms (constants, the unit
source, the Gaussian cosine identity); the nonlinear solver against a
refined-run oracle on a frozen measure path, finite differences of its own
values, and the defining integral identity re-evaluated with a finer
quadrature.
"""

import gc
import math
import os
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import interpn

import hilbert_mfg
from hilbert_mfg import hjb
from hilbert_mfg.config import SolverConfig
from hilbert_mfg.fp_particles import DriftField, propagate
from hilbert_mfg.hjb import (
    GeneralHamiltonian,
    GridValueField,
    SeparatedHamiltonian,
    ValueGrid,
    _at_time,
    _bracket,
    _cell,
    _corners,
    _hat_operators,
    _interp,
    _mild_sweep,
    _mixes,
    _plan,
    _semigroup,
    _terminal_sweep,
    default_box,
    hjb_residual,
    solve_hjb_mild,
    solve_kolmogorov,
    weighted_gradient_change,
    zero_hamiltonian,
)
from hilbert_mfg.measures import Dirac, MeasurePath, ParticleMeasure
from hilbert_mfg.models import MODEL_NAMES, RankOneCoupling, make_model
from hilbert_mfg.rng import normal_stream
from hilbert_mfg.spectrum import SpectrumSpec

SPEC1 = SpectrumSpec(eigenvalues=(-1.0,))


def tanh_hamiltonian(coupling=1.0):
    """Bounded Lipschitz Hamiltonian with a genuine measure coupling."""
    def value(X, P, mu):
        stat = float(np.mean(np.tanh(mu.points[:, 0])))
        return 0.8 * np.tanh(P[..., 0]) - coupling * np.tanh(X[..., 0]) * stat

    return GeneralHamiltonian(
        value_fn=value,
        grad_p_fn=lambda X, P, mu: (0.8 / np.cosh(P[..., 0]) ** 2)[..., None],
        bound_Hp=0.8,
        lip_p=0.8,
        lip_mu=coupling,
        label="tanh",
    )


def cos_terminal(X, mu):
    return 0.5 * np.cos(X[..., 0])


def ou_path(cfg, seed=0):
    return propagate(DriftField.zero(1), Dirac([0.0]), SPEC1,
                     cfg.with_(seed=seed))


def dirac_flow(cfg):
    ts = cfg.mesh()
    return MeasurePath(times=ts, points=[[[0.3 * np.exp(-t)]] for t in ts])


def test_kolmogorov_constants_are_invariant():
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=1, seed=0, grid_points=33)
    u = solve_kolmogorov(None, lambda X: np.full(X.shape[:-1], 2.5), SPEC1, cfg)
    assert np.allclose(u.values, 2.5, atol=1e-12)
    assert np.allclose(u.grads, 0.0, atol=1e-12)


def test_kolmogorov_unit_source():
    # dv/dt + L0 v = 1, v(T) = 0 has the spatially flat solution -(T - t)
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=1, seed=0, grid_points=33)
    u = solve_kolmogorov(lambda s, X: np.ones(X.shape[:-1]),
                         lambda X: np.zeros(X.shape[:-1]), SPEC1, cfg)
    for j, t in enumerate(cfg.mesh()):
        assert np.allclose(u.values[j], -(1.0 - t), atol=1e-12)


def test_kolmogorov_cosine_closed_form():
    """Terminal cos(x_1) propagates to e^{-q(T-t)/2} cos(e^{-(T-t)} x_1);
    the identity is re-derived per run by Monte Carlo at one point."""
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=1, seed=0)
    u = solve_kolmogorov(None, lambda X: np.cos(X[..., 0]), SPEC1, cfg)
    ax = u.axes[0]
    worst = 0.0
    for j, t in enumerate(cfg.mesh()):
        q = -np.expm1(-2.0 * (1.0 - t)) / 2.0
        exact = np.exp(-q / 2.0) * np.cos(np.exp(-(1.0 - t)) * ax)
        worst = max(worst, float(np.max(np.abs(u.values[j] - exact))))
    assert worst < 1e-4

    z = normal_stream(123, 0, 400_000)
    q1 = -np.expm1(-2.0) / 2.0
    mc = np.cos(np.exp(-1.0) * 0.7 + np.sqrt(q1) * z)
    assert abs(mc.mean() - np.exp(-q1 / 2.0) * np.cos(np.exp(-1.0) * 0.7)) \
        < 3 * mc.std() / np.sqrt(len(z))


def test_zero_hamiltonian_is_single_sweep_semigroup():
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=50, seed=1, grid_points=33)
    path = ou_path(cfg)
    v = solve_hjb_mild(zero_hamiltonian(1), cos_terminal, path, SPEC1, cfg)
    assert v.status == "converged"
    assert len(v.history) == 1
    u = solve_kolmogorov(None, lambda X: cos_terminal(X, None), SPEC1, cfg)
    assert np.allclose(v.values, u.values, atol=1e-12)
    assert np.allclose(v.grads, u.grads, atol=1e-12)


def test_constant_hamiltonian_closed_form():
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=50, seed=1, grid_points=33)
    path = ou_path(cfg)
    Hc = GeneralHamiltonian(value_fn=lambda X, P, mu: np.full(X.shape[:-1], 0.7),
                            grad_p_fn=lambda X, P, mu: np.zeros_like(P),
                            bound_Hp=0.0)
    v = solve_hjb_mild(Hc, lambda X, mu: np.full(X.shape[:-1], 2.0), path, SPEC1, cfg)
    assert v.status == "converged"
    for j, t in enumerate(cfg.mesh()):
        assert np.allclose(v.values[j], 2.0 - 0.7 * (1.0 - t), atol=1e-10)


def test_picard_changes_decay_geometrically():
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=200, seed=2)
    v = solve_hjb_mild(tanh_hamiltonian(), cos_terminal, ou_path(cfg), SPEC1, cfg)
    assert v.status == "converged"
    hist = np.asarray(v.history)
    assert len(hist) >= 3
    ratios = hist[1:] / hist[:-1]
    assert np.all(ratios < 1.0)
    fitted = np.exp(np.polyfit(np.arange(len(hist)), np.log(hist), 1)[0])
    assert fitted < 1.0


def test_converged_field_matches_refined_oracle():
    """Same frozen measure flow, half the grid spacing, half the time step,
    double the quadrature: the two solves agree to 1e-2 in sup."""
    base = SolverConfig(horizon=1.0, dt=0.1, particles=1, seed=0,
                        grid_points=48, quad_nodes=16, tau_nodes=17)
    fine = SolverConfig(horizon=1.0, dt=0.05, particles=1, seed=0,
                        grid_points=96, quad_nodes=32, tau_nodes=33)
    H = tanh_hamiltonian()
    vb = solve_hjb_mild(H, cos_terminal, dirac_flow(base), SPEC1, base)
    vf = solve_hjb_mild(H, cos_terminal, dirac_flow(fine), SPEC1, fine)
    xs = np.linspace(-3.0, 3.0, 41)[:, None]
    sup = max(float(np.max(np.abs(vb.value_at(t, xs) - vf.value_at(t, xs))))
              for t in np.linspace(0.0, 1.0, 11))
    assert sup < 1e-2


def test_residual_small_on_converged_and_large_on_perturbed():
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=200, seed=2)
    H = tanh_hamiltonian()
    path = ou_path(cfg)
    v = solve_hjb_mild(H, cos_terminal, path, SPEC1, cfg)
    samples = [(t, np.array([x])) for t in (0.0, 0.35, 0.7) for x in (-1.0, 0.0, 1.5)]
    res = hjb_residual(v, H, cos_terminal, path, samples, SPEC1, cfg)
    assert res < 5e-3

    shifted = GridValueField(times=v.times, axes=v.axes, values=v.values + 0.1,
                             grads=v.grads)
    res_shift = hjb_residual(shifted, H, cos_terminal, path, samples, SPEC1, cfg)
    assert res_shift >= 0.09


def test_residual_pure_quadrature_for_zero_hamiltonian():
    # with H == 0 the identity is exact up to quadrature, so probing at
    # grid nodes and mesh times removes interpolation from the budget
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=50, seed=1, grid_points=33)
    path = ou_path(cfg)
    v = solve_hjb_mild(zero_hamiltonian(1), cos_terminal, path, SPEC1, cfg)
    ax = v.axes[0]
    samples = [(t, np.array([x])) for t in (0.0, 0.5) for x in (ax[5], ax[16], ax[27])]
    res = hjb_residual(v, zero_hamiltonian(1), cos_terminal, path, samples, SPEC1, cfg)
    assert res < 1e-6


@pytest.mark.parametrize("t", [1.0, 1.5, -0.1], ids=["at-T", "past-T", "before-0"])
def test_residual_refuses_a_sample_outside_the_horizon(t):
    # before 0 the value lookup clamps to t = 0 while the identity would use
    # the longer horizon T - t, so the defect of another identity is reported
    cfg = SolverConfig(horizon=1.0, dt=0.25, particles=50, seed=1)
    v = GridValueField(times=cfg.mesh(), axes=(np.linspace(-2.0, 2.0, 5),),
                       values=np.zeros((5, 5)), grads=np.zeros((4, 5, 1)))
    with pytest.raises(ValueError, match=r"residual samples need 0 <= t < T"):
        hjb_residual(v, zero_hamiltonian(1), cos_terminal, ou_path(cfg),
                     [(t, np.zeros(1))], SPEC1, cfg)


def test_gradient_matches_finite_differences_of_values():
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=200, seed=2)
    v = solve_hjb_mild(tanh_hamiltonian(), cos_terminal, ou_path(cfg), SPEC1, cfg)
    ax = v.axes[0]
    hg = ax[1] - ax[0]
    for j, t in enumerate(v.times[:-1]):
        if v.T - t < 0.05:
            continue
        fd = (v.values[j][2:] - v.values[j][:-2]) / (2 * hg)
        an = v.grads[j][1:-1, 0]
        assert np.max(np.abs(fd - an)) < 1e-2 * np.max(np.abs(an))


def test_sup_norm_bound_on_every_iterate():
    """Each iterate obeys |v| <= |G| + (T-t) sup|H| because R_t is an
    averaging operator; checked by truncating the Picard loop."""
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=100, seed=3, grid_points=33)
    H = tanh_hamiltonian()
    path = ou_path(cfg)
    sup_G = 0.5
    sup_H = 0.8 + 1.0  # tanh term + coupling term at |stat| <= 1
    for budget in (1, 2, 3):
        trunc = cfg.with_(picard_max=budget, picard_tol=1e-30)
        v = solve_hjb_mild(H, cos_terminal, path, SPEC1, trunc)
        for j, t in enumerate(v.times):
            bound = sup_G + (v.T - t) * sup_H
            assert np.max(np.abs(v.values[j])) <= bound + 1e-9


def test_data_continuity_in_the_measure_path():
    """Shifting the measure path by eps (rho_inf distance eps) moves the
    converged gradient by K * eps with K stable across eps."""
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=200, seed=2, grid_points=48)
    H = tanh_hamiltonian()
    path = ou_path(cfg)
    base = solve_hjb_mild(H, cos_terminal, path, SPEC1, cfg)
    eps_list = (0.1, 0.05, 0.025)
    deltas = []
    for eps in eps_list:
        shifted = MeasurePath(times=path.times, points=path.points + eps)
        veps = solve_hjb_mild(H, cos_terminal, shifted, SPEC1, cfg)
        deltas.append(weighted_gradient_change(veps, base))
    es = np.asarray(eps_list)
    ds = np.asarray(deltas)
    K = float(es @ ds / (es @ es))
    r2 = 1.0 - float(np.sum((ds - K * es) ** 2) / np.sum(ds**2))
    assert K > 0
    assert r2 > 0.9
    slopes = ds / es
    assert slopes.max() / slopes.min() < 1.2


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_field_serialization_round_trip(tmp_path, n_modes):
    gen = np.random.default_rng(n_modes)
    times = np.linspace(0.0, 1.0, 4)
    axes = tuple(np.linspace(-1.0 - k, 1.0 + k, 5) for k in range(n_modes))
    grid = (5,) * n_modes
    values = gen.standard_normal((4,) + grid)
    grads = gen.standard_normal((3,) + grid + (n_modes,))
    values.flat[1], grads.flat[1] = -0.0, -0.0
    values.flat[2], grads.flat[2] = 2.0 ** -1074, 1e-310
    v = GridValueField(times=times, axes=axes, values=values, grads=grads,
                       status="converged", history=(0.25, 1e-5))
    d, again = tmp_path / "field", tmp_path / "again"
    v.to_dir(d, extra={"hjb_residual": 1e-3})
    v.to_dir(again, extra={"hjb_residual": 1e-3})
    names = {"times.csv", "axes.csv", "values.npy", "grads.npy", "metadata.csv"}
    assert {f.name for f in d.iterdir()} == names
    for name in names:
        assert (d / name).read_bytes() == (again / name).read_bytes()
    back = GridValueField.from_dir(d)
    assert np.array_equal(back.times, v.times)
    assert all(np.array_equal(a, b) for a, b in zip(back.axes, v.axes, strict=True))
    for got, want in ((back.values, v.values), (back.grads, v.grads)):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # -0.0 and subnormals too
    assert back.status == v.status
    assert back.history == pytest.approx(v.history)
    if n_modes > 1:
        uneven = GridValueField(times=times, axes=(np.linspace(-1.0, 1.0, 4),) + axes[1:],
                                values=values[:, :4], grads=grads[:, :4])
        with pytest.raises(ValueError, match="resolutions"):
            uneven.to_dir(tmp_path / "uneven")
        assert not (tmp_path / "uneven").exists()


def test_terminal_layer_and_box_clipping():
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=50, seed=1, grid_points=33)
    v = solve_hjb_mild(zero_hamiltonian(1), cos_terminal, ou_path(cfg), SPEC1, cfg)
    x = np.array([0.4])
    last = v.grad_at(v.times[-2], x)
    assert np.allclose(v.grad_at(v.T - 1e-9, x), last)
    assert np.allclose(v.grad_at(v.T, x), last)
    L = default_box(SPEC1, None, cfg.box_scale)
    assert v.value_at(0.0, np.array([L + 5.0])) == pytest.approx(
        v.value_at(0.0, np.array([L])))


def test_mesh_mismatch_and_bad_shapes_rejected():
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=50, seed=1, grid_points=17)
    other = cfg.with_(dt=0.2)
    with pytest.raises(ValueError, match="mesh"):
        solve_hjb_mild(zero_hamiltonian(1), cos_terminal, ou_path(other), SPEC1, cfg)
    with pytest.raises(ValueError, match="shape"):
        GridValueField(times=[0.0, 1.0], axes=(np.linspace(-1, 1, 5),),
                       values=np.zeros((2, 4)), grads=np.zeros((1, 5, 1)))
    with pytest.raises(FloatingPointError):
        GridValueField(times=[0.0, 1.0], axes=(np.linspace(-1, 1, 5),),
                       values=np.full((2, 5), np.nan), grads=np.zeros((1, 5, 1)))


TIMES_MESSAGE = "times must start at 0 and increase strictly"
AXIS_MESSAGE = "each axis needs two or more finite, strictly increasing nodes"


@pytest.mark.parametrize("times", [[0.0, 0.6, 0.4, 1.0], [0.0, np.nan, 0.5, 1.0],
                                   [0.2, 0.4, 0.6, 0.8], [0.0, 0.5, 1.0, np.inf]],
                         ids=["unsorted", "nan", "late-start", "inf"])
def test_value_field_refuses_a_malformed_mesh(times):
    with pytest.raises(ValueError, match=TIMES_MESSAGE):
        GridValueField(times=times, axes=(np.linspace(-1.0, 1.0, 5),),
                       values=np.zeros((4, 5)), grads=np.zeros((3, 5, 1)))


@pytest.mark.parametrize("axis", [[-1.0, 0.5, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0], [0.0],
                                  [-1.0, np.nan, 1.0], [-np.inf, 0.0, 1.0]],
                         ids=["unsorted", "repeated", "one-node", "nan", "inf"])
def test_value_field_refuses_a_malformed_axis(axis):
    n = len(axis)
    with pytest.raises(ValueError, match=AXIS_MESSAGE):
        GridValueField(times=[0.0, 0.5, 1.0], axes=(np.linspace(-1.0, 1.0, 3), axis),
                       values=np.zeros((3, 3, n)), grads=np.zeros((2, 3, n, 2)))



@pytest.mark.parametrize("X, message", [
    (np.zeros((3, 1)), "2 mode coordinates"),
    (np.zeros(3), "2 mode coordinates"),
    (np.array([[0.1, np.nan], [0.0, 0.2]]), "NaN"),
    (np.array([np.nan, 0.0]), "NaN"),
], ids=["one-mode-batch", "three-mode-point", "nan-batch", "nan-point"])
def test_value_field_reads_refuse_malformed_points(X, message):
    """value_at and grad_at refuse points with another mode count than the
    field's and points holding NaN, which no clip to the box places."""
    gen = np.random.default_rng(5)
    axes = (np.linspace(-1.0, 1.0, 4),) * 2
    field = GridValueField(times=[0.0, 0.5, 1.0], axes=axes, values=gen.normal(size=(3, 4, 4)),
                           grads=gen.normal(size=(2, 4, 4, 2)))
    for read in (field.value_at, field.grad_at):
        with pytest.raises(ValueError, match=message):
            read(0.3, X)

def test_value_field_from_dir_refuses_edited_files(tmp_path):
    """A directory to_dir wrote is refused after its times.csv rows are
    swapped, its axes.csv reversed, or an array saved in another dtype."""
    gen = np.random.default_rng(4)
    field = GridValueField(times=np.linspace(0.0, 1.0, 4), axes=(np.linspace(-1.0, 1.0, 5),),
                           values=gen.normal(size=(4, 5)), grads=gen.normal(size=(3, 5, 1)))

    def edited(name, edit):
        d = tmp_path / name
        field.to_dir(d)
        edit(d)
        return d

    def swap_rows(path, a, b):
        lines = path.read_text().splitlines()
        lines[a], lines[b] = lines[b], lines[a]
        path.write_text("\n".join(lines) + "\n")

    assert np.array_equal(GridValueField.from_dir(edited("clean", lambda d: None)).values,
                          field.values)
    cases = [
        ("times", lambda d: swap_rows(d / "times.csv", 2, 3), TIMES_MESSAGE),
        ("axes", lambda d: swap_rows(d / "axes.csv", 1, 5), AXIS_MESSAGE),
        ("values", lambda d: np.save(d / "values.npy", field.values.astype(np.float32)),
         "values.npy holds float32, not float64"),
        ("grads", lambda d: np.save(d / "grads.npy", np.round(field.grads).astype(np.int64)),
         "grads.npy holds int64, not float64"),
    ]
    for name, edit, message in cases:
        with pytest.raises(ValueError, match=message):
            GridValueField.from_dir(edited(name, edit))


def test_value_solve_refuses_a_path_of_another_mode_count(monkeypatch):
    """A one-mode path against the two-mode cap2d_f2 spectrum is refused
    before the grid is built: F2's particle statistic would broadcast."""
    H, G, _, spec, cfg = two_mode_solve()
    monkeypatch.setattr(hjb.ValueGrid, "build", lambda *args: pytest.fail("grid built"))
    with pytest.raises(ValueError, match="measure path has 1 modes, the spectrum 2"):
        solve_hjb_mild(H, G, ou_path(cfg), spec, cfg)

def test_separated_hamiltonian_composes_h0_minus_coupling():
    sep = SeparatedHamiltonian(
        h0=lambda X, P: np.sum(P**2, axis=-1) / (1.0 + np.sum(P**2, axis=-1)),
        h0_p=lambda X, P: 2 * P / (1.0 + np.sum(P**2, axis=-1))[..., None] ** 2,
        coupling=lambda X, mu: np.tanh(X[..., 0]) * float(np.mean(mu.points[:, 0])),
        bound_Hp=1.0,
    )
    mu = ParticleMeasure([[0.5], [1.5]])
    X = np.array([[0.3], [-0.2]])
    P = np.array([[0.4], [0.1]])
    want = P[:, 0] ** 2 / (1 + P[:, 0] ** 2) - np.tanh(X[:, 0]) * 1.0
    assert np.allclose(sep.value(X, P, mu), want, atol=1e-14)
    assert sep.grad_p(X, P, mu).shape == (2, 1)


@st.composite
def grid_tables(draw):
    """A (*grid, C) table on a tensor grid of 1 to 3 modes with unequal
    per-mode resolutions, and points off the box, on nodes and on the
    upper and lower edges."""
    n = draw(st.integers(1, 3))
    axes = tuple(np.linspace(-draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)),
                             draw(st.integers(2, 6))) for _ in range(n))
    shape = tuple(len(ax) for ax in axes) + (draw(st.integers(1, 3)),)
    table = draw(arrays(np.float64, shape, elements=st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0, 1e-300]))))
    free = draw(arrays(np.float64, (draw(st.integers(1, 8)), n), elements=st.floats(-5.0, 5.0)))
    nodes = [[ax[min(i, len(ax) - 1)] for ax in axes] for i in range(max(shape[:-1]))]
    edges = [[ax[-1] for ax in axes], [ax[0] for ax in axes]]
    return axes, table, np.vstack([free, nodes, edges])


def interpn_bound(n_modes, table):
    """How far a multilinear read may sit from interpn's on the same table:
    both sum 2^N corners with hat weights, in different orders."""
    return 4 * n_modes * np.finfo(float).eps * np.max(np.abs(table))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=grid_tables())
def test_interpolation_kernel_matches_interpn_to_rounding(case):
    """interpn on the clipped points is an independent oracle to rounding;
    a point on a grid node or a box face reads the stored entry exactly."""
    axes, table, pts = case
    clipped = np.stack([np.clip(pts[:, k], ax[0], ax[-1]) for k, ax in enumerate(axes)], -1)
    want = np.stack([interpn(axes, table[..., c], clipped, method="linear")
                     for c in range(table.shape[-1])], axis=-1)
    got = _interp(_corners(axes, pts), table)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= interpn_bound(len(axes), table))
    # the last points are grid_tables' nodes, then its upper and lower corners
    index = [tuple(min(i, len(ax) - 1) for ax in axes) for i in range(max(table.shape[:-1]))]
    index += [tuple(len(ax) - 1 for ax in axes), (0,) * len(axes)]
    assert np.array_equal(got[-len(index):], np.stack([table[i] for i in index]))


def test_field_reads_match_the_per_slice_interpn_formula():
    """value_at and grad_at between slices, on a slice and past the last
    gradient slice equal the per-slice read mixed in time as
    (1 - w) lo + w hi, and that read is interpn on the clipped points to
    rounding."""
    gen = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 5)
    axes = (np.linspace(-2.0, 2.0, 7), np.linspace(-1.5, 1.5, 5))
    field = GridValueField(times=times, axes=axes, values=gen.normal(size=(5, 7, 5)),
                           grads=gen.normal(size=(4, 7, 5, 2)))
    X = gen.uniform(-3.0, 3.0, size=(3, 4, 2))
    pts = X.reshape(-1, 2)
    clipped = np.stack([np.clip(pts[:, k], ax[0], ax[-1]) for k, ax in enumerate(axes)], -1)
    corners = _corners(axes, pts)

    def per_slice(table):
        if table.ndim == 2:
            got = _interp(corners, table[..., None])[:, 0]
            want = interpn(axes, table, clipped, method="linear")
        else:
            got = _interp(corners, table)
            want = np.stack([interpn(axes, table[..., k], clipped, method="linear")
                             for k in range(2)], axis=-1)
        assert np.all(np.abs(got - want) <= interpn_bound(2, table))
        return got

    for t in (0.0, 0.1, 0.5, 0.6, 0.8, 0.9, 1.0):
        j = min(int(t / 0.25), 3)
        w = (t - times[j]) / (times[j + 1] - times[j])
        v = per_slice(field.values[j])
        if w > 1e-12:
            v = (1.0 - w) * v + w * per_slice(field.values[j + 1])
        assert np.array_equal(field.value_at(t, X), v.reshape(3, 4))
        if j >= 3:
            g = per_slice(field.grads[3])
        else:
            g = per_slice(field.grads[j])
            if w > 1e-12:
                g = (1.0 - w) * g + w * per_slice(field.grads[j + 1])
        assert np.array_equal(field.grad_at(t, X), g.reshape(3, 4, 2))
        for x, vx, gx in zip(pts, v, g):
            one = field.value_at(t, x)
            assert isinstance(one, float) and one == vx
            assert np.array_equal(field.grad_at(t, x), gx)
    with pytest.raises(ValueError, match="NaN"):
        field.grad_at(0.3, np.array([0.0, np.nan]))


def test_field_reads_create_no_reference_cycles():
    """A read leaves no garbage for the cycle collector: with gc off,
    grad_at and value_at at two modes free everything they allocate."""
    gen = np.random.default_rng(6)
    axes = (np.linspace(-2.0, 2.0, 7), np.linspace(-1.5, 1.5, 5))
    field = GridValueField(times=np.linspace(0.0, 1.0, 5), axes=axes,
                           values=gen.normal(size=(5, 7, 5)), grads=gen.normal(size=(4, 7, 5, 2)))
    X = gen.uniform(-3.0, 3.0, size=(50, 2))
    gc.collect()
    gc.disable()
    try:
        for t in (0.1, 0.5, 1.0):
            field.grad_at(t, X)
            field.value_at(t, X)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_importing_the_value_solver_loads_no_scipy_interpolate():
    src = str(Path(hilbert_mfg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, hilbert_mfg.hjb; print('scipy.interpolate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def interpolant(grid, table):
    """The multilinear interpolant of a grid table (*grid) as a field on
    (..., N) points, read by the cloud read _interp."""
    def phi(X):
        pts = X.reshape(-1, X.shape[-1])
        return _interp(_corners(grid.axes, pts), table[..., None])[:, 0].reshape(X.shape[:-1])
    return phi


def cloud_solve(H, G, m, spec, cfg):
    """The value solve written out point by point: each (t_j, tau) node
    evaluates H(x, grad_at(s, x), m(s)) on the grid nodes, and
    kernel.apply_with_gradient applies the semigroup by tensor quadrature
    to the interpolant of that table, read at the flattened images.
    Returns (field, status, history)."""
    grid = ValueGrid.build(spec, cfg)
    times, shape, n, pts = grid.times, grid.shape, len(grid.axes), grid.nodes
    mT = m.at_time(times[-1])
    base = _terminal_sweep(grid, lambda X: np.asarray(G(X, mT), dtype=float))
    current, history = grid.field(*base), []
    for _ in range(cfg.picard_max):
        prev = current
        values, grads = base[0].copy(), base[1].copy()
        for j in range(len(times) - 1):
            taus = np.linspace(0.0, np.sqrt(times[-1] - times[j]), cfg.tau_nodes)
            v_int = np.zeros((cfg.tau_nodes, len(pts)))
            g_int = np.zeros((cfg.tau_nodes, len(pts), n))
            for i in range(1, cfg.tau_nodes):
                tau = taus[i]
                s = times[j] + tau * tau
                table = H.value(pts, prev.grad_at(s, pts), m.at_time(s)).reshape(shape)
                v, g = grid.kernel.apply_with_gradient(interpolant(grid, table), tau * tau, pts)
                v_int[i] = 2.0 * tau * v
                g_int[i] = 2.0 * tau * g
            values[j] -= np.trapezoid(v_int, x=taus, axis=0).reshape(shape)
            grads[j] -= np.trapezoid(g_int, x=taus, axis=0).reshape(shape + (n,))
        current = grid.field(values, grads)
        history.append(weighted_gradient_change(current, prev))
        if history[-1] < cfg.picard_tol:
            return current, "converged", history
    return current, "max-iterations", history


def one_mode_solve():
    cfg = SolverConfig(horizon=1.0, dt=0.1, particles=200, seed=2, grid_points=33,
                       quad_nodes=8, tau_nodes=9)
    return tanh_hamiltonian(), cos_terminal, ou_path(cfg), SPEC1, cfg


def two_mode_solve():
    prob = make_model("cap2d_f2")
    cfg = SolverConfig(horizon=prob.horizon, dt=0.2, particles=300, seed=4, grid_points=14,
                       quad_nodes=5, tau_nodes=7)
    path = propagate(DriftField.zero(2), prob.m0, prob.spectrum, cfg)
    return prob.hamiltonian, prob.terminal, path, prob.spectrum, cfg


def rounding(n_modes, table):
    """How far two evaluations of one tensor quadrature of a multilinear
    interpolant may sit apart when they sum the same terms in different
    orders, relative to the largest entry of the table.  Measured worst
    cases: 0.15 of it for the solves (N = 1 gradients) and 0.43 for the
    node operators (N = 3 gradients)."""
    return 4 * n_modes * np.finfo(float).eps * np.max(np.abs(table))


@pytest.mark.parametrize("case", [one_mode_solve, two_mode_solve], ids=["1", "2"])
def test_tensor_read_solve_equals_the_cloud_read_solve(case):
    """The solve's per-mode operators give, sweep by sweep, the tensor
    quadrature of the interpolated node table read at the image cloud."""
    args = case()
    n = args[3].N
    v = solve_hjb_mild(*args)
    want, status, history = cloud_solve(*args)
    assert v.status == status == "converged"
    assert len(v.history) == len(history)
    assert np.max(np.abs(np.subtract(v.history, history))) <= rounding(n, want.grads)
    assert np.max(np.abs(v.values - want.values)) <= rounding(n, want.values)
    assert np.max(np.abs(v.grads - want.grads)) <= rounding(n, want.grads)


def narrow_grid(n_modes, tau_nodes=4):
    """A ValueGrid on a box narrow enough that some images lie outside it
    and read its faces, with its config."""
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0, -3.0)[:n_modes])
    cfg = SolverConfig(horizon=1.0, dt=0.25, particles=1, seed=0, grid_points=7,
                       quad_nodes=4, tau_nodes=tau_nodes, box_scale=2.0)
    return ValueGrid.build(spec, cfg), cfg


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_tensor_read_equals_the_cloud_read_at_clipped_images(n_modes):
    """At every (t_j, tau) node of a plan, the per-mode application of the
    node's slice of the operator stacks to a random grid table equals the
    tensor quadrature of its interpolant read at the node's images, also
    where images clip to the faces of the box."""
    grid, cfg = narrow_grid(n_modes)
    gen = np.random.default_rng(n_modes)
    clipped = 0
    for taus, s, _, ops in _plan(grid):
        tables = gen.uniform(-1.0, 1.0, (len(s),) + grid.shape)
        got = _semigroup(ops, tables)
        assert got.shape == (len(s), n_modes + 1) + grid.shape
        for tau, table, node in zip(taus[1:], tables, got):
            t = tau * tau
            clipped += int(np.sum(np.abs(grid.kernel.images(t, grid.nodes)) > grid.axes[0][-1]))
            want_v, want_g = grid.kernel.apply_with_gradient(interpolant(grid, table), t, grid.nodes)
            assert np.max(np.abs(node[0].ravel() - want_v)) <= rounding(n_modes, table)
            assert np.max(np.abs(node[1:].reshape(n_modes, -1).T - want_g)) \
                <= rounding(n_modes, want_g)
    assert clipped > 0


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_mode_operators_average(n_modes):
    """Every value operator K_k of every node's slice of a stack is
    nonnegative with unit row sums, so the applied semigroup averages;
    images clip on this narrow box."""
    grid, cfg = narrow_grid(n_modes)
    for taus, s, _, ops in _plan(grid):
        assert len(ops) == n_modes
        for op in ops:
            assert op.shape == (cfg.tau_nodes - 1, 2, 7, 7)
            K = op[:, 0]
            assert np.all(K >= 0.0)
            assert np.all(np.abs(K.sum(axis=-1) - 1.0) <= 4 * np.finfo(float).eps)


def measure_runs(grid, m):
    """Per mesh time of the grid's plan, the (length, measure id) of each
    run of consecutive tau nodes that read one measure of the path m."""
    runs = []
    for _, s, _, _ in grid.plan:
        ids = [id(m.at_time(x)) for x in s]
        runs.append([(len(list(group)), key) for key, group in groupby(ids)])
    return runs


@pytest.mark.parametrize("case", [one_mode_solve, two_mode_solve], ids=["1", "2"])
def test_value_solve_evaluates_the_hamiltonian_once_per_node_on_the_grid(case):
    """Each sweep evaluates H once at every (t_j, tau) node, on the G^N grid
    nodes only, in one call per run of consecutive nodes of a mesh time
    that read one measure, with X and P stacked (run length, G^N, N)."""
    H, G, m, spec, cfg = case()
    calls = []

    def value(X, P, mu):
        calls.append((X.shape, P.shape, id(mu)))
        return H.value(X, P, mu)

    counting = GeneralHamiltonian(value_fn=value, grad_p_fn=H.grad_p, bound_Hp=H.bound_Hp)
    v = solve_hjb_mild(counting, G, m, spec, cfg)
    grid = ValueGrid.build(spec, cfg)
    runs = [run for per_time in measure_runs(grid, m) for run in per_time]
    assert sum(length for length, _ in runs) == (len(grid.times) - 1) * (cfg.tau_nodes - 1)
    assert len(runs) < (len(grid.times) - 1) * (cfg.tau_nodes - 1)
    want = [((n,) + grid.nodes.shape, (n,) + grid.nodes.shape, key) for n, key in runs]
    assert calls == want * len(v.history)
    points = sum(math.prod(shape[:-1]) for shape, _, _ in calls)
    assert points == len(v.history) * sum(n for n, _ in runs) * len(grid.nodes)


@pytest.mark.parametrize("case", [one_mode_solve, two_mode_solve], ids=["1", "2"])
def test_value_solve_builds_each_node_operator_once(case, monkeypatch):
    """The plan builds the operators of every (t_j, tau) node once per
    solve, one _hat_operators call per mode and mesh time over all its tau
    nodes, however many Picard sweeps apply them."""
    H, G, m, spec, cfg = case()
    hat_operators, calls = hjb._hat_operators, []

    def counting(i, y, wq):
        calls.append(i.shape)
        return hat_operators(i, y, wq)

    monkeypatch.setattr(hjb, "_hat_operators", counting)
    v = solve_hjb_mild(H, G, m, spec, cfg)
    n_times = len(cfg.mesh()) - 1
    assert len(v.history) > 1
    assert len(calls) == spec.N * n_times
    assert set(calls) == {(cfg.tau_nodes - 1, cfg.grid_points, cfg.quad_nodes)}


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_each_stack_slice_equals_a_one_node_build_bit_for_bit(n_modes):
    """Slice a of a plan's operator stack is, bit for bit, the one-node
    _hat_operators build from node a's own image table."""
    grid, cfg = narrow_grid(n_modes, tau_nodes=5)
    w, z = grid.kernel.rule.weights, grid.kernel.rule.nodes
    for taus, s, _, ops in _plan(grid):
        for a, tau in enumerate(taus[1:]):
            decay, sd = grid.kernel.factors(tau * tau)
            for k, ax in enumerate(grid.axes):
                i, y = _cell(ax, (ax * decay[k])[:, None] + sd[k] * z[None, :])
                wq = np.stack([w, w * z * (decay[k] / sd[k])])
                one = _hat_operators(i[None], y[None], wq[None])
                assert one.shape == (1, 2, 7, 7)
                assert np.array_equal(one[0], ops[k][a])


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_sweep_over_all_nodes_equals_one_node_applications_bit_for_bit(n_modes):
    """The sweep's one application of every stack to the n tables of a mesh
    time equals n one-node applications bit for bit, and the sweep equals
    the per-node sweep written out: 2 tau times each node's stack, then
    the trapezoid rule in tau."""
    grid, cfg = narrow_grid(n_modes, tau_nodes=5)
    gen = np.random.default_rng(10 + n_modes)
    plan = grid.plan
    tables = [gen.uniform(-1.0, 1.0, (len(s), len(grid.nodes))) for _, s, _, _ in plan]
    base = (gen.normal(size=(len(grid.times),) + grid.shape),
            gen.normal(size=(len(grid.times) - 1,) + grid.shape + (n_modes,)))
    values, grads = base[0].copy(), base[1].copy()
    for j, (taus, s, _, ops) in enumerate(plan):
        tabs = tables[j].reshape((len(s),) + grid.shape)
        out = np.zeros((len(taus), n_modes + 1) + grid.shape)
        for a in range(len(s)):
            one = _semigroup(tuple(op[a:a + 1] for op in ops), tabs[a:a + 1])
            assert np.array_equal(one[0], _semigroup(ops, tabs)[a])
            out[a + 1] = 2.0 * taus[a + 1] * one[0]
        integral = np.trapezoid(out, x=taus, axis=0)
        values[j] -= integral[0]
        grads[j] -= np.moveaxis(integral[1:], 0, -1)
    got = _mild_sweep(grid, base, lambda j, s: tables[j])
    assert np.array_equal(got[0], values)
    assert np.array_equal(got[1], grads)


def test_cell_equals_searchsorted_bit_for_bit():
    """The arithmetic cell lookup finds the cell and fraction searchsorted
    finds, bit for bit: at the nodes and their floating-point neighbours,
    at points clipped to either face, at random points, and on an axis
    that is not uniform."""
    def bisected(ax, x):
        x = np.clip(x, ax[0], ax[-1])
        i = np.searchsorted(ax[1:-1], x, side="right")
        return i, (x - ax[i]) / (ax[i + 1] - ax[i])

    gen = np.random.default_rng(3)
    axes = [np.linspace(-b, b, g) for g in (2, 3, 7, 14, 32) for b in (0.7, 3.1, 5.0)]
    axes += [np.linspace(0.2, 9.7, 33), np.sort(gen.uniform(-4.0, 4.0, 12)),
             np.array([-3.0, -2.9, -0.5, 0.0, 0.01, 2.0, 4.5]), np.geomspace(1e-3, 10.0, 20)]
    for ax in axes:
        x = np.concatenate([ax, np.nextafter(ax, -np.inf), np.nextafter(ax, np.inf),
                            [ax[0] - 1.0, ax[-1] + 1.0, -np.inf, np.inf],
                            gen.uniform(ax[0] - 1.0, ax[-1] + 1.0, 2000)])
        for pts in (x, x.reshape(1, -1), x[:2000].reshape(10, 20, 10)):
            i, y = _cell(ax, pts)
            want_i, want_y = bisected(ax, pts)
            assert i.shape == want_i.shape == pts.shape
            assert np.array_equal(i, want_i)
            assert np.array_equal(y, want_y)


def test_value_solve_hands_the_hamiltonian_x_and_p_of_one_shape():
    """A Hamiltonian that refuses X and P of different shapes still solves,
    to the numbers of one that does not check."""
    H, G, m, spec, cfg = two_mode_solve()

    def strict(X, P, mu):
        assert X.shape == P.shape
        return H.value(X, P, mu)

    checked = solve_hjb_mild(GeneralHamiltonian(value_fn=strict, grad_p_fn=H.grad_p,
                                                bound_Hp=H.bound_Hp), G, m, spec, cfg)
    plain = solve_hjb_mild(H, G, m, spec, cfg)
    assert checked.status == "converged"
    assert np.array_equal(checked.values, plain.values)
    assert np.array_equal(checked.grads, plain.grads)


def test_value_solve_evaluates_b0_on_the_grid_nodes_once_per_hamiltonian_call(monkeypatch):
    """On the bench mfg-2d numerics each H call of a solve evaluates
    cap2d_f2's drift offset b0 once, on the G^N grid nodes as given, not on
    one copy of them per stacked tau node."""
    H, G, m, spec, cfg = two_mode_solve()
    cap, shapes = H.h0.__self__, []
    b0 = cap.b0
    monkeypatch.setattr(cap, "b0", lambda X: shapes.append(X.shape) or b0(X))
    v = solve_hjb_mild(H, G, m, spec, cfg)
    grid = ValueGrid.build(spec, cfg)
    calls = len(v.history) * sum(len(per_time) for per_time in measure_runs(grid, m))
    assert shapes == [grid.nodes.shape] * calls


@pytest.mark.parametrize("name", ["cap1d_monotone", "cap2d_f2"])
def test_value_solve_computes_the_coupling_statistic_once_per_measure(name, monkeypatch):
    """A solve fixes the coupling once per distinct measure its nodes read,
    at most J + 1 RankOneCoupling.statistic calls, however many sweeps it
    runs."""
    prob = make_model(name)
    cfg = SolverConfig(horizon=prob.horizon, dt=0.2, particles=300, seed=4, grid_points=14,
                       quad_nodes=5, tau_nodes=7)
    path = propagate(DriftField.zero(prob.spectrum.N), prob.m0, prob.spectrum, cfg)
    statistic, calls = RankOneCoupling.statistic, []

    def counting(self, mu):
        calls.append(mu)
        return statistic(self, mu)

    monkeypatch.setattr(RankOneCoupling, "statistic", counting)
    v = solve_hjb_mild(prob.hamiltonian, prob.terminal, path, prob.spectrum, cfg)
    grid = ValueGrid.build(prob.spectrum, cfg)
    picked = {id(path.at_time(x)) for _, s, _, _ in grid.plan for x in s}
    assert len(v.history) > 1
    assert len(calls) == len(picked) <= len(grid.times)
    assert {id(mu) for mu in calls} == picked


# the value-solve numerics of the bench mfg-1d and mfg-2d workloads, and the
# plan nodes of each whose two nearest mesh times are exactly as far
BENCH_SOLVES = {
    "cap1d_monotone": (dict(dt=0.1, particles=4000, grid_points=32, quad_nodes=8,
                            tau_nodes=17), [0.55]),
    "cap2d_f2": (dict(dt=0.2, particles=3000, grid_points=14, quad_nodes=5,
                      tau_nodes=7), [0.7000000000000001]),
}


def bench_grid(name):
    """The ValueGrid of a bench workload, a path of one particle on its mesh,
    and the nodes that are exact ties."""
    prob = make_model(name)
    numerics, ties = BENCH_SOLVES[name]
    grid = ValueGrid.build(prob.spectrum, SolverConfig(horizon=prob.horizon, **numerics))
    path = MeasurePath(times=grid.times, points=np.zeros((len(grid.times), 1, prob.spectrum.N)))
    return grid, path, ties


@pytest.mark.parametrize("name", list(BENCH_SOLVES))
def test_index_at_equals_at_time_at_every_plan_node(name):
    """index_at over the n nodes of a mesh time picks, entry by entry, the
    measure at_time picks for that node alone, also at the nodes that lie
    exactly halfway between two mesh times, which read the earlier one."""
    grid, path, ties = bench_grid(name)
    seen = []
    for _, s, _, _ in grid.plan:
        idx = path.index_at(s)
        assert idx.shape == s.shape
        for k, x in zip(idx, s):
            assert k == np.argmin(np.abs(grid.times - x))
            assert path.measures[k] is path.at_time(x)
            assert path.index_at(x) == k
            if k + 1 < len(grid.times) and x - grid.times[k] == grid.times[k + 1] - x:
                seen.append(x)
    assert seen == ties


@pytest.mark.parametrize("case", [one_mode_solve, two_mode_solve], ids=["1", "2"])
def test_value_solve_asks_the_path_once_per_mesh_time(case, monkeypatch):
    """A solve reads the terminal measure by at_time and asks index_at once
    per mesh time t_j < T for all the tau nodes of t_j, never per node."""
    H, G, m, spec, cfg = case()
    index_at, at_time, calls = MeasurePath.index_at, MeasurePath.at_time, []

    def counting_index_at(self, t):
        calls.append(np.shape(t))
        return index_at(self, t)

    def counting_at_time(self, t):
        calls.append("at_time")
        return at_time(self, t)

    monkeypatch.setattr(MeasurePath, "index_at", counting_index_at)
    monkeypatch.setattr(MeasurePath, "at_time", counting_at_time)
    v = solve_hjb_mild(H, G, m, spec, cfg)
    assert len(v.history) > 1
    assert calls == ["at_time", ()] + [(cfg.tau_nodes - 1,)] * (len(cfg.mesh()) - 1)


@pytest.mark.parametrize("name", list(BENCH_SOLVES))
def test_plan_reads_make_the_scalar_read_decision_at_every_node(name):
    """At every node of a plan, the stored read takes the slices _at_time
    takes for that node alone, with its weight, and the stacked read of a
    gradient table equals grad_at on the grid nodes bit for bit."""
    grid, _, _ = bench_grid(name)
    gen = np.random.default_rng(8)
    J, n = len(grid.times) - 1, len(grid.axes)
    field = grid.field(gen.normal(size=(J + 1,) + grid.shape),
                       gen.normal(size=(J,) + grid.shape + (n,)))
    mixed = 0
    for _, s, (lo, hi, mix, w), _ in grid.plan:
        assert np.array_equal(hi, lo[mix] + 1)
        assert w.shape == (len(hi),) + (1,) * (n + 1)
        P = field.grads[lo]
        P[mix] = (1.0 - w) * P[mix] + w * field.grads[hi]
        for a, x in enumerate(s):
            j, y = _bracket(grid.times, x)
            taken = []  # the slices _at_time reads, by index
            _at_time(np.arange(J), j, y, lambda k: taken.append(k) or 0.0)
            assert lo[a] == j and taken == [j, j + 1][:1 + mix[a]]
            assert mix[a] == _mixes(j, y, J)
            assert np.array_equal(P[a].reshape(-1, n), field.grad_at(x, grid.nodes))
        assert np.array_equal(w.ravel(), _bracket(grid.times, s[mix])[1])
        mixed += int(mix.sum())
    assert 0 < mixed < J * (grid.tau_nodes - 1)


def hamiltonian_cases():
    """(label, H, the value formula written out, modes) for every shipped
    preset and the direct GeneralHamiltonian forms."""
    cases = []
    for name in MODEL_NAMES:
        prob = make_model(name)
        H = prob.hamiltonian
        cases.append((name, H, lambda X, P, mu, H=H: np.asarray(H.h0(X, P), dtype=float)
                      - np.asarray(H.coupling(X, mu), dtype=float), prob.spectrum.N))
    for label, H, n in (("tanh", tanh_hamiltonian(), 1), ("zero", zero_hamiltonian(2), 2)):
        cases.append((label, H, lambda X, P, mu, H=H: np.asarray(H.value_fn(X, P, mu),
                                                                    dtype=float), n))
    return cases


@pytest.mark.parametrize("label, H, formula, n", hamiltonian_cases(),
                         ids=[case[0] for case in hamiltonian_cases()])
def test_hamiltonian_at_a_fixed_measure_equals_its_value_bit_for_bit(label, H, formula, n):
    """H.at_measure(X, mu) is P -> H.value(X, P, mu) bit for bit, on grid
    nodes and on particle clouds, and one stored function serves every P."""
    g = np.random.default_rng(7)
    mu = ParticleMeasure(g.normal(0.3, 0.8, (500, n)))
    spec = SpectrumSpec(eigenvalues=(-1.0, -4.0)[:n])
    nodes = ValueGrid.build(spec, SolverConfig(dt=0.5, grid_points=9, quad_nodes=4)).nodes
    for X in (nodes, g.normal(0.0, 1.5, (200, n)), g.normal(0.0, 1.5, (3, 40, n))):
        at_mu = H.at_measure(X, mu)
        for scale in (0.5, 4.0):
            P = g.normal(0.0, scale, X.shape)
            got = at_mu(P)
            assert got.dtype == float and got.shape == X.shape[:-1]
            assert np.array_equal(got, H.value(X, P, mu))
            assert np.array_equal(got, formula(X, P, mu))
        stack = g.normal(0.0, 1.0, (3,) + X.shape)
        assert np.array_equal(at_mu(stack), np.stack([at_mu(P) for P in stack]))


@pytest.mark.parametrize("case", [one_mode_solve, two_mode_solve], ids=["1", "2"])
def test_value_solve_on_a_shared_grid_equals_a_solve_on_its_own(case):
    """Handing solves one grid changes no byte: each equals the solve that
    builds its own grid, also when the grid's plan served another measure
    path first."""
    H, G, m, spec, cfg = case()
    other = propagate(DriftField.constant(np.full(spec.N, 0.5)), Dirac(np.zeros(spec.N)),
                      spec, cfg.with_(seed=9))
    grid = ValueGrid.build(spec, cfg)
    for path in (m, other, m):
        shared = solve_hjb_mild(H, G, path, spec, cfg, grid=grid)
        own = solve_hjb_mild(H, G, path, spec, cfg)
        assert np.array_equal(shared.values, own.values)
        assert np.array_equal(shared.grads, own.grads)
        assert (shared.status, shared.history) == (own.status, own.history)
