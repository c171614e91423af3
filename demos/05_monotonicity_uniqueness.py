# Monotone couplings and uniqueness of the equilibrium.
#
# The uniqueness theory asks the coupling F to be Lasry-Lions monotone:
# the pairing <F(mu) - F(nu), mu - nu> must be nonnegative for all pairs
# of measures.  We estimate the pairing on random measure pairs, compare
# against a closed form that is available for separable couplings, and
# then watch the fixed point land on the same equilibrium from two very
# different starting flows.  A sign-flipped coupling serves as the
# negative control for both checks.

import numpy as np

from hilbert_mfg import (
    RankOneCoupling,
    SolverConfig,
    assumption_check,
    make_model,
    monotonicity_check,
    uniqueness_experiment,
)
from hilbert_mfg.measures import ProductGaussian
from hilbert_mfg.fp_particles import DriftField, propagate

problem = make_model("cap1d_monotone")

# Separable coupling F(x, mu) = w * h(x) * <h, mu>.  The pairing has the
# closed form w * (<h,mu> - <h,nu>)^2, so monotone iff w >= 0, and the
# sampled estimate should match that identity to rounding error.
coupling = problem.hamiltonian.coupling
rep = monotonicity_check(coupling, trials=500, seed=1)
print("shipped coupling:", rep.label)
print("  min pairing over %d pairs: %.3e  (floor %.3e)"
      % (rep.trials, rep.min_pairing, rep.floor))
print("  closed-form identity gap: %.2e   verdict: %s"
      % (rep.identity_gap, "monotone" if rep.passed else "NOT monotone"))

bad = RankOneCoupling(h=coupling.h, weight=-coupling.weight,
                      lip=coupling.lip, label="sign-flipped")
rep_bad = monotonicity_check(bad, trials=500, seed=1)
print("sign-flipped control: min pairing %.3e, passed=%s"
      % (rep_bad.min_pairing, rep_bad.passed))

# Sanity on the Hamiltonian side: sampled |H_p| and Lipschitz quotients
# must sit below the declared constants the contraction argument uses.
ar = assumption_check(problem.hamiltonian, n_modes=1, trials=150, seed=2)
print("assumption audit: |H_p| worst %.3f <= %.3f, p-Lipschitz worst %.3f <= %.3f"
      % (ar.hp_worst, ar.hp_declared, ar.lip_p_worst, ar.lip_p_declared))

# Two-start experiment.  Start A: everyone sits at the initial point mass
# and drifts freely.  Start B: a wide stationary Gaussian.  Under the
# monotone coupling both runs must land on the same flow and value field.
config = SolverConfig(horizon=1.0, dt=0.1, particles=4000, grid_points=32,
                      quad_nodes=8, tau_nodes=17, fp_tol=4e-2, seed=5)
spec = problem.spectrum
zero = DriftField(lambda t, X: np.zeros_like(X), bound=0.0, label="zero")
start_a = propagate(zero, problem.m0, spec, config)
start_b = propagate(zero, ProductGaussian(np.array([0.0]), np.array([0.5])),
                    spec, config)

rep, _, _ = uniqueness_experiment(problem, start_a, start_b, config)
print("uniqueness: flow distance %.4f, value sup distance %.4f (%s / %s)"
      % (rep.rho_between, rep.value_sup_distance, rep.status_a, rep.status_b))

# The same experiment on the sign-flipped model is reported, not hidden:
# without monotonicity nothing guarantees a small gap.
anti = make_model("cap1d_antimonotone")
small = SolverConfig(horizon=1.0, dt=0.2, particles=2000, grid_points=24,
                     quad_nodes=6, tau_nodes=9, fp_tol=4e-2, fp_max=4, seed=5)
start_a = propagate(zero, anti.m0, spec, small)
start_b = propagate(zero, ProductGaussian(np.array([0.0]), np.array([0.5])),
                    spec, small)
rep, _, _ = uniqueness_experiment(anti, start_a, start_b, small)
print("antimonotone control: flow distance %.4f, value sup distance %.4f"
      % (rep.rho_between, rep.value_sup_distance))
