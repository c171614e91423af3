# Solving the backward value equation in mild form.
#
# The value field satisfies v(t) = R_{T-t} G + int_t^T R_{s-t} H(Dv, m) ds
# on the mode grid.  With H = 0 this reduces to the Kolmogorov backward
# equation, where cos has a closed-form image under the OU semigroup, so
# we can check the solver against an exact answer before turning on the
# nonlinearity.

import numpy as np

from hilbert_mfg import (
    MeasurePath,
    SolverConfig,
    SpectrumSpec,
    covariance_qk,
    hjb_residual,
    make_model,
    semigroup_factors,
    solve_kolmogorov,
)
from hilbert_mfg.hjb import solve_hjb_mild

spec = SpectrumSpec((-1.0,), delta=0.5, family=("power", 1.0, 3.0))
config = SolverConfig(horizon=1.0, dt=0.1, grid_points=48,
                      quad_nodes=16, tau_nodes=17, seed=0)

# Kolmogorov check: R_t cos(x) = exp(-q(t)/2) cos(e^{lam t} x), so
# v(t, x) = exp(-q(T-t)/2) cos(e^{lam (T-t)} x).
v = solve_kolmogorov(None, lambda X: np.cos(X[..., 0]), spec, config)
xs = np.linspace(-2.5, 2.5, 9)
t = 0.4
s = config.horizon - t
exact = np.exp(-covariance_qk(spec, 1, s) / 2) * np.cos(semigroup_factors(spec, s)[0] * xs)
got = v.value_at(t, xs[:, None])
print("Kolmogorov solve, max error vs closed form at t=0.4:",
      np.max(np.abs(got - exact)))

# Now a real Hamiltonian: quadratic running cost with the control capped
# at |a| <= 1, coupled to a population flow.  Freeze the flow to a moving
# point mass so this file stays a pure HJB demo.
problem = make_model("cap1d_monotone")
times = np.arange(0.0, 1.0 + 1e-12, config.dt)
flow = MeasurePath(times, [[[0.3 * np.exp(-t)]] for t in times])

v = solve_hjb_mild(problem.hamiltonian, problem.terminal, flow, spec, config)
print("Picard status:", v.status, "after", len(v.history), "sweeps")
print("weighted gradient changes per sweep:",
      ["%.2e" % c for c in v.history])

# Residual certificate: plug v back into the mild equation at sample
# points and report the defect.  Small residual = the field actually
# solves the equation, not just the iteration stopped.
samples = [(t, np.array([x])) for t in (0.1, 0.4, 0.7)
           for x in (-1.5, -0.4, 0.3, 1.1, 2.0)]
res = hjb_residual(v, problem.hamiltonian, problem.terminal, flow, samples, spec, config)
print("mild-form residual over %d sample points: %.2e" % (len(samples), res))

# The gradient respects the control cap through the Hamiltonian: the
# feedback drift is bounded by bound_Hp regardless of how steep v gets.
print("declared sup |H_p|:", problem.hamiltonian.lip_p)
g = v.grad_at(0.5, np.linspace(-3, 3, 13)[:, None])
print("max |Dv| on a coarse line:", np.max(np.abs(g)))
