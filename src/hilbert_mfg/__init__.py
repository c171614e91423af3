"""Spectral solver and verification harness for mean field games on a
separable Hilbert space.

The state operator A is diagonal with strictly negative eigenvalues, so all
computations run on the first N mode coordinates: Ornstein-Uhlenbeck
semigroup evaluation by tensor Gauss-Hermite quadrature, a mild-form HJB
Picard solver on a time mesh x spatial grid, an exponential-Euler particle
scheme for the Fokker-Planck flow, and a damped fixed-point iteration
coupling the two.  Alongside the solvers, audit routines verify the
quantitative structure the theory provides: the invariant-set audit of a
law path (per-mode second moments, the fourth-moment cap and the time
modulus), weak-form residuals, Lasry-Lions monotonicity, and two-start
uniqueness probes.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining submodule.  They resolve on first attribute
# access (PEP 562), so importing the package, or `hilbert_mfg.cli` through
# it, loads no numpy: the CLI's --threads cap must be exported first.
_EXPORTS = {
    "config": (
        "SolverConfig",
    ),
    "fp_particles": (
        "DriftField", "FourierTestFunction", "bootstrap_stderr", "propagate",
        "residual_audit_cases", "weak_form_residual", "weak_residual_profile",
    ),
    "hjb": (
        "GeneralHamiltonian", "GridValueField", "SeparatedHamiltonian",
        "default_box", "hjb_residual", "solve_hjb_mild", "solve_kolmogorov",
        "weighted_gradient_change", "zero_hamiltonian",
    ),
    "measures": (
        "Dirac", "MeasurePath", "ParticleMeasure", "ProductGaussian",
        "mixture_paths", "path_from_dir", "path_modulus", "path_sup_distance",
        "path_sup_distances", "path_to_dir", "w1_method", "wasserstein1",
        "wasserstein1_sliced",
    ),
    "mfg": (
        "MFGProblem", "MFGSolution", "calibrate_c0", "drift_from_gradient",
        "fixed_point_iterate", "mode_bounds", "moment_bound_audit", "psi_map",
        "uniqueness_experiment",
    ),
    "models": (
        "MODEL_NAMES", "CappedControlHamiltonian", "RankOneCoupling",
        "assumption_check", "default_pair_sampler", "eval_DH1", "eval_H1",
        "make_model", "monotonicity_check",
    ),
    "ou_kernel": (
        "OUKernel", "QuadratureRule",
    ),
    "rng": (
        "derive_seed", "generator", "normal_blocks", "normal_stream", "uniform_stream",
    ),
    "spectrum": (
        "SpectrumSpec", "covariance_diag", "covariance_qk", "semigroup_factors",
        "stationary_variances", "validate_spectrum",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
