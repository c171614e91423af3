"""The one same-mesh rule, the callers that pair two time meshes, and the
checks SolverConfig makes when it is built.

Every caller that compares meshes reads config.same_mesh, so meshes of
different lengths are refused with the caller's own message, never with
numpy's broadcast error.
"""

import numpy as np
import pytest

from hilbert_mfg.config import SolverConfig, same_mesh
from hilbert_mfg.hjb import (
    GridValueField,
    solve_hjb_mild,
    weighted_gradient_change,
    zero_hamiltonian,
)
from hilbert_mfg.measures import MeasurePath, mixture_paths, path_sup_distance
from hilbert_mfg.mfg import fixed_point_iterate
from hilbert_mfg.models import make_model

# five mesh times on [0, 1]; the paths and fields below have three
CFG = SolverConfig(horizon=1.0, dt=0.25, particles=4, grid_points=3,
                   quad_nodes=2, tau_nodes=2)


def path(n_times):
    return MeasurePath(times=np.linspace(0.0, 1.0, n_times),
                       points=np.zeros((n_times, 4, 1)))


def value_field(n_times):
    return GridValueField(times=np.linspace(0.0, 1.0, n_times),
                          axes=(np.linspace(-1.0, 1.0, 3),),
                          values=np.zeros((n_times, 3)),
                          grads=np.zeros((n_times - 1, 3, 1)))


def test_same_mesh_compares_length_then_times():
    mesh = CFG.mesh()
    assert same_mesh(mesh, np.linspace(0.0, 1.0, 5))
    assert same_mesh(mesh, mesh + 1e-12)
    assert not same_mesh(mesh, np.linspace(0.0, 1.0, 3))
    assert not same_mesh(mesh, np.linspace(0.0, 1.1, 5))


CALLERS = {
    "solve_hjb_mild": lambda: solve_hjb_mild(
        zero_hamiltonian(1), lambda X, mu: np.zeros(X.shape[:-1]), path(3),
        make_model("cap1d_monotone").spectrum, CFG),
    "weighted_gradient_change": lambda: weighted_gradient_change(
        value_field(3), value_field(5)),
    "path_sup_distance": lambda: path_sup_distance(path(3), path(5)),
    "mixture_paths": lambda: mixture_paths(path(3), path(5), 0.5),
    "fixed_point_iterate": lambda: fixed_point_iterate(
        make_model("cap1d_monotone"), CFG, initial=path(3)),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_callers_refuse_a_three_against_five_time_mesh(caller):
    with pytest.raises(ValueError, match="mesh"):
        CALLERS[caller]()


@pytest.mark.parametrize("name, bad", [("sliced_projections", 0), ("exact_w1_budget", -1)])
def test_config_refuses_a_w1_count_below_its_least(name, bad):
    """The W1 counts are refused when the config is built, before any
    solve, with a message that leads with the field."""
    with pytest.raises(ValueError, match="^%s: must be >= " % name):
        CFG.with_(**{name: bad})


COUNTS = ("particles", "grid_points", "quad_nodes", "tau_nodes", "picard_max",
          "fp_max", "exact_w1_budget", "sliced_projections")


@pytest.mark.parametrize("bad", [300.7, 10.5, 4.0, True, "8"])
@pytest.mark.parametrize("name", COUNTS)
def test_config_refuses_a_count_that_is_not_an_integer(name, bad):
    """A count is an int, not a float that would be truncated late nor a
    bool that would run as 1, refused when the config is built."""
    with pytest.raises(ValueError, match="^%s: must be an integer$" % name):
        CFG.with_(**{name: bad})


def test_config_takes_numpy_integer_counts():
    assert CFG.with_(particles=np.int64(7), grid_points=np.int32(5)).particles == 7
