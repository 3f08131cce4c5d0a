"""The integrating branch of each stage against its closed-form branch.

``TRAP`` is the harmonic trap ``p^2 + q^2`` written as a polynomial, so it
carries no closed forms and every stage integrates its orbits (rk4, step
1e-2).  The built-in harmonic model gives the same quantities from closed
forms.  Grids are small: the point is that both branches compute the same
thing, not the accuracy of either against the exact solution.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from phaseprop import (
    CausticError,
    ComplexField,
    FlowOptions,
    PhasePoint,
    apply_propagator,
    builtin_model,
    polynomial_model,
    position_space_solution,
    solution_on_manifold,
    transport_manifold,
    van_vleck_kernel,
    vertical_tangent_time,
)
from phaseprop.oracles import initial_phase_state, initial_position_state
from test_wkb import cubic_data, reference_data

HBAR = 0.1
T = 0.5
TRAP = polynomial_model({(0, 2): 1.0, (2, 0): 1.0})
HARMONIC = builtin_model("harmonic")
RK4 = FlowOptions(method="rk4", step=1e-2)
TOL = 1e-6


def rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_apply_propagator_integrating_branch():
    axis = np.linspace(-2.0, 2.0, 11)
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    Psi0 = ComplexField((axis, axis), initial_phase_state(Q, P, HBAR), HBAR)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = apply_propagator(Psi0, T, TRAP, opts=RK4)
        want = apply_propagator(Psi0, T, HARMONIC)
    # the output axes come from flowing the support box: rk4 probes there
    for a, b in zip(got.axes, want.axes):
        assert a.shape == b.shape and np.abs(a - b).max() < 1e-8
    assert rel(got.values, want.values) <= TOL


@pytest.mark.filterwarnings("ignore::phaseprop.SpacingWarning")
def test_position_space_solution_integrating_branch():
    x = np.linspace(-8.0, 8.0, 321)
    psi0 = ComplexField((x,), initial_position_state(x, HBAR), HBAR)
    axes = (np.linspace(-3.0, 3.0, 15), np.linspace(-3.0, 3.0, 15))
    got = position_space_solution(psi0, T, TRAP, phase_axes=axes, opts=RK4)
    want = position_space_solution(psi0, T, HARMONIC, phase_axes=axes)
    assert rel(got.values, want.values) <= TOL


def test_transport_manifold_integrating_branch():
    alpha = np.linspace(-2.0, 2.0, 41)
    got = transport_manifold(reference_data(), TRAP, T, alpha, RK4)
    want = transport_manifold(reference_data(), HARMONIC, T, alpha)
    for name in ("q", "p", "phase"):
        assert rel(getattr(got, name), getattr(want, name)) <= TOL, name


def test_vertical_tangent_time_integrating_branch():
    # the default window t_max = 2 holds the fold at 3 pi / 8: one sampled
    # pass finds the bracket, brentq refines it on integrated endpoints
    got = vertical_tangent_time(reference_data(), TRAP, opts=RK4)
    want = vertical_tangent_time(reference_data(), HARMONIC)
    assert abs(got - want) <= TOL


def test_vertical_tangent_time_keeps_a_bracket_end_within_integrator_error():
    # t_max puts a sample 3e-6 past the fold at 3 pi / 8.  The pass takes one
    # short step per sample and sees the flip there; flow_batch steps by 0.1
    # from 0 and moves the zero past that sample, so both bracket ends keep
    # one sign under it and the sampled end is returned
    t_max = 2 * (3 * np.pi / 8 + 3e-6)
    got = vertical_tangent_time(reference_data(), TRAP, t_max=t_max,
                                opts=FlowOptions(method="rk4", step=0.1))
    assert got == pytest.approx(3 * np.pi / 8, abs=1e-5)


def test_fold_location_integrating_branch():
    # the fold of tests/test_wkb.py's cubic-phase transport, found on the
    # sampled orbits of the free flow written as a polynomial
    alpha = np.linspace(-5.0, -2.5, 26)
    folds = []
    for model, opts in ((polynomial_model({(0, 2): 1.0}), RK4),
                        (builtin_model("free"), None)):
        with pytest.raises(CausticError) as exc:
            transport_manifold(cubic_data(), model, 0.6, alpha, opts)
        folds.append((exc.value.t_star, exc.value.alpha_star))
    assert folds[0] == pytest.approx(folds[1], abs=1e-12)
    assert folds[0] == pytest.approx((0.5, -5.0), abs=1e-2)


def test_solution_on_manifold_integrating_branch():
    X = HARMONIC.exact_flow(PhasePoint(0.3, 0.3), T)
    got = solution_on_manifold(X, T, reference_data(), TRAP, HBAR, RK4,
                               n_track=11)
    want = solution_on_manifold(X, T, reference_data(), HARMONIC, HBAR,
                                n_track=11)
    assert rel(got, want) <= TOL


def test_solution_on_manifold_steps_do_not_depend_on_n_track():
    # the pass takes the steps of flow_batch to T whatever n_track is, so
    # n_track moves only the samples the root is tracked on, while halving
    # the step moves the value
    X = HARMONIC.exact_flow(PhasePoint(0.3, 0.3), T)
    got = [solution_on_manifold(X, T, reference_data(), TRAP, HBAR, RK4, n_track=n)
           for n in (11, 41, 101)]
    assert got[0] == got[1] == got[2]
    half = solution_on_manifold(X, T, reference_data(), TRAP, HBAR,
                                FlowOptions(method="rk4", step=RK4.step / 2))
    assert 0 < rel(half, got[0]) <= TOL


def test_van_vleck_focal_count_integrating_branch():
    # by t = 5 the orbit has passed the focal points pi/2, pi and 3 pi/2,
    # each counted from a sign change of Im A on the sampled orbit
    got = van_vleck_kernel(0.6, -0.2, 5.0, TRAP, HBAR)
    want = van_vleck_kernel(0.6, -0.2, 5.0, HARMONIC, HBAR)
    assert rel(got, want) <= TOL


def test_van_vleck_root_scan_integrating_branch():
    # the polynomial kind has no root formula, so the roots come from a
    # bracketing scan over integrated orbits
    got = van_vleck_kernel(0.6, -0.2, T / 4, TRAP, HBAR)
    want = van_vleck_kernel(0.6, -0.2, T / 4, HARMONIC, HBAR)
    assert rel(got, want) <= TOL
