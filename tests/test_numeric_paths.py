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
)
from phaseprop.oracles import initial_phase_state, initial_position_state
from test_wkb import reference_data

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


def test_solution_on_manifold_integrating_branch():
    X = HARMONIC.exact_flow(PhasePoint(0.3, 0.3), T)
    got = solution_on_manifold(X, T, reference_data(), TRAP, HBAR, RK4,
                               n_track=11)
    want = solution_on_manifold(X, T, reference_data(), HARMONIC, HBAR,
                                n_track=11)
    assert rel(got, want) <= TOL


def test_van_vleck_root_scan_integrating_branch():
    # the polynomial kind has no root formula, so the roots come from a
    # bracketing scan over integrated orbits
    got = van_vleck_kernel(0.6, -0.2, T / 4, TRAP, HBAR)
    want = van_vleck_kernel(0.6, -0.2, T / 4, HARMONIC, HBAR)
    assert rel(got, want) <= TOL
