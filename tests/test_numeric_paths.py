"""The integrating branch of each stage against its closed-form branch.

``TRAP`` is the harmonic trap ``p^2 + q^2`` written as a polynomial.  Being
quadratic, it carries the built-in's closed forms, so every stage here is
passed ``RK4`` (rk4, step 1e-2) and integrates its orbits; ``van_vleck_kernel``
takes no options and is given ``BARE_TRAP``, the same trap without its closed
forms.  The built-in harmonic model gives the same quantities from the closed
forms.  The van Vleck sum over several orbits, which no quadratic model has,
is checked under ``p^2 + q^4`` against a reference built in its test.  Grids are small: the point is that both branches compute the same
thing, not the accuracy of either against the exact solution.
"""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

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
from phaseprop.flow import _sample_orbits, flow_batch
from phaseprop.oracles import initial_phase_state, initial_position_state
from test_wkb import cubic_data, reference_data

HBAR = 0.1
T = 0.5
TRAP = polynomial_model({(0, 2): 1.0, (2, 0): 1.0})
BARE_TRAP = dataclasses.replace(TRAP, exact_flow=None, inverse_flow=None, bulk_flow=None,
                                bulk_action=None, frame_at=None)
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
    # pass finds the bracket, Chandrupatla's method refines it on integrated
    # endpoints
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
    got = solution_on_manifold(X, T, reference_data(), TRAP, HBAR, RK4)
    want = solution_on_manifold(X, T, reference_data(), HARMONIC, HBAR)
    assert rel(got, want) <= TOL


def test_solution_on_manifold_moves_with_the_step():
    # the root is continued through every step of the pass, so halving the
    # step moves the value, within the integrator's error
    X = HARMONIC.exact_flow(PhasePoint(0.3, 0.3), T)
    got = solution_on_manifold(X, T, reference_data(), TRAP, HBAR, RK4)
    half = solution_on_manifold(X, T, reference_data(), TRAP, HBAR,
                                FlowOptions(method="rk4", step=RK4.step / 2))
    assert 0 < rel(half, got) <= TOL


def test_van_vleck_focal_count_integrating_branch():
    # by t = 5 the orbit has passed the focal points pi/2, pi and 3 pi/2,
    # each counted from a sign change of Im A on the sampled orbit
    got = van_vleck_kernel(0.6, -0.2, 5.0, BARE_TRAP, HBAR)
    want = van_vleck_kernel(0.6, -0.2, 5.0, HARMONIC, HBAR)
    assert rel(got, want) <= TOL


def test_van_vleck_root_scan_integrating_branch():
    # integrated orbits take no root formula: the roots come from a
    # bracketing scan over them
    got = van_vleck_kernel(0.6, -0.2, T / 4, BARE_TRAP, HBAR)
    want = van_vleck_kernel(0.6, -0.2, T / 4, HARMONIC, HBAR)
    assert rel(got, want) <= TOL


@pytest.mark.parametrize("t, scan, roots_want, nu_want, tol", [
    pytest.param(1.0, (-3.0, 3.0, 61), [-1.9134, 0.3037, 1.5112], [1, 0, 1], 1e-6,
                 id="t1"),
    # two roots, 0.1636 and 0.3127, share one interval of the kernel's own
    # 41-sample scan of [-3.85, 4.15]; a seventh root at -3.9665 lies outside
    pytest.param(2.0, (-3.85, 4.15, 401),
                 [-1.4019, -0.5251, 0.1636, 0.3127, 2.0073, 3.7664], [2, 1, 0, 1, 2, 3],
                 1e-4, id="t2"),
])
def test_van_vleck_sums_several_trajectories(t, scan, roots_want, nu_want, tol):
    # under p^2 + q^4 several orbits from y = -0.2 reach x = 0.4 at t, some
    # past focal points.  The reference refines each sign change of a scan
    # by scalar brentq on adaptive endpoints, and counts the focal points
    # from the sign changes of Im A at 1000 adaptive samples
    model = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
    x, y = 0.4, -0.2
    fine = FlowOptions(method="adaptive", rtol=1e-12)

    def miss(p0):
        return flow_batch(model, [y], [p0], t, fine).q[0, 0] - x

    grid = np.linspace(*scan)
    vals = flow_batch(model, np.full(grid.shape, y), grid, t, fine).q[:, 0] - x
    roots = np.array([brentq(miss, grid[k], grid[k + 1], xtol=1e-14)
                      for k in np.nonzero(vals[:-1] * vals[1:] < 0)[0]])
    assert roots == pytest.approx(roots_want, abs=1e-4)
    _, *states = _sample_orbits(model, np.full((roots.size, 1), y), roots[:, None],
                                np.linspace(0.0, t, 1001), fine)
    imA = np.array([s.A[:, 0, 0].imag for s in states])
    nu = ((imA[1:] < 0) != (imA[:-1] < 0)).sum(axis=0)
    assert list(nu) == nu_want
    want = np.sum((2j * np.pi * HBAR) ** -0.5 / np.sqrt(np.abs(imA[-1]))
                  * np.exp(1j / HBAR * states[-1].action - 0.5j * np.pi * nu))
    got = van_vleck_kernel(x, y, t, model, HBAR)
    assert abs(got - want) <= tol * abs(want)
