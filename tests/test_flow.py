from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from phaseprop import (
    CausticError,
    ConfigurationError,
    FlowOptions,
    GridRangeError,
    PhasePoint,
    SiegelMatrix,
    amplitude_a,
    anisotropy_Z,
    builtin_model,
    ehrenfest_guard,
    flow_jacobian,
    integrate_characteristics,
    polynomial_model,
    symplectic_J,
)
from phaseprop.flow import _n_steps

QUARTIC = {(0, 2): 1.0, (4, 0): 1.0}


def test_symplectic_J_shape_and_square():
    J = symplectic_J(1)
    assert J.shape == (2, 2)
    assert np.array_equal(J @ J, -np.eye(2))
    J2 = symplectic_J(2)
    assert np.array_equal(J2 @ J2, -np.eye(4))


def test_free_frame_matches_closed_form():
    b = integrate_characteristics(builtin_model("free"), PhasePoint(0.3, -0.7),
                                  1.0, FlowOptions(method="rk4", step=1e-3))
    f = b.frame(1.0)
    assert abs(complex(f.A[0, 0]) - (1 + 2j)) < 1e-9
    assert abs(complex(f.B[0, 0]) - 1j) < 1e-9
    X1 = b.point(1.0)
    assert X1.q[0] == pytest.approx(0.3 - 1.4, abs=1e-10)
    assert b.action[-1] == pytest.approx(0.49, abs=1e-10)


def test_harmonic_frame_matches_closed_form():
    t = 2.0
    b = integrate_characteristics(builtin_model("harmonic"), PhasePoint(0.5, 0.2),
                                  t, FlowOptions(method="rk4", step=1e-3))
    f = b.frame(t)
    assert abs(complex(f.A[0, 0]) - cmath.exp(2j * t)) < 1e-9
    assert abs(complex(f.B[0, 0]) - 1j * cmath.exp(2j * t)) < 1e-9
    # branch-tracked log det(A - iB) stays on the continuous root:
    # det(A - iB) = 2 e^{2it}, so the log is ln 2 + 2it, not principal
    assert abs(complex(b.logdet_w[-1]) - (math.log(2) + 2j * t)) < 1e-8
    assert abs(complex(b.logdetA[-1]) - 2j * t) < 1e-8


def test_exact_method_used_for_builtins_by_default():
    b = integrate_characteristics(builtin_model("harmonic"), PhasePoint(1.0, 0.0),
                                  1.5, FlowOptions(step=0.25))
    f = b.frame(1.5)
    assert abs(complex(f.A[0, 0]) - cmath.exp(3j)) < 1e-14
    c, s = math.cos(3.0), math.sin(3.0)
    assert b.point(1.5).q[0] == pytest.approx(c, abs=1e-14)
    assert b.point(1.5).p[0] == pytest.approx(-s, abs=1e-14)


def test_amplitude_tracks_branch_through_half_turn():
    # det A = e^{2it} crosses the negative real axis at t = pi/2;
    # the tracked square root must stay continuous: a(t) = e^{-it}
    b = integrate_characteristics(builtin_model("harmonic"), PhasePoint(0.0, 1.0),
                                  2.0, FlowOptions(step=1e-2))
    for t in (0.5, 1.0, 1.57, 2.0):
        assert abs(amplitude_a(b, t) - cmath.exp(-1j * t)) < 1e-10


def test_bundle_index_guards():
    b = integrate_characteristics(builtin_model("free"), PhasePoint(0.0, 0.0),
                                  1.0, FlowOptions(step=0.1))
    with pytest.raises(GridRangeError):
        b.point(1.5)
    with pytest.raises(GridRangeError):
        b.point(0.123456)


@pytest.mark.parametrize("t, k", [(0.25, 12), (0.55, 20), (0.123456, 15625)])
def test_a_missed_sample_names_the_step_that_lands_on_it(t, k):
    # the fewest steps T / k, never coarser than the bundle's ten, that put a
    # sample on t; integrating with the named step does
    b = integrate_characteristics(builtin_model("free"), PhasePoint(0.0, 0.0),
                                  1.0, FlowOptions(step=0.1))
    with pytest.raises(GridRangeError, match=rf"not a stored sample.*step T / {k} = ") as e:
        b.point(t)
    step = float(str(e.value).split(" = ")[-1].split()[0])
    landed = integrate_characteristics(builtin_model("free"), PhasePoint(0.0, 0.0),
                                       1.0, FlowOptions(step=step))
    assert len(landed.times) == k + 1
    assert landed.times[landed.index_of(t)] == pytest.approx(t, abs=1e-12)


def test_a_step_that_divides_the_interval_gives_its_steps():
    # round-off in T / (T / k) never adds a step that would miss every sample
    for T in (0.3, 0.35, 0.5, 0.55, 0.7, 1.0, 1.5, 2.0, 3.0):
        assert [_n_steps(T, T / k) for k in range(2, 200)] == list(range(2, 200)), T
    assert _n_steps(0.5 * (1 + 1e-12), 0.5) == 1 and _n_steps(0.0, 0.5) == 0


def test_a_time_no_step_lands_on_says_so():
    b = integrate_characteristics(builtin_model("free"), PhasePoint(0.0, 0.0),
                                  1.0, FlowOptions(step=0.1))
    with pytest.raises(GridRangeError, match="no step T / k with k <= 1000000 lands on it"):
        b.point(0.1234567891)


def test_flow_options_validation():
    with pytest.raises(ConfigurationError):
        FlowOptions(method="euler")
    with pytest.raises(ConfigurationError):
        FlowOptions(step=-0.1)


@pytest.mark.parametrize("field", ["step", "rtol", "hbar"])
def test_flow_options_reject_non_finite_values(field):
    # an infinite step gave no steps at all, so an rk4 batch to t = 0.5
    # returned its source with action 0 and a bundle held only t = 0
    for value in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match=f"{field} must be positive and finite"):
            FlowOptions(**{field: value})


def test_quartic_frame_identities():
    # A^T B - B^T A = 0, A^* B - B^* A = 2iI, Im Z = (A A^*)^{-1},
    # M^T J M = J — checked on a nonlinear model with the rk4 integrator
    model = polynomial_model(QUARTIC)
    rng = np.random.default_rng(7)
    J = symplectic_J(1)
    for _ in range(10):
        q, p = rng.uniform(-1.0, 1.0, size=2)
        t = float(rng.uniform(0.2, 1.0))
        b = integrate_characteristics(model, PhasePoint(q, p), t,
                                      FlowOptions(method="rk4", step=1e-3))
        f = b.frame(t)
        A, B = f.A, f.B
        assert np.abs(A.T @ B - B.T @ A).max() < 1e-6
        assert np.abs(A.conj().T @ B - B.conj().T @ A - 2j * np.eye(1)).max() < 1e-6
        Z = anisotropy_Z(f).M
        assert np.abs(Z.imag - np.linalg.inv(A @ A.conj().T).real).max() < 1e-6
        M = flow_jacobian(b, t)
        assert np.abs(M.T @ J @ M - J).max() < 1e-6


def test_anisotropy_inverse_identity():
    # Im(-Z^{-1}) = (B B^*)^{-1}; for the free orbit Z^{-1} = 2t - i
    b = integrate_characteristics(builtin_model("free"), PhasePoint(0.2, 0.4),
                                  0.8, FlowOptions(step=1e-2))
    f = b.frame(0.8)
    Z = anisotropy_Z(f).M
    Zinv = np.linalg.inv(Z)
    assert abs(complex(Zinv[0, 0]) - (1.6 - 1j)) < 1e-12
    want = np.linalg.inv(f.B @ f.B.conj().T).real
    assert np.abs((-Zinv).imag - want).max() < 1e-12


def test_anisotropy_riccati_residual():
    # dZ/dt = -H_qq - 2 Z^2 for H = p^2 + V(q), by central differences
    model = polynomial_model(QUARTIC)
    X0 = PhasePoint(0.6, -0.2)
    d = 1e-3
    opts = FlowOptions(method="rk4", step=1e-4)
    t = 0.5
    b = integrate_characteristics(model, X0, t + d, opts)
    Zm = anisotropy_Z(b.frame(t - d)).M[0, 0]
    Z0 = anisotropy_Z(b.frame(t)).M[0, 0]
    Zp = anisotropy_Z(b.frame(t + d)).M[0, 0]
    qt = b.point(t).q[0]
    rate = (Zp - Zm) / (2 * d)
    assert abs(rate - (-12 * qt ** 2 - 2 * Z0 ** 2)) < 1e-4


def test_siegel_matrix_rejects_bad_input():
    with pytest.raises(Exception):
        SiegelMatrix([[1.0 + 0.0j]])  # imaginary part not positive definite
    with pytest.raises(Exception):
        SiegelMatrix([[1j, 0.5], [0.0, 1j]])  # not symmetric


def test_ehrenfest_guard_threshold_and_monotonicity():
    model = builtin_model("free")
    opts_01 = FlowOptions(step=1e-3, hbar=0.1)
    opts_005 = FlowOptions(step=1e-3, hbar=0.05)
    b1 = integrate_characteristics(model, PhasePoint(0.0, 0.0), 4.0, opts_01)
    b2 = integrate_characteristics(model, PhasePoint(0.0, 0.0), 4.0, opts_005)
    m1 = ehrenfest_guard(b1)
    m2 = ehrenfest_guard(b2)
    assert len(m1) == 1 and len(m2) == 1
    assert "hbar^-1/2" in m1[0]
    t1 = float(m1[0].split("at t = ")[1].split(";")[0])
    t2 = float(m2[0].split("at t = ")[1].split(";")[0])
    assert t1 == pytest.approx(1.424, abs=5e-3)
    assert t2 == pytest.approx(2.125, abs=5e-3)
    assert t1 < t2  # larger hbar trips the guard earlier
    # disabled when no hbar is carried
    b3 = integrate_characteristics(model, PhasePoint(0.0, 0.0), 4.0,
                                   FlowOptions(step=1e-3))
    assert ehrenfest_guard(b3) == []


def test_caustic_error_carries_location():
    err = CausticError("fold", t_star=0.5, alpha_star=-5.0)
    assert err.t_star == 0.5
    assert err.alpha_star == -5.0


def test_methods_return_identical_one_sample_bundles_at_t0():
    X0 = PhasePoint(0.3, -0.2)
    for model in (builtin_model("harmonic"), builtin_model("free")):
        bundles = [integrate_characteristics(model, X0, 0.0, FlowOptions(method=m))
                   for m in ("rk4", "adaptive", "exact")]
        for b in bundles:
            assert b.times.tolist() == [0.0]
            assert b.index_of(0.0) == 0
        first = bundles[0]
        for b in bundles[1:]:
            assert np.array_equal(b.points[0].q, first.points[0].q)
            assert np.array_equal(b.points[0].p, first.points[0].p)
            assert np.array_equal(b.frames[0].A, first.frames[0].A)
            assert np.array_equal(b.frames[0].B, first.frames[0].B)
            assert np.array_equal(b.action, first.action)
            assert np.array_equal(b.logdetA, first.logdetA)
            assert np.array_equal(b.logdet_w, first.logdet_w)
    # models without closed forms take the same path
    quartic = polynomial_model(QUARTIC)
    b = integrate_characteristics(quartic, X0, 0.0, FlowOptions(method="adaptive"))
    assert b.times.tolist() == [0.0] and b.action.tolist() == [0.0]
