"""Properties of the batched characteristic integrator ``flow_batch``.

Hypothesis draws batches of sources and times from the seeded profile of
``conftest.py``, so every run draws the same examples.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phaseprop import (
    CausticError,
    ConfigurationError,
    FlowOptions,
    HamiltonianModel,
    ModelError,
    PhasePoint,
    VariationalFrame,
    anisotropy_Z,
    builtin_model,
    integrate_characteristics,
    kernel_Ksc,
    polynomial_model,
    symplectic_J,
)
from phaseprop.flow import (_anisotropy, _CharRHS, _pack, _real_jacobian, _sample_orbits,
                            _unpack, flow_batch)

MODELS = {kind: builtin_model(kind) for kind in ("free", "linear", "harmonic")}
MODELS["quartic"] = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
METHODS = {"free": ("exact", "rk4", "adaptive"), "linear": ("exact", "rk4", "adaptive"),
           "harmonic": ("exact", "rk4", "adaptive"), "quartic": ("rk4", "adaptive")}
FIELDS = ("q", "p", "A", "B", "action", "logdetA", "logdet_w")

coord = st.floats(-1.0, 1.0)
sources = st.lists(st.tuples(coord, coord), min_size=1, max_size=5).map(np.array)
times = st.floats(0.05, 0.6)


def opts_for(method):
    return FlowOptions(method=method, step=1e-2)


def per_orbit(model, src, t, opts):
    """Endpoint fields of one ``integrate_characteristics`` call per source."""
    bundles = [integrate_characteristics(model, PhasePoint(q, p), t, opts) for q, p in src]
    return {"q": np.array([b.points[-1].q for b in bundles]),
            "p": np.array([b.points[-1].p for b in bundles]),
            "A": np.array([b.frames[-1].A for b in bundles]),
            "B": np.array([b.frames[-1].B for b in bundles]),
            "action": np.array([b.action[-1] for b in bundles]),
            "logdetA": np.array([b.logdetA[-1] for b in bundles]),
            "logdet_w": np.array([b.logdet_w[-1] for b in bundles])}


def close(got, want, tol):
    return np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


@given(kind=st.sampled_from(sorted(MODELS)), src=sources, t=times)
def test_batch_endpoints_match_per_orbit_integration(kind, src, t):
    model = MODELS[kind]
    for method in METHODS[kind]:
        e = flow_batch(model, src[:, :1], src[:, 1:], t, opts_for(method))
        want = per_orbit(model, src, t, opts_for(method))
        for name in FIELDS:
            got = getattr(e, name)
            assert got.shape == want[name].shape, (method, name)
            if method != "adaptive":
                assert close(got, want[name], 1e-12), (method, name)
            elif len(src) == 1:  # the one-orbit solve, step for step
                assert np.array_equal(got, want[name]), (method, name)
            else:  # the rows share the steps of the hardest one
                assert close(got, want[name], 1e-9), (method, name)


def test_record_and_endpoint_take_the_same_steps():
    # at these T some intervals of linspace(0, T, ceil(T / step) + 1) exceed
    # the step by round-off; splitting them would move the record's last
    # sample off the endpoint of the (0, T) batch
    opts = opts_for("rk4")
    for T in (0.04, 0.05, 0.06, 0.08, 0.09):
        b = integrate_characteristics(MODELS["quartic"], PhasePoint(0.3, -0.2), T, opts)
        assert (np.diff(b.times) > opts.step).any()
        e = flow_batch(MODELS["quartic"], [0.3], [-0.2], T, opts)
        assert np.array_equal(b.points[-1].q, e.q[0]) and np.array_equal(b.frames[-1].A, e.A[0])
        assert b.action[-1] == e.action[0] and b.logdetA[-1] == e.logdetA[0]


@given(kind=st.sampled_from(sorted(MODELS)), src=sources,
       ts=st.lists(times, min_size=1, max_size=4, unique=True), sign=st.sampled_from([1, -1]))
def test_sampled_states_match_endpoints_at_each_time(kind, src, ts, sign):
    # one pass through all requested times against one batch per time; the
    # step grids differ, so integrated states agree to the rk4 error
    model = MODELS[kind]
    taus = sign * np.array([0.0, *sorted(ts)])
    for method in METHODS[kind]:
        tol = 1e-12 if method == "exact" else 1e-7
        states = list(_sample_orbits(model, src[:, :1], src[:, 1:], taus, opts_for(method)))
        assert len(states) == len(taus)
        for tau, got in zip(taus, states):
            want = flow_batch(model, src[:, :1], src[:, 1:], tau, opts_for(method))
            for name in FIELDS:
                assert close(getattr(got, name), getattr(want, name), tol), (method, tau, name)


def test_adaptive_batch_holds_each_orbit_to_its_own_tolerance():
    # a hard orbit among easy ones keeps its one-orbit accuracy, since each
    # row passes its own error test; under a joint RMS norm over the 64 rows
    # it ends about 4.5 times its one-orbit error from the reference
    src = np.vstack([[1.6, 1.2], np.random.default_rng(0).uniform(-0.05, 0.05, (63, 2))])

    def hard_row(src, rtol):
        e = flow_batch(MODELS["quartic"], src[:, :1], src[:, 1:], 1.0,
                       FlowOptions(method="adaptive", rtol=rtol))
        return np.concatenate([np.ravel(getattr(e, name)[0]) for name in FIELDS])

    want = hard_row(src[:1], 1e-13)
    solo = np.abs(hard_row(src[:1], 1e-10) - want).max()
    assert np.abs(hard_row(src, 1e-10) - want).max() <= 1.5 * solo


def test_adaptive_batch_holds_one_orbit_at_a_time():
    # the batch's one solve reads its dense output at the requested times
    # only, so the peak allocation does not grow by a sample record per orbit
    model, opts = MODELS["free"], FlowOptions(method="adaptive", step=1e-3)
    flow_batch(model, [0.0], [0.0], 1.0, opts)  # load scipy's solver first
    peaks = []
    for n in (1, 8):
        src = np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
        tracemalloc.start()
        flow_batch(model, src[:, :1], src[:, 1:], 1.0, opts)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    record = 1001 * 9 * 8  # 1001 samples of q, p, A, B (complex) and action
    assert peaks[1] - peaks[0] < 2 * record


@given(kind=st.sampled_from(sorted(MODELS)), src=sources, t=times)
def test_backward_flow_returns_the_sources(kind, src, t):
    model = MODELS[kind]
    method, tol = ("rk4", 1e-7) if kind == "quartic" else ("exact", 1e-12)
    fwd = flow_batch(model, src[:, :1], src[:, 1:], t, opts_for(method))
    back = flow_batch(model, fwd.q, fwd.p, -t, opts_for(method))
    assert close(back.q, src[:, :1], tol)
    assert close(back.p, src[:, 1:], tol)
    # the reversed orbit retraces the path, so its action changes sign
    assert close(back.action, -fwd.action, tol)


@given(src=sources, t=st.floats(0.2, 1.0))
def test_frame_identities_hold_along_batched_orbits(src, t):
    # criterion 5: A^T B = B^T A, A^* B - B^* A = 2i, Im Z = (A A^*)^-1,
    # M^T J M = J, on the nonlinear model with rk4
    e = flow_batch(MODELS["quartic"], src[:, :1], src[:, 1:], t,
                   FlowOptions(method="rk4", step=1e-3))
    A, B = e.A, e.B
    AT, BT = A.transpose(0, 2, 1), B.transpose(0, 2, 1)
    assert np.abs(AT @ B - BT @ A).max() < 1e-6
    assert np.abs(AT.conj() @ B - BT.conj() @ A - 2j).max() < 1e-6
    Z = _anisotropy(A, B)
    assert np.abs(Z.imag - np.linalg.inv(A @ AT.conj()).real).max() < 1e-6
    M = np.concatenate([np.concatenate([A.real, A.imag], 2),
                        np.concatenate([B.real, B.imag], 2)], 1)
    J = symplectic_J(1)
    assert np.abs(M.transpose(0, 2, 1) @ J @ M - J).max() < 1e-6
    for j in range(len(src)):  # the stacked Z is each frame's own
        assert close(Z[j], anisotropy_Z(VariationalFrame(A[j], B[j])).M, 1e-15)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@given(src=sources, where=st.integers(0, 5), method=st.sampled_from(["rk4", "adaptive"]))
def test_overflowing_source_is_named(src, where, method):
    bad = np.insert(src, min(where, len(src)), [1e103, 0.3], axis=0)  # 4 q^3 overflows
    with pytest.raises(ModelError, match=r"orbit from q=\[1\.e\+103\], p=\[0\.3\]"):
        flow_batch(MODELS["quartic"], bad[:, :1], bad[:, 1:], 0.1, opts_for(method))


def test_exact_needs_closed_forms_and_caustics_are_checked_over_the_stack():
    with pytest.raises(ConfigurationError, match="no closed-form flow"):
        flow_batch(MODELS["quartic"], [0.1], [0.2], 0.3, FlowOptions(method="exact"))
    e = flow_batch(MODELS["harmonic"], [[0.1], [0.2], [0.3]], [[0.0], [0.1], [0.2]], 0.4)
    A = e.A.copy()
    A[1] = 0.0
    with pytest.raises(CausticError):
        _anisotropy(A, e.B)


def test_model_from_point_callables_flows_like_its_factory_model():
    # a model built by hand from point callables alone gets stacked
    # derivatives that call them row by row
    quartic = MODELS["quartic"]
    hand = HamiltonianModel(dim=1, value=quartic.value, gradient=quartic.gradient,
                            hessian=quartic.hessian)
    src = np.array([[0.3, -0.2], [-0.7, 0.5], [0.1, 0.9]])
    opts = FlowOptions(method="rk4", step=1e-2)
    got = flow_batch(hand, src[:, :1], src[:, 1:], 0.4, opts)
    want = flow_batch(quartic, src[:, :1], src[:, 1:], 0.4, opts)
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_endpoint_callers_reject_negative_times():
    # flow_batch takes signed times (the on-manifold solution flows
    # backward); the public callers keep their t >= 0 contract
    X = PhasePoint(0.2, 0.1)
    for model in (MODELS["harmonic"], MODELS["quartic"]):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            kernel_Ksc(X, X, -0.1, model, 0.1)


def test_adaptive_log_dets_stay_on_their_branch_over_a_coarse_grid():
    # DOP853 steps past the grid's one interval; the log-dets continue
    # through its steps, so they reach 2iT, not a principal value
    model, X0 = MODELS["harmonic"], PhasePoint(0.3, -0.2)
    for T in (2.0, 20.0):
        want = flow_batch(model, X0.q, X0.p, T)
        opts = FlowOptions(method="adaptive", step=T)
        e = flow_batch(model, X0.q, X0.p, T, opts)
        b = integrate_characteristics(model, X0, T, opts)
        for got in ((e.logdetA[0], e.logdet_w[0]), (b.logdetA[-1], b.logdet_w[-1])):
            assert abs(got[0] - want.logdetA[0]) < 1e-9, T
            assert abs(got[1] - want.logdet_w[0]) < 1e-9, T


@pytest.mark.parametrize("kind", ["free", "linear", "harmonic"])
def test_two_dimensional_rk4_batch_matches_the_closed_forms(kind):
    # the packed state and the J permutation at d = 2, on every field
    model = builtin_model(kind, d=2)
    src = np.random.default_rng(11).uniform(-1.0, 1.0, (5, 4))
    for t in (0.45, -0.3):
        want = flow_batch(model, src[:, :2], src[:, 2:], t)
        got = flow_batch(model, src[:, :2], src[:, 2:], t, FlowOptions(method="rk4", step=1e-3))
        for name in FIELDS:
            assert getattr(got, name).shape == getattr(want, name).shape, (t, name)
            assert close(getattr(got, name), getattr(want, name), 1e-9), (t, name)


quadratic_coeffs = st.fixed_dictionaries(
    {k: st.floats(-1.5, 1.5) for k in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))})


@given(coeffs=quadratic_coeffs, src=sources, t=st.floats(-4.0, 4.0))
@example(coeffs={(2, 0): 1.0, (1, 1): 0.0, (0, 2): 1e-105, (1, 0): 0.0, (0, 1): 1.0, (0, 0): 0.0},
         src=np.array([[0.3, -0.2]]), t=1.0)
def test_quadratic_closed_forms_match_rk4(coeffs, src, t):
    # any H = z.S z/2 + b.z + h0 with cross and linear terms (elliptic,
    # hyperbolic or parabolic S) has closed forms, which rk4 reproduces; in
    # the example det S = 4e-105, where (t - Sn)/det S would cancel to 0
    model = polynomial_model(coeffs)
    assert model.exact_flow is not None
    got = flow_batch(model, src[:, :1], src[:, 1:], t)
    want = flow_batch(model, src[:, :1], src[:, 1:], t, FlowOptions(method="rk4", step=1e-3))
    for name in FIELDS:
        assert close(getattr(got, name), getattr(want, name), 1e-9), (name, coeffs, t)


def test_a_quadratic_polynomial_is_the_builtin_with_its_hamiltonian():
    trap = polynomial_model({(0, 2): 1.0, (2, 0): 1.0})
    src = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 2))
    for t in (0.3, -1.2, 7.5):
        want = flow_batch(MODELS["harmonic"], src[:, :1], src[:, 1:], t)
        got = flow_batch(trap, src[:, :1], src[:, 1:], t)
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), (t, name)


def test_harmonic_logs_continue_through_many_half_turns():
    # det A = e^{2it} and det(A - iB) = 2 e^{2it} cross the negative real
    # axis 19 times by t = 30; the closed forms continue their logs
    e = flow_batch(MODELS["harmonic"], [[0.4]], [[-0.7]], 30.0)
    assert abs(e.logdetA[0] - 60j) <= 1e-12
    assert abs(e.logdet_w[0] - (math.log(2.0) + 60j)) <= 1e-12


def textbook_rk4(q, p, t, n):
    """Classical RK4 on a tuple state of the characteristic system of
    H = p^2 + q^4 (d = 1), with log det A and log det(A - iB) continued by
    principal logs of each step's ratio."""
    H0 = p ** 2 + q ** 4

    def rhs(q, p, A, B, act):  # X' = J grad H, (A, B)' = J H'' (A, B), act' = p H_p - H0
        return 2 * p, -4 * q ** 3, 2 * B, -12 * q ** 2 * A, 2 * p ** 2 - H0

    y = (q, p, np.ones_like(q, dtype=complex), np.full_like(q, 1j, dtype=complex), 0 * q)
    ldA, ldw = 0j * q, np.log(2 + 0j * q)
    for h in np.diff(np.linspace(0.0, t, n + 1)):
        k1 = rhs(*y)
        k2 = rhs(*(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = rhs(*(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = rhs(*(a + h * b for a, b in zip(y, k3)))
        new = tuple(a + h / 6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        ldA = ldA + np.log(new[2] / y[2])
        ldw = ldw + np.log((new[2] - 1j * new[3]) / (y[2] - 1j * y[3]))
        y = new
    return dict(zip(FIELDS, (y[0], y[1], y[2], y[3], y[4], ldA, ldw)))


@pytest.mark.parametrize("n", [1, 17, 289])
def test_rk4_batch_takes_the_textbook_steps(n):
    # the stepper is the classical method, stage for stage, forward and
    # backward (the on-manifold solution pulls its point back)
    src = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    step = 1e-2
    for t in (0.5, -0.5):
        got = flow_batch(MODELS["quartic"], src[:, :1], src[:, 1:], t,
                         FlowOptions(method="rk4", step=step))
        want = textbook_rk4(src[:, 0], src[:, 1], t, math.ceil(abs(t) / step))
        for name in FIELDS:
            g = getattr(got, name).reshape(n)
            assert np.abs(g - want[name]).max() <= 1e-14 * np.abs(want[name]).max(), (t, name)


def joint_rk4(model, Q, P, t, step):
    """Classical RK4 on the joint packed rows ``(q, p, [A; B], action)``, one
    joint right-hand side per stage, with both log-dets continued by the
    principal log of each step's ratio."""
    rhs, d = _CharRHS(model, Q, P), Q.shape[1]

    def dets(y):
        F = _unpack(y, d)[2]
        A, B = F[:, :d], F[:, d:]
        return np.array([np.linalg.det(A), np.linalg.det(A - 1j * B)])

    y = _pack(Q, P)
    det = dets(y)
    ld = np.log(det)
    for h in np.diff(np.linspace(0.0, t, round(abs(t) / step) + 1)):
        k1 = rhs(y)
        k2 = rhs(y + h / 2 * k1)
        k3 = rhs(y + h / 2 * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        det, last = dets(y), det
        ld = ld + np.log(det / last)
    q, p, F, act = _unpack(y, d)
    return dict(zip(FIELDS, (q, p, F[:, :d], F[:, d:], act, ld[0], ld[1])))


@pytest.mark.parametrize("n", [1, 17, 289, 1595])
@pytest.mark.parametrize("step", [1e-3, 1e-2])
def test_rk4_batch_matches_the_joint_system(n, step):
    # the orbit-first pass steps q, p and the action as the joint system
    # does, bit for bit; its frames and log-dets differ by round-off only
    src = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    got = flow_batch(MODELS["quartic"], src[:, :1], src[:, 1:], 0.5,
                     FlowOptions(method="rk4", step=step))
    want = joint_rk4(MODELS["quartic"], src[:, :1], src[:, 1:], 0.5, step)
    for name in FIELDS:
        if name in ("q", "p", "action"):
            assert np.array_equal(getattr(got, name), want[name]), name
        assert close(getattr(got, name), want[name], 1e-12), name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_blow_up_inside_a_run_yields_the_states_before_it():
    # over the barrier of p^2 + q^2 - q^4/4 the orbit from (0.9, -0.9) runs
    # off to infinity: its derivatives overflow in the step from state 214
    # to 215 (t = 2.14 to 2.15), inside a run of steps; the orbits beside it
    # stay bounded
    model = polynomial_model({(0, 2): 1.0, (2, 0): 1.0, (4, 0): -0.25})
    Q, P = np.array([[0.1], [0.9], [-0.2]]), np.array([[0.0], [-0.9], [0.1]])
    opts = FlowOptions(method="rk4", step=1e-2)
    for times, before in ((np.linspace(0.0, 3.0, 301), 215), (np.linspace(0.0, 3.0, 31), 22)):
        # a caller that stops before the blow-up sees no error
        states = list(itertools.islice(_sample_orbits(model, Q, P, times, opts), before))
        assert np.isfinite(states[-1].q).all() and np.isfinite(states[-1].A).all()
        assert abs(states[-1].q[1, 0]) > 50  # the escaping orbit
        # one that goes on gets the states before the failing step, then the
        # error naming the orbit, at the index a stepper that yields after
        # every step reaches
        got = []
        with pytest.raises(ModelError, match=r"orbit from q=\[0\.9\], p=\[-0\.9\]"):
            got.extend(_sample_orbits(model, Q, P, times, opts))
        assert len(got) == before
        for a, b in zip(got, states):
            for name in FIELDS:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_adaptive_endpoints_do_not_depend_on_the_sample_step():
    # the dense output is read at the requested times only, and the log-dets
    # follow the solver's own steps, so the sample grid moves nothing
    src = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 2))
    for kind in ("free", "quartic"):
        fine = flow_batch(MODELS[kind], src[:, :1], src[:, 1:], 1.0, FlowOptions(method="adaptive"))
        coarse = flow_batch(MODELS[kind], src[:, :1], src[:, 1:], 1.0,
                            FlowOptions(method="adaptive", step=1.0))
        for name in FIELDS:
            assert close(getattr(fine, name), getattr(coarse, name), 1e-12), (kind, name)


@given(src=sources, t=st.floats(0.05, 0.6))
def test_rk4_flow_back_from_the_endpoint_returns_the_sources(src, t):
    # time reversal: the backward flow from the endpoints retraces the orbits,
    # and its real Jacobian inverts the forward one
    opts = FlowOptions(method="rk4", step=1e-3)
    fwd = flow_batch(MODELS["quartic"], src[:, :1], src[:, 1:], t, opts)
    back = flow_batch(MODELS["quartic"], fwd.q, fwd.p, -t, opts)
    assert close(back.q, src[:, :1], 1e-9) and close(back.p, src[:, 1:], 1e-9)
    composed = _real_jacobian(back.A, back.B) @ _real_jacobian(fwd.A, fwd.B)
    assert np.abs(composed - np.eye(2)).max() <= 1e-9


@given(coeffs=quadratic_coeffs, src=sources, t=st.floats(0.05, 2.0),
       sign=st.sampled_from([1, -1]))
def test_adaptive_batch_matches_the_closed_forms_on_quadratics(coeffs, src, t, sign):
    # DOP853 at its default tolerance against the exact flow, action, frame
    # and continued log-dets of a random H = z.S z/2 + b.z + h0
    model = polynomial_model(coeffs)
    want = flow_batch(model, src[:, :1], src[:, 1:], sign * t)
    got = flow_batch(model, src[:, :1], src[:, 1:], sign * t, FlowOptions(method="adaptive"))
    for name in FIELDS:
        assert close(getattr(got, name), getattr(want, name), 1e-9), (name, coeffs, sign * t)
