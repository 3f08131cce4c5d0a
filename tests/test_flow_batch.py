"""Properties of the batched characteristic integrator ``flow_batch``.

Hypothesis draws batches of sources and times; ``derandomize=True`` makes
every run draw the same examples.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
    double_phase_characteristics,
    integrate_characteristics,
    kernel_Ksc,
    polynomial_model,
    symplectic_J,
)
from phaseprop.flow import _anisotropy, _sample_orbits, flow_batch

MODELS = {kind: builtin_model(kind) for kind in ("free", "linear", "harmonic")}
MODELS["quartic"] = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
METHODS = {"free": ("exact", "rk4", "adaptive"), "linear": ("exact", "rk4", "adaptive"),
           "harmonic": ("exact", "rk4", "adaptive"), "quartic": ("rk4", "adaptive")}
FIELDS = ("q", "p", "A", "B", "action", "logdetA", "logdet_w")

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=15)
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


@SEEDED
@given(kind=st.sampled_from(sorted(MODELS)), src=sources, t=times)
def test_batch_endpoints_match_per_orbit_integration(kind, src, t):
    model = MODELS[kind]
    for method in METHODS[kind]:
        e = flow_batch(model, src[:, :1], src[:, 1:], t, opts_for(method))
        want = per_orbit(model, src, t, opts_for(method))
        for name in FIELDS:
            got = getattr(e, name)
            assert got.shape == want[name].shape, (method, name)
            if method == "adaptive":
                assert np.array_equal(got, want[name]), (method, name)
            else:
                assert close(got, want[name], 1e-12), (method, name)


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


@SEEDED
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


def test_adaptive_batch_holds_one_orbit_at_a_time():
    # each orbit's solve is stepped through and let go before the next, so
    # the peak allocation does not grow by a sample record per orbit
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


@SEEDED
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


@SEEDED
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
@SEEDED
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
        with pytest.raises(ConfigurationError, match="nonnegative"):
            double_phase_characteristics(model, X, -0.1)
