from __future__ import annotations

import warnings

import numpy as np
import pytest

from phaseprop import (
    CausticError,
    ComplexField,
    ConfigurationError,
    EhrenfestWarning,
    FlowOptions,
    PhasePoint,
    VariationalFrame,
    anisotropy_Z,
    apply_propagator,
    bergmann_kernel,
    builtin_model,
    double_anisotropy_Q,
    eval_packet,
    gaussian_packet,
    kernel_Ksc,
    position_space_solution,
    propagate_packet,
    symplectic_J,
    van_vleck_kernel,
)
from phaseprop.oracles import (
    exact_kernel,
    exact_phase_field,
    exact_position_solution,
    exact_van_vleck,
    initial_phase_state,
    initial_position_state,
)

HBAR = 0.1
KINDS = ("free", "linear", "harmonic")


def test_harmonic_packet_returns_after_full_period():
    # at t = pi the harmonic flow is a full rotation: the packet comes
    # back to itself up to the tracked overall factor e^{-i pi} = -1
    X0 = PhasePoint(0.6, -0.4)
    pkt = propagate_packet(builtin_model("harmonic"), X0, np.pi, HBAR)
    x = np.linspace(-2.5, 3.5, 601)
    got = eval_packet(pkt, np.pi, x)
    want = -gaussian_packet(X0, HBAR, x)
    assert np.abs(got - want).max() < 1e-9


def test_free_packet_matches_independent_propagator_quadrature():
    # reference: K(x, y, t) = (4 pi i hbar t)^(-1/2)
    # exp{i (x-y)^2 / (4 hbar t)} applied to the packet by quadrature,
    # a route sharing nothing with the frame machinery
    q0, p0, t = 0.6, -0.4, 0.7
    y = np.linspace(-6.0, 6.0, 12001)
    dy = y[1] - y[0]
    g0 = gaussian_packet(PhasePoint(q0, p0), HBAR, y)
    x = np.linspace(-3.0, 3.0, 7)
    K = (4j * np.pi * HBAR * t) ** -0.5 * np.exp(
        1j * (x[:, None] - y[None, :]) ** 2 / (4 * HBAR * t))
    ref = K @ g0 * dy
    pkt = propagate_packet(builtin_model("free"), PhasePoint(q0, p0), t, HBAR)
    got = eval_packet(pkt, t, x)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-10


def test_packet_center_and_norm_follow_the_orbit():
    X0 = PhasePoint(0.3, 0.5)
    model = builtin_model("linear")
    pkt = propagate_packet(model, X0, 1.0, HBAR)
    x = np.linspace(-4.0, 5.0, 1801)
    for t in (0.25, 0.5, 1.0):
        vals = eval_packet(pkt, t, x)
        nrm = np.sqrt(np.sum(np.abs(vals) ** 2) * (x[1] - x[0]))
        assert nrm == pytest.approx(1.0, abs=1e-9)
        Xt = model.exact_flow(X0, t)
        dens = np.abs(vals) ** 2
        mean = np.sum(x * dens) / dens.sum()
        assert mean == pytest.approx(Xt.q[0], abs=1e-9)


def test_kernel_matches_closed_forms_at_sample_points():
    X = PhasePoint(0.5, 0.2)
    Y = PhasePoint(-0.3, 0.4)
    for kind in KINDS:
        model = builtin_model(kind)
        got = kernel_Ksc(X, Y, 0.7, model, HBAR)
        want = exact_kernel(kind, X, Y, 0.7, HBAR)
        assert abs(got - want) / abs(want) < 1e-12


def test_kernel_at_time_zero_is_reproducing():
    X = PhasePoint(0.5, 0.2)
    Y = PhasePoint(-0.3, 0.4)
    for kind in KINDS:
        got = kernel_Ksc(X, Y, 0.0, builtin_model(kind), HBAR)
        assert abs(got - bergmann_kernel(X, Y, HBAR)) < 1e-12


def test_kernel_with_rk4_stays_close_to_exact():
    X = PhasePoint(0.1, -0.6)
    Y = PhasePoint(0.8, 0.3)
    opts = FlowOptions(method="rk4", step=1e-3)
    for kind in KINDS:
        got = kernel_Ksc(X, Y, 1.0, builtin_model(kind), HBAR, opts)
        want = exact_kernel(kind, X, Y, 1.0, HBAR)
        assert abs(got - want) / abs(want) < 1e-9


def test_double_anisotropy_form():
    # Q(iI) = (i/2) I, and Q is symmetric with positive-definite
    # imaginary part for any Siegel argument
    Q0 = double_anisotropy_Q(1j * np.eye(1)).M
    assert np.abs(Q0 - 0.5j * np.eye(2)).max() < 1e-14
    Z = np.array([[0.3 + 0.8j]])
    Q = double_anisotropy_Q(Z).M
    assert Q.shape == (2, 2)
    assert np.abs(Q - Q.T).max() < 1e-14
    R = np.linalg.inv(np.eye(1) - 1j * Z)
    assert abs(Q[0, 0] - 1j * (1 - R[0, 0])) < 1e-14
    assert abs(Q[0, 1] - (0.5 - R[0, 0])) < 1e-14
    assert abs(Q[1, 1] - 1j * R[0, 0]) < 1e-14


def base_field(n: int = 121, half: float = 5.5) -> ComplexField:
    qs = np.linspace(-half, half, n)
    ps = np.linspace(-half, half, n)
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    return ComplexField((qs, ps), initial_phase_state(Q, P, HBAR), HBAR)


def test_apply_propagator_conserves_norm_and_matches_display():
    Psi0 = base_field()
    t = 0.4
    out_axes = (np.linspace(-4.0, 4.0, 81), np.linspace(-4.0, 4.0, 81))
    # the wide reference state leaves ~1e-6 of its peak at the box edge;
    # the propagator flags that softly and proceeds
    with pytest.warns(UserWarning, match="boundary"):
        out = apply_propagator(Psi0, t, builtin_model("free"), out_axes=out_axes)
    want = exact_phase_field("free", out_axes, t, HBAR)
    assert out.l2_norm() == pytest.approx(want.l2_norm(), abs=1e-4)
    mask = np.abs(want.values) > 1e-3 * np.abs(want.values).max()
    err = (np.abs(out.values - want.values)[mask]
           / np.abs(want.values)[mask]).max()
    assert err < 1e-3


def test_apply_propagator_rejects_rank_one_input():
    x = np.linspace(-3, 3, 61)
    psi = ComplexField((x,), gaussian_packet(PhasePoint(0, 0), HBAR, x), HBAR)
    with pytest.raises(ConfigurationError):
        apply_propagator(psi, 0.3, builtin_model("free"))


def test_position_space_solution_matches_closed_form():
    x = np.linspace(-8.0, 8.0, 1601)
    psi0 = ComplexField((x,), initial_position_state(x, HBAR), HBAR)
    t = 0.4
    for kind in KINDS:
        got = position_space_solution(psi0, t, builtin_model(kind), out_axis=x)
        want = exact_position_solution(kind, x, t, HBAR)
        mask = np.abs(want) > 1e-3 * np.abs(want).max()
        err = (np.abs(got.values - want)[mask] / np.abs(want)[mask]).max()
        assert err < 1e-4, kind


def test_van_vleck_matches_closed_forms():
    for kind, t in (("free", 0.8), ("linear", 0.8), ("harmonic", 0.6)):
        got = van_vleck_kernel(0.9, -0.2, t, builtin_model(kind), HBAR)
        want = exact_van_vleck(kind, 0.9, -0.2, t, HBAR)
        assert abs(got - want) / abs(want) < 1e-9, kind


def test_van_vleck_tracks_focal_index_past_caustic():
    # harmonic focal times are multiples of pi/2; beyond the first one
    # the extra phase factor e^{-i pi/2} must be present
    got = van_vleck_kernel(0.9, -0.2, 2.0, builtin_model("harmonic"), HBAR)
    want = exact_van_vleck("harmonic", 0.9, -0.2, 2.0, HBAR)
    assert abs(got - want) / abs(want) < 1e-9


def test_van_vleck_raises_at_focal_time():
    with pytest.raises(CausticError):
        van_vleck_kernel(0.5, 0.5, np.pi / 2, builtin_model("harmonic"), HBAR)


def per_pair_sum(Psi0, t, model, hbar, out_axes):
    """Reference kernel sum, one ``kernel_Ksc`` call per (target, source)
    pair, over the sources the propagator keeps (above 1e-13 of the peak)."""
    qs, ps = Psi0.axes
    mag = np.abs(Psi0.values)
    sources = [(PhasePoint(qs[i], ps[j]), Psi0.values[i, j])
               for i, j in zip(*np.nonzero(mag > 1e-13 * mag.max()))]
    out = np.empty((out_axes[0].size, out_axes[1].size), dtype=complex)
    for a, q in enumerate(out_axes[0]):
        for b, p in enumerate(out_axes[1]):
            X = PhasePoint(q, p)
            out[a, b] = sum(kernel_Ksc(X, Y, t, model, hbar) * v for Y, v in sources)
    return out * Psi0.cell()


def test_affine_apply_matches_per_pair_kernel_sum():
    # hbar = 0.005 splits the output box into several tiles; a generic
    # (random) field exercises every source weight
    hbar = 0.005
    qs = np.linspace(-1.5, 1.5, 9)
    rng = np.random.default_rng(11)
    Psi0 = ComplexField((qs, qs), rng.standard_normal((9, 9))
                        + 1j * rng.standard_normal((9, 9)), hbar)
    out_axes = (np.linspace(-1.6, 1.4, 5), np.linspace(-1.4, 1.6, 5))
    for kind in KINDS:
        model = builtin_model(kind)
        for t in (0.4, np.pi):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # edge mass and Ehrenfest notes
                got = apply_propagator(Psi0, t, model, out_axes=out_axes).values
            want = per_pair_sum(Psi0, t, model, hbar, out_axes)
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err < 1e-12, (kind, t, err)


def test_affine_apply_is_tiled_where_one_table_would_overflow():
    # hbar = 0.02 on the 81 x 81 reference box: over the whole box the real
    # part of the bilinear exponent x.K y / hbar reaches far past
    # log(max double) = 709
    hbar, t = 0.02, 0.55
    model = builtin_model("harmonic")
    ax = np.linspace(-5.5, 5.5, 81)
    Q, P = np.meshgrid(ax, ax, indexing="ij")
    Psi0 = ComplexField((ax, ax), initial_phase_state(Q, P, hbar), hbar)
    A, B, _ldA, _ldw = model.frame_at(t)
    M = np.block([[A.real, A.imag], [B.real, B.imag]])
    Qd = double_anisotropy_Q(anisotropy_Z(VariationalFrame(A, B))).M
    K = (0.5 * symplectic_J(1) - Qd) @ M
    assert np.abs(K.imag).sum() * 5.5 * 5.5 / hbar > 2 * 709
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow anywhere
        warnings.filterwarnings("ignore", category=EhrenfestWarning)
        out = apply_propagator(Psi0, t, model, out_axes=(ax, ax))
    assert np.isfinite(out.values).all()
    # the peak and two nodes on its flank, against the per-pair sum
    i, j = np.unravel_index(np.argmax(np.abs(out.values)), out.values.shape)
    for a, b in ((i, j), (i + 2, j - 1), (i - 3, j + 3)):
        want = per_pair_sum(Psi0, t, model, hbar, (ax[a:a + 1], ax[b:b + 1]))[0, 0]
        assert abs(out.values[a, b] - want) < 1e-12 * np.abs(out.values).max()
