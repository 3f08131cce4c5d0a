from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseprop import (
    CausticError,
    ComplexField,
    ConfigurationError,
    EhrenfestWarning,
    FlowOptions,
    HamiltonianModel,
    PhasePoint,
    SpacingWarning,
    VariationalFrame,
    anisotropy_Z,
    apply_propagator,
    bergmann_kernel,
    builtin_model,
    double_anisotropy_Q,
    ehrenfest_guard,
    eval_packet,
    gaussian_packet,
    husimi_check,
    integrate_characteristics,
    kernel_Ksc,
    overlap,
    polynomial_model,
    position_space_solution,
    propagate_packet,
    symplectic_J,
    van_vleck_kernel,
    wave_packet_transform,
)
from phaseprop import flow
from phaseprop.flow import _step_grid, flow_batch
from phaseprop.propagator import (_Kernel, _default_phase_axes, _kept_sources,
                                  _propagated_fields, _propagated_states)
from phaseprop.transform import _padded_axis
from phaseprop.oracles import (
    exact_kernel,
    exact_phase_field,
    exact_position_solution,
    exact_van_vleck,
    initial_phase_state,
    initial_position_state,
)
from test_numeric_paths import BARE_TRAP  # the harmonic trap without its closed forms

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


def dense_synthesis(psi0, t, model, phase_axes, out_axis, opts=None):
    """Reference for ``position_space_solution``: one exponential per
    (output node, kept source) pair, every kept source at every node, in
    grid order.  Returns the values and each source's ``z = B / A``."""
    hbar = psi0.hbar
    Psi0 = wave_packet_transform(psi0, phase_axes)
    Q, P = np.meshgrid(*Psi0.axes, indexing="ij")
    mag = np.abs(Psi0.values)
    keep = mag > 1e-13 * mag.max()
    Qg, Pg = Q[keep], P[keep]
    e = flow_batch(model, Qg, Pg, t, opts)
    qt, pt = e.q[:, 0], e.p[:, 0]
    z = e.B[:, 0, 0] / e.A[:, 0, 0]
    src = ((np.pi * hbar) ** -0.25 * (2 * np.pi * hbar) ** -0.5
           * np.exp(-0.5 * e.logdetA) * Psi0.values[keep] * Psi0.cell()
           * np.exp(1j / hbar * (e.action + 0.5 * Pg * Qg)))
    dx = out_axis[:, None] - qt[None, :]
    return np.exp(1j / hbar * (pt * dx + 0.5 * z * dx ** 2)) @ src, z


SYNTH_X = np.linspace(-8.0, 8.0, 321)
SYNTH_AXES = (np.linspace(-6.0, 6.0, 161), np.linspace(-6.0, 6.0, 161))
SYNTH = (ComplexField((SYNTH_X,), initial_position_state(SYNTH_X, HBAR), HBAR), SYNTH_AXES)


def two_clumps(q0):
    """Two packets at rest at q = -q0 and q0, analysed on a q grid of
    spacing 0.2, coarser than sqrt(hbar)/4, that keeps the dense reference
    small; returns the state, its phase axes and an output axis of spacing
    0.1 over [-q0 - 8, q0 + 8]."""
    x = np.linspace(-q0 - 6.0, q0 + 6.0, 40 * q0 + 241)
    psi0 = ComplexField((x,), gaussian_packet(PhasePoint(-q0, 0.0), HBAR, x)
                        + np.exp(0.3j) * gaussian_packet(PhasePoint(q0, 0.0), HBAR, x), HBAR)
    axes = (np.linspace(-q0 - 4.0, q0 + 4.0, 10 * q0 + 41), np.linspace(-4.0, 4.0, 41))
    return (psi0, axes), np.linspace(-q0 - 8.0, q0 + 8.0, 20 * q0 + 161)


CLUMPS_8, CLUMPS_8_X = two_clumps(8)
CLUMPS_7, CLUMPS_7_X = two_clumps(7)
QUARTIC_TRAP = polynomial_model({(0, 2): 1.0, (2, 0): 1.0, (4, 0): 0.25})


PAST_12 = (12.0, np.inf)


@pytest.mark.parametrize("model, t, state, out_axis, opts, zero", [
    # closed forms take the separable sum
    # free at t = 1: Im z = 1/5, the widest packets and the longest reach
    (builtin_model("free"), 1.0, SYNTH, SYNTH_X, None, PAST_12),
    (builtin_model("linear"), 0.6, SYNTH, SYNTH_X, None, PAST_12),
    (builtin_model("harmonic"), 0.8, SYNTH, SYNTH_X, None, PAST_12),
    # the inverted oscillator p^2 - q^2, and a cross and a linear term
    (polynomial_model({(0, 2): 1.0, (2, 0): -1.0}), 0.4, SYNTH, SYNTH_X, None, PAST_12),
    (polynomial_model({(1, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3}), 0.7, SYNTH, SYNTH_X, None,
     PAST_12),
    # integrated orbits of an anharmonic trap take the windowed sum: z
    # differs from source to source
    (QUARTIC_TRAP, 0.5, SYNTH, SYNTH_X, FlowOptions(method="rk4", step=1e-2), PAST_12),
    # the harmonic flow rotates the sources, so none reaches q_t > 6 sqrt(2)
    # = 8.5, and every node past 8.5 + R = 11.3 is farther than R from every
    # image: whole tiles keep no source
    (builtin_model("harmonic"), 0.8, SYNTH, np.linspace(-8.0, 24.0, 641), None, PAST_12),
    # the free images q + 0.6 p of the kept sources stay at |q_t| >= 4.0 and
    # R = 3.3, so every node with |x| <= 0.7 is farther than R from every
    # image: the tiles on either side of the gap keep disjoint sources, and
    # the tile over [-0.6, 0.7] keeps none
    (builtin_model("free"), 0.3, CLUMPS_8, CLUMPS_8_X, None, (-0.75, 0.75)),
    # the harmonic images stay at |q_t| >= 3.03 and R = 2.83.  Over a box of
    # 111 q lines the factor tables must hold the box's own lines to the
    # last place, not only their uniform split: direct tables read 6.9e-15
    # of the peak here, the split's lines alone 1.7e-14
    (builtin_model("harmonic"), 0.2, CLUMPS_7, CLUMPS_7_X, None, (-0.25, 0.25)),
], ids=["free", "linear", "harmonic", "inverted", "cross-linear", "quartic-rk4",
        "empty-windows", "two-clumps", "two-clumps-harmonic"])
def test_position_synthesis_matches_full_per_pair_sum(model, t, state, out_axis, opts, zero):
    psi0, phase_axes = state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EhrenfestWarning)
        if state is not SYNTH:
            warnings.simplefilter("ignore", SpacingWarning)
        got = position_space_solution(psi0, t, model, phase_axes=phase_axes,
                                      out_axis=out_axis, opts=opts).values
        want, z = dense_synthesis(psi0, t, model, phase_axes, out_axis, opts)
    if model is QUARTIC_TRAP:
        assert np.ptp(z.imag) > 0.1
    # nodes farther than R from every image are exactly 0 (the first six
    # cases stop at x = 8)
    lo, hi = zero
    assert not got[(lo < out_axis) & (out_axis < hi)].any()
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 1e-14, err


def test_position_solution_composes_on_the_harmonic_trap():
    # psi(t1 + t2) = U(t2) U(t1) psi, each step a full analysis and synthesis;
    # the axis is wide enough that the state at t1 decays at its ends, and
    # fine enough (half the spacing that would do for psi0) for its chirp
    x = np.linspace(-12.0, 12.0, 961)
    psi0 = ComplexField((x,), initial_position_state(x, HBAR), HBAR)
    model = builtin_model("harmonic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EhrenfestWarning)
        once = position_space_solution(psi0, 0.8, model).values
        twice = position_space_solution(
            position_space_solution(psi0, 0.3, model), 0.5, model).values
    mask = np.abs(once) > 1e-3 * np.abs(once).max()
    err = (np.abs(twice - once)[mask] / np.abs(once)[mask]).max()
    assert err < 1e-4, err


def test_derived_phase_axes_stop_at_the_grid_momentum():
    # on 481 nodes of [-12, 12] (dx = 0.05, below sqrt(hbar)/4) the derived
    # momentum half-width, 7.15 for psi0 and 9.2 at t = 0.3, passes the
    # grid's pi hbar / dx = 6.28, beyond which a source packet aliases on the
    # nodes; the axes stop there.  Measured errors of the two steps against
    # the oracle at t = 0.8: 9.7e-7 with the cap, 8.1e-5 without it
    x = np.linspace(-12.0, 12.0, 481)
    psi0 = ComplexField((x,), initial_position_state(x, HBAR), HBAR)
    model = builtin_model("harmonic")
    nyquist = np.pi * HBAR / (x[1] - x[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EhrenfestWarning)
        with pytest.warns(SpacingWarning, match="clipping the p axis"):
            _qa, pa = _default_phase_axes(psi0, HBAR)
        assert pa[-1] == -pa[0] == pytest.approx(nyquist, rel=1e-15)
        with pytest.warns(SpacingWarning):
            twice = position_space_solution(
                position_space_solution(psi0, 0.3, model), 0.5, model).values
    want = exact_position_solution("harmonic", x, 0.8, HBAR)
    mask = np.abs(want) > 1e-3 * np.abs(want).max()
    err = (np.abs(twice - want)[mask] / np.abs(want)[mask]).max()
    assert err < 1e-5, err


def test_zero_input_field_is_rejected():
    x = np.linspace(-3.0, 3.0, 81)
    model = builtin_model("free")
    with pytest.raises(ConfigurationError, match="zero everywhere"):
        position_space_solution(ComplexField((x,), np.zeros(x.size), HBAR), 0.3, model)
    with pytest.raises(ConfigurationError, match="zero everywhere"):
        apply_propagator(ComplexField((x, x), np.zeros((x.size, x.size)), HBAR),
                         0.3, model)
    # a state with no weight near the phase grid analyses to zero
    psi = ComplexField((x,), gaussian_packet(PhasePoint(0, 0), HBAR, x), HBAR)
    far = (np.linspace(40.0, 41.0, 21), np.linspace(-1.0, 1.0, 41))
    with pytest.raises(ConfigurationError, match="zero everywhere"):
        position_space_solution(psi, 0.3, model, phase_axes=far)


def test_the_grid_propagators_check_rank_and_time_first():
    x = np.linspace(-3.0, 3.0, 81)
    model = builtin_model("free")
    psi = ComplexField((x,), gaussian_packet(PhasePoint(0, 0), HBAR, x), HBAR)
    Psi = ComplexField((x, x), np.outer(psi.values, psi.values), HBAR)
    with pytest.raises(ConfigurationError, match="apply_propagator expects a rank-2 field"):
        apply_propagator(psi, 0.3, model)
    with pytest.raises(ConfigurationError, match="position_space_solution expects a rank-1 field"):
        position_space_solution(Psi, 0.3, model)
    with pytest.raises(ConfigurationError, match="t must be nonnegative, got -0.3"):
        apply_propagator(Psi, -0.3, model)
    with pytest.raises(ConfigurationError, match="t must be nonnegative, got -0.3"):
        position_space_solution(psi, -0.3, model)


BAD_AXES = {
    "2-D": np.linspace(-3.0, 3.0, 5)[:, None],
    "one node": np.array([0.5]),
    "decreasing": np.linspace(3.0, -3.0, 5),
    "non-uniform": np.array([-3.0, -2.0, 0.0, 1.0, 3.0]),
    "nan": np.full(5, np.nan),
}


@pytest.mark.parametrize("bad", BAD_AXES.values(), ids=BAD_AXES.keys())
def test_output_axes_are_checked_before_any_orbit(bad, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the output axes were checked")

    for name in ("flow_batch", "wave_packet_transform", "_derive_out_axes"):
        monkeypatch.setattr(f"phaseprop.propagator.{name}", forbidden)
    x = np.linspace(-3.0, 3.0, 81)
    model = builtin_model("free")
    psi = ComplexField((x,), gaussian_packet(PhasePoint(0, 0), HBAR, x), HBAR)
    with pytest.raises(ConfigurationError, match="out_axis"):
        position_space_solution(psi, 0.3, model, out_axis=bad)
    Psi = ComplexField((x, x), np.outer(psi.values, psi.values), HBAR)
    for out_axes in ((bad, x), (x, bad)):
        with pytest.raises(ConfigurationError, match="out_axes"):
            apply_propagator(Psi, 0.3, model, out_axes=out_axes)
    with pytest.raises(ConfigurationError, match="out_axes"):
        apply_propagator(Psi, 0.3, model, out_axes=(x, x, x))


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
    # the closed forms raise before taking a root through Im A = 0; under
    # H = q^2, dq_t/dp is exactly 0 at every t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CausticError) as exc:
            van_vleck_kernel(0.5, 0.5, np.pi / 2, builtin_model("harmonic"), HBAR)
        with pytest.raises(CausticError):
            van_vleck_kernel(0.5, 0.5, 0.3, polynomial_model({(2, 0): 1.0}), HBAR)
        # focal again at 3 pi / 2: t_star is the secant through the first
        # sign change of Im A, at pi / 2
        with pytest.raises(CausticError) as late:
            van_vleck_kernel(0.5, 0.5, 3 * np.pi / 2, builtin_model("harmonic"), HBAR)
    assert exc.value.t_star == pytest.approx(np.pi / 2, abs=1e-2)
    assert late.value.t_star == pytest.approx(np.pi / 2, abs=1e-6)


@pytest.mark.parametrize("x, t, model, message", [
    (0.5, 0.3, builtin_model("free", d=2), "van_vleck_kernel supports d = 1 only"),
    (0.5, 0.0, builtin_model("free"), "t must be positive, got 0.0"),
    # p^2 + q^4 carries no orbit from 0 to 3 in t = 0.3 from the scanned momenta
    (3.0, 0.3, polynomial_model({(0, 2): 1.0, (4, 0): 1.0}),
     "no trajectory from y=0.0 reaches x=3.0 at t=0.3 within the scan window"),
], ids=["2d", "t0", "unreachable"])
def test_van_vleck_rejects_what_it_cannot_sum(x, t, model, message):
    with pytest.raises(ConfigurationError, match=message):
        van_vleck_kernel(x, 0.0, t, model, HBAR)


def test_eval_packet_reads_the_bundle_and_needs_its_hbar():
    X0 = PhasePoint(0.3, -0.2)
    bundle = propagate_packet(builtin_model("harmonic"), X0, 0.5, HBAR)
    assert bundle.hbar == HBAR
    x = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(eval_packet(bundle, 0.0, x), gaussian_packet(X0, HBAR, x),
                               rtol=1e-14, atol=0)
    bare = integrate_characteristics(builtin_model("harmonic"), X0, 0.5)
    with pytest.raises(ConfigurationError, match="eval_packet needs a bundle that carries hbar"):
        eval_packet(bare, 0.5, x)


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
    # two clumps of sources, at |q| >= 2 and |p| <= 0.25: their free images
    # q + 0.8 p stay at |q_t| >= 1.6, and R = 1.13, so the q tiles on either
    # side of the gap keep disjoint sources and the tile over [-0.25, 0]
    # keeps none: its nodes are exactly 0 (the per-pair sum reads 4e-43 of
    # the peak there)
    qs, ps = np.linspace(-2.5, 2.5, 11), np.linspace(-0.5, 0.5, 5)
    values = np.zeros((11, 5), dtype=complex)
    values[[0, 1, 9, 10]] = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    Psi0 = ComplexField((qs, ps), values, hbar)
    out_axes = (np.linspace(-3.0, 3.0, 25), np.linspace(-1.0, 1.0, 5))
    model = builtin_model("free")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = apply_propagator(Psi0, 0.4, model, out_axes=out_axes).values
    want = per_pair_sum(Psi0, 0.4, model, hbar, out_axes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    gap = (-0.3 < out_axes[0]) & (out_axes[0] < 0.1)
    assert gap.sum() == 2 and not got[gap].any()


def phase_rounding(Psi0, t, model, hbar, out_axes) -> np.ndarray:
    """The error that rounding the kernel phase leaves in each target's
    kernel sum: ``eps/hbar`` times the sum over the kept sources of
    ``|K w| |Y_t|^2``.  The action, ``xi_t.eta_t/2`` and ``v.Q v/2`` each
    grow like ``|Y_t|^2`` and cancel to a phase of order one, so each is
    rounded at ``eps |Y_t|^2``."""
    qs, ps = Psi0.axes
    mag = np.abs(Psi0.values)
    iq, ip = np.nonzero(mag > 1e-13 * mag.max())
    e = flow_batch(model, qs[iq], ps[ip], t)
    K = np.abs([[[kernel_Ksc(PhasePoint(q, p), PhasePoint(qs[i], ps[j]), t, model, hbar)
                  for i, j in zip(iq, ip)] for p in out_axes[1]] for q in out_axes[0]])
    size = mag[iq, ip] * (e.q ** 2 + e.p ** 2).sum(axis=1)
    return np.finfo(float).eps / hbar * (K @ size) * Psi0.cell()


@pytest.mark.parametrize("coeffs", [
    pytest.param({(0, 2): 1.0, (2, 0): -1.0}, id="inverted"),
    pytest.param({(1, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3}, id="cross"),
])
def test_affine_apply_matches_per_pair_sum_on_quadratic_polynomials(coeffs):
    # the frame of p^2 - q^2 grows like e^(2t); a q.p term makes M = J S
    # non-symmetric, and a linear term moves the images off M Y.  Both sums
    # round the phase (phase_rounding); at t = pi the inverted images reach
    # |Y_t|^2 ~ 1e6, and a 50-digit sum puts the affine sum 1.4e-11 and the
    # per-pair sum 2.8e-11 of the peak off, within 4x of that estimate
    hbar = 0.005
    qs = np.linspace(-1.5, 1.5, 9)
    rng = np.random.default_rng(12)
    Psi0 = ComplexField((qs, qs), rng.standard_normal((9, 9))
                        + 1j * rng.standard_normal((9, 9)), hbar)
    out_axes = (np.linspace(-1.6, 1.4, 5), np.linspace(-1.4, 1.6, 5))
    model = polynomial_model(coeffs)
    for t in (0.4, 1.3, np.pi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # edge mass and Ehrenfest notes
            got = apply_propagator(Psi0, t, model, out_axes=out_axes).values
        want = per_pair_sum(Psi0, t, model, hbar, out_axes)
        bound = 10 * phase_rounding(Psi0, t, model, hbar, out_axes).max()
        err = np.abs(got - want).max()
        assert err < bound, (t, err / np.abs(want).max(), bound / np.abs(want).max())


def test_affine_apply_is_tiled_where_one_table_would_overflow():
    # hbar = 0.02 on the 81 x 81 reference box: over the whole box the real
    # part of the bilinear exponent x.K y / hbar reaches far past
    # log(max double) = 709
    hbar, t = 0.02, 0.55
    model = builtin_model("harmonic")
    ax = np.linspace(-5.5, 5.5, 81)
    Q, P = np.meshgrid(ax, ax, indexing="ij")
    Psi0 = ComplexField((ax, ax), initial_phase_state(Q, P, hbar), hbar)
    (A, B), _ = model.frame_at(t)
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


@pytest.mark.parametrize("kind, opts, tol", [
    *(pytest.param(kind, None, 1e-14, id=kind) for kind in KINDS),
    # both sides integrate: the d = 2 orbit steps a packed 2 x 2 frame
    *(pytest.param(kind, FlowOptions(method="rk4", step=1e-2), 1e-12, id=f"{kind}-rk4")
      for kind in KINDS)])
def test_kernel_in_two_dimensions_is_the_product_of_one_dimensional_kernels(kind, opts, tol):
    X = PhasePoint([0.3, -0.5], [0.2, 0.7])
    Y = PhasePoint([-0.4, 0.1], [0.6, -0.3])
    got = kernel_Ksc(X, Y, 0.7, builtin_model(kind, d=2), HBAR, opts)
    want = np.prod([kernel_Ksc(PhasePoint(X.q[k], X.p[k]), PhasePoint(Y.q[k], Y.p[k]),
                               0.7, builtin_model(kind), HBAR, opts) for k in range(2)])
    assert abs(got - want) / abs(want) < tol
    # so are the packet at Y and the packet carried from it, at four points
    x = np.array([[0.1, -0.2], [0.5, 0.3], [-0.4, 0.8], [0.0, 0.0]])

    def packets(model, Yk, xk):
        return (gaussian_packet(Yk, HBAR, xk),
                eval_packet(propagate_packet(model, Yk, 0.7, HBAR, opts), 0.7, xk))

    got = np.array(packets(builtin_model(kind, d=2), Y, x))
    want = np.prod([packets(builtin_model(kind), PhasePoint(Y.q[k], Y.p[k]), x[:, k])
                    for k in range(2)], axis=0)
    assert (np.abs(got - want).max(axis=1) <= tol * np.abs(want).max(axis=1)).all()


def test_apply_propagator_integrates_when_asked_to(monkeypatch):
    # an explicit rk4 sums over integrated orbits even where closed forms exist
    axis = np.linspace(-2.0, 2.0, 41)
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    Psi0 = ComplexField((axis, axis), initial_phase_state(Q, P, HBAR), HBAR)
    model = builtin_model("harmonic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = apply_propagator(Psi0, 0.5, model, out_axes=Psi0.axes)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed-form sum ran under method='rk4'")

        monkeypatch.setattr("phaseprop.propagator._affine_sum", forbidden)
        got = apply_propagator(Psi0, 0.5, model, out_axes=Psi0.axes,
                               opts=FlowOptions(method="rk4", step=1e-2))
    assert np.abs(got.values - want.values).max() <= 1e-6 * np.abs(want.values).max()


def test_position_solution_integrates_when_asked_to(monkeypatch):
    # an explicit rk4 takes the windowed sum even where closed forms exist
    psi0 = ComplexField((SYNTH_X,), initial_position_state(SYNTH_X, HBAR), HBAR)
    model = builtin_model("harmonic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = position_space_solution(psi0, 0.5, model, phase_axes=SYNTH_AXES)

        def forbidden(*args, **kwargs):
            raise AssertionError("the separable sum ran under method='rk4'")

        monkeypatch.setattr("phaseprop.propagator._separable_synthesis", forbidden)
        got = position_space_solution(psi0, 0.5, model, phase_axes=SYNTH_AXES,
                                      opts=FlowOptions(method="rk4", step=1e-2))
    assert np.abs(got.values - want.values).max() <= 1e-6 * np.abs(want.values).max()


def test_the_guard_and_the_packet_keep_the_callers_flow_options(monkeypatch):
    # the pass holds the kept sources and nothing else, over the caller's
    # step grid under rk4 and at the times alone under adaptive, whose guard
    # is a bundle of its own; both keep the caller's options
    seen, passes = [], []

    def recording(model, X0, T, opts=None):
        seen.append((X0, T, opts))
        return flow.integrate_characteristics(model, X0, T, opts)

    def recording_pass(model, Q, P, times, opts=None):
        passes.append((Q[:, 0], P[:, 0], times, opts))
        return flow._sample_orbits(model, Q, P, times, opts)

    monkeypatch.setattr("phaseprop.propagator.integrate_characteristics", recording)
    monkeypatch.setattr("phaseprop.propagator._sample_orbits", recording_pass)
    axis = np.linspace(-1.0, 1.0, 5)
    Psi0 = ComplexField((axis, axis), np.ones((5, 5)), HBAR)
    iq, ip, _ = _kept_sources(Psi0)
    for method in ("adaptive", "rk4"):
        seen.clear()
        opts = FlowOptions(method=method, step=0.1, rtol=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            apply_propagator(Psi0, 0.3, builtin_model("harmonic"), out_axes=Psi0.axes,
                             opts=opts)
        [(q, p, times, sources)] = passes
        passes.clear()
        assert np.array_equal(q, axis[iq]) and np.array_equal(p, axis[ip])
        assert sources == opts
        if method == "rk4":
            assert np.array_equal(times, _step_grid(np.array([0.0, 0.3]), 0.1)[0])
            assert seen == []
        else:
            assert np.array_equal(times, [0.0, 0.3])
            # every weight is equal, so the first source is the heaviest
            [(X0, T, guard)] = seen
            assert (X0.q.tolist(), X0.p.tolist(), T) == ([axis[0]], [axis[0]], 0.3)
            assert guard == replace(opts, hbar=HBAR)
        seen.clear()
        propagate_packet(builtin_model("harmonic"), PhasePoint(0.0, 0.0), 0.3, HBAR, opts)
        assert [(o.method, o.rtol, o.hbar) for _, _, o in seen] == [(method, 1e-6, HBAR)]


QUARTIC = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
TRAP = polynomial_model({(0, 2): 1.0, (2, 0): 1.0})
# the inverted oscillator p^2 - q^2, whose frame grows like e^(2t)
INVERTED = polynomial_model({(0, 2): 1.0, (2, 0): -1.0})
RK4 = FlowOptions(method="rk4", step=1e-2)


def packet_field(axis, center, hbar):
    """The transform of a unit packet at ``center`` on the tensor grid of ``axis``."""
    vals = [[overlap(PhasePoint(q, p), center, hbar) for p in axis] for q in axis]
    return ComplexField((axis, axis), (2 * np.pi * hbar) ** -0.5 * np.array(vals), hbar)


def dense_kernel_sum(Psi0, t, model, out_axes, opts):
    """The per-pair sum that the integrated sum replaces: one
    ``_Kernel.values`` exponential per (target, source) pair, over the kept
    sources and their endpoints from one ``flow_batch``."""
    qs, ps = Psi0.axes
    iq, ip, Wg = _kept_sources(Psi0)
    kernel = _Kernel(qs[iq], ps[ip], flow_batch(model, qs[iq], ps[ip], t, opts))
    X = np.stack(np.meshgrid(*out_axes, indexing="ij"), axis=-1)
    return np.array([kernel.values(row, Psi0.hbar) @ Wg for row in X])


def _sub_quadratic_value(X):
    return X[:, 1] ** 2 + np.sqrt(1 + X[:, 0] ** 2)


def _sub_quadratic_derivatives(X):
    s = np.sqrt(1 + X[:, 0] ** 2)
    H2 = np.zeros((len(X), 2, 2))
    H2[:, 0, 0], H2[:, 1, 1] = s ** -3, 2.0
    return np.stack([X[:, 0] / s, 2 * X[:, 1]], axis=1), H2


def _sub_quadratic_field(X):
    """``f = (H_p, -H_q)`` and the rows of ``Df = J H''``, one row per point."""
    g, H2 = _sub_quadratic_derivatives(X)
    return np.column_stack([g[:, 1], -g[:, 0], H2[:, 1], -H2[:, 0]])


# H = p^2 + sqrt(1 + q^2): a potential of the paper's sub-quadratic class,
# whose second derivative is bounded, and no closed form
SUB_QUADRATIC = HamiltonianModel(
    dim=1,
    value=lambda X: float(_sub_quadratic_value(X.as_vector()[None])[0]),
    gradient=lambda X: _sub_quadratic_derivatives(X.as_vector()[None])[0][0],
    hessian=lambda X: _sub_quadratic_derivatives(X.as_vector()[None])[1][0],
    bulk_value=_sub_quadratic_value, bulk_field=_sub_quadratic_field)


def clumps_field(hbar):
    """Packets at (-3, 0) and (3, 0.2) on a 0.1 grid over [-4, 4] x [-1, 1]."""
    qa, pa = np.linspace(-4.0, 4.0, 81), np.linspace(-1.0, 1.0, 21)
    vals = [[overlap(PhasePoint(q, p), PhasePoint(-3.0, 0.0), hbar)
             + np.exp(0.3j) * overlap(PhasePoint(q, p), PhasePoint(3.0, 0.2), hbar)
             for p in pa] for q in qa]
    return ComplexField((qa, pa), (2 * np.pi * hbar) ** -0.5 * np.array(vals), hbar)


AXIS_17 = np.linspace(-2.0, 2.0, 17)
AXIS_21 = np.linspace(-1.0, 1.0, 21)
WIDE = np.linspace(-6.0, 6.0, 161)
CLUMPS_Q = np.linspace(-4.0, 4.0, 1201)


@pytest.mark.parametrize("model, Psi0, t, out_axes, zero", [
    # phase-quartic's input: one tile over the 17 x 17 input axes
    (QUARTIC, packet_field(AXIS_17, PhasePoint(0.05, -0.03), 0.05), 0.5,
     (AXIS_17, AXIS_17), None),
    # derived axes: 90 x 150 nodes
    (QUARTIC, packet_field(AXIS_17, PhasePoint(0.3, 0.2), 0.05), 0.5, None, None),
    (BARE_TRAP, packet_field(AXIS_17, PhasePoint(0.3, -0.2), 0.05), 0.7, None, None),
    (SUB_QUADRATIC, packet_field(AXIS_17, PhasePoint(-0.2, 0.3), 0.05), 0.8, None, None),
    # 1201 q nodes make five tiles of at most 256 nodes (the trap's Q has no
    # imaginary cross term, so no tile is narrower).  The images keep
    # |q_t| >= 2.1 and R = 0.89, so the middle tile, over [-0.79, 0.8],
    # keeps no source: its nodes are exactly 0 (the per-pair sum reads
    # 1.6e-56 of the peak there)
    (BARE_TRAP, clumps_field(0.005), 0.1, (CLUMPS_Q, np.linspace(-1.0, 1.0, 21)),
     (-0.795, 0.801)),
    # p^2 - q^2 at hbar = 0.01: the frame grows like e^(2t), and at t = 1
    # the split exponents overflow unless each factor is scaled; a 161^2
    # window of the derived 449 x 448 nodes
    (INVERTED, packet_field(AXIS_21, PhasePoint(0.1, 0.05), 0.01), 1.0, (WIDE, WIDE), None),
], ids=["quartic", "quartic-derived", "bare-trap", "sub-quadratic", "two-clumps",
        "inverted"])
def test_integrated_sum_matches_the_dense_kernel_sum(model, Psi0, t, out_axes, zero):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # edge mass and Ehrenfest notes
        warnings.simplefilter("error", RuntimeWarning)  # no overflow anywhere
        got = apply_propagator(Psi0, t, model, out_axes=out_axes, opts=RK4)
    want = dense_kernel_sum(Psi0, t, model, got.axes, RK4)
    assert np.isfinite(got.values).all()
    if zero is not None:
        lo, hi = zero
        gap = (lo < got.axes[0]) & (got.axes[0] < hi)
        assert gap.sum() == 240 and not got.values[gap].any()
    err = np.abs(got.values - want).max() / np.abs(want).max()
    assert err <= 1e-14, err


def crossing_time(message: str) -> float:
    return float(message.split("at t = ")[1].split(";")[0])


def crossing_times(record):
    """The crossing times of the Ehrenfest warnings among recorded warnings."""
    return [crossing_time(str(w.message)) for w in record if w.category is EhrenfestWarning]


@pytest.mark.parametrize("entry", ["apply", "position"])
def test_an_integrated_propagation_steps_one_pass(monkeypatch, entry):
    # the guard rides the sources' batch: one pass over the step grid, and
    # no orbit of its own
    grids, original = [], flow._sample_orbits

    def counting(model, Q, P, times, opts=None):
        grids.append(times)
        return original(model, Q, P, times, opts)

    def forbidden(*args, **kwargs):
        raise AssertionError("the guard integrated an orbit of its own")

    monkeypatch.setattr("phaseprop.flow._sample_orbits", counting)
    monkeypatch.setattr("phaseprop.propagator._sample_orbits", counting)
    monkeypatch.setattr("phaseprop.propagator.integrate_characteristics", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if entry == "apply":
            axis = np.linspace(-2.0, 2.0, 17)
            apply_propagator(packet_field(axis, PhasePoint(0.05, -0.03), 0.05), 0.5,
                             QUARTIC, out_axes=(axis, axis), opts=RK4)
        else:
            x = np.linspace(-8.0, 8.0, 321)
            axes = (np.linspace(-3.0, 3.0, 15), np.linspace(-3.0, 3.0, 15))
            position_space_solution(ComplexField((x,), initial_position_state(x, HBAR), HBAR),
                                    0.5, TRAP, phase_axes=axes, opts=RK4)
    assert len(grids) == 1
    assert np.array_equal(grids[0], _step_grid(np.array([0.0, 0.5]), 1e-2)[0])


# a verb's times: one orbit pass over them all against one call per time
TIMES = (0.1, 0.5, 1.0)
PACKET_17 = packet_field(AXIS_17, PhasePoint(0.05, -0.03), 0.05)
STATE_X = np.linspace(-8.0, 8.0, 321)
STATE = ComplexField((STATE_X,), initial_position_state(STATE_X, HBAR), HBAR)
STATE_AXES = (np.linspace(-4.0, 4.0, 25), np.linspace(-4.0, 4.0, 25))
# DOP853 at rtol 1e-13: the reference for the integrated passes
DOP853 = FlowOptions(method="adaptive", rtol=1e-13)


def one_pass_and_per_time(entry, model, opts, times=TIMES):
    """``(outputs, Ehrenfest messages)`` of the entry's generator over all of
    ``times``, then of one public call per time.  The phase field's output
    axes are derived at each time; the state is analysed on 25^2 nodes."""
    if entry == "apply":
        arg, gen, call, kw = PACKET_17, _propagated_fields, apply_propagator, {}
    else:
        arg, gen, call = STATE, _propagated_states, position_space_solution
        kw = {"phase_axes": STATE_AXES}
    runs = []
    for outputs in (lambda: list(gen(arg, times, model, opts=opts, **kw)),
                    lambda: [call(arg, t, model, opts=opts, **kw) for t in times]):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            out = outputs()
        runs.append((out, [str(w.message) for w in record if w.category is EhrenfestWarning]))
    return runs


@pytest.mark.parametrize("entry", ["apply", "position"])
@pytest.mark.parametrize("model", [builtin_model("free"), builtin_model("linear"),
                                   builtin_model("harmonic"), INVERTED],
                         ids=["free", "linear", "harmonic", "inverted"])
def test_one_pass_over_a_verbs_times_is_the_per_time_calls_on_closed_forms(entry, model):
    # one stacked closed-form call over all times, and each time's own
    # t/200 guard bundle: the fields and the Ehrenfest warnings bit for bit
    (once, warned_once), (each, warned_each) = one_pass_and_per_time(entry, model, None)
    for a, b in zip(once, each, strict=True):
        assert all(np.array_equal(u, v) for u, v in zip(a.axes, b.axes, strict=True))
        assert np.array_equal(a.values, b.values)
    assert warned_once == warned_each
    if model is INVERTED and entry == "apply":
        assert warned_once == [crossing("4.482", "0.75")]  # t = 1 crosses at 0.75


@pytest.mark.parametrize("entry", ["apply", "position"])
def test_one_rk4_pass_over_times_on_its_grid_is_the_per_time_calls(entry):
    # the pass's step grid lands on each time, so only the steps' round-off
    # differs from the per-time grids: 9.4e-15 of the peak at most, measured
    (once, _), (each, _) = one_pass_and_per_time(entry, QUARTIC, RK4)
    for a, b in zip(once, each, strict=True):
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(b.values).max()


@pytest.mark.parametrize("entry", ["apply", "position"])
@pytest.mark.parametrize("opts, times", [(RK4, (0.105, 0.5, 1.0)),
                                         (FlowOptions(method="adaptive"), TIMES)],
                         ids=["rk4-off-grid", "adaptive"])
def test_one_integrated_pass_is_as_close_to_dop853_as_the_per_time_calls(entry, opts, times):
    # off its grid rk4 steps [0.105, 0.5] in 40 steps of 0.009875 instead of
    # [0, 0.5] in 50 of 0.01, and adaptive reads times 0.1 and 0.5 from a
    # dense output to t = 1: each at most twice as far from DOP853 at rtol
    # 1e-13 as the per-time call, or 1e-12 of the peak.  A derived grid is
    # the range of the sources' images, which move with the steps, so each
    # output is compared on its own axes.  Measured: the rk4 passes at most
    # 1.03x the calls' error, the adaptive ones at most 1.44x
    (once, _), (each, _) = one_pass_and_per_time(entry, QUARTIC, opts, times)

    def error(t, out):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 25^2 analysis is coarse
            if entry == "apply":
                ref = apply_propagator(PACKET_17, t, QUARTIC, out_axes=out.axes, opts=DOP853)
            else:
                ref = position_space_solution(STATE, t, QUARTIC, phase_axes=STATE_AXES,
                                              opts=DOP853)
        return np.abs(out.values - ref.values).max(), np.abs(ref.values).max()

    for t, a, b in zip(times, once, each, strict=True):
        (err_once, _), (err_each, peak) = error(t, a), error(t, b)
        assert err_once <= max(2 * err_each, 1e-12 * peak), (t, err_once, err_each)


@pytest.mark.parametrize("entry", ["apply", "position"])
def test_an_integrated_multi_time_call_steps_one_pass_over_all_its_times(monkeypatch, entry):
    # one _sample_orbits pass over the step grid of (0, 0.1, 0.5, 1.0): 100
    # steps of 1e-2, where one call per time steps 10 + 50 + 100 = 160
    grids, original = [], flow._sample_orbits

    def counting(model, Q, P, times, opts=None):
        grids.append(times)
        return original(model, Q, P, times, opts)

    def forbidden(*args, **kwargs):
        raise AssertionError("the guard integrated an orbit of its own")

    monkeypatch.setattr("phaseprop.propagator._sample_orbits", counting)
    monkeypatch.setattr("phaseprop.propagator.integrate_characteristics", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if entry == "apply":
            out = list(_propagated_fields(PACKET_17, TIMES, QUARTIC, out_axes=PACKET_17.axes,
                                          opts=RK4))
        else:
            out = list(_propagated_states(STATE, TIMES, QUARTIC, phase_axes=STATE_AXES,
                                          opts=RK4))
    assert len(out) == 3 and len(grids) == 1
    assert np.array_equal(grids[0], _step_grid(np.array([0.0, *TIMES]), 1e-2)[0])
    assert grids[0].size - 1 == 100
    assert sum(_step_grid(np.array([0.0, t]), 1e-2)[0].size - 1 for t in TIMES) == 160


def two_packets(axes, a, b, hbar, weights=(1.0, 1.0)):
    """The transform of packets at ``a`` and ``b``, of the given weights, on
    the tensor grid of ``axes``."""
    vals = [[weights[0] * overlap(PhasePoint(q, p), a, hbar)
             + weights[1] * overlap(PhasePoint(q, p), b, hbar) for p in axes[1]]
            for q in axes[0]]
    return ComplexField(axes, (2 * np.pi * hbar) ** -0.5 * np.array(vals), hbar)


AXIS_31 = np.linspace(-3.0, 3.0, 31)


@pytest.mark.parametrize("model, Psi0, t, opts, shape", [
    # a rotation: the corners of the support box asked for 125 x 125 nodes
    (builtin_model("harmonic"), packet_field(AXIS_17, PhasePoint(0.3, 0.2), 0.05), np.pi / 8,
     None, (106, 103)),
    # a shear of two packets: the box's corners asked for 300 x 121
    (builtin_model("free"), two_packets((AXIS_31, AXIS_31), PhasePoint(-1.5, 0.5),
                                        PhasePoint(1.5, -0.5), 0.05), 1.0, None, (200, 121)),
    (QUARTIC, packet_field(AXIS_17, PhasePoint(0.3, 0.2), 0.05), 0.5, RK4, (93, 138)),
], ids=["harmonic", "free-two-packets", "quartic"])
def test_a_derived_grid_is_the_padded_range_of_the_supports_images(monkeypatch, model, Psi0,
                                                                   t, opts, shape):
    # the images come from the sources' own pass: no orbit is flowed for the grid
    def forbidden(*args, **kwargs):
        raise AssertionError("the derived grid flowed orbits of its own")

    monkeypatch.setattr("phaseprop.propagator.flow_batch", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # edge mass
        out = apply_propagator(Psi0, t, model, opts=opts)
    assert out.values.shape == shape
    if opts is None:  # closed forms: the support's images, bit for bit
        mag = np.abs(Psi0.values)
        iq, ip = np.nonzero(mag > 1e-6 * mag.max())
        e = flow_batch(model, Psi0.axes[0][iq], Psi0.axes[1][ip], t)
        want = [_padded_axis(float(c.min()), float(c.max()), Psi0.hbar) for c in (e.q, e.p)]
        assert all(np.array_equal(a, b) for a, b in zip(out.axes, want, strict=True))


# under p^2 + q^4 at hbar = 0.05 the orbit from (-2, 0) crosses hbar^-1/2 at
# t = 0.57 and the one from (1.5, 0) at t = 0.78; the centre of the support
# box and the mean of the sources lie between the clumps, where no orbit
# crosses by t = 1
CLUMP_AXES = (np.linspace(-3.5, 3.0, 66), np.linspace(-1.2, 1.2, 25))
CLUMPS = {"left": PhasePoint(-2.0, 0.0), "right": PhasePoint(1.5, 0.0)}


@pytest.mark.parametrize("entry", ["apply", "position"])
@pytest.mark.parametrize("heavy, crossed", [("left", 0.57), ("right", 0.78)])
def test_the_guard_follows_the_heaviest_source(entry, heavy, crossed):
    hbar, t = 0.05, 1.0
    weights = (1.0, 0.5) if heavy == "left" else (0.5, 1.0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        if entry == "apply":
            Psi0 = two_packets(CLUMP_AXES, *CLUMPS.values(), hbar, weights)
            apply_propagator(Psi0, t, QUARTIC, out_axes=CLUMP_AXES, opts=RK4)
        else:
            x = np.linspace(-4.0, 4.0, 321)
            psi0 = sum(w * gaussian_packet(c, hbar, x) for w, c in zip(weights, CLUMPS.values()))
            position_space_solution(ComplexField((x,), psi0, hbar), t, QUARTIC,
                                    phase_axes=CLUMP_AXES, opts=RK4)
    # the heavier clump's peak node, on the grid
    peak = CLUMPS[heavy]
    node = PhasePoint(CLUMP_AXES[0][np.argmin(np.abs(CLUMP_AXES[0] - peak.q[0]))],
                      CLUMP_AXES[1][np.argmin(np.abs(CLUMP_AXES[1] - peak.p[0]))])
    want = ehrenfest_guard(integrate_characteristics(
        QUARTIC, node, t, FlowOptions(method="rk4", step=RK4.step, hbar=hbar)))
    assert [crossing_time(m) for m in want] == [crossed]
    assert [str(w.message) for w in record if w.category is EhrenfestWarning] == want


@pytest.mark.parametrize("entry", ["apply", "position"])
@pytest.mark.parametrize("times", [(0.5,), TIMES], ids=["one-time", "three-times"])
def test_an_adaptive_pass_samples_only_its_times(monkeypatch, entry, times):
    # the sources' dense output is read at 0 and the times alone; each time's
    # guard is a bundle of its own with the caller's method, rtol and step
    passes, bundles, original = [], [], flow._sample_orbits

    def counting(model, Q, P, times, opts=None):
        call = {"times": np.asarray(times), "opts": opts, "states": 0}
        passes.append(call)
        for state in original(model, Q, P, times, opts):
            call["states"] += 1
            yield state

    def recording(model, X0, T, opts=None):
        bundles.append((T, opts))
        return flow.integrate_characteristics(model, X0, T, opts)

    monkeypatch.setattr("phaseprop.propagator._sample_orbits", counting)
    monkeypatch.setattr("phaseprop.propagator.integrate_characteristics", recording)
    opts = FlowOptions(method="adaptive", step=1e-2, rtol=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if entry == "apply":
            out = list(_propagated_fields(PACKET_17, times, QUARTIC, out_axes=PACKET_17.axes,
                                          opts=opts))
        else:
            out = list(_propagated_states(STATE, times, QUARTIC, phase_axes=STATE_AXES,
                                          opts=opts))
    assert len(out) == len(times)
    [sources] = passes
    assert sources["states"] == len(times) + 1 and sources["opts"] == opts
    assert np.array_equal(sources["times"], [0.0, *times])
    assert bundles == [(t, replace(opts, hbar=out[0].hbar)) for t in times]


def test_the_guard_crosses_once_within_a_step_on_the_inverted_oscillator():
    hbar, t = 0.05, 1.0
    # the frame of a quadratic Hamiltonian does not depend on the orbit, so
    # the reference guard may start from any centre
    want = [crossing_time(m) for m in ehrenfest_guard(integrate_characteristics(
        INVERTED, PhasePoint(0.0, 0.0), t,
        FlowOptions(method="rk4", step=1.25e-3, hbar=hbar)))]
    assert len(want) == 1 and 0.7 < want[0] < 0.8
    axis = np.linspace(-1.0, 1.0, 17)
    x = np.linspace(-3.0, 3.0, 121)
    with warnings.catch_warnings(record=True) as phase:
        warnings.simplefilter("always")
        apply_propagator(packet_field(axis, PhasePoint(0.0, 0.0), hbar), t, INVERTED,
                         out_axes=(axis, axis), opts=RK4)
    with warnings.catch_warnings(record=True) as position:
        warnings.simplefilter("always")
        position_space_solution(
            ComplexField((x,), gaussian_packet(PhasePoint(0.0, 0.0), hbar, x), hbar),
            t, INVERTED, opts=RK4)
    # and a quartic packet field that never spreads that far warns none
    axis = np.linspace(-2.0, 2.0, 17)
    with warnings.catch_warnings(record=True) as quartic:
        warnings.simplefilter("always")
        apply_propagator(packet_field(axis, PhasePoint(0.1, -0.1), hbar), 0.5, QUARTIC,
                         out_axes=(axis, axis), opts=RK4)
    # the closed forms' guard reads the same orbit at t/200 steps
    with warnings.catch_warnings(record=True) as closed:
        warnings.simplefilter("always")
        apply_propagator(packet_field(axis, PhasePoint(0.0, 0.0), hbar), t, INVERTED,
                         out_axes=(axis, axis))
    for record in (phase, position):
        got = crossing_times(record)
        assert len(got) == 1 and abs(got[0] - want[0]) <= RK4.step
    got = crossing_times(closed)
    assert len(got) == 1 and abs(got[0] - want[0]) <= t / 200
    assert crossing_times(quartic) == []


def crossing(norm: str, t: str) -> str:
    return (f"linearized flow norm {norm} exceeds hbar^-1/2 = 4.472 at t = {t}; "
            "single-packet propagation is no longer controlled")


@pytest.mark.parametrize("model, t, want", [
    # the inverted oscillator crosses once; the stiff trap p^2 + 400 q^2
    # swings its flow norm between 1 and 20 and crosses on every swing
    (INVERTED, 1.0, [crossing("4.482", "0.75")]),
    (polynomial_model({(0, 2): 1.0, (2, 0): 400.0}), 0.3,
     [crossing("4.944", "0.006"), crossing("4.543", "0.084"),
      crossing("5.258", "0.1635"), crossing("4.855", "0.2415")]),
], ids=["inverted", "stiff-trap"])
def test_the_closed_form_guard_warns_the_same_text(model, t, want):
    # the closed forms' guard reads the norms at t/200 steps from one stacked
    # pass; the text of its warnings is pinned to the last character
    axis = np.linspace(-1.0, 1.0, 9)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        apply_propagator(packet_field(axis, PhasePoint(0.0, 0.0), 0.05), t, model,
                         out_axes=(axis, axis))
    assert [str(w.message) for w in record if w.category is EhrenfestWarning] == want


@pytest.mark.parametrize("opts", [RK4, FlowOptions(method="adaptive", step=1e-2)],
                         ids=["rk4", "adaptive"])
def test_the_integrated_guard_warns_the_same_text(opts):
    # an integrated flow reads the centre row's norms from the sources' pass,
    # all 101 samples in one stacked call; the text is the closed forms'
    axis = np.linspace(-1.0, 1.0, 9)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        apply_propagator(packet_field(axis, PhasePoint(0.0, 0.0), 0.05), 1.0, INVERTED,
                         out_axes=(axis, axis), opts=opts)
    assert [str(w.message) for w in record if w.category is EhrenfestWarning] == [
        crossing("4.482", "0.75")]


@pytest.mark.parametrize("opts", [None, RK4], ids=["closed-form", "rk4"])
def test_the_grid_propagators_warn_at_their_callers_line(opts):
    # the edge-mass note and the guard's crossings name this file, not the
    # library, whichever flow carries the sources
    axis = np.linspace(-1.0, 1.0, 9)
    x = np.linspace(-3.0, 3.0, 121)
    psi = ComplexField((x,), gaussian_packet(PhasePoint(0.0, 0.0), 0.05, x), 0.05)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        apply_propagator(packet_field(axis, PhasePoint(0.0, 0.0), 0.05), 1.0, INVERTED,
                         out_axes=(axis, axis), opts=opts)
        position_space_solution(psi, 1.0, INVERTED, opts=opts)
    seen = [(w.category, w.filename) for w in record
            if w.category in (UserWarning, EhrenfestWarning)]
    assert seen == [(UserWarning, __file__)] + [(EhrenfestWarning, __file__)] * 2


@pytest.mark.parametrize("caller", ["husimi_check", "position_space_solution"])
def test_the_analysis_inside_a_caller_warns_at_its_callers_line(caller):
    # dx = 0.08 exceeds sqrt(hbar)/4 = 0.056: the analysis that each runs
    # warns about the position grid at this file's line, not the library's
    x = np.linspace(-8.0, 8.0, 201)
    psi = ComplexField((x,), initial_position_state(x, 0.05), 0.05)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        if caller == "husimi_check":
            husimi_check(psi)
        else:
            position_space_solution(psi, 0.3, builtin_model("harmonic"))
    spacing = [w for w in record if w.category is SpacingWarning]
    assert any("position grid spacing" in str(w.message) for w in spacing)
    assert {w.filename for w in spacing} == {__file__}


COMPOSED = {kind: builtin_model(kind) for kind in ("free", "linear", "harmonic")}
COMPOSED["inverted"] = INVERTED
COMPOSED["cross"] = polynomial_model({(1, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3})


# each example is two sums over 127^2 sources, about 0.5 CPU s
@settings(max_examples=10)
@given(kind=st.sampled_from(sorted(COMPOSED)), q=st.floats(-0.3, 0.3),
       p=st.floats(-0.3, 0.3), t1=st.floats(0.05, 0.4), t2=st.floats(0.05, 0.4))
def test_two_propagations_compose_into_one(kind, q, p, t1, t2):
    # apply(apply(Psi, t1), t2) = apply(Psi, t1 + t2) on the closed forms of
    # quadratic Hamiltonians, to round-off.  The box must hold the field at
    # t1: on [-2.5, 2.5]^2 the intermediate field's truncated edge puts the
    # two sides up to 5.4e-9 of the peak apart (cross, t1 = t2 = 0.4)
    hbar, axis = 0.05, np.linspace(-3.5, 3.5, 127)
    model, axes = COMPOSED[kind], (axis, axis)
    Psi0 = packet_field(axis, PhasePoint(q, p), hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # edge mass and Ehrenfest notes
        once = apply_propagator(Psi0, t1 + t2, model, out_axes=axes).values
        twice = apply_propagator(apply_propagator(Psi0, t1, model, out_axes=axes), t2,
                                 model, out_axes=axes).values
    err = np.abs(twice - once).max() / np.abs(once).max()
    assert err <= 1e-13, err


# H = c20 q^2 + c11 qp + c02 p^2 + c10 q + c01 p + c00 with every |c| <= 1:
# up to t = 0.4 a packet launched from |q|, |p| <= 0.5 stays inside [-10, 10]
unit_quadratics = st.fixed_dictionaries(
    {k: st.floats(-1.0, 1.0) for k in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))})


# each example is one analysis and one separable sum, about 0.02 CPU s
@settings(max_examples=40)
@given(coeffs=unit_quadratics, q=st.floats(-0.5, 0.5), p=st.floats(-0.5, 0.5),
       t=st.floats(0.05, 0.4))
def test_position_solution_keeps_the_norm_on_quadratic_models(coeffs, q, p, t):
    # the analysis is an isometry and the closed-form flow is exact, so the
    # norm moves by round-off only: 2.8e-15 worst over 300 scratch draws
    # (2.4e-15 over the 256 corners of the ranges); the bound leaves 3.5x
    x = np.linspace(-10.0, 10.0, 801)
    psi0 = ComplexField((x,), gaussian_packet(PhasePoint(q, p), HBAR, x), HBAR)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EhrenfestWarning)
        out = position_space_solution(psi0, t, polynomial_model(coeffs))
    assert abs(out.l2_norm() / psi0.l2_norm() - 1) <= 1e-14
