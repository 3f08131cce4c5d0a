from __future__ import annotations

import warnings

import numpy as np
import pytest

from phaseprop import (
    BranchError,
    CausticError,
    ComplexField,
    ConfigurationError,
    DomainError,
    FlowOptions,
    GaussianPoly,
    ModelError,
    PhasePoint,
    ProjectionError,
    WKBData,
    asymptotic_phase_Fsc,
    builtin_model,
    gaussian_integral,
    lift_wkb,
    polynomial_model,
    r_analytic_extension,
    solution_on_manifold,
    stationary_point_z,
    transport_manifold,
    vertical_tangent_time,
)
from phaseprop.flow import _default_times, _method, _sample_orbits, flow_batch
from phaseprop.wkb import _F_values, _tangent
from phaseprop.oracles import (
    exact_manifold,
    exact_phase_solution,
    harmonic_vertical_time,
    initial_phase_state,
)

HBAR = 0.1


def unit_gaussian() -> GaussianPoly:
    return GaussianPoly([np.pi ** -0.25], mu=0.0, sigma=1.0)


def reference_data(r: int = 2) -> WKBData:
    # quadratic phase S0 = q^2/2 with the normalized width-1 amplitude
    return WKBData(S0=[0.0, 0.0, 0.5], R0=unit_gaussian(), r=r)


def cubic_data() -> WKBData:
    return WKBData(S0=[0.0, 0.0, 0.5, 0.2 / 3], R0=unit_gaussian(), r=3)


def test_gaussian_poly_norm_and_derivative():
    g = unit_gaussian()
    assert g.l2_norm() == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(-2.0, 2.0, 9)
    d = 1e-6
    fd = (g(x + d) - g(x - d)) / (2 * d)
    assert np.abs(g.derivative()(x) - fd).max() < 1e-7


def test_wkb_data_validation():
    with pytest.raises(ConfigurationError):
        WKBData(S0=[0.0] * 6, R0=unit_gaussian())  # degree 5
    with pytest.raises(ConfigurationError):
        WKBData(S0=[0.0, 0.0, 0.5], R0=unit_gaussian(), r=1)
    with pytest.raises(ConfigurationError):
        bad = GaussianPoly([1.0], mu=0.0, sigma=1.0)  # norm != 1
        WKBData(S0=[0.0, 0.0, 0.5], R0=bad)


def test_wkb_state_values():
    data = reference_data()
    x = np.array([-0.5, 0.0, 0.8])
    got = data.state(x, HBAR)
    want = np.pi ** -0.25 * np.exp(-x ** 2 / 2) * np.exp(0.5j * x ** 2 / HBAR)
    assert np.abs(got - want).max() < 1e-12


def test_analytic_extension_is_exact_for_polynomials():
    S0 = np.polynomial.Polynomial([0.1, -0.3, 0.5, 0.2])
    z = 0.7 - 0.4j
    got = r_analytic_extension(S0, 3, z)
    assert abs(got - S0(z)) < 1e-12
    with pytest.raises(ConfigurationError):
        r_analytic_extension(S0, -1, z)


def test_stationary_point_solves_phase_equation():
    data = reference_data()
    # closed form for the quadratic phase: z = (p + iq)(1 - i)/2
    z = stationary_point_z(data, PhasePoint(0.0, 1.0))
    assert abs(z - (1 - 1j) / 2) < 1e-12
    # for non-quadratic phases the closed form is first order: the
    # residual S0'(z) - p + i(z - q) is exactly zero on the manifold
    # and quadratically small in the distance from it
    data3 = cubic_data()
    q = 0.4
    on = stationary_point_z(data3, PhasePoint(q, float(data3.s0_prime(q))))
    assert abs(on - q) < 1e-14

    def resid(delta: float) -> float:
        p = float(data3.s0_prime(q)) + delta
        z = stationary_point_z(data3, PhasePoint(q, p))
        return abs(data3.S0.deriv()(z) - p + 1j * (z - q))

    assert resid(0.05) < 1e-3
    assert 50 < resid(0.1) / resid(0.01) < 200


def test_lift_carries_first_order_defect_only():
    # the leading-order lift differs from the analyzed field by the
    # constant factor sqrt((1 - i + hbar)/(1 - i)) = 1 + O(hbar) at the
    # peak, with position-dependent O(hbar) corrections off the manifold
    data = reference_data()
    axes = (np.linspace(-4.0, 4.0, 109), np.linspace(-4.0, 4.0, 109))
    for hbar, frozen_peak in ((0.1, 3.4917e-2), (0.05, 1.7568e-2)):
        lift = lift_wkb(data, axes, hbar)
        Q, P = np.meshgrid(axes[0], axes[1], indexing="ij")
        want = initial_phase_state(Q, P, hbar)
        amax = np.abs(want).max()
        peak = np.unravel_index(np.argmax(np.abs(want)), want.shape)
        at_peak = abs(lift.values[peak] - want[peak]) / amax
        assert at_peak == pytest.approx(frozen_peak, rel=1e-2)
        factor = np.sqrt((1 - 1j + hbar) / (1 - 1j))
        assert at_peak == pytest.approx(abs(factor - 1), rel=1e-2)
        mask = np.abs(want) > 1e-3 * amax
        masked = (np.abs(lift.values - want)[mask] / np.abs(want)[mask]).max()
        assert masked < 5 * hbar


def test_lift_flags_branch_cuts():
    axes = (np.linspace(-5.5, 5.5, 81), np.linspace(-5.5, 5.5, 81))
    with pytest.raises(BranchError):
        lift_wkb(cubic_data(), axes, HBAR)
    lift_wkb(reference_data(), axes, HBAR)  # quadratic phase: no cut


def test_transported_manifold_matches_line_displays():
    data = reference_data()
    alpha = np.linspace(-2.0, 2.0, 41)
    for kind in ("free", "linear", "harmonic"):
        man = transport_manifold(data, builtin_model(kind), 0.4, alpha)
        slope, offset, resid = man.line_fit()
        s_want, o_want = exact_manifold(kind, 0.4)
        assert abs(slope - s_want) < 1e-9, kind
        assert abs(offset - o_want) < 1e-9, kind
        assert resid < 1e-9, kind


def test_transport_raises_at_fold_with_location():
    data3 = cubic_data()
    alpha = np.linspace(-5.0, -2.5, 26)
    with pytest.raises(CausticError) as exc:
        transport_manifold(data3, builtin_model("free"), 0.6, alpha)
    # dq_t/dalpha = 1 + 2t(1 + 0.4 alpha) first vanishes at t = 0.5,
    # alpha = -5; the reported location is sample-resolution accurate
    assert exc.value.t_star == pytest.approx(0.5, abs=1e-2)
    assert exc.value.alpha_star == pytest.approx(-5.0, abs=0.1)


def test_vertical_tangent_time():
    data = reference_data()
    t = vertical_tangent_time(data, builtin_model("harmonic"))
    assert t == pytest.approx(harmonic_vertical_time(1), abs=1e-9)
    assert vertical_tangent_time(data, builtin_model("free")) is None
    # the window (0, t_max] is empty: t_max = -2 would find the fold of the
    # backward flow at -0.393
    for t_max in (0.0, -2.0, np.nan):
        with pytest.raises(ConfigurationError, match="t_max"):
            vertical_tangent_time(data, builtin_model("harmonic"), t_max=t_max)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_vertical_tangent_time_returns_a_fold_before_a_blow_up():
    # over the barrier of p^2 + q^2 - q^4/4 the orbit from alpha = 0.9
    # folds near t = 0.46 and then runs off to infinity before t = 3: the
    # sampled pass stops at the fold and never reaches the blow-up
    data = WKBData(S0=[0.0, 0.0, -0.5], R0=unit_gaussian(), r=2)
    model = polynomial_model({(0, 2): 1.0, (2, 0): 1.0, (4, 0): -0.25})
    opts = FlowOptions(method="rk4", step=1e-2)
    # the stage loop ignores the invalid products of an overflowed jet for
    # all its calls at once, and the ModelError reports them
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", "overflow", RuntimeWarning)
        with pytest.raises(ModelError):
            flow_batch(model, [0.9], [-0.9], 3.0, opts)
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
    got = vertical_tangent_time(data, model, 0.9, t_max=3.0, opts=opts)
    want = vertical_tangent_time(data, model, 0.9, t_max=0.5, opts=opts)
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(0.46, abs=1e-2)


def test_hamilton_jacobi_residual_of_asymptotic_phase():
    # dF/dt + H(q/2 - F_p, p/2 + F_q) = 0 by central differences
    data = reference_data()
    for kind in ("free", "harmonic"):
        model = builtin_model(kind)
        a0, t = 0.8, 0.4
        X0 = model.exact_flow(PhasePoint(a0, a0), t)
        X = np.array([X0.q[0], X0.p[0]])
        d = 1e-5

        def F(Xv, tt):
            return asymptotic_phase_Fsc(PhasePoint(Xv[0], Xv[1]), tt, data, model)

        Ft = (F(X, t + d) - F(X, t - d)) / (2 * d)
        Fq = (F(X + [d, 0], t) - F(X - [d, 0], t)) / (2 * d)
        Fp = (F(X + [0, d], t) - F(X - [0, d], t)) / (2 * d)
        res = Ft + model.value(PhasePoint(X[0] / 2 - Fp.real, X[1] / 2 + Fq.real))
        assert abs(res) < 1e-5, kind
        # on the transported manifold the imaginary part vanishes
        assert abs(F(X, t).imag) < 1e-10


def test_asymptotic_phase_off_manifold_and_errors():
    data = reference_data()
    model = builtin_model("free")
    # off the manifold Im F > 0 (Gaussian decay of the field)
    F = asymptotic_phase_Fsc(PhasePoint(1.8, -1.0), 0.4, data, model)
    assert F.imag > 1e-3
    # explicit source on the initial manifold agrees with projection
    a = 0.7
    Y = PhasePoint(a, a)
    X = model.exact_flow(Y, 0.4)
    F1 = asymptotic_phase_Fsc(X, 0.4, data, model)
    F2 = asymptotic_phase_Fsc(X, 0.4, data, model, Y=Y)
    assert abs(F1 - F2) < 1e-8
    with pytest.raises(ProjectionError):
        asymptotic_phase_Fsc(X, 0.4, data, model, Y=PhasePoint(0.5, 3.0))
    # the foot of (0, 100), alpha = 23.6, lies past the sampled [-8, 8]
    with pytest.raises(ProjectionError):
        asymptotic_phase_Fsc(PhasePoint(0.0, 100.0), 0.4, data, model)


def test_projection_onto_the_free_manifold_is_the_foot_of_the_perpendicular():
    # the free flow carries p = q to the line (alpha (1 + 2t), alpha), whose
    # nearest point to X is alpha* = (X_q k + X_p) / (k^2 + 1), k = 1 + 2t
    data, model = reference_data(), builtin_model("free")
    rng = np.random.default_rng(13)
    for _ in range(20):
        q, p = rng.uniform(-1.5, 1.5, size=2)
        t = rng.uniform(0.1, 1.0)
        k = 1 + 2 * t
        a = (q * k + p) / (k * k + 1)
        X = PhasePoint(q, p)
        got = asymptotic_phase_Fsc(X, t, data, model)
        want = asymptotic_phase_Fsc(X, t, data, model, Y=PhasePoint(a, a))
        assert abs(got - want) <= 1e-14, (q, p, t)


def test_asymptotic_phase_off_manifold_matches_free_closed_form():
    # free flow from Y = (eta, xi) on p = S0'(q) = q: z = eta, Y_t =
    # (eta + 2t xi, xi), Act = xi^2 t, Z = i/(1 + 2it), and Q(Z) written
    # out with R = (1 - iZ)^-1 = (1 + 2it)/(2 + 2it)
    data = reference_data()
    eta = xi = 0.6
    t, q, p = 0.4, 1.3, -0.2
    eta_t = eta + 2 * t * xi
    R = (1 + 2j * t) / (2 + 2j * t)
    Q = np.array([[1j * (1 - R), 0.5 - R], [0.5 - R, 1j * R]])
    v = np.array([q - eta_t, p - xi])
    want = (0.5 * eta ** 2 + xi ** 2 * t - 0.5 * xi * eta_t
            + 0.5 * (q * xi - p * eta_t) + 0.5 * v @ Q @ v)
    got = asymptotic_phase_Fsc(PhasePoint(q, p), t, data, builtin_model("free"),
                               Y=PhasePoint(eta, xi))
    assert abs(got - want) < 1e-13


def test_asymptotic_phase_near_fold():
    data3 = cubic_data()
    model = builtin_model("free")
    # adjacent to the fold, where the residual's slope nearly vanishes, its
    # sign change is still bracketed and solved, not raised
    F = asymptotic_phase_Fsc(PhasePoint(-6.0, -0.95), 1.0, data3, model)
    assert np.isfinite(F.real) and np.isfinite(F.imag)
    # between the two sheets the projection is ambiguous and says so
    with pytest.warns(UserWarning, match="ambiguous"):
        asymptotic_phase_Fsc(PhasePoint(-5.0, -0.65), 1.0, data3, model)


def test_solution_on_manifold_tracks_display_to_first_order():
    data = reference_data()
    hbar = 0.05
    for kind in ("free", "harmonic"):
        model = builtin_model(kind)
        for a0 in (-0.8, 0.3, 1.0):
            X = model.exact_flow(PhasePoint(a0, a0), 0.4)
            got = solution_on_manifold(X, 0.4, data, model, hbar)
            want = exact_phase_solution(kind, X, 0.4, hbar)
            rel = abs(got - want) / abs(want)
            assert rel < 5 * hbar, (kind, a0, rel)


# The stationary-phase Hessian F'' that solution_on_manifold's amplitude
# reduces to: a 9-point central-difference stencil of the double-phase-space
# phase around the source (centre, eta and xi axis points, corners), with one
# Richardson step (4 H(d/2) - H(d)) / 3 at d = 1e-3.
STENCIL = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                    [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
STENCIL_STEPS = np.array([1e-3, 0.5e-3])


def stencil_hessian(f, h):
    c, ep, em, xp, xm, pp, pm, mp, mm = f
    cross = (pp - pm - mp + mm) / (4 * h ** 2)
    return np.array([[(ep - 2 * c + em) / h ** 2, cross],
                     [cross, (xp - 2 * c + xm) / h ** 2]])


def stationary_phase_products(X, t, data, model, opts):
    """At each time solution_on_manifold continues its root through (41 even
    times of [0, t] on closed forms, every step of an integrated flow), the
    product ``det((A - iB)/2) (1 - i S0''(eta)) det F''`` from the stencil
    Hessian, and ``-(T_q - i T_p)`` from the tangent the flow's frame gives."""
    back = flow_batch(model, X.q, X.p, -t, FlowOptions(step=1e-3))
    eta, xi = float(back.q[0, 0]), float(back.p[0, 0])
    w0 = 1 - 1j * float(data.s0_second(eta))
    src_eta = eta + (STENCIL_STEPS[:, None] * STENCIL[:, 0]).ravel()
    src_xi = xi + (STENCIL_STEPS[:, None] * STENCIL[:, 1]).ravel()
    opts = opts or FlowOptions()
    grid = (np.linspace(0.0, t, 41) if _method(model, opts) == "exact"
            else _default_times(t, opts.step))
    hessian, tangent = [], []
    for e in _sample_orbits(model, src_eta[:, None], src_xi[:, None], grid, opts):
        dw = (e.A[0, 0, 0] - 1j * e.B[0, 0, 0]) / 2
        f = _F_values(data, e.q[0, 0], e.p[0, 0], src_eta, src_xi, e)
        H1, H2 = (stencil_hessian(fh, h) for fh, h in zip(f.reshape(2, -1), STENCIL_STEPS))
        hessian.append(dw * w0 * complex(np.linalg.det((4.0 * H2 - H1) / 3.0)))
        dq, dp = _tangent(data, eta, e)
        tangent.append(-(dq[0] - 1j * dp[0]))
    return eta, np.array(hessian), np.array(tangent)


def stationary_phase_solution(X, t, data, model, hbar, opts=None):
    """The on-manifold value with its amplitude from the stencil Hessian, the
    root continued from +1 through the tracked times."""
    eta, hessian, _tangent_products = stationary_phase_products(X, t, data, model, opts)
    root = 1.0 + 0.0j
    for u in hessian[1:]:
        r = np.sqrt(u / hessian[0])
        root = r if abs(r - root) <= abs(r + root) else -r
    act = flow_batch(model, [eta], [float(data.s0_prime(eta))], t, opts).action[0]
    amp = (np.pi * hbar) ** (-0.25) * float(data.R0(eta))
    phase = -0.5 * float(X.p[0]) * float(X.q[0]) + float(data.S0(eta)) + act
    return amp * np.exp(1j * phase / hbar) / (np.sqrt(1 - 1j * float(data.s0_second(eta))) * root)


QUARTIC_PHASE = WKBData(S0=[0.0, 0.2, 0.5, 0.2 / 3, 0.05], R0=unit_gaussian(), r=3)


# Tolerances on the value and on the products, each about twice the largest
# measured: 1.5e-9 and 8.1e-9 on closed forms, 6.5e-7 and 1.3e-6 with rk4.
@pytest.mark.parametrize("model, opts, data, t, tol_value, tol_product", [
    # past the trap's fold at 3 pi / 8; by t = 2.5 the root has wound once
    (builtin_model("harmonic"), None, reference_data(), 1.5, 3e-9, 2e-8),
    (builtin_model("harmonic"), None, reference_data(), 2.5, 3e-9, 2e-8),
    (builtin_model("harmonic"), None, QUARTIC_PHASE, 1.5, 3e-9, 2e-8),
    # the rk4 pass misses the source's accurate image by its step error
    (polynomial_model({(0, 2): 1.0, (4, 0): 1.0}),
     FlowOptions(method="rk4", step=1e-2), reference_data(), 0.4, 1.5e-6, 3e-6),
], ids=["harmonic-1.5", "harmonic-2.5", "quartic-phase", "quartic-rk4"])
def test_solution_on_manifold_amplitude_is_the_stationary_phase_hessian(
        model, opts, data, t, tol_value, tol_product):
    for a in (-0.8, 0.3, 0.9):
        e = flow_batch(model, [a], [float(data.s0_prime(a))], t, FlowOptions(step=1e-3))
        X = PhasePoint(e.q[0], e.p[0])
        _eta, hessian, tangent = stationary_phase_products(X, t, data, model, opts)
        assert np.abs(hessian - tangent).max() / np.abs(tangent).max() < tol_product, a
        got = solution_on_manifold(X, t, data, model, HBAR, opts)
        want = stationary_phase_solution(X, t, data, model, HBAR, opts)
        assert abs(got - want) / abs(want) < tol_value, (a, got, want)


def test_solution_on_manifold_pulls_back_with_the_callers_flow(monkeypatch):
    # the source (eta, xi) comes from the caller's integrator, the one whose
    # forward pass the tangent and the action are read from
    model = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
    data, t = reference_data(), 0.2
    e = flow_batch(model, [0.3], [float(data.s0_prime(0.3))], t, FlowOptions(step=1e-3))
    X = PhasePoint(e.q[0], e.p[0])
    pulls = []

    def recording(model, Q, P, t, opts=None):
        if t < 0:
            pulls.append(opts)
        return flow_batch(model, Q, P, t, opts)

    monkeypatch.setattr("phaseprop.wkb.flow_batch", recording)
    rk4 = FlowOptions(method="rk4", step=1e-2)
    got = solution_on_manifold(X, t, data, model, HBAR, rk4)
    assert pulls == [rk4]
    half = solution_on_manifold(X, t, data, model, HBAR,
                                FlowOptions(method="rk4", step=rk4.step / 2))
    assert abs(got - half) / abs(half) <= 1e-5


def test_gaussian_integral_against_quadrature():
    assert gaussian_integral(np.eye(1), np.zeros(1), HBAR) == pytest.approx(1.0)
    M = np.array([[1.0 + 0.4j, 0.3j], [0.3j, 1.5 - 0.2j]])
    v = np.array([0.2, -0.1])
    got = gaussian_integral(M, v, HBAR)
    # brute-force quadrature of (2 pi hbar)^(-1) exp{(i v.x - x.Mx/2)/hbar}
    s = np.linspace(-4.0, 4.0, 801)
    X1, X2 = np.meshgrid(s, s, indexing="ij")
    quad = (X1 * (M[0, 0] * X1 + M[0, 1] * X2)
            + X2 * (M[1, 0] * X1 + M[1, 1] * X2))
    integrand = np.exp((1j * (v[0] * X1 + v[1] * X2) - quad / 2) / HBAR)
    ref = integrand.sum() * (s[1] - s[0]) ** 2 / (2 * np.pi * HBAR)
    assert abs(got - ref) < 1e-10
    with pytest.raises(DomainError):
        gaussian_integral(np.array([[1.0, 0.2], [0.0, 1.0]]), v, HBAR)
    with pytest.raises(DomainError):
        gaussian_integral(np.array([[-1.0, 0.0], [0.0, 1.0]]), v, HBAR)
