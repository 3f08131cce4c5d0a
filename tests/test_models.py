from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseprop import (
    ConfigurationError,
    PhasePoint,
    builtin_model,
    polynomial_model,
)


def test_phase_point_vector_round_trip():
    X = PhasePoint(0.4, -1.2)
    assert X.d == 1
    v = X.as_vector()
    assert v.shape == (2,)
    assert v[0] == 0.4 and v[1] == -1.2
    Y = PhasePoint.from_vector(v)
    assert Y.q[0] == X.q[0] and Y.p[0] == X.p[0]


def test_builtin_model_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="kind"):
        builtin_model("anharmonic")
    with pytest.raises(ConfigurationError, match="model dimension must be >= 1, got 0"):
        builtin_model("free", d=0)


@pytest.mark.parametrize("q, p, message", [
    ([0.1, 0.2], [0.3], r"equal length d >= 1, got shapes \(2,\) and \(1,\)"),
    ([], [], r"equal length d >= 1, got shapes \(0,\) and \(0,\)"),
    ([[0.1]], [[0.2]], r"equal length d >= 1, got shapes \(1, 1\)"),
    (0.1, math.inf, "coordinates must be finite"),
], ids=["unequal", "empty", "two-dimensional", "non-finite"])
def test_phase_point_rejects_malformed_coordinates(q, p, message):
    with pytest.raises(ConfigurationError, match=message):
        PhasePoint(q, p)


def test_builtin_values_and_derivatives():
    X = PhasePoint(0.7, -0.3)
    free = builtin_model("free")
    linear = builtin_model("linear")
    harmonic = builtin_model("harmonic")
    # H = |p|^2 + V(q) with V = 0, q, q^2 respectively
    assert free.value(X) == pytest.approx(0.09)
    assert linear.value(X) == pytest.approx(0.09 + 0.7)
    assert harmonic.value(X) == pytest.approx(0.09 + 0.49)
    assert np.allclose(free.gradient(X), [0.0, -0.6])
    assert np.allclose(linear.gradient(X), [1.0, -0.6])
    assert np.allclose(harmonic.gradient(X), [1.4, -0.6])
    assert np.allclose(free.hessian(X), [[0.0, 0.0], [0.0, 2.0]])
    assert np.allclose(harmonic.hessian(X), [[2.0, 0.0], [0.0, 2.0]])


def test_closed_form_flows_match_reference_maps():
    q, p, t = 0.8, -0.5, 0.9
    X = PhasePoint(q, p)
    ff = builtin_model("free").exact_flow(X, t)
    assert ff.q[0] == pytest.approx(q + 2 * t * p, abs=1e-14)
    assert ff.p[0] == pytest.approx(p, abs=1e-14)
    fl = builtin_model("linear").exact_flow(X, t)
    assert fl.q[0] == pytest.approx(q + 2 * t * p - t * t, abs=1e-14)
    assert fl.p[0] == pytest.approx(p - t, abs=1e-14)
    c, s = math.cos(2 * t), math.sin(2 * t)
    fh = builtin_model("harmonic").exact_flow(X, t)
    assert fh.q[0] == pytest.approx(c * q + s * p, abs=1e-14)
    assert fh.p[0] == pytest.approx(-s * q + c * p, abs=1e-14)


def test_inverse_flow_round_trips():
    X = PhasePoint(-0.4, 1.1)
    for kind in ("free", "linear", "harmonic"):
        m = builtin_model(kind)
        Y = m.inverse_flow(m.exact_flow(X, 0.73), 0.73)
        assert abs(Y.q[0] - X.q[0]) < 1e-12
        assert abs(Y.p[0] - X.p[0]) < 1e-12


def test_action_closed_forms():
    q, p, t = 0.6, -0.9, 0.8
    X = PhasePoint(q, p)
    assert builtin_model("free").action(X, t) == pytest.approx(p * p * t, abs=1e-12)
    want_lin = (p * p - q) * t - 2 * p * t ** 2 + 2 * t ** 3 / 3
    assert builtin_model("linear").action(X, t) == pytest.approx(want_lin, abs=1e-12)
    want_har = 0.25 * (p * p - q * q) * math.sin(4 * t) \
        + 0.5 * p * q * (math.cos(4 * t) - 1)
    assert builtin_model("harmonic").action(X, t) == pytest.approx(want_har, abs=1e-12)


def test_action_is_time_integral_of_lagrangian():
    # d(Act)/dt = p_t . dH/dp - H(X_0) along the orbit
    m = builtin_model("harmonic")
    X = PhasePoint(0.5, 0.3)
    t, d = 0.7, 1e-6
    rate = (m.action(X, t + d) - m.action(X, t - d)) / (2 * d)
    Xt = m.exact_flow(X, t)
    want = Xt.p[0] * m.gradient(Xt)[1] - m.value(X)
    assert rate == pytest.approx(want, abs=1e-8)


def test_polynomial_model_terms_and_derivatives():
    # H = p^2 + q^4
    m = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
    X = PhasePoint(0.5, -1.5)
    assert m.value(X) == pytest.approx(2.25 + 0.0625)
    assert np.allclose(m.gradient(X), [4 * 0.5 ** 3, -3.0])
    assert np.allclose(m.hessian(X), [[12 * 0.25, 0.0], [0.0, 2.0]])
    assert m.exact_flow is None
    with pytest.raises(ConfigurationError):
        m.action(X, 0.5)


def test_polynomial_model_rejects_bad_terms():
    with pytest.raises(ConfigurationError):
        polynomial_model({(3, 2): 1.0})
    with pytest.raises(ConfigurationError):
        polynomial_model({(-1, 0): 1.0})
    with pytest.raises(ConfigurationError):
        polynomial_model({(1, 0): float("nan")})


MONOMIALS = [(i, j) for i in range(5) for j in range(5 - i)]  # total degree <= 4
coef = st.floats(-3.0, 3.0)
coeff_maps = st.one_of(
    st.dictionaries(st.sampled_from(MONOMIALS), coef, min_size=1, max_size=8),
    coef.map(lambda c: {(0, 0): c}),  # constant only
    st.dictionaries(st.sampled_from([(0, j) for j in range(5)]), coef, min_size=1),  # pure p
    st.tuples(coef, st.dictionaries(st.sampled_from(MONOMIALS), coef, max_size=4))
    .map(lambda t: {**t[1], (1, 1): t[0]}),  # with the q p cross term
)
stacks = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                  min_size=1, max_size=6).map(np.array)


def per_term(coeffs, q, p, m, n):
    """``d^m/dq^m d^n/dp^n`` of ``sum c q^i p^j`` at one point, summed one term
    at a time, and the sum of the terms' moduli (the scale of its round-off)."""
    def dpow(x, k, order):
        return math.perm(k, order) * x ** (k - order) if k >= order else 0.0
    terms = [c * dpow(q, i, m) * dpow(p, j, n) for (i, j), c in coeffs.items()]
    return sum(terms), sum(abs(t) for t in terms)


@settings(max_examples=200)
@given(coeffs=coeff_maps, pts=stacks)
def test_compiled_polynomial_matches_its_terms(coeffs, pts):
    model = polynomial_model(coeffs)
    value = model.bulk_value(pts)
    field = model.bulk_field(pts)
    assert value.shape == (len(pts),) and field.shape == (len(pts), 6)
    # f = (H_p, -H_q) and Df = [[H_pq, H_pp], [-H_qq, -H_qp]]
    f, Df = field[:, :2], field[:, 2:].reshape(len(pts), 2, 2)
    for k, (a, b) in enumerate(pts):
        X = PhasePoint(a, b)
        for got, m, n in ((value[k], 0, 0), (model.value(X), 0, 0),
                          (-f[k, 1], 1, 0), (f[k, 0], 0, 1),
                          (model.gradient(X)[0], 1, 0), (model.gradient(X)[1], 0, 1),
                          (-Df[k, 1, 0], 2, 0), (Df[k, 0, 1], 0, 2),
                          (-Df[k, 1, 1], 1, 1), (Df[k, 0, 0], 1, 1),
                          (model.hessian(X)[0, 0], 2, 0), (model.hessian(X)[1, 1], 0, 2),
                          (model.hessian(X)[0, 1], 1, 1), (model.hessian(X)[1, 0], 1, 1)):
            want, scale = per_term(coeffs, a, b, m, n)
            assert abs(got - want) <= 1e-13 * scale, (m, n, got, want)


def jet_columns(model, X):
    """``H`` and its vector field row at the rows of ``X``, one row each, in
    the columns ``H, H_p, -H_q, H_pq, H_pp, -H_qq, -H_qp``."""
    return np.column_stack([model.bulk_value(X), model.bulk_field(X)])


DROPS = {"all": (), "no-constant": ((0, 0),), "no-linear": ((1, 0), (0, 1)),
         "no-mixed": tuple(m for m in MONOMIALS if min(m) > 0)}


@pytest.mark.parametrize("drop", DROPS.values(), ids=DROPS.keys())
@pytest.mark.parametrize("seed", range(6))
def test_few_point_jet_matches_the_power_table(seed, drop):
    # up to 4 points the jet takes pow of each coordinate, beyond that the
    # multiplied power table: a batch of n points agrees with its rows, each
    # evaluated alone, to 1e-14 of the column's scale, the largest sum of the
    # moduli of its terms
    rng = np.random.default_rng(seed)
    coeffs = {m: rng.uniform(-3.0, 3.0) for m in MONOMIALS
              if m not in drop and rng.random() < 0.7}
    coeffs[(4, 0)] = rng.uniform(-3.0, 3.0)  # keeps the model off the quadratic closed forms
    model = polynomial_model(coeffs)
    moduli = polynomial_model({m: abs(c) for m, c in coeffs.items()})
    for n in (1, 4, 5, 9):
        X = rng.uniform(-2.0, 2.0, (n, 2))
        batch = jet_columns(model, X)
        rows = np.concatenate([jet_columns(model, x[None]) for x in X])
        scale = np.abs(jet_columns(moduli, np.abs(X))).max(axis=0)
        assert (np.abs(batch - rows) <= 1e-14 * scale).all(), n


@pytest.mark.parametrize("seed", range(4))
def test_few_point_and_table_jets_overflow_in_the_same_entries(seed):
    rng = np.random.default_rng(seed)
    coeffs = {m: rng.uniform(-3.0, 3.0) for m in MONOMIALS if rng.random() < 0.7}
    coeffs[(4, 0)] = rng.uniform(-3.0, 3.0)
    model = polynomial_model(coeffs)
    X = np.array([[1e80, 0.5], [0.3, -1e100], [-1e90, 2.0], [1e160, 1e160],
                  [1.5, -0.25], [2e61, -3e70]])
    with np.errstate(over="ignore", invalid="ignore"):
        batch = jet_columns(model, X)
        rows = np.concatenate([jet_columns(model, x[None]) for x in X])
    assert not np.isfinite(batch).all()
    assert np.array_equal(np.isfinite(batch), np.isfinite(rows))
