from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseprop import (
    ComplexField,
    ConfigurationError,
    PhasePoint,
    SpacingWarning,
    TruncationError,
    bergmann_kernel,
    fock_bargmann_residual,
    gaussian_packet,
    husimi_check,
    inverse_transform,
    overlap,
    wave_packet_transform,
    write_field_csv,
)
from phaseprop.oracles import exact_phase_field, initial_position_state
from phaseprop.propagator import _TABLE_EXPONENT
from phaseprop.transform import _phase_table

HBAR = 0.1


def packet_state(q0: float, p0: float, hbar: float = HBAR) -> ComplexField:
    x = np.linspace(-6.0, 6.0, 1201)
    return ComplexField((x,), gaussian_packet(PhasePoint(q0, p0), hbar, x), hbar)


def phase_axes(lo: float, hi: float, n: int):
    return np.linspace(lo, hi, n), np.linspace(lo, hi, n)


def test_packet_is_normalized_and_peaks_at_center():
    psi = packet_state(0.4, -0.3)
    dx = psi.spacing()
    assert np.sum(np.abs(psi.values) ** 2) * dx == pytest.approx(1.0, abs=1e-12)
    x = psi.axes[0]
    at_center = abs(psi.values[np.argmin(np.abs(x - 0.4))])
    assert at_center == pytest.approx((np.pi * HBAR) ** -0.25, rel=1e-6)


def test_overlap_closed_form_and_self_normalization():
    X = PhasePoint(0.4, -0.3)
    Y = PhasePoint(-0.2, 0.5)
    assert overlap(X, X, HBAR) == pytest.approx(1.0)
    got = overlap(X, Y, HBAR)
    sym = 0.4 * 0.5 - (-0.3) * (-0.2)
    dist = (0.4 + 0.2) ** 2 + (-0.3 - 0.5) ** 2
    want = np.exp(0.5j * sym / HBAR - dist / (4 * HBAR))
    assert abs(got - want) < 1e-15
    # matches the quadrature inner product of the two packets
    x = np.linspace(-6.0, 6.0, 2401)
    gx = gaussian_packet(X, HBAR, x)
    gy = gaussian_packet(Y, HBAR, x)
    quad = np.sum(np.conj(gx) * gy) * (x[1] - x[0])
    assert abs(quad - want) < 1e-12


def test_bergmann_kernel_prefactor():
    X = PhasePoint(0.1, 0.2)
    Y = PhasePoint(0.3, -0.1)
    assert bergmann_kernel(X, Y, HBAR) == pytest.approx(
        overlap(X, Y, HBAR) / (2 * np.pi * HBAR))


def test_analysis_of_packet_matches_overlap_formula():
    X0 = PhasePoint(0.4, -0.3)
    psi = packet_state(0.4, -0.3)
    qs, ps = phase_axes(-2.5, 2.5, 91)
    Psi = wave_packet_transform(psi, (qs, ps))
    pref = (2 * np.pi * HBAR) ** -0.5
    want = np.empty((qs.size, ps.size), dtype=complex)
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            want[i, j] = pref * overlap(PhasePoint(q, p), X0, HBAR)
    err = np.abs(Psi.values - want).max() / np.abs(want).max()
    assert err < 1e-10


def test_plancherel_and_round_trip():
    # a two-packet superposition exercises interference terms
    x = np.linspace(-6.0, 6.0, 1201)
    v = gaussian_packet(PhasePoint(-0.8, 0.4), HBAR, x) \
        + gaussian_packet(PhasePoint(0.8, -0.2), HBAR, x)
    psi = ComplexField((x,), v, HBAR)
    qs, ps = np.linspace(-4.5, 4.5, 163), np.linspace(-4.5, 4.5, 163)
    Psi = wave_packet_transform(psi, (qs, ps))
    assert Psi.l2_norm() == pytest.approx(psi.l2_norm(), abs=1e-5)
    back = inverse_transform(Psi, x)
    err = np.abs(back.values - psi.values).max() / np.abs(psi.values).max()
    assert err < 1e-5


def test_analyticity_residual_scales_as_h_squared():
    # central-difference residual of an exactly analyzed field is
    # C h^2; halving the spacing divides it by ~4
    res = []
    for n in (81, 161):
        axes = phase_axes(-4.0, 4.0, n)
        f = exact_phase_field("free", axes, 0.0, HBAR)
        res.append(fock_bargmann_residual(f))
    ratio = res[0] / res[1]
    assert 3.0 < ratio < 5.5


def test_analyticity_residual_flags_generic_fields():
    axes = phase_axes(-4.0, 4.0, 321)
    f = exact_phase_field("free", axes, 0.0, HBAR)
    good = fock_bargmann_residual(f)
    bad = fock_bargmann_residual(ComplexField(axes, np.conj(f.values), HBAR))
    assert bad > 100 * good


def test_husimi_cross_validation_on_packet():
    psi = packet_state(0.2, 0.4)
    hus, conv, max_diff = husimi_check(psi)
    assert max_diff < 1e-3
    assert hus.values.shape == conv.values.shape
    # Husimi of a packet peaks at its center
    qs, ps = hus.axes
    i, j = np.unravel_index(np.argmax(np.abs(hus.values)), hus.values.shape)
    assert abs(qs[i] - 0.2) < 0.1 and abs(ps[j] - 0.4) < 0.1


def test_truncation_guard_fires_for_clipped_state():
    psi = packet_state(5.8, 0.0)
    with pytest.raises(TruncationError):
        wave_packet_transform(psi, phase_axes(-2.0, 2.0, 73))


def test_spacing_warning_on_coarse_grids():
    psi = packet_state(0.0, 0.0)
    with pytest.warns(SpacingWarning):
        wave_packet_transform(psi, phase_axes(-2.0, 2.0, 21))


def test_field_validation():
    with pytest.raises(ConfigurationError):
        ComplexField((np.array([0.0, 1.0, 1.5]),), np.zeros(3), HBAR)  # non-uniform
    with pytest.raises(ConfigurationError):
        ComplexField((np.array([0.0, 1.0]),), np.zeros(3), HBAR)  # length mismatch
    with pytest.raises(ConfigurationError):
        ComplexField((np.array([0.0, 1.0]),), np.zeros(2), -1.0)  # bad hbar
    with pytest.raises(ConfigurationError):
        x = np.linspace(0, 1, 4)
        ComplexField((x,), np.zeros((4, 4)), HBAR)  # rank mismatch


AXIS = np.linspace(-2.0, 2.0, 41)
STATE = ComplexField((AXIS,), np.exp(-AXIS ** 2), HBAR)
FIELD = ComplexField((AXIS, AXIS), np.exp(-AXIS[:, None] ** 2 - AXIS ** 2), HBAR)


@pytest.mark.parametrize("call, message", [
    (lambda: wave_packet_transform(FIELD, (AXIS, AXIS)),
     "wave_packet_transform expects a rank-1 field"),
    (lambda: wave_packet_transform(ComplexField((AXIS,), np.zeros(41), HBAR), (AXIS, AXIS)),
     "position-space state is identically zero"),
    (lambda: inverse_transform(STATE, AXIS), "inverse_transform expects a rank-2 field"),
    (lambda: fock_bargmann_residual(STATE), "fock_bargmann_residual expects a rank-2 field"),
    (lambda: husimi_check(FIELD), "husimi_check expects a rank-1 field"),
    (lambda: husimi_check(STATE, (AXIS[:5] + 0.05, AXIS)),
     "husimi_check q axis must lie on position-grid nodes"),
    (lambda: gaussian_packet(PhasePoint([0.0, 0.1], [0.2, 0.3]), HBAR, AXIS[:, None]),
     r"x last axis must have length d=2, got shape \(41, 1\)"),
], ids=["analysis-rank", "analysis-zero", "synthesis-rank", "residual-rank",
        "husimi-rank", "husimi-off-nodes", "packet-shape"])
def test_transform_entries_reject_malformed_input(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_csv_dump_is_deterministic(tmp_path):
    x = np.linspace(-1.0, 1.0, 11)
    f = ComplexField((x,), gaussian_packet(PhasePoint(0.0, 0.5), HBAR, x), HBAR)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    meta1 = write_field_csv(f, p1)
    meta2 = write_field_csv(f, p2)
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == "x,re,im"
    assert meta1["axes"][0]["count"] == 11
    assert meta1["norm"] == meta2["norm"]
    assert meta1["hbar"] == HBAR


def test_field_rejects_non_finite_values():
    x = np.linspace(0.0, 1.0, 4)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)):
        vals = np.ones(4, dtype=complex)
        vals[2] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            ComplexField((x,), vals, HBAR)


def two_packet_state() -> ComplexField:
    x = np.linspace(-5.0, 5.0, 401)
    v = gaussian_packet(PhasePoint(-0.8, 0.4), HBAR, x) \
        + np.exp(0.3j) * gaussian_packet(PhasePoint(0.7, -0.5), HBAR, x)
    return ComplexField((x,), v, HBAR)


def test_analysis_matches_per_node_quadrature():
    # Psi(q, p) = (2 pi hbar)^(-1/2) sum_x conj(G_(q,p))(x) psi(x) dx, one
    # packet per node
    psi = two_packet_state()
    x, dx = psi.axes[0], psi.spacing()
    qs, ps = phase_axes(-2.4, 2.4, 65)
    got = wave_packet_transform(psi, (qs, ps)).values
    want = np.array([[np.sum(np.conj(gaussian_packet(PhasePoint(q, p), HBAR, x))
                             * psi.values) * dx for p in ps] for q in qs])
    want *= (2 * np.pi * HBAR) ** -0.5
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_synthesis_matches_per_node_quadrature():
    # psi(x) = (2 pi hbar)^(-1/2) sum_(q,p) Psi(q, p) G_(q,p)(x) dq dp on a
    # generic (not analyzed) field
    qs, ps = phase_axes(-2.4, 2.4, 65)
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    rng = np.random.default_rng(7)
    vals = (rng.standard_normal(Q.shape) + 1j * rng.standard_normal(Q.shape)) \
        * np.exp(-(Q ** 2 + P ** 2) / 0.2)
    Psi = ComplexField((qs, ps), vals, HBAR)
    x = np.linspace(-5.0, 5.0, 401)
    got = inverse_transform(Psi, x).values
    want = np.zeros(x.size, dtype=complex)
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            want += vals[i, j] * gaussian_packet(PhasePoint(q, p), HBAR, x)
    want *= (2 * np.pi * HBAR) ** -0.5 * Psi.cell()
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_synthesis_onto_a_narrow_position_grid():
    # the q axis spans [-10, 10] and the position grid [-2, 2]: the q blocks
    # at either end lie farther than a packet radius from every node, so
    # they reach no node and add nothing
    qs, ps = np.linspace(-10.0, 10.0, 101), np.linspace(-2.4, 2.4, 33)
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    rng = np.random.default_rng(11)
    vals = (rng.standard_normal(Q.shape) + 1j * rng.standard_normal(Q.shape)) \
        * np.exp(-Q ** 2 / 4 - P ** 2 / 0.2)
    Psi = ComplexField((qs, ps), vals, HBAR)
    x = np.linspace(-2.0, 2.0, 161)
    got = inverse_transform(Psi, x).values
    want = np.zeros(x.size, dtype=complex)
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            want += vals[i, j] * gaussian_packet(PhasePoint(q, p), HBAR, x)
    want *= (2 * np.pi * HBAR) ** -0.5 * Psi.cell()
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_husimi_wigner_sum_matches_per_row_sum():
    # W(q_i, p) = (2 dx / 2 pi hbar) Re sum_|j|<=min(i, nx-1-i)
    #   exp(-i p 2 dx j / hbar) psi[i+j] conj(psi[i-j]), row by row
    psi = two_packet_state()
    x, v, dx = psi.axes[0], psi.values, psi.spacing()
    iq = np.arange(2, x.size - 2, 3)  # rows near both ends are truncated
    ps = np.linspace(-2.1, 2.1, 57)
    _hus, conv, _diff = husimi_check(psi, (x[iq], ps))
    W = np.empty((iq.size, ps.size))
    for k, i in enumerate(iq):
        js = np.arange(-min(i, x.size - 1 - i), min(i, x.size - 1 - i) + 1)
        prod = v[i + js] * np.conj(v[i - js])
        W[k] = 2 * dx / (2 * np.pi * HBAR) * np.real(
            np.exp(-1j * np.outer(ps, 2 * dx * js) / HBAR) @ prod)
    qs = x[iq]
    Gq = np.exp(-np.subtract.outer(qs, qs) ** 2 / HBAR)
    Gp = np.exp(-np.subtract.outer(ps, ps) ** 2 / HBAR)
    want = (qs[1] - qs[0]) * (ps[1] - ps[0]) / (np.pi * HBAR) * (Gq @ W @ Gp.T)
    assert np.abs(conv.values - want).max() / np.abs(want).max() < 1e-12


def test_derived_phase_grids_are_unchanged():
    # Both derivations share one momentum-extent estimate; their grids must
    # equal, bit for bit, the ones the two separate estimates gave.  Axes
    # are linspace(lo, hi, n), so (lo, hi, n) pins them.
    from phaseprop.propagator import _default_phase_axes
    from phaseprop.transform import _default_husimi_grid
    x = np.linspace(-8.0, 8.0, 1601)
    reference = ComplexField((x,), initial_position_state(x, 0.05), 0.05)
    x2 = np.linspace(-6.0, 6.0, 1201)
    boosted = ComplexField((x2,), gaussian_packet(PhasePoint(0.5, 3.0), HBAR, x2), HBAR)
    cases = [
        (reference, (-6.591640786499874, 6.591640786499874, 237),
         (-6.591640786499874, 6.591640786499874, 237),
         (141, 1456, 5), (-5.127471522919444, 5.127471522919444, 185)),
        (boosted, (-3.0573665961010277, 4.057366596101028, 91),
         (-4.878048151817746, 4.878048151817746, 125),
         (295, 1002, 7), (-4.878048151817746, 4.878048151817746, 125)),
    ]
    for psi, q_axis, p_axis, rows, husimi_p in cases:
        qa, pa = _default_phase_axes(psi, psi.hbar)
        assert np.array_equal(qa, np.linspace(*q_axis))
        assert np.array_equal(pa, np.linspace(*p_axis))
        iq, ps = _default_husimi_grid(psi)
        assert np.array_equal(iq, np.arange(rows[0], rows[1] + 1, rows[2]))
        assert np.array_equal(ps, np.linspace(*husimi_p))


@pytest.mark.parametrize("count, nodes", [(201, 37), (21, 9)])
def test_husimi_check_clips_its_p_axis_where_the_wigner_sum_aliases(count, nodes):
    # the Wigner sum's lags are 2 dx apart, so it resolves momenta up to
    # pi hbar / (2 dx); the derived p axis stops there, with a warning, and
    # keeps 9 nodes where the clipped axis would take fewer
    x = np.linspace(-8.0, 8.0, count)
    psi = ComplexField((x,), initial_position_state(x, 0.05), 0.05)
    with pytest.warns(SpacingWarning) as record:  # the grid is coarse, too
        hus, _conv, _diff = husimi_check(psi)
    nyq = np.pi * 0.05 / (2 * psi.spacing())
    assert f"resolves momenta only up to {nyq:.4g} < requested" in str(record[0].message)
    ps = hus.axes[1]
    assert ps[-1] == -ps[0] == nyq
    assert ps.size == nodes


def test_csv_dump_golden_bytes(tmp_path):
    # .17g cells, C order, "\n" line ends; -0 and subnormals included
    f1 = ComplexField((np.linspace(-1.0, 1.0, 3),),
                      np.array([1e-320j, 1 / 3 - 2.5e150j, 0.1]), HBAR)
    f2 = ComplexField((np.linspace(0.0, 0.5, 2), np.linspace(-0.3, 0.3, 3)),
                      np.array([[1.0, -1j, 2.0 ** -1074],
                                [np.pi + np.e * 1j, -123456789.125, 1e-5 - 7e22j]]),
                      HBAR)
    write_field_csv(f1, tmp_path / "f1.csv")
    write_field_csv(f2, tmp_path / "f2.csv")
    assert (tmp_path / "f1.csv").read_bytes() == (
        b"x,re,im\n"
        b"-1,0,9.9998886718268301e-321\n"
        b"0,0.33333333333333331,-2.5e+150\n"
        b"1,0.10000000000000001,0\n")
    assert (tmp_path / "f2.csv").read_bytes() == (
        b"q,p,re,im\n"
        b"0,-0.29999999999999999,1,0\n"
        b"0,0,-0,-1\n"
        b"0,0.29999999999999999,4.9406564584124654e-324,0\n"
        b"0.5,-0.29999999999999999,3.1415926535897931,2.7182818284590451\n"
        b"0.5,0,-123456789.125,0\n"
        b"0.5,0.29999999999999999,1.0000000000000001e-05,-7.0000000000000004e+22\n")


def test_csv_dump_prints_each_cell_by_the_per_cell_rule(tmp_path):
    # every cell reads format(v, ".17g"), joined by "," per node in C order;
    # -0.0, inf and nan included.  A field refuses non-finite values, so they
    # are put in past its check: the writer prints whatever the field holds
    rng = np.random.default_rng(5)
    special = np.array([-0.0, np.inf, -np.inf, np.nan, 0.0, 2.0 ** -1074, -1e-300])
    x = np.arange(8) * 0.25
    x[0] = -0.0
    for axes in ((x,), (x[:3], np.linspace(-1.0, 1.0, 5))):
        shape = tuple(a.size for a in axes)
        f = ComplexField(axes, rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape)
                         + 1j * rng.standard_normal(shape), HBAR)
        values = f.values.copy()
        flat = values.reshape(-1)
        flat.real[:special.size], flat.imag[:special.size] = special, special[::-1]
        object.__setattr__(f, "values", values)
        with np.errstate(invalid="ignore"):  # the metadata's norm of the inf cells
            write_field_csv(f, tmp_path / "f.csv")
        names = "x" if len(axes) == 1 else "q,p"
        rows = [",".join(format(c, ".17g") for c in (*node, v.real, v.imag))
                for node, v in zip(itertools.product(*axes), flat)]
        text = (tmp_path / "f.csv").read_bytes()
        assert text == (f"{names},re,im\n" + "\n".join(rows) + "\n").encode()
        assert text.startswith(f"{names},re,im\n-0,".encode())
        assert all(cell in text for cell in (b"inf", b"-inf", b"nan", b",-0,", b"-0\n"))


def test_transform_axes_are_checked_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the axes were checked")

    monkeypatch.setattr("phaseprop.transform._packet_blocks", forbidden)
    psi = packet_state(0.0, 0.0)
    good = np.linspace(-2.0, 2.0, 9)
    bad = np.array([-2.0, -1.0, 0.0, 0.5, 2.0])
    with pytest.raises(ConfigurationError, match="q axis"):
        wave_packet_transform(psi, (bad, good))
    with pytest.raises(ConfigurationError, match="p axis"):
        wave_packet_transform(psi, (good, bad))
    axis = np.linspace(-8.0, 8.0, 33)
    Psi = ComplexField((axis, axis), np.exp(-np.add.outer(axis ** 2, axis ** 2)), HBAR)
    with pytest.raises(ConfigurationError, match="position grid"):
        inverse_transform(Psi, bad)


# a table axis of L nodes, from none to several hundred
table_lengths = st.one_of(st.sampled_from([0, 1, 2, 3, 16, 17, 237]), st.integers(0, 400))


@settings(max_examples=200)
@given(u=st.lists(st.floats(-5.0, 5.0), max_size=30), L=table_lengths,
       v0=st.floats(-20.0, 20.0), h=st.floats(1e-3, 1.0),
       re=st.floats(-_TABLE_EXPONENT, _TABLE_EXPONENT), im=st.floats(-200.0, 200.0),
       imaginary=st.booleans())
@example(u=[], L=17, v0=-1.0, h=0.1, re=_TABLE_EXPONENT, im=10.0, imaginary=False)
@example(u=[1.0, -2.0], L=0, v0=-1.0, h=0.1, re=1.0, im=10.0, imaginary=False)
# entries up to e^690, near the largest double e^709.8: finite only if no
# factor's exponent exceeds the direct table's by more than a few nodes
@example(u=[1.0, -1.0], L=237, v0=-1.0, h=2 / 236, re=690.0, im=0.0, imaginary=False)
def test_phase_table_matches_the_direct_table(u, L, v0, h, re, im, imaginary):
    # c scales the extreme exponent c max|u| max|v| to at most re + i im: a
    # real part up to the tiled sums' bound, or none at all
    u = np.array(u)
    v = np.linspace(v0, v0 + (L - 1) * h, L)
    size = (np.abs(u).max() if u.size else 1.0) * (np.abs(v).max() if v.size else 1.0)
    c = complex(0.0 if imaginary else re, im) / max(size, 1e-6)
    got = _phase_table(u, v, c)
    want = np.exp(c * np.outer(u, v))
    assert got.shape == want.shape
    # both sides round exponents of modulus up to |c| max|u| max|v|: the
    # worst over 40 000 random draws was 2.96 eps (1 + that modulus)
    bound = 6 * np.finfo(float).eps * (1 + abs(c) * size)
    assert (np.abs(got - want) <= bound * np.abs(want)).all()


@pytest.mark.parametrize("c", [
    pytest.param(np.array([3.0j, -0.5j, 40.0j]), id="imaginary"),
    pytest.param(np.array([2.0 + 3.0j, -0.5j, -30.0 + 40.0j]), id="complex")])
def test_phase_table_takes_a_coefficient_per_row(c):
    # rows (u node, coefficient): each coefficient's rows are its own
    # scalar table, bit for bit where both take the same exponential (a
    # purely imaginary row of a complex batch takes np.exp, not _expi)
    u = np.linspace(-1.0, 1.0, 5)
    v = np.linspace(-0.7, 0.9, 23)
    got = _phase_table(u[:, None], v, c)
    assert got.shape == (5, 3, 23)
    for j, cj in enumerate(c):
        want = _phase_table(u, v, cj)
        if bool(cj.real) == bool(c.real.any()):
            assert np.array_equal(got[:, j], want)
        else:
            assert np.abs(got[:, j] - want).max() <= 4 * np.finfo(float).eps
