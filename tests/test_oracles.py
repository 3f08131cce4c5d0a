from __future__ import annotations

import warnings

import numpy as np
import pytest

from phaseprop import (
    CausticError,
    ConfigurationError,
    PhasePoint,
    bergmann_kernel,
)
from phaseprop.oracles import (
    KINDS,
    exact_action_S,
    exact_kernel,
    exact_manifold,
    exact_phase_field,
    exact_phase_solution,
    exact_position_solution,
    exact_van_vleck,
    harmonic_vertical_time,
    initial_phase_state,
    initial_position_state,
    load_deviations,
)

HBAR = 0.1

# Frozen reference values.  Each was cross-checked during development
# against symbolic derivations and against direct quadrature/finite-
# difference solutions of the evolution equation; they pin the closed
# forms against regressions.
POSITION_FROZEN = {
    ("free", 0.3): 0.02949817922533273 + 0.538697371681118j,
    ("free", 1.0): 0.2981782327210361 + 0.2980537430851559j,
    ("linear", 0.3): 0.5087316391253084 - 0.13199654697210103j,
    ("linear", 1.0): 0.27166494154610565 + 0.2499996297253324j,
    ("harmonic", 0.3): 0.5066217021944072 + 0.2412023783463213j,
    ("harmonic", 1.0): 0.3913065020937797 - 0.0847225848039875j,
}
PHASE_FROZEN = {
    ("free", 0.6): 0.1902445086023278 + 0.15725019854081052j,
    ("linear", 0.6): 0.3081881133046074 - 0.5140261157165823j,
    ("harmonic", 0.6): 0.7304622109262894 + 0.015656129351452497j,
}
KERNEL_FROZEN = {
    "free": 0.8804474080109881 + 0.5208895630606867j,
    "linear": 0.5444899882489228 - 0.2640932744486928j,
    "harmonic": 1.3871911233263994 - 0.18719534900604962j,
}
VAN_VLECK_FROZEN = {
    ("free", 0.8): -0.9867823262068207 + 0.1448414133119431j,
    ("linear", 0.8): 0.9709061358501505 - 0.22816588196501786j,
    ("harmonic", 0.6): -1.2304448824033818 + 0.44000550193735005j,
    ("harmonic", 2.0): 0.7039642218391059 - 1.2678431132927874j,
}


def test_initial_position_state_is_normalized():
    x = np.linspace(-8.0, 8.0, 3201)
    v = initial_position_state(x, HBAR)
    nrm = np.sqrt(np.sum(np.abs(v) ** 2) * (x[1] - x[0]))
    assert nrm == pytest.approx(1.0, abs=1e-10)
    assert complex(initial_position_state(np.array([0.7]), HBAR)[0]) \
        == pytest.approx(-0.45282617320224766 + 0.374947845797622j, rel=1e-12)


def test_solutions_reduce_to_initial_data_at_time_zero():
    x = np.linspace(-3.0, 3.0, 11)
    X = PhasePoint(0.4, -0.3)
    for kind in KINDS:
        p0 = exact_position_solution(kind, x, 0.0, HBAR)
        assert np.abs(p0 - initial_position_state(x, HBAR)).max() < 1e-12
        f0 = exact_phase_solution(kind, X, 0.0, HBAR)
        assert abs(f0 - initial_phase_state(0.4, -0.3, HBAR)) < 1e-12


def test_frozen_position_solutions():
    x = np.array([0.7])
    for (kind, t), want in POSITION_FROZEN.items():
        got = complex(exact_position_solution(kind, x, t, HBAR)[0])
        assert got == pytest.approx(want, rel=1e-12), (kind, t)


def test_frozen_phase_solutions():
    X = PhasePoint(0.4, -0.3)
    for (kind, t), want in PHASE_FROZEN.items():
        got = exact_phase_solution(kind, X, t, HBAR)
        assert got == pytest.approx(want, rel=1e-12), (kind, t)


def test_position_solutions_satisfy_the_evolution_equation():
    # i hbar d/dt psi = (-hbar^2 d^2/dx^2 + V) psi by central differences
    xs = np.array([-0.9, 0.2, 1.1])
    dt, dx = 1e-5, 1e-4
    pots = {"free": lambda x: 0.0, "linear": lambda x: x,
            "harmonic": lambda x: x * x}
    for kind in KINDS:
        V = pots[kind]
        for t in (0.3, 0.8):
            for x0 in xs:
                grid = np.array([x0 - dx, x0, x0 + dx])
                up = exact_position_solution(kind, grid, t + dt, HBAR)
                dn = exact_position_solution(kind, grid, t - dt, HBAR)
                mid = exact_position_solution(kind, grid, t, HBAR)
                psi_t = (up[1] - dn[1]) / (2 * dt)
                psi_xx = (mid[0] - 2 * mid[1] + mid[2]) / dx ** 2
                res = 1j * HBAR * psi_t + HBAR ** 2 * psi_xx - V(x0) * mid[1]
                assert abs(res) < 1e-6, (kind, t, x0)


def test_position_solutions_conserve_norm():
    x = np.linspace(-12.0, 12.0, 4801)
    dx = x[1] - x[0]
    for kind in KINDS:
        v = exact_position_solution(kind, x, 0.7, HBAR)
        assert np.sum(np.abs(v) ** 2) * dx == pytest.approx(1.0, abs=1e-8), kind


def test_harmonic_position_solution_returns_at_full_period():
    x = np.linspace(-3.0, 3.0, 301)
    v0 = initial_position_state(x, HBAR)
    vpi = exact_position_solution("harmonic", x, np.pi, HBAR)
    assert np.abs(np.abs(vpi) - np.abs(v0)).max() < 1e-12


def test_frozen_kernels_and_reproducing_limit():
    X, Y = PhasePoint(0.5, 0.2), PhasePoint(-0.3, 0.4)
    for kind, want in KERNEL_FROZEN.items():
        got = exact_kernel(kind, X, Y, 0.7, HBAR)
        assert got == pytest.approx(want, rel=1e-12), kind
        at0 = exact_kernel(kind, X, Y, 0.0, HBAR)
        assert abs(at0 - bergmann_kernel(X, Y, HBAR)) < 1e-12, kind


def test_kernel_reproduces_phase_solution_by_quadrature():
    qs = np.linspace(-5.5, 5.5, 81)
    ps = np.linspace(-5.5, 5.5, 81)
    w = (qs[1] - qs[0]) * (ps[1] - ps[0])
    f0 = exact_phase_field("harmonic", (qs, ps), 0.0, HBAR)
    t = 0.6
    for (q, p) in ((0.4, -0.3), (-0.6, 0.2)):
        X = PhasePoint(q, p)
        acc = 0.0j
        for i, eta in enumerate(qs):
            Ks = np.array([exact_kernel("harmonic", X, PhasePoint(eta, xi), t, HBAR)
                           for xi in ps])
            acc += np.sum(Ks * f0.values[i]) * w
        want = exact_phase_solution("harmonic", X, t, HBAR)
        assert abs(acc - want) / abs(want) < 1e-7


def test_phase_field_matches_pointwise_solution():
    qs = np.linspace(-1.0, 1.0, 5)
    ps = np.linspace(-1.0, 1.0, 5)
    f = exact_phase_field("linear", (qs, ps), 0.4, HBAR)
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            want = exact_phase_solution("linear", PhasePoint(q, p), 0.4, HBAR)
            assert abs(f.values[i, j] - want) < 1e-14


def test_phase_field_and_solution_warn_at_singular_display_times():
    # sin 2t = 0 under the harmonic model: both the pointwise solution and
    # the field warn, then return the continued values, which agree
    qs = ps = np.linspace(-1.0, 1.0, 3)
    for t in (np.pi / 2, np.pi):
        with pytest.warns(UserWarning, match="singular at this time") as field_record:
            f = exact_phase_field("harmonic", (qs, ps), t, HBAR)
        with pytest.warns(UserWarning, match="singular at this time"):
            want = exact_phase_solution("harmonic", PhasePoint(1.0, -1.0), t, HBAR)
        assert field_record[0].filename == __file__  # blamed on the caller
        assert abs(f.values[2, 0] - want) < 1e-14
    # not at t = 0, nor at other times or under other models
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact_phase_field("harmonic", (qs, ps), 0.0, HBAR)
        exact_phase_field("harmonic", (qs, ps), 0.7, HBAR)
        exact_phase_field("free", (qs, ps), np.pi / 2, HBAR)


def test_frozen_van_vleck_and_free_literal():
    for (kind, t), want in VAN_VLECK_FROZEN.items():
        got = exact_van_vleck(kind, 0.9, -0.2, t, HBAR)
        assert got == pytest.approx(want, rel=1e-12), (kind, t)
    # independent literal for the free kernel
    x, y, t = 0.9, -0.2, 0.8
    lit = (4j * np.pi * HBAR * t) ** -0.5 \
        * np.exp(1j * (x - y) ** 2 / (4 * HBAR * t))
    assert exact_van_vleck("free", x, y, t, HBAR) == pytest.approx(lit, rel=1e-12)


def test_van_vleck_raises_at_harmonic_focal_times():
    with pytest.raises(CausticError):
        exact_van_vleck("harmonic", 0.5, 0.5, np.pi / 2, HBAR)


def test_vertical_times():
    assert harmonic_vertical_time(1) == pytest.approx(3 * np.pi / 8, abs=1e-15)
    assert harmonic_vertical_time(2) == pytest.approx(7 * np.pi / 8, abs=1e-15)
    with pytest.raises(ConfigurationError):
        harmonic_vertical_time(0)


def test_manifold_lines_and_actions():
    assert exact_manifold("free", 0.4) == (pytest.approx(1 / 1.8), 0.0)
    slope, offset = exact_manifold("linear", 0.4)
    assert slope == pytest.approx(1 / 1.8)
    assert offset == pytest.approx(-0.4 * 1.4 / 1.8)
    with pytest.raises(CausticError):
        exact_manifold("harmonic", 3 * np.pi / 8)
    with pytest.raises(CausticError, match="generating action is singular") as exc:
        exact_action_S("harmonic", np.array([0.5]), 3 * np.pi / 8)
    assert exc.value.t_star == 3 * np.pi / 8
    # p = dS/dx reproduces the line
    d = 1e-6
    for kind in KINDS:
        s, o = exact_manifold(kind, 0.4)
        x = np.array([1.1])
        dS = (exact_action_S(kind, x + d, 0.4) - exact_action_S(kind, x - d, 0.4)) \
            / (2 * d)
        assert float(dS[0]) == pytest.approx(s * 1.1 + o, abs=1e-8), kind


def test_deviations_registry_is_complete_and_well_formed():
    entries = load_deviations()
    ids = [e["id"] for e in entries]
    assert len(ids) == len(set(ids))
    expected = {
        "initial-phase-state-sign",
        "free-phase-solution-display",
        "harmonic-phase-solution-display",
        "free-kernel-display",
        "linear-kernel-display",
        "harmonic-kernel-display",
        "anisotropy-closed-form-scope",
        "double-riccati-display",
        "linear-position-propagator-display",
        "vertical-time-display",
        "initial-lift-exactness",
        "on-manifold-solution-accuracy",
    }
    assert set(ids) == expected
    for e in entries:
        assert {"id", "display", "as_printed", "adopted", "status"} <= set(e)
        assert e["status"] in {
            "corrected", "scope-limited", "structural", "tolerance-adjusted"}


POINT_2D = PhasePoint([0.1, 0.2], [0.3, -0.1])


@pytest.mark.parametrize("call, message", [
    (lambda: exact_manifold("quartic", 0.4), "unknown reference model kind 'quartic'"),
    (lambda: exact_phase_solution("free", POINT_2D, 0.4, HBAR),
     "reference solutions are one-dimensional"),
    (lambda: exact_kernel("free", POINT_2D, PhasePoint(0.0, 0.0), 0.4, HBAR),
     "reference kernels are one-dimensional"),
    (lambda: exact_van_vleck("free", 0.9, -0.2, 0.0, HBAR),
     "reference position kernels require t > 0"),
], ids=["unknown-kind", "phase-solution-2d", "kernel-2d", "van-vleck-t0"])
def test_oracles_reject_what_they_have_no_closed_form_for(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_deviations_registry_must_be_a_list(tmp_path, monkeypatch):
    from phaseprop import oracles

    (tmp_path / "deviations.json").write_text('{"id": "not-a-list"}')
    monkeypatch.setattr(oracles.resources, "files", lambda package: tmp_path)
    with pytest.raises(ConfigurationError, match="deviations registry must be a JSON list"):
        load_deviations()
