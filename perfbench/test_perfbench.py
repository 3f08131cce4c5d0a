"""Tests of the benchmark itself: every output check accepts a correct
output and rejects a deliberately perturbed one; the tracer's self times
add up; the runner refuses to run without the program's sources.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
from phaseprop import models, oracles, propagator, transform, wkb  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import (HBAR, PhaseAffine, PhaseQuartic, PointwiseWKB,  # noqa: E402
                       PositionAffine, read_phase_csv)


def scaled_at_peak(values, factor):
    out = np.array(values, copy=True)
    idx = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    out[idx] *= factor
    return out


def write_exact_run(wl, k, out, within=True):
    """The files a correct ``phaseprop run`` writes for input ``k``."""
    inp = wl.input(k)
    out.mkdir()
    axes = (np.linspace(-5.5, 5.5, 81),) * 2
    psi0 = oracles.initial_phase_state(axes[0][:, None], axes[1][None, :], HBAR)
    transform.write_field_csv(transform.ComplexField(axes, psi0, HBAR),
                              out / "phase_t0.csv")
    lines = []
    for t in inp["times"]:
        transform.write_field_csv(
            oracles.exact_phase_field(inp["kind"], axes, t, HBAR),
            out / f"phase_t{t:g}.csv")
        lines.append(json.dumps({"entry": "field_error", "t": t,
                                 "within_tolerance": within}))
    (out / "report.jsonl").write_text("\n".join(lines) + "\n")


def test_phase_affine_check_rejects_perturbed_run(tmp_path):
    wl = PhaseAffine(7, tmp_path)
    good = tmp_path / "good"
    write_exact_run(wl, 1, good)
    v = wl.check(1, (0, good))
    assert v.ok and v.err == 0.0, v.why

    assert not wl.check(1, (1, good)).ok   # exit code of a failed run

    flagged = tmp_path / "flagged"
    write_exact_run(wl, 1, flagged, within=False)
    assert not wl.check(1, (0, flagged)).ok

    t = wl.input(1)["times"][1]
    path = good / f"phase_t{t:g}.csv"
    field = read_phase_csv(path)
    transform.write_field_csv(
        dataclasses.replace(field, values=scaled_at_peak(field.values, 1 + 1e-3)), path)
    v = wl.check(1, (0, good))
    assert not v.ok and "against the oracle" in v.why


def test_position_affine_check_rejects_perturbed_solution(tmp_path):
    wl = PositionAffine(7, tmp_path)
    t = wl.input(0)
    exact = transform.ComplexField(
        (wl.x,), oracles.exact_position_solution("harmonic", wl.x, t, HBAR), HBAR)
    assert wl.check(0, (exact, 1e-6)).ok
    bad = dataclasses.replace(exact, values=scaled_at_peak(exact.values, 1 + 1e-3))
    assert not wl.check(0, (bad, 1e-6)).ok
    assert not wl.check(0, (exact, 2e-3)).ok   # husimi_check disagreement


def test_phase_quartic_check_rejects_perturbed_field(tmp_path):
    wl = PhaseQuartic(7, tmp_path)
    psi0 = wl.input(0)
    wl._references[0] = psi0          # stands in for the DOP853 reference
    assert wl.check(0, psi0).ok
    nudged = dataclasses.replace(
        psi0, values=scaled_at_peak(psi0.values, 1 + 1e-5))
    assert not wl.check(0, nudged).ok
    # a field that matches its reference but lost norm fails the invariant
    grown = dataclasses.replace(psi0, values=1.1 * psi0.values)
    wl._references[0] = grown
    v = wl.check(0, grown)
    assert not v.ok and "norm drift" in v.why


def exact_wkb_output(wl, k):
    inp = wl.input(k)
    ax = wl.lift_axis
    lift = transform.ComplexField(
        (ax, ax), oracles.initial_phase_state(ax[:, None], ax[None, :], HBAR), HBAR)
    t = inp["t_transport"]
    c, s = np.cos(2 * t), np.sin(2 * t)
    a = wl.alpha_h
    man_h = wkb.LagrangianManifold(a, a * (c + s), a * (c - s), np.zeros_like(a), t)
    man_q = wkb.transport_manifold(wl.data, wl.models["quartic"], wl.T_QUARTIC,
                                   wl.alpha_q, wl.opts)
    return {
        "lift": lift, "manifold_h": man_h, "manifold_q": man_q,
        "solution_h": [oracles.exact_phase_solution("harmonic", X, t, HBAR)
                       for X, t in inp["harmonic_points"]],
        "solution_q": 0.9 + 0.3j,
        "kernel_h": [oracles.exact_kernel("harmonic", X, Y, t, HBAR)
                     for X, Y, t in inp["harmonic_pairs"]],
        "kernel_q": [0.1j * (i + 1) for i in range(len(inp["quartic_pairs"]))],
    }


def test_pointwise_wkb_check_rejects_each_perturbed_part(tmp_path):
    wl = PointwiseWKB(7, tmp_path)
    good = exact_wkb_output(wl, 0)
    wl._references[0] = {"solution_q": good["solution_q"],
                         "kernel_q": list(good["kernel_q"])}
    v = wl.check(0, good)
    assert v.ok, v.why

    def perturbed(key, fn):
        out = dict(good)
        out[key] = fn(good[key])
        return wl.check(0, out)

    def bump_first(values, factor):
        return [values[0] * factor, *values[1:]]

    assert not perturbed("lift", lambda f: dataclasses.replace(
        f, values=f.values * np.exp(2j * np.pi * f.axes[0][:, None]))).ok
    assert not perturbed("manifold_h", lambda m: dataclasses.replace(
        m, p=m.p + 1e-6 * m.q ** 2)).ok
    assert not perturbed("manifold_q", lambda m: dataclasses.replace(
        m, p=m.p + 1e-4)).ok
    assert not perturbed("solution_h", lambda v: bump_first(v, 1 + 10 * HBAR)).ok
    assert not perturbed("solution_q", lambda v: v * (1 + 1e-4)).ok
    assert not perturbed("kernel_h", lambda v: bump_first(v, 1 + 1e-8)).ok
    assert not perturbed("kernel_q", lambda v: bump_first(v, 1 + 1e-4)).ok


@pytest.mark.filterwarnings("ignore")
def test_tracer_self_times_cover_the_operation_and_restore_modules():
    class Tiny:
        models = {"free": models.builtin_model("free")}

    wl = Tiny()
    axis = np.linspace(-2.0, 2.0, 9)
    psi0 = transform.ComplexField(
        (axis, axis), oracles.initial_phase_state(axis[:, None], axis[None, :], 0.5), 0.5)
    original = propagator.integrate_characteristics
    tracer = Tracer()
    with tracer.installed(wl), tracer.operation(0):
        assert propagator.integrate_characteristics is not original
        propagator.apply_propagator(psi0, 0.3, wl.models["free"], out_axes=(axis, axis))
    assert propagator.integrate_characteristics is original
    assert not hasattr(wl.models["free"].gradient, "__wrapped__")

    totals, _ = tracer.layer_totals()
    root = totals["op"]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root["incl_s"])
    assert totals["propagator.apply"]["counts"]["pairs"] == 81 * 81
    assert totals["flow.integrate"]["calls"] >= 1
    assert totals["models.closed_form"]["calls"] >= 1
    m = per_layer_metrics(tracer, 1, 1.0)
    assert m["propagator.apply.pairs_per_s"]["value"] > 0
    assert m["wkb.solution.calls"]["value"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in m.items()} == \
        {d["name"]: d["unit"] for d in spec["per_layer"]}


def test_scaled_call_takes_the_probes_out_and_keeps_errors():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    secs, wall, out, exc = hostspeed.scaled_call(busy, 0.5)
    assert out == "done" and exc is None
    assert secs > 0 and wall >= 0.5
    speed = hostspeed.HostSpeed()
    with speed.sampling():
        busy(0.5)
    assert len(speed.probes) >= 3 and 0 < speed.spent < 0.5
    assert speed.scale() == hostspeed.REFERENCE_S / statistics.median(speed.probes)

    _secs, _wall, out, exc = hostspeed.scaled_call(lambda: 1 / 0)
    assert out is None and isinstance(exc, ZeroDivisionError)


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase-affine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
