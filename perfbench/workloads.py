"""Seeded workloads of the phaseprop benchmark.

Each workload draws its inputs from the seed at set-up, runs one operation
per call of ``run`` (the timed part) and checks every output in ``check``
against a closed-form oracle, an invariant or a reference made with a
different integrator.  Inputs repeat with period ``pool``; references that
cost more than an operation are made once per distinct input and cached.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phaseprop import cli, flow, models, oracles, propagator, transform, wkb

HBAR = 0.05
QUARTIC = {(0, 2): 1.0, (4, 0): 1.0}   # H = p^2 + q^4, as in the acceptance suite


@dataclass
class Verdict:
    """Outcome of one output check."""

    ok: bool
    err: float     # worst relative error against an oracle or reference
    drift: float   # |norm(out) / norm(in) - 1|
    why: str = ""


def masked_rel(got, want, floor=1e-3):
    """Max relative error where ``|want|`` exceeds ``floor`` of its peak."""
    ref = np.abs(want)
    mask = ref > floor * ref.max()
    return float((np.abs(got - want)[mask] / ref[mask]).max())


def peak_rel(got, want):
    """Max absolute error over the peak of ``|want|``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def rel(got, want):
    return abs(got - want) / abs(want)


def verdict(failures, err, drift):
    return Verdict(not failures, float(err), float(drift), "; ".join(failures))


class Workload:
    """Inputs, one timed operation and its output check; ``BENCHMARK.json``
    records why each workload is there."""

    name = ""
    pool = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed % 2 ** 64)   # any int seed
        self.workdir = Path(workdir)
        self.models = self.make_models()
        self.inputs = [self.draw(k) for k in range(self.pool)]
        self._references: dict = {}

    def make_models(self) -> dict:
        return {}

    def draw(self, k: int):
        raise NotImplementedError

    def input(self, k: int):
        return self.inputs[k % self.pool]

    def reference(self, k: int, make):
        """Cached reference for the ``k``-th distinct input."""
        key = k % self.pool
        if key not in self._references:
            self._references[key] = make()
        return self._references[key]

    def run(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> Verdict:
        raise NotImplementedError

    def stamp(self) -> dict:
        return {}


# ---------------------------------------------------------------------------

RUN_CONFIG = """\
[meta]
schema_version = 1

[model]
kind = {kind}

[run]
hbar = {hbar!r}
times = {times}
rel_tolerance = {tol!r}

[initial]
kind = wkb
s0 = 0, 0, 0.5

[grid.position]
min = -8
max = 8
count = 1601

[grid.phase]
q_min = -5.5
q_max = 5.5
q_count = 81
p_min = -5.5
p_max = 5.5
p_count = 81
"""


def read_phase_csv(path) -> transform.ComplexField:
    """Read a ``q,p,re,im`` field dump back into a field."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    qs, ps = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    vals = (rows[:, 2] + 1j * rows[:, 3]).reshape(qs.size, ps.size)
    return transform.ComplexField((qs, ps), vals, HBAR)


class PhaseAffine(Workload):
    """One in-process ``phaseprop run`` on the README reference config."""

    name = "phase-affine"
    pool = 3
    KINDS = ("free", "linear", "harmonic")
    TOL = 1e-4

    def __init__(self, seed, workdir):
        self._outs = itertools.count()
        super().__init__(seed, workdir)

    def draw(self, k):
        # Times rounded so file names are exact.  The last one sits at the
        # top of the window, where the field loses the most mass off the
        # grid: the worst output of every op is then alike across seeds.
        times = [round(float(self.rng.uniform(lo, hi)), 4)
                 for lo, hi in ((0.1, 0.39), (0.4, 0.69), (0.98, 1.0))]
        kind = self.KINDS[k % 3]
        path = self.workdir / f"{self.name}-{k}.ini"
        path.write_text(RUN_CONFIG.format(
            kind=kind, hbar=HBAR, tol=self.TOL,
            times=", ".join(f"{t:.4f}" for t in times)))
        return {"kind": kind, "times": times, "config": path}

    def run(self, k):
        # every call writes to a directory of its own, checked later
        out = self.workdir / f"{self.name}-out{next(self._outs)}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", str(self.input(k)["config"]),
                           "--out-dir", str(out)])
        return rc, out

    def check(self, k, result):
        inp = self.input(k)
        rc, out = result
        failures = []
        if rc != 0:
            failures.append(f"exit code {rc}")
        report = [json.loads(line)
                  for line in (out / "report.jsonl").read_text().splitlines()]
        flagged = [e["t"] for e in report
                   if e["entry"] == "field_error" and e["within_tolerance"]]
        if flagged != inp["times"]:
            failures.append(f"within_tolerance holds only at t={flagged}")
        psi0 = read_phase_csv(out / "phase_t0.csv")
        err = drift = 0.0
        for t in inp["times"]:
            got = read_phase_csv(out / f"phase_t{t:g}.csv")
            want = oracles.exact_phase_field(inp["kind"], got.axes, t, HBAR)
            e = masked_rel(got.values, want.values)
            if e > self.TOL:
                failures.append(f"t={t}: error {e:.3e} against the oracle")
            err = max(err, e)
            drift = max(drift, abs(got.l2_norm() / psi0.l2_norm() - 1))
        return verdict(failures, err, drift)

    def stamp(self):
        return {"position_nodes": 1601, "phase_grid": [81, 81], "times_per_op": 3}


class PositionAffine(Workload):
    """``position_space_solution`` under the harmonic trap, then
    ``husimi_check`` of the result."""

    name = "position-affine"
    pool = 2
    TOL = 1e-4        # the repository's own position-solution tolerance
    HUSIMI_TOL = 1e-3

    def make_models(self):
        return {"harmonic": models.builtin_model("harmonic")}

    def __init__(self, seed, workdir):
        self.x = np.linspace(-8.0, 8.0, 1601)
        self.psi0 = transform.ComplexField(
            (self.x,), oracles.initial_position_state(self.x, HBAR), HBAR)
        super().__init__(seed, workdir)

    def draw(self, k):
        # window where the propagated state stays on the grid, stratified
        lo = 0.75 + 0.1 * k / self.pool
        return float(self.rng.uniform(lo, lo + 0.1 / self.pool))

    def run(self, k):
        out = propagator.position_space_solution(
            self.psi0, self.input(k), self.models["harmonic"])
        _hus, _conv, max_diff = transform.husimi_check(out)
        return out, max_diff

    def check(self, k, out):
        field, max_diff = out
        t = self.input(k)
        want = oracles.exact_position_solution("harmonic", self.x, t, HBAR)
        err = masked_rel(field.values, want)
        failures = []
        if err > self.TOL:
            failures.append(f"error {err:.3e} against the oracle")
        if not max_diff <= self.HUSIMI_TOL:
            failures.append(f"husimi_check max_diff {max_diff:.3e}")
        drift = abs(field.l2_norm() / self.psi0.l2_norm() - 1)
        return verdict(failures, err, drift)

    def stamp(self):
        return {"position_nodes": self.x.size}


def packet_field(axis, center) -> transform.ComplexField:
    """Closed-form transform of a unit packet: ``(2 pi hbar)^(-1/2)
    <G_X, G_center>`` on the tensor grid of ``axis``."""
    vals = np.array([[transform.overlap(models.PhasePoint(q, p), center, HBAR)
                      for p in axis] for q in axis])
    return transform.ComplexField((axis, axis), (2 * np.pi * HBAR) ** -0.5 * vals, HBAR)


class PhaseQuartic(Workload):
    """``apply_propagator`` of a packet field under ``H = p^2 + q^4``."""

    name = "phase-quartic"
    T = 0.5
    TOL = 1e-7         # against the adaptive (DOP853) reference; seen <= 5e-9
    DRIFT_TOL = 0.05   # quadrature on the coarse grid loses about 2%

    def make_models(self):
        return {"quartic": models.polynomial_model(QUARTIC)}

    def __init__(self, seed, workdir):
        self.axis = np.linspace(-2.0, 2.0, 17)
        self.opts = flow.FlowOptions(method="rk4", step=1e-2)
        super().__init__(seed, workdir)

    def draw(self, k):
        # a small window: the rk4 error against the reference, hence
        # max_rel_err_digits, moves with the centre
        c = self.rng.uniform(-0.1, 0.1, size=2)
        return packet_field(self.axis, models.PhasePoint(c[0], c[1]))

    def _propagate(self, psi0, opts):
        return propagator.apply_propagator(
            psi0, self.T, self.models["quartic"],
            out_axes=(self.axis, self.axis), opts=opts)

    def run(self, k):
        return self._propagate(self.input(k), self.opts)

    def check(self, k, out):
        psi0 = self.input(k)
        ref = self.reference(k, lambda: self._propagate(
            psi0, flow.FlowOptions(method="adaptive", step=self.T)))
        err = peak_rel(out.values, ref.values)
        drift = abs(out.l2_norm() / psi0.l2_norm() - 1)
        failures = []
        if err > self.TOL:
            failures.append(f"error {err:.3e} against the adaptive reference")
        if drift > self.DRIFT_TOL:
            failures.append(f"norm drift {drift:.3e}")
        return verdict(failures, err, drift)

    def stamp(self):
        return {"phase_grid": [self.axis.size, self.axis.size], "t": self.T,
                "step": self.opts.step}


class PointwiseWKB(Workload):
    """Lift, manifold transport, on-manifold solution values and
    two-point kernels, on the harmonic trap and the quartic model."""

    name = "pointwise-wkb"
    T_QUARTIC = 0.2
    SOLUTION_TOL = 5 * HBAR   # leading-order asymptotics
    KERNEL_TOL = 1e-9
    MANIFOLD_TOL = 1e-8
    LIFT_TOL = 5 * HBAR       # L2-relative; the lift is leading order in hbar
    SOLUTION_REF_TOL = 1e-5   # quartic value against half the step
    KERNEL_REF_TOL = 1e-7     # quartic kernels against DOP853; seen <= 2e-9
    ENERGY_TOL = 1e-6

    def make_models(self):
        return {"harmonic": models.builtin_model("harmonic"),
                "quartic": models.polynomial_model(QUARTIC)}

    def __init__(self, seed, workdir):
        self.data = wkb.WKBData(
            S0=[0.0, 0.0, 0.5], R0=wkb.GaussianPoly([np.pi ** -0.25], mu=0.0, sigma=1.0), r=2)
        self.lift_axis = np.linspace(-4.0, 4.0, 161)
        self.alpha_h = np.linspace(-2.0, 2.0, 41)
        self.alpha_q = np.linspace(-1.0, 1.0, 17)
        self.opts = flow.FlowOptions(method="rk4", step=1e-2)
        super().__init__(seed, workdir)

    def draw(self, k):
        rng = self.rng
        point = models.PhasePoint

        def harmonic_point():
            # image of the manifold point (a, a) under the harmonic rotation
            a, t = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)
            c, s = np.cos(2 * t), np.sin(2 * t)
            return point(a * (c + s), a * (c - s)), float(t)

        def pairs(n, t_lo, t_hi):
            # times stratified over [t_lo, t_hi]: an rk4 orbit's cost grows
            # with its time, so the total stays alike across seeds
            edges = np.linspace(t_lo, t_hi, n + 1)
            out = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                x, y = rng.uniform(-1.5, 1.5, size=(2, 2))
                out.append((point(*x), point(*y), float(rng.uniform(lo, hi))))
            return out

        a = float(rng.uniform(-0.8, 0.8))
        orbit = flow.integrate_characteristics(
            self.models["quartic"], point(a, a), self.T_QUARTIC,
            flow.FlowOptions(method="rk4", step=1e-3))
        return {
            "t_transport": float(rng.uniform(0.2, 1.0)),
            "harmonic_points": [harmonic_point() for _ in range(8)],
            "quartic_point": orbit.points[-1],
            "harmonic_pairs": pairs(200, 0.02, 1.0),
            "quartic_pairs": pairs(20, 0.1, 0.5),
        }

    def run(self, k):
        inp, data = self.input(k), self.data
        h, q = self.models["harmonic"], self.models["quartic"]
        return {
            "lift": wkb.lift_wkb(data, (self.lift_axis, self.lift_axis), HBAR),
            "manifold_h": wkb.transport_manifold(data, h, inp["t_transport"], self.alpha_h),
            "manifold_q": wkb.transport_manifold(data, q, self.T_QUARTIC,
                                                 self.alpha_q, self.opts),
            "solution_h": [wkb.solution_on_manifold(X, t, data, h, HBAR)
                           for X, t in inp["harmonic_points"]],
            "solution_q": wkb.solution_on_manifold(
                inp["quartic_point"], self.T_QUARTIC, data, q, HBAR, self.opts),
            "kernel_h": [propagator.kernel_Ksc(X, Y, t, h, HBAR)
                         for X, Y, t in inp["harmonic_pairs"]],
            "kernel_q": [propagator.kernel_Ksc(X, Y, t, q, HBAR)
                         for X, Y, t in inp["quartic_pairs"]],
        }

    def _make_references(self, k):
        """Quartic values made with other integrator settings: the
        on-manifold value at half the step, the kernels with DOP853."""
        inp, q = self.input(k), self.models["quartic"]
        return {
            "solution_q": wkb.solution_on_manifold(
                inp["quartic_point"], self.T_QUARTIC, self.data, q, HBAR,
                flow.FlowOptions(method="rk4", step=self.opts.step / 2)),
            "kernel_q": [propagator.kernel_Ksc(
                X, Y, t, q, HBAR, flow.FlowOptions(method="adaptive", step=t))
                for X, Y, t in inp["quartic_pairs"]],
        }

    def check(self, k, out):
        inp = self.input(k)
        ref = self.reference(k, lambda: self._make_references(k))
        failures, errs = [], []

        def expect(label, err, tol):
            errs.append(err)
            if not err <= tol:
                failures.append(f"{label}: error {err:.3e} > {tol:g}")

        lift = out["lift"]
        want = oracles.initial_phase_state(
            self.lift_axis[:, None], self.lift_axis[None, :], HBAR)
        expect("lift", np.linalg.norm(lift.values - want) / np.linalg.norm(want),
               self.LIFT_TOL)
        drift = abs(lift.l2_norm() - 1.0)   # the initial state has unit norm

        slope, offset, resid = out["manifold_h"].line_fit()
        want_slope, want_offset = oracles.exact_manifold("harmonic", inp["t_transport"])
        expect("harmonic manifold",
               max(abs(slope - want_slope), abs(offset - want_offset), resid),
               self.MANIFOLD_TOL)

        man = out["manifold_q"]
        value = self.models["quartic"].value
        e0 = np.array([value(models.PhasePoint(a, self.data.s0_prime(a)))
                       for a in man.alpha])
        e1 = np.array([value(models.PhasePoint(qq, pp))
                       for qq, pp in zip(man.q, man.p)])
        expect("quartic manifold energy", np.abs(e1 - e0).max() / np.abs(e0).max(),
               self.ENERGY_TOL)

        for (X, t), got in zip(inp["harmonic_points"], out["solution_h"]):
            expect("harmonic solution",
                   rel(got, oracles.exact_phase_solution("harmonic", X, t, HBAR)),
                   self.SOLUTION_TOL)
        expect("quartic solution", rel(out["solution_q"], ref["solution_q"]),
               self.SOLUTION_REF_TOL)
        for (X, Y, t), got in zip(inp["harmonic_pairs"], out["kernel_h"]):
            expect("harmonic kernel",
                   rel(got, oracles.exact_kernel("harmonic", X, Y, t, HBAR)),
                   self.KERNEL_TOL)
        for got, want in zip(out["kernel_q"], ref["kernel_q"]):
            expect("quartic kernel", rel(got, want), self.KERNEL_REF_TOL)
        return verdict(failures, max(errs), drift)

    def stamp(self):
        return {"lift_grid": [self.lift_axis.size] * 2,
                "alpha_harmonic": self.alpha_h.size, "alpha_quartic": self.alpha_q.size,
                "solution_points": [8, 1], "kernel_pairs": [200, 20],
                "t_quartic": self.T_QUARTIC, "step": self.opts.step}


WORKLOADS = {w.name: w for w in (PhaseAffine, PositionAffine, PhaseQuartic, PointwiseWKB)}
