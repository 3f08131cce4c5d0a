"""Configuration-driven experiment runner.

Verbs
-----
run                   lift -> propagate -> compare-to-reference pipeline;
                      writes CSV field dumps and a JSON-lines error report.
convergence           error-versus-parameter study with fitted log-log slope.
propagate-phase       dump propagated phase-space fields (no comparison).
propagate-position    dump propagated position-space states.
kernel-dump           sample the propagator kernel on the phase grid.
lift-wkb              dump the leading-order phase-space lift of WKB data.
manifold              dump the transported Lagrangian manifold samples.
solution-on-manifold  evaluate the on-manifold solution value along alpha.
oracle-dump           dump any closed-form reference display on a grid.

Configuration is a versioned INI file (``schema_version`` under ``[meta]``);
all physical parameters are runtime values.  Reports are machine-first (JSON
lines, one object per line) with a human summary on standard output.  Outputs
are deterministic: an identical config yields bit-identical CSV/JSONL files at
one BLAS thread count, whose pool changes the fields' rounding.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import pickle
import subprocess
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _csvwriter
from .errors import ConfigurationError, PhasePropError, SpacingWarning, _warn_at_caller
from .flow import FlowOptions, integrate_characteristics
from .models import HamiltonianModel, PhasePoint, builtin_model, polynomial_model
from .oracles import (
    KINDS,
    exact_action_S,
    exact_kernel,
    exact_manifold,
    exact_phase_field,
    exact_position_solution,
    initial_phase_state,
    initial_position_state,
)
from .propagator import _Kernel, _propagated_fields, _propagated_states
from .transform import (ComplexField, _csv_job, _edge_ratio, _overlap, field_metadata,
                        wave_packet_transform, write_field_csv)
from .wkb import GaussianPoly, WKBData, lift_wkb, solution_on_manifold, transport_manifold

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# The description of the verbs that take ``--config`` optionally, when none is
# given: every key it leaves out takes its schema default.
DEFAULT_CONFIG = """\
[meta]
schema_version = 1
[model]
kind = free
[run]
hbar = 0.1
[grid.position]
min = -6
max = 6
count = 601
"""


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run description parsed from the INI file."""

    model_kind: str
    model_coeffs: dict | None
    hbar: float
    times: tuple[float, ...]
    rel_tolerance: float
    initial_kind: str  # "wkb" | "packet"
    s0: tuple[float, ...]
    r0_mu: float
    r0_sigma: float
    r0_coeffs: tuple[float, ...]
    r: int
    center: tuple[float, float]
    position_axis: np.ndarray
    phase_axes: tuple[np.ndarray, np.ndarray]
    alpha_axis: np.ndarray
    convergence_parameter: str
    convergence_values: tuple[float, ...]
    kernel_y: tuple[float, float]
    kernel_t: float

    def __post_init__(self):
        # dataclasses.replace runs this again, so the flags are checked too
        if not (self.hbar > 0):
            raise ConfigurationError("[run] hbar: must be positive")
        for key in ("s0", "r0_coeffs"):
            if not getattr(self, key):
                raise ConfigurationError(f"[initial] {key}: needs at least one number")

    def model(self) -> HamiltonianModel:
        if self.model_kind == "polynomial":
            return polynomial_model(self.model_coeffs or {})
        return builtin_model(self.model_kind)

    def wkb_data(self) -> WKBData:
        r0 = GaussianPoly(np.asarray(self.r0_coeffs, dtype=float),
                          mu=self.r0_mu, sigma=self.r0_sigma)
        return WKBData(S0=np.asarray(self.s0, dtype=float), R0=r0, r=self.r)

    def position_state(self) -> ComplexField:
        x = self.position_axis
        vals = self.wkb_data().state(x, self.hbar)
        return ComplexField(axes=(x,), values=vals, hbar=self.hbar)


def _unit_norm_c0(sigma: float) -> float:
    """The constant envelope coefficient ``(sigma sqrt(pi))^(-1/2)``, which
    gives ``exp(-(x - mu)^2 / (2 sigma^2))`` unit L2 norm."""
    return float((sigma * np.sqrt(np.pi)) ** -0.5)


def _cfg_float(sec, section: str, key: str, default=None) -> float:
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigurationError(f"[{section}] {key}: required value is missing")
        return float(default)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _cfg_int(sec, section: str, key: str, default=None) -> int:
    val = _cfg_float(sec, section, key, default)
    if val != int(val):
        raise ConfigurationError(f"[{section}] {key}: expected an integer")
    return int(val)


def _cfg_floats(sec, section: str, key: str, default: str = "") -> tuple[float, ...]:
    raw = sec.get(key, default)
    items = [s.strip() for s in raw.replace(";", ",").split(",") if s.strip()]
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: not a number list: {raw!r}") from exc


def _axis_from(sections, section: str, prefix: str, lo: float, hi: float,
               count: int) -> np.ndarray:
    """The read-only uniform axis of ``[section] {prefix}min/max/count``."""
    sec = sections.get(section, {})
    lo = _cfg_float(sec, section, f"{prefix}min", lo)
    hi = _cfg_float(sec, section, f"{prefix}max", hi)
    count = _cfg_int(sec, section, f"{prefix}count", count)
    if not (hi > lo) or count < 2:
        raise ConfigurationError(
            f"[{section}] {prefix}min/{prefix}max/{prefix}count: "
            "need max > min and count >= 2"
        )
    axis = np.linspace(lo, hi, count)
    axis.flags.writeable = False
    return axis


def _parse_poly_coeffs(section: str, raw: str) -> dict:
    """Parse '(i;j):c, (k;l):c' into {(i, j): c} (q-degree i, p-degree j)."""
    out: dict = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            lhs, rhs = chunk.rsplit(":", 1)
            i, j = lhs.strip().lstrip("(").rstrip(")").split(";")
            out[(int(i), int(j))] = float(rhs)
        except ValueError as exc:
            raise ConfigurationError(
                f"[{section}] coeffs: expected '(i;j):c' items, got {chunk!r}"
            ) from exc
    if not out:
        raise ConfigurationError(f"[{section}] coeffs: required for polynomial models")
    return out


class _ReadLog(dict):
    """A dict that records each key read through ``get``."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def load_config(path=None) -> RunConfig:
    """Parse and validate an INI run description; :data:`DEFAULT_CONFIG`
    without ``path``.  A section or key that the parse does not read is an
    error, so a misspelled one is never silently ignored."""
    cfg = configparser.ConfigParser()
    try:
        if path is None:
            cfg.read_string(DEFAULT_CONFIG)
        elif not cfg.read(path):
            raise ConfigurationError(f"config file not found: {path}")
        sections = _ReadLog((name, _ReadLog(cfg[name])) for name in cfg.sections())
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error in {path}: {exc}") from exc

    meta = sections.get("meta")
    if meta is None:
        raise ConfigurationError("[meta] schema_version: required value is missing")
    version = _cfg_int(meta, "meta", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"[meta] schema_version: unsupported version {version} (expected {SCHEMA_VERSION})"
        )

    model_sec = sections.get("model", {})
    kind = (model_sec.get("kind") or "").strip()
    if kind not in (*KINDS, "polynomial"):
        raise ConfigurationError(
            f"[model] kind: unknown model kind {kind!r}; "
            f"expected one of {(*KINDS, 'polynomial')}"
        )
    coeffs = None
    if kind == "polynomial":
        coeffs = _parse_poly_coeffs("model", model_sec.get("coeffs", ""))

    run_sec = sections.get("run", {})
    hbar = _cfg_float(run_sec, "run", "hbar", 0.05)
    times = _cfg_floats(run_sec, "run", "times", "")
    if any(t < 0 for t in times) or list(times) != sorted(times):
        raise ConfigurationError("[run] times: must be >= 0 and ascending")
    for a, b in zip(times, times[1:]):  # ascending, so equal file names are neighbours
        if a and f"{a:g}" == f"{b:g}":
            raise ConfigurationError(
                f"[run] times: {a!r} and {b!r} both write phase_t{a:g}.csv "
                f"and position_t{a:g}.csv")
    rel_tol = _cfg_float(run_sec, "run", "rel_tolerance", 1e-4)

    init_sec = sections.get("initial", {})
    initial_kind = (init_sec.get("kind", "wkb") or "wkb").strip()
    if initial_kind not in ("wkb", "packet"):
        raise ConfigurationError(
            f"[initial] kind: unknown initial-data kind {initial_kind!r}"
        )
    s0 = _cfg_floats(init_sec, "initial", "s0", "0, 0, 0.5")
    r0_mu = _cfg_float(init_sec, "initial", "r0_mu", 0.0)
    r0_sigma = _cfg_float(init_sec, "initial", "r0_sigma", 1.0)
    r0_coeffs = _cfg_floats(init_sec, "initial", "r0_coeffs",
                            f"{_unit_norm_c0(r0_sigma)!r}")
    r = _cfg_int(init_sec, "initial", "r", 2)
    center = (
        _cfg_float(init_sec, "initial", "center_q", 0.0),
        _cfg_float(init_sec, "initial", "center_p", 0.0),
    )

    conv_sec = sections.get("convergence", {})
    conv_param = (conv_sec.get("parameter", "hbar") or "hbar").strip()
    if conv_param not in ("hbar", "grid-spacing", "step"):
        raise ConfigurationError(
            f"[convergence] parameter: unknown parameter {conv_param!r}"
        )
    conv_values = _cfg_floats(conv_sec, "convergence", "values", "0.1, 0.05, 0.025")

    kern_sec = sections.get("kernel", {})
    kernel_y = (
        _cfg_float(kern_sec, "kernel", "y_q", 0.5),
        _cfg_float(kern_sec, "kernel", "y_p", 0.1),
    )
    kernel_t = _cfg_float(kern_sec, "kernel", "t", 0.5)

    config = RunConfig(
        model_kind=kind,
        model_coeffs=coeffs,
        hbar=hbar,
        times=times,
        rel_tolerance=rel_tol,
        initial_kind=initial_kind,
        s0=s0,
        r0_mu=r0_mu,
        r0_sigma=r0_sigma,
        r0_coeffs=r0_coeffs,
        r=r,
        center=center,
        position_axis=_axis_from(sections, "grid.position", "", -8.0, 8.0, 1601),
        phase_axes=tuple(_axis_from(sections, "grid.phase", f"{c}_", -5.5, 5.5, 81)
                         for c in "qp"),
        alpha_axis=_axis_from(sections, "grid.alpha", "", -2.0, 2.0, 41),
        convergence_parameter=conv_param,
        convergence_values=conv_values,
        kernel_y=kernel_y,
        kernel_t=kernel_t,
    )
    unread = []
    for name, sec in sections.items():
        if name not in sections.read:
            unread.append(f"[{name}]")
        else:
            unread += [f"[{name}] {key}" for key in sec if key not in sec.read]
    if unread:
        raise ConfigurationError(
            f"{', '.join(unread)}: not read (misspelled, or unused by this description)")
    return config


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

class Report:
    """Collects JSON-lines entries; writes them deterministically."""

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def add(self, entry: str, **fields) -> None:
        self.entries.append({"entry": entry, **fields})

    def write(self, path: Path) -> None:
        with open(path, "w", newline="\n") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _record_warnings(report: Report, caught) -> None:
    for w in caught:
        report.add("warning", category=type(w.message).__name__,
                   message=str(w.message))


@contextmanager
def _caught_warnings():
    """Record every warning the block emits into the yielded list."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


@contextmanager
def _printed_warnings():
    """Record every warning the block emits, then print each one."""
    with _caught_warnings() as caught:
        yield
    for w in caught:
        print(f"warning: {w.message}")


def _write_table(path: Path, header: str, rows) -> None:
    """Write a CSV table: the ``header`` line, then rows of ``.17g`` cells."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _initial_phase_field(config: RunConfig) -> ComplexField:
    """Exact initial phase-space field for the run pipeline.

    WKB initial data is transformed numerically (the transform of the data is
    exact up to quadrature error); packet initial data uses the closed-form
    transform of a Gaussian packet.
    """
    axes = config.phase_axes
    if config.initial_kind == "wkb":
        return wave_packet_transform(config.position_state(), axes)
    # the transform of a packet is (2 pi hbar)^{-1/2} times its overlap
    Q, P = np.meshgrid(*axes, indexing="ij")
    vals = (2 * np.pi * config.hbar) ** -0.5 * _overlap(Q, P, *config.center, config.hbar)
    return ComplexField(axes=axes, values=vals, hbar=config.hbar)


def _field_errors(got: ComplexField, want: ComplexField, where=None) -> dict:
    """Pointwise-relative (NaN if none) and L2-relative errors; the pointwise
    one where ``|want|`` exceeds 1e-3 of its peak, within ``where`` if given."""
    diff = np.abs(got.values - want.values)
    ref = np.abs(want.values)
    mask = ref > 1e-3 * float(ref.max())
    if where is not None:
        mask &= where
    max_rel = float((diff[mask] / ref[mask]).max()) if mask.any() else float("nan")
    l2_rel = float(np.sqrt((diff ** 2).sum() / (ref ** 2).sum()))
    return {"max_rel": max_rel, "l2_rel": l2_rel}


def _on_manifold_error(got: ComplexField, want: ComplexField,
                       slope: float, offset: float) -> float | None:
    """:func:`_field_errors`' pointwise error within half a spacing of the line."""
    qa, pa = got.axes
    Q, P = np.meshgrid(qa, pa, indexing="ij")
    half = 0.5 * max(got.spacing(0), got.spacing(1))
    err = _field_errors(got, want, np.abs(P - (slope * Q + offset)) <= half)["max_rel"]
    return None if np.isnan(err) else err


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _dump_writer(dumps: int):
    """Yield ``write(field, path)``, which writes a field dump and returns its
    :func:`field_metadata`, for a verb that writes ``dumps`` dumps.

    With more than one dump and at least two CPUs, ``write`` sends each dump
    to one writer process (:mod:`._csvwriter` run as a script), which
    formats and writes the file while this process computes the next field,
    and returns the metadata at once.  Leaving the block closes the pipe and
    waits for the child, even on an error, so no process outlives the verb;
    a failed write then raises here with the exception the child met.
    Otherwise ``write`` is :func:`write_field_csv`: with one CPU the child
    only adds its start and the pipe to the same work, and with one dump
    there is no next field to overlap (``BENCH_28.json``, ``path_choice``).
    Both paths run the one formatter, so the files are the same bytes."""
    if dumps < 2 or _cpu_count() < 2 or not sys.executable:
        yield write_field_csv
        return
    child = subprocess.Popen([sys.executable, "-I", "-S", _csvwriter.__file__],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def write(field: ComplexField, path: Path) -> dict:
        # a child that has ended fails this send with BrokenPipeError, which
        # leaves the block; the finally then raises what ended the child
        child.stdin.write(_csvwriter.job_record(_csv_job(field, path)))
        child.stdin.flush()
        return field_metadata(field, path=str(path))

    try:
        yield write
    finally:
        error = child.communicate()[0]
        if error:
            raise pickle.loads(error)
        if child.returncode:
            raise ChildProcessError(f"the field writer exited with code {child.returncode}")


def _phase_dumps(config: RunConfig, times, out_dir: Path, write):
    """Write ``phase_t0.csv`` for the initial phase field, then propagate it
    to the nonzero ``times`` (:func:`_propagated_fields`) and write each
    ``phase_t<t>.csv``, each through ``write`` (a :func:`_dump_writer`'s);
    yields ``(t, field, file name, field metadata)`` after each write, before
    the next time's sum starts.  On the writer process's path a file may
    still be in the making when its tuple is yielded."""
    model = config.model()
    Psi0 = _initial_phase_field(config)
    yield 0.0, Psi0, "phase_t0.csv", write(Psi0, out_dir / "phase_t0.csv")
    for t, Psi_t in zip(times, _propagated_fields(Psi0, times, model, out_axes=Psi0.axes)):
        name = f"phase_t{t:g}.csv"
        yield t, Psi_t, name, write(Psi_t, out_dir / name)


def _is_reference_state(config: RunConfig) -> bool:
    """Whether the WKB initial state is the oracles' reference state on the
    position axis, to 1e-12 of its peak."""
    want = initial_position_state(config.position_axis, config.hbar)
    diff = np.abs(config.position_state().values - want).max()
    return bool(diff <= 1e-12 * np.abs(want).max())


def _verb_run(args, config: RunConfig, out_dir: Path) -> int:
    report = Report()
    report.add("config", schema_version=SCHEMA_VERSION, model=config.model_kind,
               hbar=config.hbar, times=list(config.times),
               rel_tolerance=config.rel_tolerance)
    reference = config.model_kind in KINDS and config.initial_kind == "wkb" \
        and _is_reference_state(config)

    ok = True
    times = [t for t in config.times if t != 0.0]  # t = 0 dumps the initial field
    with _caught_warnings() as caught, _dump_writer(1 + len(times)) as write:
        for t, Psi_t, name, meta in _phase_dumps(config, times, out_dir, write):
            # t = 0 projection check: the transform restricted to t = 0 must
            # reproduce the closed-form initial phase state (reference data)
            if t == 0.0 and reference:
                qa, pa = Psi_t.axes
                want0 = initial_phase_state(qa[:, None], pa[None, :], config.hbar)
                err0 = _field_errors(Psi_t, ComplexField(axes=Psi_t.axes, values=want0,
                                                         hbar=config.hbar))
                report.add("t0_projection", **err0)
            report.add("field_dump", t=t, path=name, norm=meta["norm"],
                       edge=_edge_ratio(Psi_t.values))
            if t != 0.0 and reference:
                want = exact_phase_field(config.model_kind, Psi_t.axes, t, config.hbar)
                errs = _field_errors(Psi_t, want)
                entry = dict(errs)
                try:
                    slope, offset = exact_manifold(config.model_kind, t)
                    entry["on_manifold_max_rel"] = _on_manifold_error(
                        Psi_t, want, slope, offset)
                except PhasePropError:
                    entry["on_manifold_max_rel"] = None
                entry["within_tolerance"] = bool(errs["max_rel"] <= config.rel_tolerance)
                ok &= entry["within_tolerance"]
                report.add("field_error", t=t, **entry)
    _record_warnings(report, caught)

    report.add("summary", status="ok" if ok else "tolerance-exceeded")
    report.write(out_dir / "report.jsonl")
    for entry in report.entries:
        if entry["entry"] == "field_error":
            print(f"t={entry['t']:g}: max rel err {entry['max_rel']:.3e} "
                  f"(tolerance {config.rel_tolerance:g})")
    print(f"run: {'ok' if ok else 'TOLERANCE EXCEEDED'}; "
          f"report written to {out_dir / 'report.jsonl'}")
    return 0 if ok else 1


def _fit_slope(values, errors) -> float:
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    good = errors > 0
    fit = np.polyfit(np.log(values[good]), np.log(errors[good]), 1)
    return float(fit[0])


def _verb_convergence(args, config: RunConfig, out_dir: Path) -> int:
    parameter = args.parameter or config.convergence_parameter
    values = config.convergence_values
    if len(values) < 3:
        raise ConfigurationError("[convergence] values: need at least 3 parameter values")
    report = Report()
    rows: list[tuple[float, float]] = []

    if parameter == "hbar":
        data = config.wkb_data()
        x = config.position_axis
        axes = config.phase_axes
        reach = float(np.abs(axes[1]).max())
        # the warnings of every analysis and lift, and one for each hbar whose
        # p axis the position grid cannot resolve, go to the report
        with _caught_warnings() as caught:
            for hb in values:
                psi = ComplexField(axes=(x,), values=data.state(x, hb), hbar=hb)
                nyq = np.pi * hb / psi.spacing()
                if reach > nyq:
                    _warn_at_caller(
                        f"hbar = {hb:g}: the p axis reaches {reach:.4g}, past the "
                        f"pi hbar / dx = {nyq:.4g} that the position grid resolves; "
                        "the reference analysis aliases", SpacingWarning)
                want = wave_packet_transform(psi, axes)
                got = lift_wkb(data, axes, hb)
                rows.append((hb, _field_errors(got, want)["max_rel"]))
        _record_warnings(report, caught)
    elif parameter == "grid-spacing":
        # Quadrature error proxy: Cauchy increments of the squared norm under
        # grid halving.  Differencing on a fixed box cancels the (constant)
        # domain-truncation contribution and isolates pure quadrature error.
        psi = config.position_state()
        qa, pa = config.phase_axes
        norms = []
        spacings = []
        for k in range(len(values) + 1):
            fine_q = np.linspace(qa[0], qa[-1], (len(qa) - 1) * 2 ** k + 1)
            fine_p = np.linspace(pa[0], pa[-1], (len(pa) - 1) * 2 ** k + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                Psi = wave_packet_transform(psi, (fine_q, fine_p))
            norms.append(Psi.l2_norm() ** 2)
            spacings.append(float(fine_q[1] - fine_q[0]))
        for k in range(len(values)):
            rows.append((spacings[k], abs(norms[k] - norms[k + 1])))
    else:  # step
        model = config.model()
        if model.exact_flow is None:
            raise ConfigurationError(
                "[convergence] parameter=step requires a model of degree <= 2 "
                "(a closed-form reference)")
        X0 = PhasePoint(np.array([0.7]), np.array([-0.4]))
        exact = model.exact_flow(X0, 1.0)
        for h in values:
            bundle = integrate_characteristics(
                model, X0, 1.0, FlowOptions(method="rk4", step=h))
            end = bundle.point(1.0)
            err = float(np.hypot(end.q[0] - exact.q[0], end.p[0] - exact.p[0]))
            rows.append((h, err))

    slope = _fit_slope([r[0] for r in rows], [r[1] for r in rows])
    _write_table(out_dir / "convergence.csv", "parameter,error", rows)
    report.add("convergence", parameter=parameter,
               values=[r[0] for r in rows], errors=[r[1] for r in rows],
               slope=slope)
    report.write(out_dir / "report.jsonl")
    print(f"convergence ({parameter}): slope {slope:.3f}; "
          f"table written to {out_dir / 'convergence.csv'}")
    return 0


def _verb_propagate_phase(args, config: RunConfig, out_dir: Path) -> int:
    times = [t for t in config.times if t != 0.0]
    with _printed_warnings(), _dump_writer(1 + len(times)) as write:
        n = sum(1 for _ in _phase_dumps(config, times, out_dir, write))
    print(f"propagate-phase: wrote {n} field dumps to {out_dir}")
    return 0


def _verb_propagate_position(args, config: RunConfig, out_dir: Path) -> int:
    model = config.model()
    psi0 = config.position_state()
    times = [t for t in config.times if t != 0.0]
    with _printed_warnings(), _dump_writer(1 + len(times)) as write:
        write(psi0, out_dir / "position_t0.csv")
        for t, psi_t in zip(times, _propagated_states(psi0, times, model)):
            write(psi_t, out_dir / f"position_t{t:g}.csv")
    print(f"propagate-position: wrote {1 + len(times)} state dumps to {out_dir}")
    return 0


def _verb_kernel_dump(args, config: RunConfig, out_dir: Path) -> int:
    model = config.model()
    Y = PhasePoint(np.array([config.kernel_y[0]]), np.array([config.kernel_y[1]]))
    t = config.kernel_t
    qa, pa = config.phase_axes
    kernel = _Kernel.launched(model, Y.q, Y.p, t)  # the one orbit, from Y
    X = np.stack(np.meshgrid(qa, pa, indexing="ij"), axis=-1)
    write_field_csv(ComplexField((qa, pa), kernel.values(X, config.hbar)[..., 0],
                                 config.hbar), out_dir / "kernel.csv")
    print(f"kernel-dump: K(., Y=({Y.q[0]:g},{Y.p[0]:g}), t={t:g}) "
          f"written to {out_dir / 'kernel.csv'}")
    return 0


def _flag_floats(flag: str, raw: str) -> list[float]:
    """The comma-separated numbers of a flag's value."""
    values = []
    for item in raw.split(","):
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigurationError(f"{flag}: not a number: {item!r}") from None
    return values


def _with_flags(config: RunConfig, args) -> RunConfig:
    """``config`` with the ``--s0``, ``--r0``, ``--hbar`` and ``--model`` that
    the verb was given in place of its fields."""
    flags = vars(args)
    changes: dict = {}
    if flags.get("s0") is not None:
        changes["s0"] = tuple(_flag_floats("--s0", flags["s0"]))
    if flags.get("r0") is not None:
        parts = _flag_floats("--r0", flags["r0"])
        if len(parts) < 2:
            raise ConfigurationError("--r0: expected 'mu,sigma[,c0,c1,...]'")
        mu, sigma, *coeffs = parts
        changes.update(r0_mu=mu, r0_sigma=sigma,
                       r0_coeffs=tuple(coeffs) or (_unit_norm_c0(sigma),))
    if flags.get("hbar") is not None:
        changes["hbar"] = flags["hbar"]
    if flags.get("model"):
        changes.update(model_kind=flags["model"], model_coeffs=None)
    return replace(config, **changes)


def _verb_lift_wkb(args, config: RunConfig, out_dir: Path) -> int:
    data = config.wkb_data()
    with _printed_warnings():
        fld = lift_wkb(data, config.phase_axes, config.hbar)
    out = Path(args.out) if args.out else out_dir / "lift.csv"
    meta = write_field_csv(fld, out)
    print(f"lift-wkb: field written to {out} (norm {meta['norm']:.6g})")
    return 0


def _verb_manifold(args, config: RunConfig, out_dir: Path) -> int:
    data = config.wkb_data()
    model = config.model()
    t = args.t
    manifold = transport_manifold(data, model, t, config.alpha_axis)
    slope, offset, resid = manifold.line_fit()
    out = Path(args.out) if args.out else out_dir / "manifold.csv"
    _write_table(out, "alpha,q,p,S",
                 zip(manifold.alpha, manifold.q, manifold.p, manifold.phase))
    print(f"manifold: t={t:g}, line fit p = {slope:.8g} q + {offset:.8g} "
          f"(max residual {resid:.3g}); samples written to {out}")
    return 0


def _verb_solution_on_manifold(args, config: RunConfig, out_dir: Path) -> int:
    data = config.wkb_data()
    model = config.model()
    t = args.t
    if args.alpha:
        alphas = np.asarray(_flag_floats("--alpha", args.alpha))
    else:
        alphas = np.linspace(-1.0, 1.0, 9)
    out = Path(args.out) if args.out else out_dir / "solution_on_manifold.csv"
    manifold = transport_manifold(data, model, t, alphas)

    def rows():
        for a, q, p in zip(alphas, manifold.q, manifold.p):
            val = solution_on_manifold(PhasePoint(np.array([q]), np.array([p])),
                                       t, data, model, config.hbar)
            yield a, q, p, val.real, val.imag

    _write_table(out, "alpha,q,p,re,im", rows())
    print(f"solution-on-manifold: {alphas.size} values at t={t:g} written to {out}")
    return 0


def _verb_oracle_dump(args, config: RunConfig, out_dir: Path) -> int:
    kind = args.kind
    if kind not in KINDS:
        raise ConfigurationError(
            f"--kind: unknown reference model kind {kind!r}; expected one of {KINDS}")
    hbar = config.hbar
    t = args.t
    what = args.what
    out = Path(args.out) if args.out else out_dir / f"oracle_{what}.csv"
    x_axis = config.position_axis
    axes = config.phase_axes

    if what == "phase":
        with _printed_warnings():
            fld = exact_phase_field(kind, axes, t, hbar)
        write_field_csv(fld, out)
    elif what == "position":
        vals = exact_position_solution(kind, x_axis, t, hbar)
        write_field_csv(ComplexField(axes=(x_axis,), values=vals, hbar=hbar), out)
    elif what == "kernel":
        Y = PhasePoint(np.array([args.y_q]), np.array([args.y_p]))
        qa, pa = axes
        vals = np.empty((qa.size, pa.size), dtype=complex)
        for i, q in enumerate(qa):
            for j, p in enumerate(pa):
                vals[i, j] = exact_kernel(kind, PhasePoint(np.array([q]),
                                                           np.array([p])), Y, t, hbar)
        write_field_csv(ComplexField(axes=(qa, pa), values=vals, hbar=hbar), out)
    elif what == "manifold":
        _write_table(out, "t,slope,offset", [(t, *exact_manifold(kind, t))])
    else:  # action; argparse's choices admit no other display
        _write_table(out, "x,S", zip(x_axis, exact_action_S(kind, x_axis, t)))
    print(f"oracle-dump: {kind} {what} at t={t:g} written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseprop",
        description="Phase-space semiclassical propagation experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, func, help_text: str, needs_config: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=needs_config,
                       help="INI run description (schema_version 1)")
        p.add_argument("--out-dir", default=".", help="output directory")
        return p

    verb("run", _verb_run, "full pipeline with error report")
    p = verb("convergence", _verb_convergence, "error-versus-parameter study")
    p.add_argument("--parameter", choices=("hbar", "grid-spacing", "step"))
    verb("propagate-phase", _verb_propagate_phase, "dump propagated phase fields")
    verb("propagate-position", _verb_propagate_position, "dump propagated states")
    verb("kernel-dump", _verb_kernel_dump, "sample the propagator kernel")

    for name, func, help_text in (
        ("lift-wkb", _verb_lift_wkb, "dump the leading-order phase-space lift"),
        ("manifold", _verb_manifold, "dump the transported manifold"),
        ("solution-on-manifold", _verb_solution_on_manifold,
         "evaluate the on-manifold solution"),
    ):
        p = verb(name, func, help_text, needs_config=False)
        p.add_argument("--s0", help="phase polynomial coefficients c0,c1,...")
        p.add_argument("--r0", help="amplitude spec mu,sigma[,c0,c1,...]")
        p.add_argument("--hbar", type=float)
        if name != "lift-wkb":
            p.add_argument("--t", type=float, default=0.5)
        p.add_argument("--out")
        p.add_argument("--model", choices=KINDS)
        if name == "solution-on-manifold":
            p.add_argument("--alpha", help="comma-separated manifold parameters")

    p = verb("oracle-dump", _verb_oracle_dump, "dump a closed-form display",
             needs_config=False)
    p.add_argument("--kind", required=True)
    p.add_argument("--what", default="phase",
                   choices=("phase", "position", "kernel", "manifold", "action"))
    p.add_argument("--hbar", type=float)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--y-q", type=float, default=0.5)
    p.add_argument("--y-p", type=float, default=0.1)
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        config = _with_flags(load_config(args.config), args)
        return args.func(args, config, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PhasePropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
