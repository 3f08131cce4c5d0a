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
are deterministic: an identical config yields bit-identical CSV/JSONL files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, PhasePropError
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
from .propagator import _Kernel, apply_propagator, position_space_solution
from .transform import (
    ComplexField,
    field_metadata,
    wave_packet_transform,
    write_field_csv,
)
from .wkb import GaussianPoly, WKBData, lift_wkb, solution_on_manifold, transport_manifold

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    """One uniform grid axis: [lo, hi] with ``count`` nodes."""

    lo: float
    hi: float
    count: int

    def build(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
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
    position_axis: AxisSpec
    q_axis: AxisSpec
    p_axis: AxisSpec
    alpha_axis: AxisSpec
    convergence_parameter: str
    convergence_values: tuple[float, ...]
    kernel_y: tuple[float, float]
    kernel_t: float

    def model(self) -> HamiltonianModel:
        if self.model_kind == "polynomial":
            return polynomial_model(self.model_coeffs or {})
        return builtin_model(self.model_kind)

    def wkb_data(self) -> WKBData:
        r0 = GaussianPoly(np.asarray(self.r0_coeffs, dtype=float),
                          mu=self.r0_mu, sigma=self.r0_sigma)
        return WKBData(S0=np.asarray(self.s0, dtype=float), R0=r0, r=self.r)

    def position_state(self) -> ComplexField:
        x = self.position_axis.build()
        vals = self.wkb_data().state(x, self.hbar)
        return ComplexField(axes=(x,), values=vals, hbar=self.hbar)

    def phase_axes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.q_axis.build(), self.p_axis.build()


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


def _axis_from(cfg, section: str, prefix: str, lo: float, hi: float, count: int) -> AxisSpec:
    sec = cfg[section] if cfg.has_section(section) else {}
    key = (lambda name: f"{prefix}{name}" if prefix else name)
    axis = AxisSpec(
        lo=_cfg_float(sec, section, key("min"), lo),
        hi=_cfg_float(sec, section, key("max"), hi),
        count=_cfg_int(sec, section, key("count"), count),
    )
    if not (axis.hi > axis.lo) or axis.count < 2:
        raise ConfigurationError(
            f"[{section}] {prefix}min/{prefix}max/{prefix}count: "
            "need max > min and count >= 2"
        )
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


def load_config(path) -> RunConfig:
    """Parse and validate an INI run description."""
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error in {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"config file not found: {path}")

    if not cfg.has_section("meta"):
        raise ConfigurationError("[meta] schema_version: required value is missing")
    version = _cfg_int(cfg["meta"], "meta", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"[meta] schema_version: unsupported version {version} (expected {SCHEMA_VERSION})"
        )

    model_sec = cfg["model"] if cfg.has_section("model") else {}
    kind = (model_sec.get("kind") or "").strip()
    if kind not in (*KINDS, "polynomial"):
        raise ConfigurationError(
            f"[model] kind: unknown model kind {kind!r}; "
            f"expected one of {(*KINDS, 'polynomial')}"
        )
    coeffs = None
    if kind == "polynomial":
        coeffs = _parse_poly_coeffs("model", model_sec.get("coeffs", ""))

    run_sec = cfg["run"] if cfg.has_section("run") else {}
    hbar = _cfg_float(run_sec, "run", "hbar", 0.05)
    if not (hbar > 0):
        raise ConfigurationError("[run] hbar: must be positive")
    times = _cfg_floats(run_sec, "run", "times", "")
    if any(t < 0 for t in times) or list(times) != sorted(times):
        raise ConfigurationError("[run] times: must be >= 0 and ascending")
    rel_tol = _cfg_float(run_sec, "run", "rel_tolerance", 1e-4)

    init_sec = cfg["initial"] if cfg.has_section("initial") else {}
    initial_kind = (init_sec.get("kind", "wkb") or "wkb").strip()
    if initial_kind not in ("wkb", "packet"):
        raise ConfigurationError(
            f"[initial] kind: unknown initial-data kind {initial_kind!r}"
        )
    s0 = _cfg_floats(init_sec, "initial", "s0", "0, 0, 0.5")
    r0_mu = _cfg_float(init_sec, "initial", "r0_mu", 0.0)
    r0_sigma = _cfg_float(init_sec, "initial", "r0_sigma", 1.0)
    default_c0 = float((r0_sigma * np.sqrt(np.pi)) ** -0.5)
    r0_coeffs = _cfg_floats(init_sec, "initial", "r0_coeffs", f"{default_c0!r}")
    r = _cfg_int(init_sec, "initial", "r", 2)
    center = (
        _cfg_float(init_sec, "initial", "center_q", 0.0),
        _cfg_float(init_sec, "initial", "center_p", 0.0),
    )

    conv_sec = cfg["convergence"] if cfg.has_section("convergence") else {}
    conv_param = (conv_sec.get("parameter", "hbar") or "hbar").strip()
    if conv_param not in ("hbar", "grid-spacing", "step"):
        raise ConfigurationError(
            f"[convergence] parameter: unknown parameter {conv_param!r}"
        )
    conv_values = _cfg_floats(conv_sec, "convergence", "values", "0.1, 0.05, 0.025")

    kern_sec = cfg["kernel"] if cfg.has_section("kernel") else {}
    kernel_y = (
        _cfg_float(kern_sec, "kernel", "y_q", 0.5),
        _cfg_float(kern_sec, "kernel", "y_p", 0.1),
    )
    kernel_t = _cfg_float(kern_sec, "kernel", "t", 0.5)

    return RunConfig(
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
        position_axis=_axis_from(cfg, "grid.position", "", -8.0, 8.0, 1601),
        q_axis=_axis_from(cfg, "grid.phase", "q_", -5.5, 5.5, 81),
        p_axis=_axis_from(cfg, "grid.phase", "p_", -5.5, 5.5, 81),
        alpha_axis=_axis_from(cfg, "grid.alpha", "", -2.0, 2.0, 41),
        convergence_parameter=conv_param,
        convergence_values=conv_values,
        kernel_y=kernel_y,
        kernel_t=kernel_t,
    )


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
def _printed_warnings():
    """Record every warning the block emits, then print each one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
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
    axes = config.phase_axes()
    if config.initial_kind == "wkb":
        return wave_packet_transform(config.position_state(), axes)
    center = PhasePoint(np.array([config.center[0]]), np.array([config.center[1]]))
    qa, pa = axes
    Q, P = np.meshgrid(qa, pa, indexing="ij")
    # <G_X, G_center> pairs evaluate in closed form; the transform of a packet
    # is (2 pi hbar)^{-1/2} times the overlap.
    dq = Q - center.q[0]
    dp = P - center.p[0]
    cross = 0.5j * (Q * center.p[0] - P * center.q[0]) / config.hbar
    vals = (2 * np.pi * config.hbar) ** -0.5 * np.exp(
        cross - (dq * dq + dp * dp) / (4 * config.hbar)
    )
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

def _phase_dumps(config: RunConfig, model: HamiltonianModel, out_dir: Path):
    """Write ``phase_t0.csv`` for the initial phase field, then propagate it
    to each nonzero time and write ``phase_t<t>.csv``; yields
    ``(t, field, file name, write_field_csv metadata)`` after each write."""
    Psi0 = _initial_phase_field(config)
    yield 0.0, Psi0, "phase_t0.csv", write_field_csv(Psi0, out_dir / "phase_t0.csv")
    for t in config.times:
        if t == 0.0:
            continue
        Psi_t = apply_propagator(Psi0, t, model, out_axes=Psi0.axes)
        name = f"phase_t{t:g}.csv"
        yield t, Psi_t, name, write_field_csv(Psi_t, out_dir / name)


def _verb_run(args, config: RunConfig, out_dir: Path) -> int:
    report = Report()
    report.add("config", schema_version=SCHEMA_VERSION, model=config.model_kind,
               hbar=config.hbar, times=list(config.times),
               rel_tolerance=config.rel_tolerance)
    model = config.model()
    reference = config.model_kind in KINDS and config.initial_kind == "wkb" \
        and tuple(config.s0) == (0.0, 0.0, 0.5) \
        and (config.r0_mu, config.r0_sigma) == (0.0, 1.0)

    ok = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for t, Psi_t, name, meta in _phase_dumps(config, model, out_dir):
            # t = 0 projection check: the transform restricted to t = 0 must
            # reproduce the closed-form initial phase state (reference data)
            if t == 0.0 and reference:
                qa, pa = Psi_t.axes
                want0 = initial_phase_state(qa[:, None], pa[None, :], config.hbar)
                err0 = _field_errors(Psi_t, ComplexField(axes=Psi_t.axes, values=want0,
                                                         hbar=config.hbar))
                report.add("t0_projection", **err0)
            report.add("field_dump", t=t, path=name, norm=meta["norm"])
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
        for hb in values:
            x = config.position_axis.build()
            psi = ComplexField(axes=(x,), values=data.state(x, hb), hbar=hb)
            axes = config.phase_axes()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = wave_packet_transform(psi, axes)
                got = lift_wkb(data, axes, hb)
            rows.append((hb, _field_errors(got, want)["max_rel"]))
    elif parameter == "grid-spacing":
        # Quadrature error proxy: Cauchy increments of the squared norm under
        # grid halving.  Differencing on a fixed box cancels the (constant)
        # domain-truncation contribution and isolates pure quadrature error.
        psi = config.position_state()
        qa, pa = config.phase_axes()
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
    model = config.model()
    with _printed_warnings():
        n = sum(1 for _ in _phase_dumps(config, model, out_dir))
    print(f"propagate-phase: wrote {n} field dumps to {out_dir}")
    return 0


def _verb_propagate_position(args, config: RunConfig, out_dir: Path) -> int:
    model = config.model()
    psi0 = config.position_state()
    with _printed_warnings():
        write_field_csv(psi0, out_dir / "position_t0.csv")
        for t in config.times:
            if t == 0.0:
                continue
            psi_t = position_space_solution(psi0, t, model,
                                            out_axis=psi0.axes[0])
            write_field_csv(psi_t, out_dir / f"position_t{t:g}.csv")
    print(f"propagate-position: wrote {1 + sum(1 for t in config.times if t != 0)} "
          f"state dumps to {out_dir}")
    return 0


def _verb_kernel_dump(args, config: RunConfig, out_dir: Path) -> int:
    model = config.model()
    Y = PhasePoint(np.array([config.kernel_y[0]]), np.array([config.kernel_y[1]]))
    t = config.kernel_t
    qa, pa = config.phase_axes()
    kernel = _Kernel.launched(model, Y.q, Y.p, t)  # the one orbit, from Y
    X = np.stack(np.meshgrid(qa, pa, indexing="ij"), axis=-1)
    write_field_csv(ComplexField((qa, pa), kernel.values(X, config.hbar)[..., 0],
                                 config.hbar), out_dir / "kernel.csv")
    print(f"kernel-dump: K(., Y=({Y.q[0]:g},{Y.p[0]:g}), t={t:g}) "
          f"written to {out_dir / 'kernel.csv'}")
    return 0


def _parse_s0_flag(raw: str | None, config: RunConfig | None) -> np.ndarray:
    if raw:
        return np.asarray([float(s) for s in raw.split(",")], dtype=float)
    if config is not None:
        return np.asarray(config.s0, dtype=float)
    return np.asarray([0.0, 0.0, 0.5])


def _parse_r0_flag(raw: str | None, config: RunConfig | None) -> GaussianPoly:
    if raw:
        parts = [float(s) for s in raw.split(",")]
        if len(parts) < 2:
            raise ConfigurationError("--r0: expected 'mu,sigma[,c0,c1,...]'")
        mu, sigma, *coeffs = parts
        if not coeffs:
            coeffs = [(sigma * np.sqrt(np.pi)) ** -0.5]
        return GaussianPoly(np.asarray(coeffs), mu=mu, sigma=sigma)
    if config is not None:
        return GaussianPoly(np.asarray(config.r0_coeffs), mu=config.r0_mu,
                            sigma=config.r0_sigma)
    return GaussianPoly(np.asarray([np.pi ** -0.25]))


def _wkb_from_flags(args, config: RunConfig | None) -> WKBData:
    return WKBData(S0=_parse_s0_flag(args.s0, config),
                   R0=_parse_r0_flag(args.r0, config),
                   r=config.r if config is not None else 2)


def _verb_lift_wkb(args, config: RunConfig | None, out_dir: Path) -> int:
    hbar = args.hbar if args.hbar is not None else (config.hbar if config else 0.1)
    data = _wkb_from_flags(args, config)
    if config is not None:
        axes = config.phase_axes()
    else:
        qa = np.linspace(-5.5, 5.5, 81)
        axes = (qa, qa.copy())
    with _printed_warnings():
        fld = lift_wkb(data, axes, hbar)
    out = Path(args.out) if args.out else out_dir / "lift.csv"
    meta = write_field_csv(fld, out)
    print(f"lift-wkb: field written to {out} (norm {meta['norm']:.6g})")
    return 0


def _verb_manifold(args, config: RunConfig | None, out_dir: Path) -> int:
    data = _wkb_from_flags(args, config)
    model = config.model() if config is not None and args.model is None \
        else builtin_model(args.model or "free")
    t = args.t
    alpha = config.alpha_axis.build() if config is not None \
        else np.linspace(-2.0, 2.0, 41)
    manifold = transport_manifold(data, model, t, alpha)
    slope, offset, resid = manifold.line_fit()
    out = Path(args.out) if args.out else out_dir / "manifold.csv"
    _write_table(out, "alpha,q,p,S",
                 zip(manifold.alpha, manifold.q, manifold.p, manifold.phase))
    print(f"manifold: t={t:g}, line fit p = {slope:.8g} q + {offset:.8g} "
          f"(max residual {resid:.3g}); samples written to {out}")
    return 0


def _verb_solution_on_manifold(args, config: RunConfig | None, out_dir: Path) -> int:
    hbar = args.hbar if args.hbar is not None else (config.hbar if config else 0.1)
    data = _wkb_from_flags(args, config)
    model = config.model() if config is not None and args.model is None \
        else builtin_model(args.model or "free")
    t = args.t
    if args.alpha:
        alphas = np.asarray([float(s) for s in args.alpha.split(",")], dtype=float)
    else:
        alphas = np.linspace(-1.0, 1.0, 9)
    out = Path(args.out) if args.out else out_dir / "solution_on_manifold.csv"
    manifold = transport_manifold(data, model, t, alphas)

    def rows():
        for a, q, p in zip(alphas, manifold.q, manifold.p):
            val = solution_on_manifold(PhasePoint(np.array([q]), np.array([p])),
                                       t, data, model, hbar)
            yield a, q, p, val.real, val.imag

    _write_table(out, "alpha,q,p,re,im", rows())
    print(f"solution-on-manifold: {alphas.size} values at t={t:g} written to {out}")
    return 0


def _verb_oracle_dump(args, config: RunConfig | None, out_dir: Path) -> int:
    kind = args.kind
    if kind not in KINDS:
        raise ConfigurationError(
            f"--kind: unknown reference model kind {kind!r}; expected one of {KINDS}")
    hbar = args.hbar if args.hbar is not None else (config.hbar if config else 0.1)
    t = args.t
    what = args.what
    out = Path(args.out) if args.out else out_dir / f"oracle_{what}.csv"
    if config is not None:
        x_axis = config.position_axis.build()
        axes = config.phase_axes()
    else:
        x_axis = np.linspace(-6.0, 6.0, 601)
        qa = np.linspace(-5.5, 5.5, 81)
        axes = (qa, qa.copy())

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
    elif what == "action":
        _write_table(out, "x,S", zip(x_axis, exact_action_S(kind, x_axis, t)))
    else:
        raise ConfigurationError(f"--what: unknown display {what!r}")
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
        config = load_config(args.config) if args.config else None
        return args.func(args, config, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PhasePropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
