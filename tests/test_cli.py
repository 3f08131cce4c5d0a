from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaseprop
from phaseprop import propagator
from phaseprop.cli import main
from phaseprop.models import PhasePoint, polynomial_model
from phaseprop.propagator import kernel_Ksc
from phaseprop.oracles import exact_kernel, exact_manifold


BASE_CONFIG = """\
[meta]
schema_version = 1

[model]
kind = free

[run]
hbar = 0.1
times = 0.4
rel_tolerance = 1e-2

[grid.phase]
q_min = -5
q_max = 5
q_count = 61
p_min = -5
p_max = 5
p_count = 61

[grid.position]
min = -8
max = 8
count = 801
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out_dir):
    lines = (out_dir / "report.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def entries_of(report, kind):
    return [e for e in report if e["entry"] == kind]


def test_run_reference_pipeline_writes_report_and_field_dumps(tmp_path, capsys):
    """The run verb projects, propagates, and reports errors per time."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    assert "run: ok" in capsys.readouterr().out

    report = read_report(out)
    (config_entry,) = entries_of(report, "config")
    assert config_entry["schema_version"] == 1
    assert config_entry["model"] == "free"
    assert config_entry["hbar"] == 0.1
    assert config_entry["times"] == [0.4]
    assert config_entry["rel_tolerance"] == 1e-2

    (proj,) = entries_of(report, "t0_projection")
    assert proj["max_rel"] < 1e-9

    dumps = entries_of(report, "field_dump")
    assert [d["t"] for d in dumps] == [0.0, 0.4]
    for d in dumps:
        assert (out / d["path"]).exists()
        assert d["norm"] == pytest.approx(1.0, abs=1e-3)

    (err,) = entries_of(report, "field_error")
    assert err["t"] == 0.4
    assert err["within_tolerance"] is True
    assert err["max_rel"] < 1e-6
    assert err["on_manifold_max_rel"] is not None
    assert err["on_manifold_max_rel"] < 1e-6

    (summary,) = entries_of(report, "summary")
    assert summary["status"] == "ok"

    header = (out / "phase_t0.4.csv").read_text().splitlines()[0]
    assert header == "q,p,re,im"


def test_run_records_grid_spacing_warnings_in_the_report(tmp_path):
    # The 61-node axes are deliberately coarser than sqrt(hbar)/4.
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    warning_entries = entries_of(read_report(out), "warning")
    assert any(w["category"] == "SpacingWarning" for w in warning_entries)
    assert all("message" in w for w in warning_entries)


@pytest.mark.filterwarnings("ignore::phaseprop.SpacingWarning")
def test_run_on_packet_initial_data_writes_the_packet_transform(tmp_path):
    # [initial] kind = packet takes the closed-form transform of the packet;
    # the 61-node axes are coarser than sqrt(hbar)/4, as in BASE_CONFIG
    text = BASE_CONFIG.replace("kind = free", "kind = harmonic") + (
        "\n[initial]\nkind = packet\ncenter_q = 0.5\ncenter_p = -0.3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, text), "--out-dir", str(out)]) == 0
    x = np.linspace(-8.0, 8.0, 1601)
    center = PhasePoint(0.5, -0.3)
    psi = phaseprop.ComplexField((x,), phaseprop.gaussian_packet(center, 0.1, x), 0.1)
    axis = np.linspace(-5.0, 5.0, 61)
    want = phaseprop.wave_packet_transform(psi, (axis, axis)).values.ravel()
    table = np.loadtxt(out / "phase_t0.csv", delimiter=",", skiprows=1)
    got = table[:, 2] + 1j * table[:, 3]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_run_without_positive_times_only_projects_initial_data(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("times = 0.4", "times = 0"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert entries_of(report, "field_error") == []
    assert [d["t"] for d in entries_of(report, "field_dump")] == [0.0]
    (summary,) = entries_of(report, "summary")
    assert summary["status"] == "ok"


def test_run_output_is_deterministic_across_invocations(tmp_path):
    """Two identical runs produce byte-identical reports and field dumps."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("times = 0.4", "times = 0"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out-dir", str(out_b)]) == 0
    for name in ("report.jsonl", "phase_t0.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_exits_one_when_tolerance_is_exceeded(tmp_path, capsys):
    cfg = write_config(
        tmp_path, BASE_CONFIG.replace("rel_tolerance = 1e-2", "rel_tolerance = 1e-14")
    )
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert "TOLERANCE EXCEEDED" in capsys.readouterr().out
    (summary,) = entries_of(read_report(out), "summary")
    assert summary["status"] == "tolerance-exceeded"
    (err,) = entries_of(read_report(out), "field_error")
    assert err["within_tolerance"] is False


def test_unknown_model_kind_exits_two_and_names_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("kind = free", "kind = seagull"))
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    message = capsys.readouterr().err
    assert "[model] kind" in message
    assert "seagull" in message


def test_missing_schema_version_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\nkind = free\n")
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "[meta] schema_version" in capsys.readouterr().err


def test_descending_times_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("times = 0.4", "times = 0.5, 0.2"))
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "[run] times" in capsys.readouterr().err


def test_convergence_step_study_recovers_fourth_order_slope(tmp_path):
    """Halving the integrator step four-folds the flow error, twice over."""
    cfg = write_config(
        tmp_path,
        "[meta]\nschema_version = 1\n\n[model]\nkind = harmonic\n\n"
        "[run]\nhbar = 0.1\n\n"
        "[convergence]\nparameter = step\nvalues = 0.04, 0.02, 0.01\n",
        name="conv.ini",
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out-dir", str(out)]) == 0
    (entry,) = entries_of(read_report(out), "convergence")
    assert entry["parameter"] == "step"
    assert entry["slope"] == pytest.approx(4.0, abs=0.3)
    assert len(entry["errors"]) == 3
    table = (out / "convergence.csv").read_text().splitlines()
    assert table[0] == "parameter,error"
    assert len(table) == 4


@pytest.mark.parametrize("coeffs, rc", [("(0;2):1, (4;0):1", 2), ("(0;2):1, (2;0):1", 0)],
                         ids=["quartic", "quadratic"])
def test_convergence_step_study_needs_a_closed_form_reference(tmp_path, capsys, coeffs, rc):
    cfg = write_config(
        tmp_path,
        f"[meta]\nschema_version = 1\n\n[model]\nkind = polynomial\ncoeffs = {coeffs}\n\n"
        "[run]\nhbar = 0.1\n\n"
        "[convergence]\nparameter = step\nvalues = 0.04, 0.02, 0.01\n",
        name="conv.ini",
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out-dir", str(out)]) == rc
    if rc:
        assert "parameter=step requires a model of degree <= 2" in capsys.readouterr().err
    else:  # the polynomial trap is the harmonic built-in
        (entry,) = entries_of(read_report(out), "convergence")
        assert entry["slope"] == pytest.approx(4.0, abs=0.3)


def test_convergence_requires_at_least_three_values(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[meta]\nschema_version = 1\n\n[model]\nkind = free\n\n"
        "[convergence]\nparameter = step\nvalues = 0.04, 0.02\n",
        name="conv.ini",
    )
    rc = main(["convergence", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "[convergence] values" in capsys.readouterr().err


def test_propagate_verbs_write_state_and_field_dumps(tmp_path):
    cfg = write_config(tmp_path)
    pos_out, phase_out = tmp_path / "pos", tmp_path / "phase"
    assert main(["propagate-position", "--config", cfg, "--out-dir", str(pos_out)]) == 0
    assert main(["propagate-phase", "--config", cfg, "--out-dir", str(phase_out)]) == 0
    assert (pos_out / "position_t0.csv").read_text().splitlines()[0] == "x,re,im"
    assert (pos_out / "position_t0.4.csv").exists()
    assert (phase_out / "phase_t0.csv").exists()
    assert (phase_out / "phase_t0.4.csv").read_text().splitlines()[0] == "q,p,re,im"


def test_run_and_propagate_phase_write_identical_field_dumps(tmp_path, capsys):
    # both verbs share one loop: the same dumps, and no report from propagate-phase
    cfg = write_config(tmp_path, BASE_CONFIG.replace("times = 0.4", "times = 0, 0.2, 0.4"))
    run_out, phase_out = tmp_path / "run", tmp_path / "phase"
    assert main(["run", "--config", cfg, "--out-dir", str(run_out)]) == 0
    assert main(["propagate-phase", "--config", cfg, "--out-dir", str(phase_out)]) == 0
    assert f"propagate-phase: wrote 3 field dumps to {phase_out}" in capsys.readouterr().out
    names = sorted(p.name for p in phase_out.iterdir())
    assert names == ["phase_t0.2.csv", "phase_t0.4.csv", "phase_t0.csv"]
    for name in names:
        assert (phase_out / name).read_bytes() == (run_out / name).read_bytes(), name


def test_kernel_dump_honors_kernel_section(tmp_path):
    """kernel-dump samples K(., Y, t) on the configured phase grid."""
    cfg = write_config(
        tmp_path,
        "[meta]\nschema_version = 1\n\n[model]\nkind = free\n\n"
        "[run]\nhbar = 0.1\n\n"
        "[grid.phase]\nq_min = -1\nq_max = 1\nq_count = 21\n"
        "p_min = -1\np_max = 1\np_count = 21\n\n"
        "[kernel]\ny_q = -0.3\ny_p = 0.4\nt = 0.7\n",
        name="kernel.ini",
    )
    out = tmp_path / "out"
    assert main(["kernel-dump", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "kernel.csv").read_text().splitlines()
    assert rows[0] == "q,p,re,im"
    assert len(rows) == 1 + 21 * 21
    # the grid origin row must reproduce the closed-form kernel value
    origin = next(r for r in rows[1:] if r.startswith("0,0,"))
    _, _, re, im = (float(s) for s in origin.split(","))
    X = PhasePoint(np.array([0.0]), np.array([0.0]))
    Y = PhasePoint(np.array([-0.3]), np.array([0.4]))
    want = exact_kernel("free", X, Y, 0.7, 0.1)
    assert complex(re, im) == pytest.approx(want, rel=1e-10)


def test_kernel_dump_steps_one_orbit_and_matches_the_pointwise_kernel(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        "[meta]\nschema_version = 1\n\n"
        "[model]\nkind = polynomial\ncoeffs = (0;2):1, (4;0):1\n\n"
        "[run]\nhbar = 0.1\n\n"
        "[grid.phase]\nq_min = -1\nq_max = 1\nq_count = 21\n"
        "p_min = -1\np_max = 1\np_count = 21\n\n"
        "[kernel]\ny_q = -0.3\ny_p = 0.4\nt = 0.02\n",
        name="kernel.ini",
    )
    orbits = []
    flow_batch = propagator.flow_batch

    def counting(model, Q, P, t, opts=None):
        orbits.append(np.size(Q))
        return flow_batch(model, Q, P, t, opts)

    monkeypatch.setattr(propagator, "flow_batch", counting)
    out = tmp_path / "out"
    assert main(["kernel-dump", "--config", cfg, "--out-dir", str(out)]) == 0
    assert orbits == [1]
    monkeypatch.undo()
    rows = np.loadtxt(out / "kernel.csv", delimiter=",", skiprows=1)
    assert len(rows) == 21 * 21
    model = polynomial_model({(0, 2): 1.0, (4, 0): 1.0})
    Y = PhasePoint(np.array([-0.3]), np.array([0.4]))
    for q, p, re, im in rows:
        want = kernel_Ksc(PhasePoint(q, p), Y, 0.02, model, 0.1)
        assert abs(complex(re, im) - want) <= 1e-12 * abs(want)


def test_lift_manifold_and_on_manifold_verbs_write_tables(tmp_path, capsys):
    lift_csv = tmp_path / "lift.csv"
    assert main(["lift-wkb", "--hbar", "0.1", "--out", str(lift_csv),
                 "--out-dir", str(tmp_path)]) == 0
    lift_rows = lift_csv.read_text().splitlines()
    assert lift_rows[0] == "q,p,re,im"
    assert len(lift_rows) == 1 + 81 * 81

    man_csv = tmp_path / "man.csv"
    assert main(["manifold", "--model", "free", "--t", "0.25",
                 "--out", str(man_csv), "--out-dir", str(tmp_path)]) == 0
    rows = man_csv.read_text().splitlines()
    assert rows[0] == "alpha,q,p,S"
    data = np.array([[float(s) for s in r.split(",")] for r in rows[1:]])
    slope, offset = exact_manifold("free", 0.25)
    assert np.abs(data[:, 2] - (slope * data[:, 1] + offset)).max() < 1e-12

    som_csv = tmp_path / "som.csv"
    assert main(["solution-on-manifold", "--model", "harmonic", "--t", "0.4",
                 "--hbar", "0.1", "--alpha", "0.0,0.5",
                 "--out", str(som_csv), "--out-dir", str(tmp_path)]) == 0
    rows = som_csv.read_text().splitlines()
    assert rows[0] == "alpha,q,p,re,im"
    assert len(rows) == 3
    values = np.array([[float(s) for s in r.split(",")] for r in rows[1:]])
    assert np.isfinite(values).all()
    assert "solution-on-manifold: 2 values" in capsys.readouterr().out


def test_oracle_dump_writes_closed_form_tables(tmp_path):
    man_csv = tmp_path / "oman.csv"
    assert main(["oracle-dump", "--kind", "harmonic", "--what", "manifold",
                 "--t", "0.7", "--out", str(man_csv),
                 "--out-dir", str(tmp_path)]) == 0
    rows = man_csv.read_text().splitlines()
    assert rows[0] == "t,slope,offset"
    t, slope, offset = (float(s) for s in rows[1].split(","))
    want_slope, want_offset = exact_manifold("harmonic", 0.7)
    assert t == 0.7
    assert slope == pytest.approx(want_slope, rel=1e-12)
    assert offset == pytest.approx(want_offset, abs=1e-12)

    act_csv = tmp_path / "act.csv"
    assert main(["oracle-dump", "--kind", "free", "--what", "action",
                 "--t", "0.3", "--out", str(act_csv),
                 "--out-dir", str(tmp_path)]) == 0
    assert act_csv.read_text().splitlines()[0] == "x,S"


def test_oracle_dump_rejects_unknown_kind(tmp_path, capsys):
    rc = main(["oracle-dump", "--kind", "seagull",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--kind" in capsys.readouterr().err


@pytest.mark.skipif(
    shutil.which("phaseprop") is None,
    reason="no phaseprop console script on PATH; install the package "
           "(pip install -e . --no-build-isolation, which needs "
           "setuptools>=68 and wheel) to run this test",
)
def test_console_script_is_installed_and_runs(tmp_path):
    exe = shutil.which("phaseprop")
    assert exe is not None
    proc = subprocess.run(
        [exe, "oracle-dump", "--kind", "free", "--what", "position",
         "--t", "0.3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "oracle_position.csv").exists()


def test_console_script_entry_point_runs_from_source(tmp_path):
    """The [project.scripts] target runs the way pip's script wrapper calls it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["phaseprop"]
    module, func = target.split(":")

    src_dir = str(Path(phaseprop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "oracle-dump", "--kind", "free",
         "--what", "position", "--t", "0.3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "oracle_position.csv").exists()
