from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import phaseprop
from phaseprop import _csvwriter, cli, propagator
from phaseprop.cli import load_config, main
from phaseprop.models import PhasePoint, polynomial_model
from phaseprop.propagator import kernel_Ksc
from phaseprop.transform import _edge_ratio
from phaseprop.oracles import exact_kernel, exact_manifold, exact_position_solution
from phaseprop.wkb import GaussianPoly, WKBData, lift_wkb


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


# (2/sqrt(pi))^(1/2) x e^(-x^2/2) has unit norm: the reference s0 with another
# envelope
ODD_ENVELOPE = "r0_coeffs = 0, 1.0622519320271968"


@pytest.mark.parametrize("initial, reference", [
    ("", True),
    # the reference state written out in full is still the reference state
    ("s0 = 0, 0, 0.5, 0\nr0_coeffs = 0.7511255444649425", True),
    (ODD_ENVELOPE, False),
], ids=["defaults", "spelled-out", "odd-envelope"])
def test_run_compares_only_the_reference_state_with_the_oracles(tmp_path, initial,
                                                                 reference):
    cfg = write_config(tmp_path, BASE_CONFIG + f"\n[initial]\n{initial}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert len(entries_of(report, "t0_projection")) == int(reference)
    assert len(entries_of(report, "field_error")) == int(reference)
    assert [d["t"] for d in entries_of(report, "field_dump")] == [0.0, 0.4]


def test_run_at_a_vertical_manifold_time_reports_no_on_manifold_error(tmp_path):
    # the harmonic flow turns the reference manifold p = q vertical at 3 pi / 8
    t = 3 * np.pi / 8
    cfg = write_config(tmp_path, BASE_CONFIG.replace("kind = free", "kind = harmonic")
                       .replace("times = 0.4", f"times = {t!r}"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    (err,) = entries_of(read_report(out), "field_error")
    assert err["t"] == t
    assert err["on_manifold_max_rel"] is None
    assert err["max_rel"] < 1e-2


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


META = "[meta]\nschema_version = 1\n"
POLYNOMIAL = META + "[model]\nkind = polynomial\n"
FREE = META + "[model]\nkind = free\n"


@pytest.mark.parametrize("argv, text, message", [
    (["run"], "[meta]\n[model]\nkind = free\n", "[meta] schema_version: required value"),
    (["run"], "[meta]\nschema_version = 2\n", "[meta] schema_version: unsupported version 2"),
    (["run"], FREE + "[run]\nhbar = tiny\n", "[run] hbar: not a number: 'tiny'"),
    (["run"], FREE + "[grid.position]\ncount = 100.5\n",
     "[grid.position] count: expected an integer"),
    (["run"], FREE + "[run]\ntimes = 0.1, soon\n", "[run] times: not a number list"),
    (["run"], FREE + "[grid.phase]\nq_min = 1\nq_max = 1\n",
     "[grid.phase] q_min/q_max/q_count: need max > min and count >= 2"),
    (["run"], FREE + "[grid.alpha]\ncount = 1\n",
     "[grid.alpha] min/max/count: need max > min and count >= 2"),
    (["run"], POLYNOMIAL + "coeffs = (0,2):1.0\n", "[model] coeffs: expected '(i;j):c' items"),
    (["run"], POLYNOMIAL, "[model] coeffs: required for polynomial models"),
    (["run"], "no section header\n", "config parse error in"),
    (["run"], None, "config file not found"),
    (["run"], FREE + "[run]\nhbar = 0\n", "[run] hbar: must be positive"),
    (["run"], FREE + "[initial]\nkind = tophat\n", "[initial] kind: unknown initial-data kind"),
    (["run"], FREE + "[convergence]\nparameter = temperature\n",
     "[convergence] parameter: unknown parameter"),
    (["lift-wkb", "--hbar", "0"], FREE, "[run] hbar: must be positive"),
    (["lift-wkb", "--hbar", "-0.1"], FREE, "[run] hbar: must be positive"),
    (["oracle-dump", "--kind", "free", "--what", "position", "--hbar", "0"], FREE,
     "[run] hbar: must be positive"),
    (["lift-wkb"], FREE + "[initial]\ns0 =\n", "[initial] s0: needs at least one number"),
    (["lift-wkb"], FREE + "[initial]\nr0_coeffs =\n",
     "[initial] r0_coeffs: needs at least one number"),
    (["lift-wkb", "--s0", ""], FREE, "--s0: not a number: ''"),
    (["lift-wkb", "--r0", ""], FREE, "--r0: not a number: ''"),
    (["run"], FREE + "[run]\nhbr = 0.01\n", "[run] hbr: not read"),
    (["run"], FREE + "[grid.positon]\ncount = 11\n", "[grid.positon]: not read"),
    (["lift-wkb"], FREE + "[initial]\nr0_sigma = 1\nr0_coefs = 1\n[kernal]\n",
     "[initial] r0_coefs, [kernal]: not read"),
    (["run"], FREE + "[run]\ntimes = 0.5, 0.5\n",
     "[run] times: 0.5 and 0.5 both write phase_t0.5.csv and position_t0.5.csv"),
    (["run"], FREE + "[run]\ntimes = 0.1234561, 0.1234562\n",
     "[run] times: 0.1234561 and 0.1234562 both write phase_t0.123456.csv"),
], ids=["no-schema-version", "version", "not-a-number", "not-an-integer",
        "number-list", "max-le-min", "count-lt-2", "poly-item", "poly-no-coeffs",
        "unparsable", "missing-file", "hbar-le-0", "initial-kind",
        "convergence-parameter", "hbar-flag-0", "hbar-flag-negative",
        "oracle-dump-hbar-flag-0", "empty-s0", "empty-r0-coeffs", "empty-s0-flag",
        "empty-r0-flag", "unread-key", "unread-section", "unread-key-and-section",
        "equal-times", "times-equal-to-6-digits"])
def test_each_config_error_exits_two_and_names_its_key(tmp_path, capsys, argv, text,
                                                      message):
    cfg = write_config(tmp_path, text) if text is not None else str(tmp_path / "none.ini")
    assert main([*argv, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_a_domain_failure_exits_one(tmp_path, capsys):
    # the harmonic flow turns the reference manifold vertical before t = 1.5
    assert main(["manifold", "--model", "harmonic", "--t", "1.5",
                 "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


CONVERGENCE_CONFIG = """\
[meta]
schema_version = 1

[model]
kind = free

[grid.phase]
q_count = 41
p_count = 41

[convergence]
values = 0.1, 0.05, 0.025
"""


def test_convergence_hbar_study_shows_a_first_order_lift(tmp_path):
    # the leading-order lift against the analysed state on the default
    # position grid: the error halves with hbar
    cfg = write_config(tmp_path, CONVERGENCE_CONFIG, name="conv.ini")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--parameter", "hbar",
                 "--out-dir", str(out)]) == 0
    (entry,) = entries_of(read_report(out), "convergence")
    assert entry["parameter"] == "hbar"
    assert entry["values"] == [0.1, 0.05, 0.025]
    assert entry["slope"] == pytest.approx(1.0, abs=0.1)


def test_convergence_hbar_study_reports_its_warnings_and_the_aliased_hbar(tmp_path):
    # on 1601 nodes of [-8, 8] the state at hbar = 0.0125 resolves momenta
    # only up to pi hbar / dx = 3.9 < 5.5: its reference analysis aliases and
    # the study reads error 1.0; the report says so, with the analyses' own
    # warnings, where it used to drop them all
    cfg = write_config(tmp_path, CONVERGENCE_CONFIG.replace(
        "0.1, 0.05, 0.025", "0.05, 0.025, 0.0125"), name="conv.ini")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--parameter", "hbar",
                 "--out-dir", str(out)]) == 0
    report = read_report(out)
    warned = entries_of(report, "warning")
    aliased = [w["message"] for w in warned if "the reference analysis aliases" in w["message"]]
    assert len(aliased) == 1 and aliased[0].startswith("hbar = 0.0125:")
    assert {w["category"] for w in warned} == {"SpacingWarning"}
    assert any("q grid spacing" in w["message"] for w in warned)  # 0.275 > sqrt(hbar)/4
    assert report[-1]["entry"] == "convergence"


def test_convergence_grid_spacing_study_halves_the_phase_spacing(tmp_path):
    # Cauchy increments of the analysed norm on the 41-node box and its
    # halvings: the quadrature error reaches round-off after one halving
    cfg = write_config(tmp_path, CONVERGENCE_CONFIG, name="conv.ini")
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--parameter", "grid-spacing",
                 "--out-dir", str(out)]) == 0
    (entry,) = entries_of(read_report(out), "convergence")
    assert entry["parameter"] == "grid-spacing"
    assert entry["values"] == pytest.approx([0.275, 0.1375, 0.06875], rel=1e-12)
    first, *rest = entry["errors"]
    assert first < 1e-5 and max(rest) < 1e-3 * first
    assert len((out / "convergence.csv").read_text().splitlines()) == 4


def test_propagate_verbs_write_state_and_field_dumps(tmp_path):
    # t = 0 in times writes no second dump of the initial state
    cfg = write_config(tmp_path, BASE_CONFIG.replace("times = 0.4", "times = 0, 0.4"))
    pos_out, phase_out = tmp_path / "pos", tmp_path / "phase"
    assert main(["propagate-position", "--config", cfg, "--out-dir", str(pos_out)]) == 0
    assert main(["propagate-phase", "--config", cfg, "--out-dir", str(phase_out)]) == 0
    assert (pos_out / "position_t0.csv").read_text().splitlines()[0] == "x,re,im"
    assert sorted(p.name for p in pos_out.iterdir()) == ["position_t0.4.csv",
                                                         "position_t0.csv"]
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


WRITER_CONFIG = BASE_CONFIG.replace("times = 0.4", "times = 0, 0.2, 0.4")


@pytest.fixture
def children(monkeypatch):
    """The processes that the CLI starts, recorded as they start."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


@pytest.mark.parametrize("verb", ["run", "propagate-phase", "propagate-position"])
def test_the_writer_process_writes_the_bytes_of_the_in_process_writer(tmp_path, monkeypatch,
                                                                       children, verb):
    # two CPUs hand the dumps to a writer process, one keeps them in-process
    cfg = write_config(tmp_path, WRITER_CONFIG)
    outs = {cpus: tmp_path / f"cpus{cpus}" for cpus in (2, 1)}
    for cpus, out in outs.items():
        monkeypatch.setattr(cli, "_cpu_count", lambda n=cpus: n)
        assert main([verb, "--config", cfg, "--out-dir", str(out)]) == 0
    # one child, for the two-CPU run, and it has ended
    assert len(children) == 1 and children[0].returncode == 0
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir())
    assert len([n for n in names if n.endswith(".csv")]) == 3
    for name in names:
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("verb, name", [("run", "phase_t0.2.csv"),
                                        ("propagate-phase", "phase_t0.csv"),
                                        ("propagate-position", "position_t0.2.csv")])
def test_a_failed_dump_raises_alike_on_both_paths(tmp_path, monkeypatch, children, verb, name):
    # a dump whose destination is a directory: the same exception type, and
    # the same files left behind, with or without the writer process
    cfg = write_config(tmp_path, WRITER_CONFIG)
    raised, left = {}, {}
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_cpu_count", lambda n=cpus: n)
        out = tmp_path / f"cpus{cpus}"
        (out / name).mkdir(parents=True)
        with pytest.raises(OSError) as exc:
            main([verb, "--config", cfg, "--out-dir", str(out)])
        raised[cpus] = exc.type
        left[cpus] = sorted((p.name, p.is_dir()) for p in out.iterdir())
    assert raised[2] is raised[1]
    assert left[2] == left[1]
    assert len(children) == 1 and children[0].returncode is not None


def test_the_writer_process_stops_at_its_first_failed_write(tmp_path):
    # it reads no later job, so the verb's next send meets a closed pipe
    # instead of the verb propagating every remaining time first
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.mkdir()
    records = [_csvwriter.job_record((str(path), ("x",), [[0.0, 1.0]], [1.0, 2.0], [0.0, 0.5]))
               for path in (bad, good)]
    jobs, errors = io.BytesIO(b"".join(records)), io.BytesIO()
    _csvwriter._serve(jobs, errors)
    assert isinstance(pickle.loads(errors.getvalue()), OSError)
    assert jobs.tell() == len(records[0])
    assert not good.exists()


def test_a_writer_that_ends_early_fails_the_verb(tmp_path, monkeypatch, children):
    # a child that exits before reading a job: the verb waits for it and
    # raises instead of reporting dumps that were never written
    script = tmp_path / "exit3.py"
    script.write_text("import sys\nsys.exit(3)\n")
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli._csvwriter, "__file__", str(script))
    out = tmp_path / "out"
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        main(["run", "--config", write_config(tmp_path, WRITER_CONFIG), "--out-dir", str(out)])
    assert children[0].returncode == 3
    assert not (out / "report.jsonl").exists()


def test_a_live_thread_leaves_the_report_unchanged(tmp_path, monkeypatch, children):
    # the writer starts by fork and exec; a forked pool would warn that the
    # process is multi-threaded, and run records every warning in its report
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    cfg = write_config(tmp_path, WRITER_CONFIG)
    plain, threaded = tmp_path / "plain", tmp_path / "threaded"
    assert main(["run", "--config", cfg, "--out-dir", str(plain)]) == 0
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert main(["run", "--config", cfg, "--out-dir", str(threaded)]) == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(children) == 2
    assert (threaded / "report.jsonl").read_bytes() == (plain / "report.jsonl").read_bytes()


def test_run_sends_each_dump_before_the_next_times_sum_starts(tmp_path, monkeypatch, children):
    # the verb's one pass over its times is lazy: the writer process formats
    # one time's dump while this process sums the next time's field
    calls, writer, affine_sum = [], cli._dump_writer, propagator._affine_sum

    @contextmanager
    def recording_writer(dumps):
        with writer(dumps) as write:
            def send(field, path):
                calls.append(path.name)
                return write(field, path)
            yield send

    def recording_sum(*args):
        calls.append("sum")
        return affine_sum(*args)

    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_dump_writer", recording_writer)
    monkeypatch.setattr(propagator, "_affine_sum", recording_sum)
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, WRITER_CONFIG), "--out-dir", str(out)]) == 0
    assert len(children) == 1 and children[0].returncode == 0  # the writer process's path
    assert calls == ["phase_t0.csv", "sum", "phase_t0.2.csv", "sum", "phase_t0.4.csv"]


def readme_config():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split("\n```ini\n", 1)[1].split("\n```", 1)[0]


def test_run_reports_the_inputs_edge_mass_once_and_each_times_crossings(tmp_path):
    # the edge mass describes the input field: two times report it once.  An
    # Ehrenfest crossing belongs to [0, t]: the inverted oscillator's at
    # t = 0.75 is reported for t = 1 and again for t = 1.5
    edge = BASE_CONFIG.replace("times = 0.4", "times = 0.2, 0.4")
    for c in "qp":
        edge = edge.replace(f"{c}_min = -5\n{c}_max = 5", f"{c}_min = -3\n{c}_max = 3")
    inverted = readme_config().replace(
        "kind = free\n", "kind = polynomial\ncoeffs = (0;2):1.0, (2;0):-1.0\n").replace(
        "times = 0.1, 0.5, 1.0", "times = 0.5, 1.0, 1.5")
    warned = {}
    # the truncated field misses the 1e-2 tolerance at t = 0.2
    for name, text, rc in (("edge", edge, 1), ("inverted", inverted, 0)):
        out = tmp_path / name
        assert main(["run", "--config", write_config(tmp_path, text, f"{name}.ini"),
                     "--out-dir", str(out)]) == rc
        warned[name] = entries_of(read_report(out), "warning")
    edge_mass = [w for w in warned["edge"] if "at the grid boundary" in w["message"]]
    assert [w["category"] for w in edge_mass] == ["UserWarning"]
    assert [w["message"] for w in warned["inverted"] if w["category"] == "EhrenfestWarning"] == [
        "linearized flow norm 4.482 exceeds hbar^-1/2 = 4.472 at t = 0.75; "
        "single-packet propagation is no longer controlled"] * 2


def quartic_readme_config():
    """README's reference config under H = p^2 + q^4, its commented coeffs."""
    return readme_config().replace("kind = free\n", "kind = polynomial\n").replace(
        "; coeffs = (0;2):1.0, (4;0):1.0", "coeffs = (0;2):1.0, (4;0):1.0")


@pytest.mark.parametrize("kind", ["free", "quartic"])
def test_each_field_dump_reports_its_edge_mass(tmp_path, kind):
    # each dump's edge is the edge-mass ratio of the field in its file; the
    # quartic field outgrows the input's axes, on whose boundary it carries
    # 3.1e-3 of its peak at t = 0.5 and 1.75e-2 at t = 1
    text = readme_config() if kind == "free" else quartic_readme_config()
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, text), "--out-dir", str(out)]) == 0
    dumps = entries_of(read_report(out), "field_dump")
    assert [d["t"] for d in dumps] == [0.0, 0.1, 0.5, 1.0]
    for d in dumps:
        _, _, re, im = read_csv(out / d["path"]).T
        assert d["edge"] == _edge_ratio((re + 1j * im).reshape(81, 81))
    if kind == "quartic":
        edge = {d["t"]: d["edge"] for d in dumps}
        assert edge[0.5] == pytest.approx(3.08e-3, rel=1e-3)
        assert edge[1.0] == pytest.approx(1.754e-2, rel=1e-3)


def test_propagate_position_prints_its_analysis_warnings_once(tmp_path, capsys):
    # 161 position nodes are coarser than sqrt(hbar)/4 and resolve too few
    # momenta: the one analysis warns of each once, for the two times
    text = BASE_CONFIG.replace("times = 0.4", "times = 0.2, 0.4").replace(
        "count = 801", "count = 161")
    out = tmp_path / "out"
    assert main(["propagate-position", "--config", write_config(tmp_path, text),
                 "--out-dir", str(out)]) == 0
    warned = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("warning: ")]
    assert len(warned) == 2
    assert "resolves momenta only up to" in warned[0]
    assert "position grid spacing 0.1 exceeds" in warned[1]


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
    # without --alpha: 9 values on [-1, 1]
    assert main(["solution-on-manifold", "--model", "harmonic", "--t", "0.4",
                 "--out", str(som_csv), "--out-dir", str(tmp_path)]) == 0
    rows = som_csv.read_text().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == list(np.linspace(-1.0, 1.0, 9))
    assert "solution-on-manifold: 9 values" in capsys.readouterr().out


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


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_oracle_dump_position_and_kernel_on_the_default_axes(tmp_path):
    # without a config: 601 position nodes on [-6, 6], 81^2 phase nodes on
    # [-5.5, 5.5]^2, hbar 0.1; the tables are the oracles' values
    pos_csv, ker_csv = tmp_path / "pos.csv", tmp_path / "ker.csv"
    assert main(["oracle-dump", "--kind", "harmonic", "--what", "position",
                 "--t", "0.7", "--out", str(pos_csv), "--out-dir", str(tmp_path)]) == 0
    x, re, im = read_csv(pos_csv).T
    assert np.array_equal(x, np.linspace(-6.0, 6.0, 601))
    assert np.array_equal(re + 1j * im, exact_position_solution("harmonic", x, 0.7, 0.1))

    assert main(["oracle-dump", "--kind", "linear", "--what", "kernel", "--t", "0.7",
                 "--y-q", "-0.3", "--y-p", "0.4", "--out", str(ker_csv),
                 "--out-dir", str(tmp_path)]) == 0
    q, p, re, im = read_csv(ker_csv).T
    axis = np.linspace(-5.5, 5.5, 81)
    assert np.array_equal(q, np.repeat(axis, 81)) and np.array_equal(p, np.tile(axis, 81))
    Y = PhasePoint(np.array([-0.3]), np.array([0.4]))
    for k in (0, 3280, 6560, 1234):
        want = exact_kernel("linear", PhasePoint(q[k], p[k]), Y, 0.7, 0.1)
        assert complex(re[k], im[k]) == want


# (c0 + 2 c0 x) e^(-x^2/2) has unit norm for c0 = (3 sqrt(pi))^(-1/2)
C0 = float((3 * np.sqrt(np.pi)) ** -0.5)


@pytest.mark.parametrize("r0, coeffs, mu, sigma", [
    (f"0,1,{C0!r},{2 * C0!r}", [C0, 2 * C0], 0.0, 1.0),
    # without coefficients the envelope is normalised
    ("0.3,0.8", [(0.8 * np.sqrt(np.pi)) ** -0.5], 0.3, 0.8),
], ids=["coefficients", "normalised"])
def test_lift_wkb_reads_the_r0_flag(tmp_path, r0, coeffs, mu, sigma):
    out = tmp_path / "lift.csv"
    assert main(["lift-wkb", "--r0", r0, "--hbar", "0.1", "--out", str(out),
                 "--out-dir", str(tmp_path)]) == 0
    axis = np.linspace(-5.5, 5.5, 81)
    data = WKBData(S0=np.array([0.0, 0.0, 0.5]),
                   R0=GaussianPoly(np.array(coeffs), mu=mu, sigma=sigma), r=2)
    want = lift_wkb(data, (axis, axis), 0.1).values.ravel()
    _, _, re, im = read_csv(out).T
    assert np.array_equal(re + 1j * im, want)


def test_lift_wkb_takes_no_t_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["lift-wkb", "--t", "1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_lift_wkb_rejects_an_r0_flag_without_sigma(tmp_path, capsys):
    assert main(["lift-wkb", "--r0", "0.3", "--out-dir", str(tmp_path)]) == 2
    assert "--r0: expected 'mu,sigma[,c0,c1,...]'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, item", [
    (["lift-wkb", "--r0", "0,abc"], "--r0", "abc"),
    (["lift-wkb", "--s0", "0,0.5,x1"], "--s0", "x1"),
    (["solution-on-manifold", "--hbar", "0.1", "--alpha", "0.0,,0.5"], "--alpha", ""),
], ids=["r0", "s0", "alpha"])
def test_a_malformed_number_list_flag_is_a_configuration_error(tmp_path, capsys, argv,
                                                                flag, item):
    # a bare float() ended these in a ValueError traceback
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert f"configuration error: {flag}: not a number: {item!r}" in capsys.readouterr().err


def test_oracle_dump_prints_the_singular_display_warning(tmp_path, capsys):
    # at t = pi/2 the harmonic display is singular: the verb says so, and
    # writes the continued field
    out = tmp_path / "phase.csv"
    assert main(["oracle-dump", "--kind", "harmonic", "--what", "phase",
                 "--t", "1.5707963267948966", "--out", str(out),
                 "--out-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == ("warning: harmonic display parameterization is singular at "
                          "this time; returning the algebraically continued value")
    assert printed[1].startswith("oracle-dump: harmonic phase at t=1.5708 written to")
    assert len(out.read_text().splitlines()) == 1 + 81 * 81


def test_oracle_dump_rejects_unknown_kind(tmp_path, capsys):
    rc = main(["oracle-dump", "--kind", "seagull",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--kind" in capsys.readouterr().err


def readme_cli_lines():
    """The ``phaseprop ...`` lines of the README's CLI section, comments cut."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("#", 1)[0].split() for line in section.splitlines()
            if line.startswith("phaseprop ")]


def test_the_readme_cli_examples_run(tmp_path, monkeypatch):
    lines = readme_cli_lines()
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(
        "[meta]\nschema_version = 1\n[model]\nkind = free\n"
        "[run]\nhbar = 0.05\ntimes = 0.1, 0.5, 1.0\n")
    for argv in lines:
        assert main(argv[1:]) == 0, " ".join(argv)


def test_the_readme_config_schema_loads_as_written(tmp_path):
    config = load_config(write_config(tmp_path, readme_config()))
    assert (config.model_kind, config.hbar, config.times) == ("free", 0.05, (0.1, 0.5, 1.0))
    assert (config.initial_kind, config.s0, config.r) == ("wkb", (0.0, 0.0, 0.5), 2)
    assert [a.size for a in (config.position_axis, *config.phase_axes, config.alpha_axis)] == [
        1601, 81, 81, 41]
    assert (config.convergence_parameter, config.kernel_y, config.kernel_t) == (
        "hbar", (0.5, 0.1), 0.5)


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
