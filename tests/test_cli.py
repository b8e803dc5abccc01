"""Command-line layer: run directories, artifacts, exit codes, reproducibility."""

import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

import conekit.cli
import conekit.dynamics
from conekit.cli import main
from conekit.config import parse_config
from conekit.dynamics import DiagnosticsRecord, run_semiflow
from conekit.geometry import boundary_spectrum
from conekit.indicial import asymptotic_space

SPHERE_SMALL = "[geometry]\nkind = sphere\nM = 48\nK = 2\nq = 1.0\n"

SMOKE_CONFIGS = {
    "indicial": "[geometry]\nkind = cone_capped\nc = 1\nK = 3\n",
    "spectrum": SPHERE_SMALL + "[experiment]\nn_eigs = 3\n",
    "norms": SPHERE_SMALL + "[experiment]\nic = constant\nmean = 0.5\n",
    "simulate": SPHERE_SMALL
        + "[dynamics]\nT_max = 0.02\neq_tol = 0\nsnapshot_stride = 5\n"
        + "[experiment]\namplitude = 0.1\nseed = 5\nsnapshots = false\n",
    "attractor": SPHERE_SMALL
        + "[dynamics]\nT_max = 0.05\neq_tol = 0\nsnapshot_stride = 10\n"
        + "[experiment]\nradii = 0.5,1\nseeds_per_radius = 1\nseed = 7\n",
    "fit-asymptotics": "[geometry]\nkind = cone_capped\nc = 1\nL = 2\n"
        + "M = 256\nq = 0.8\nK = 2\n[experiment]\nmodes = 1,2\n",
    "ls-probe": SPHERE_SMALL
        + "[dynamics]\ndt = 0.001\neq_tol = 1e-6\nsnapshot_stride = 50\n"
        + "[experiment]\namplitude = 0.001\nseed = 3\n",
}

EXPECTED_FILES = {
    "indicial": ("roots.csv", "windows.csv", "minimal_domain.csv", "exclusions.csv"),
    "spectrum": ("spectrum.csv", "summary.csv"),
    "norms": ("field_norms.csv",),
    "simulate": ("diagnostics.csv", "summary.csv", "final_state.txt"),
    "attractor": ("entries.csv", "kappa.csv", "diameters.csv"),
    "fit-asymptotics": ("fits.csv", "profiles.csv"),
    "ls-probe": ("trajectory.csv", "ls_summary.csv"),
}


def run_cli(tmp_path, command, ini_text, *extra):
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(ini_text)
    root = tmp_path / "runs"
    before = set(root.iterdir()) if root.exists() else set()
    rc = main([command, "--config", str(cfg), "--run-root", str(root), *extra])
    after = set(root.iterdir()) if root.exists() else set()
    new = sorted(after - before)
    return rc, (new[-1] if new else None)


def serial_runs(batch):
    """Stand-in for the batched step kernel: each member on its own, as run_semiflow runs it."""
    def run(ops, initials, cfg, collect_snapshots=False, checked=False):
        return [batch(ops, [u], cfg, collect_snapshots=collect_snapshots, checked=checked)[0]
                for u in initials]
    return run


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_dict(path, key_col=0, val_col=-1):
    header, rows = read_csv(path)
    return {row[key_col]: row[val_col] for row in rows}


# ------------------------------------------------------------------- smokes


@pytest.mark.parametrize("command", sorted(SMOKE_CONFIGS))
def test_subcommand_produces_run_directory(tmp_path, command):
    rc, rundir = run_cli(tmp_path, command, SMOKE_CONFIGS[command])
    assert rc == 0
    assert re.fullmatch(rf"\d{{8}}T\d{{6}}-{command}(-\d+)?", rundir.name)
    assert (rundir / "status").read_text() == "ok\n"
    assert (rundir / "manifest.ini").exists()
    for name in EXPECTED_FILES[command]:
        assert (rundir / name).exists(), name
        if name.endswith(".csv"):
            header, rows = read_csv(rundir / name)
            assert header and rows


def test_run_directories_are_never_reused(tmp_path):
    _, first = run_cli(tmp_path, "norms", SMOKE_CONFIGS["norms"])
    _, second = run_cli(tmp_path, "norms", SMOKE_CONFIGS["norms"])
    assert first != second
    assert first.exists() and second.exists()


def test_a_run_directory_taken_after_the_check_gets_the_next_suffix(tmp_path, monkeypatch):
    monkeypatch.setattr(conekit.cli.time, "strftime", lambda fmt: "20260101T000000")
    (tmp_path / "20260101T000000-norms").mkdir()
    monkeypatch.setattr(Path, "exists", lambda self: False)   # as if made after a check
    assert conekit.cli._make_run_dir(str(tmp_path), "norms") \
        == tmp_path / "20260101T000000-norms-2"


def test_an_unusable_run_root_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    cfg = tmp_path / "norms.ini"
    cfg.write_text(SMOKE_CONFIGS["norms"])
    assert main(["norms", "--config", str(cfg), "--run-root", str(blocker / "runs")]) == 2
    err = capsys.readouterr().err
    assert "error: cannot create run directory: " in err
    assert "Traceback" not in err


# ------------------------------------------------------------ exit code 0/2/3


def test_simulate_zero_initial_data_reports_equilibrium(tmp_path):
    ini = SPHERE_SMALL + "[experiment]\nic = constant\nmean = 0\n"
    rc, rundir = run_cli(tmp_path, "simulate", ini)
    assert rc == 0
    summary = csv_dict(rundir / "summary.csv")
    assert summary["equilibrium_reached"] == "true"
    assert float(summary["final_residual"]) == 0.0
    assert int(summary["steps"]) == 1
    assert float(summary["mass_drift"]) == 0.0
    header, rows = read_csv(rundir / "diagnostics.csv")
    assert len(rows) >= 1
    assert (rundir / "snapshots").is_dir()
    assert (rundir / "final_state.txt").read_text().startswith("# t = ")


@pytest.mark.parametrize("cells, in_collar", [(4, 1), (6, 2)])
def test_a_collar_too_short_for_a_derivative_exits_3_naming_it(tmp_path, capsys, cells,
                                                              in_collar):
    # the first-order Mellin norm of every record differentiates across the collar x < 1
    ini = f"[geometry]\nkind = sphere\nM = {cells}\nK = 1\nq = 1.0\n"
    rc, rundir = run_cli(tmp_path, "simulate", ini)
    assert rc == 3
    err = capsys.readouterr().err
    assert f"3 cells in the collar x < 1, which has {in_collar}" in err
    assert "Traceback" not in err


def test_a_collar_without_cells_exits_3_naming_it(tmp_path, capsys):
    # cell centres 1.25, 3.75, 6.25, 8.75: the tip term of every record's norm has no cell
    ini = "[geometry]\nkind = cone_capped\nL = 10\nM = 4\nq = 1\nK = 2\n"
    rc, rundir = run_cli(tmp_path, "simulate", ini)
    assert rc == 3
    err = capsys.readouterr().err
    assert "1 cell in the collar x < 1, which has 0" in err
    assert "Traceback" not in err
    assert (rundir / "status").read_text().startswith("error: ValueError")


def test_unstable_simulate_exits_3_with_partial_outputs(tmp_path):
    ini = SPHERE_SMALL \
        + "[dynamics]\ndt = 10\neq_tol = 0\nsnapshot_stride = 1\n" \
        + "[experiment]\namplitude = 4.0\nseed = 1\nsnapshots = false\n"
    rc, rundir = run_cli(tmp_path, "simulate", ini)
    assert rc == 3
    assert (rundir / "status").read_text().startswith("error:")
    assert "reduce dt or raise" in (rundir / "status").read_text()
    header, rows = read_csv(rundir / "diagnostics.csv")
    energy_col = header.index("energy")
    assert len(rows) >= 2
    assert float(rows[-1][energy_col]) > float(rows[-2][energy_col])


def test_unknown_key_exits_2_and_writes_nothing(tmp_path, capsys):
    rc, rundir = run_cli(tmp_path, "simulate", "[geometry]\nwidth = 3\n")
    assert rc == 2
    assert rundir is None
    assert "width" in capsys.readouterr().err


def test_out_of_window_weight_exits_2_citing_window(tmp_path, capsys):
    ini = "[geometry]\nkind = cone_capped\nc = 1\n[norms]\ngamma = 0\n"
    rc, rundir = run_cli(tmp_path, "norms", ini)
    assert rc == 2
    assert rundir is None
    assert "(-1, -0.5)" in capsys.readouterr().err
    rc, rundir = run_cli(tmp_path, "norms", ini, "--allow-out-of-window")
    assert rc == 0


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["norms", "--config", str(tmp_path / "nope.ini"),
               "--run-root", str(tmp_path / "runs")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("norms", "gamma", "nan"),
    ("norms", "gamma", "inf"),
    ("norms", "pairs", "0,nan"),
    ("dynamics", "dt", "nan"),
    ("dynamics", "T_max", "inf"),
    ("dynamics", "eq_tol", "nan"),
    ("experiment", "radii", "1,-inf"),
    ("experiment", "radii", "0.5,0.5"),
    ("experiment", "radii", "0"),
    ("experiment", "radii", "-0.5"),
    ("experiment", "modes", ""),
    ("experiment", "modes", "-1"),
    ("experiment", "n_eigs", "-3"),
    ("experiment", "seed", "-1"),
    ("geometry", "kind", "spindle"),
    ("experiment", "modes", "1,1"),
])
def test_non_finite_or_out_of_range_value_exits_2_naming_the_key(tmp_path, capsys,
                                                                 section, key, value):
    rc, rundir = run_cli(tmp_path, "spectrum", f"[{section}]\n{key} = {value}\n")
    assert rc == 2
    assert rundir is None
    err = capsys.readouterr().err
    assert f"[{section}] {key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, key", [
    pytest.param("dynamics", "conserve_mean", id="conserve_mean"),
    pytest.param("dynamics", "linear_only", id="linear_only"),
    pytest.param("geometry", "c2", id="c2"),
    *(pytest.param("experiment", key, id=key) for key in
      ("level_margin", "mode_decay", "source_center", "source_width", "drop_last")),
])
def test_removed_key_exits_2_naming_it(tmp_path, capsys, section, key):
    rc, rundir = run_cli(tmp_path, "simulate", f"[{section}]\n{key} = false\n")
    assert rc == 2
    assert rundir is None
    assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err


def test_rejected_ls_probe_still_writes_its_trajectory(tmp_path):
    # sampled every 100 steps, the default run keeps too few samples and the
    # probe aborts; the trajectory it was computed from is written before that
    rc, rundir = run_cli(tmp_path, "ls-probe", "[dynamics]\nsnapshot_stride = 400\n")
    assert rc == 3
    assert "usable samples" in (rundir / "status").read_text()
    assert not (rundir / "ls_summary.csv").exists()
    header, rows = read_csv(rundir / "trajectory.csv")
    assert header == ["t", "energy_gap", "rate_dual_norm"]
    assert len(rows) > 1 and float(rows[-1][1]) == 0.0


def test_default_ls_probe_fits_the_decay_exponent_reproducibly(tmp_path):
    rc, rundir = run_cli(tmp_path, "ls-probe", "")
    assert rc == 0
    header, rows = read_csv(rundir / "ls_summary.csv")
    summary = dict(zip(header, rows[0]))
    assert 0.0 < float(summary["theta_hat"]) <= 0.55
    assert int(summary["n_samples"]) >= 10
    rc, again = run_cli(tmp_path, "ls-probe", (rundir / "manifest.ini").read_text())
    assert rc == 0
    for name in ("trajectory.csv", "ls_summary.csv"):
        assert (again / name).read_bytes() == (rundir / name).read_bytes()


def test_ls_probe_around_a_nonzero_mean_runs(tmp_path):
    # the relaxed field is within 1e-6 of the constant 0.5, so removing the mean of its
    # gradient leaves a mean the dual norm's check once rejected
    rc, rundir = run_cli(tmp_path, "ls-probe", SPHERE_SMALL + "[experiment]\nic = random\nmean = 0.5\n")
    assert rc == 0
    assert (rundir / "status").read_text().strip() == "ok"


def test_mean_with_a_mean_zero_initial_field_exits_2_naming_it(tmp_path, capsys):
    rc, rundir = run_cli(tmp_path, "norms", "[experiment]\nic = random_mean_zero\nmean = 0.3\n")
    assert rc == 2
    assert rundir is None
    assert "[experiment] mean" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ----------------------------------------------------------- output content


def test_indicial_table_contains_expected_rows(tmp_path):
    rc, rundir = run_cli(tmp_path, "indicial", SMOKE_CONFIGS["indicial"])
    assert rc == 0
    header, rows = read_csv(rundir / "roots.csv")
    cols = {name: header.index(name) for name in header}
    picked = [r for r in rows if r[cols["operator"]] == "bilaplacian"
              and r[cols["mode"]] == "1" and float(r[cols["root_float"]]) == -1.0]
    assert len(picked) == 1
    assert picked[0][cols["in_asymptotic_window"]] == "true"
    logs = {r[cols["log_power_max"]] for r in rows
            if r[cols["operator"]] == "bilaplacian" and r[cols["mode"]] == "1"}
    assert logs == {"0", "1"}

    header, rows = read_csv(rundir / "windows.csv")
    windows = {r[0]: (float(r[3]), float(r[4])) for r in rows}
    assert windows["fourth_order"] == (-1.0, -0.5)
    assert windows["second_order"] == (-1.0, 0.0)


def test_a_command_without_a_config_file_runs_at_the_defaults(tmp_path):
    root = tmp_path / "runs"
    assert main(["indicial", "--run-root", str(root)]) == 0
    (bare,) = root.iterdir()
    rc, rundir = run_cli(tmp_path, "indicial", "")
    assert rc == 0 and rundir != bare
    for name in EXPECTED_FILES["indicial"]:
        assert (bare / name).read_bytes() == (rundir / name).read_bytes()


def test_indicial_marks_exactly_the_branch_space_members(tmp_path):
    # gamma = 0 lies outside the window of c = 1, and the column holds both values
    ini = SMOKE_CONFIGS["indicial"] + "[norms]\ngamma = 0\n"
    rc, rundir = run_cli(tmp_path, "indicial", ini, "--allow-out-of-window")
    assert rc == 0
    header, rows = read_csv(rundir / "roots.csv")
    assert {row[-1] for row in rows} == {"true", "false"}
    marked = [tuple(row[:3]) + (row[4],) for row in rows if row[-1] == "true"]
    cfg = parse_config(ini)
    _, _, members = asymptotic_space(boundary_spectrum(cfg.geometry.build_profile(), 3), 0)
    assert marked == [("bilaplacian", str(root.mode), repr(root.value), str(root.multiplicity))
                      for root in members]


def test_spectrum_output_matches_sphere(tmp_path):
    rc, rundir = run_cli(tmp_path, "spectrum", SMOKE_CONFIGS["spectrum"])
    assert rc == 0
    header, rows = read_csv(rundir / "spectrum.csv")
    assert len(rows) == 3 * 3  # (K+1) modes x n_eigs
    summary = csv_dict(rundir / "summary.csv")
    assert float(summary["poincare_constant"]) == pytest.approx(2 ** -0.5, rel=0.01)
    assert float(summary["mu_1"]) == pytest.approx(2.0, rel=0.01)


@pytest.mark.xfail(strict=True, reason="FOUND: ModeOperators.eigenvalues' dstevd with "
                   "eigenvectors gives 9 negative eigenvalues of -L_k at the default config")
def test_default_spectrum_is_nonnegative_and_starts_at_mu_1(tmp_path):
    rc, rundir = run_cli(tmp_path, "spectrum", "")
    assert rc == 0
    _, rows = read_csv(rundir / "spectrum.csv")
    assert min(float(value) for _, _, value in rows) > -1e-9
    first = {mode: float(value) for mode, index, value in rows if index == "0"}
    mu_1 = float(csv_dict(rundir / "summary.csv")["mu_1"])
    assert first["1"] == pytest.approx(mu_1, rel=1e-9)


def test_default_attractor_runs(tmp_path):
    rc, rundir = run_cli(tmp_path, "attractor", "")
    assert (rundir / "status").read_text() == "ok\n"
    assert rc == 0


def test_norms_output_closed_forms(tmp_path):
    # at M = 24 the dual norm's mean check rejected the constant of one ulp left by
    # removing the mean
    for m, c in ((48, 0.5), (24, 1.0), (24, -1.0), (24, 0.5)):
        ini = SPHERE_SMALL.replace("M = 48", f"M = {m}") \
            + f"[experiment]\nic = constant\nmean = {c}\n"
        rc, rundir = run_cli(tmp_path, "norms", ini)
        assert rc == 0
        header, rows = read_csv(rundir / "field_norms.csv")
        vals = {r[0]: float(r[-1]) for r in rows if r[0] != "mellin_norm"}
        area = vals["mass"] / c
        assert vals["mean"] == pytest.approx(c, rel=1e-12)
        assert vals["sup"] == pytest.approx(abs(c), rel=1e-12)
        assert vals["l2_norm"] == pytest.approx(abs(c) * area ** 0.5, rel=1e-12)
        assert vals["energy"] == pytest.approx(area * (c ** 4 / 4 - c ** 2 / 2), rel=1e-12)
        assert vals["h1_seminorm"] == pytest.approx(0.0, abs=1e-10)
        assert vals["h01_dual_norm_meanfree"] == pytest.approx(0.0, abs=1e-10)


# ------------------------------------------------------------ reproducibility


def test_equal_seeds_produce_identical_diagnostics(tmp_path):
    _, first = run_cli(tmp_path, "simulate", SMOKE_CONFIGS["simulate"])
    _, second = run_cli(tmp_path, "simulate", SMOKE_CONFIGS["simulate"])
    assert (first / "diagnostics.csv").read_bytes() \
        == (second / "diagnostics.csv").read_bytes()
    other_seed = SMOKE_CONFIGS["simulate"].replace("seed = 5", "seed = 6")
    _, third = run_cli(tmp_path, "simulate", other_seed)
    assert (first / "diagnostics.csv").read_bytes() \
        != (third / "diagnostics.csv").read_bytes()


def test_manifest_roundtrip_reproduces_outputs(tmp_path):
    ini = SPHERE_SMALL + "[experiment]\nic = random_mean_zero\namplitude = 0.3\nseed = 5\n"
    rc, first = run_cli(tmp_path, "norms", ini)
    assert rc == 0
    rc2 = main(["norms", "--config", str(first / "manifest.ini"),
                "--run-root", str(tmp_path / "runs")])
    assert rc2 == 0
    second = sorted((tmp_path / "runs").iterdir())[-1]
    assert second != first
    assert (first / "field_norms.csv").read_bytes() \
        == (second / "field_norms.csv").read_bytes()
    stable = [ln for ln in (first / "manifest.ini").read_text().splitlines()
              if not ln.startswith("created")]
    stable2 = [ln for ln in (second / "manifest.ini").read_text().splitlines()
               if not ln.startswith("created")]
    assert stable == stable2


def test_csv_cells_carry_full_precision(tmp_path):
    _, rundir = run_cli(tmp_path, "simulate", SMOKE_CONFIGS["simulate"])
    header, rows = read_csv(rundir / "diagnostics.csv")
    long_cells = 0
    for row in rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert format(value, ".17g") == cell
            if len(cell.lstrip("-0.").replace(".", "").replace("e", "")) >= 16:
                long_cells += 1
    assert long_cells > 0  # full mantissas actually appear


def test_snapshot_text_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((3, 2, 7)) * 10.0 ** rng.integers(-300, 290, (3, 2, 7))
    coeffs[0, 0, :4] = [-0.0, 5e-324, 1e-300, 2.2250738585072014e-308]
    coeffs[1, 1, :3] = [np.inf, -np.inf, np.nan]
    path = tmp_path / "snap.txt"
    conekit.cli._write_snapshot(path, 0.125, coeffs)
    lines = ["# t = 0.125", "# modes = 2", "# cells = 7"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in coeffs.reshape(-1, 7)]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_simulate_is_one_run_that_forks_one_checker_and_writes_what_it_records(tmp_path,
                                                                               monkeypatch):
    # 100 steps past those the run takes before its checker, recorded every 50, a stride
    # shorter than the steps before the checker
    first = conekit.dynamics._Checker.first(3 * 2 * 48)   # (K+1) * 2 * M values per step
    assert 50 < first
    ini = SPHERE_SMALL + f"[dynamics]\nT_max = {(first + 100) / 1000}\neq_tol = 0\n" \
        + "snapshot_stride = 50\n[experiment]\namplitude = 0.3\nseed = 5\n"
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rc, rundir = run_cli(tmp_path, "simulate", ini)
    assert rc == 0
    assert len(forks) == 1

    # the same run on one CPU, its records and snapshots collected, then written out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = parse_config(ini)
    ops = cfg.geometry.build_workspace()
    result = run_semiflow(ops, conekit.cli._initial_field(cfg, ops),
                          cfg.dynamics.stepper(cfg.norms.gamma), collect_snapshots=True)
    assert len(forks) == 1
    want = tmp_path / "want"
    want.mkdir()
    conekit.cli._write_csv(want / "diagnostics.csv", DiagnosticsRecord.CSV_FIELDS,
                           [rec.csv_values() for rec in result.records])
    assert (rundir / "diagnostics.csv").read_bytes() == (want / "diagnostics.csv").read_bytes()
    names = [f"snap_{step:08d}.txt" for step, _ in result.snapshots]
    assert sorted(p.name for p in (rundir / "snapshots").iterdir()) == names
    for name, (step, coeffs) in zip(names, result.snapshots):
        conekit.cli._write_snapshot(want / name, step * cfg.dynamics.dt, coeffs)
        assert (rundir / "snapshots" / name).read_bytes() == (want / name).read_bytes()


def test_attractor_outputs_match_serial_runs(tmp_path, monkeypatch):
    ini = SMOKE_CONFIGS["attractor"].replace("seeds_per_radius = 1", "seeds_per_radius = 2")
    # two slices of the four members, each in a forked child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _, batched = run_cli(tmp_path, "attractor", ini)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(conekit.dynamics, "_run_batch", serial_runs(conekit.dynamics._run_batch))
    _, serial = run_cli(tmp_path, "attractor", ini)
    for name in EXPECTED_FILES["attractor"]:
        assert (batched / name).read_bytes() == (serial / name).read_bytes()


def test_unexpected_exception_writes_status_and_exits_4(tmp_path, monkeypatch, capsys):
    def broken(cfg, outdir):
        raise RuntimeError("boom")

    monkeypatch.setitem(conekit.cli._RUNNERS, "indicial", broken)
    rc, rundir = run_cli(tmp_path, "indicial", SMOKE_CONFIGS["indicial"])
    assert rc == 4
    assert (rundir / "status").read_text() == "error: RuntimeError: boom\n"
    assert "Traceback" in capsys.readouterr().err


def test_interrupt_writes_status_and_propagates(tmp_path, monkeypatch):
    def interrupted(cfg, outdir):
        raise KeyboardInterrupt

    monkeypatch.setitem(conekit.cli._RUNNERS, "indicial", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(tmp_path, "indicial", SMOKE_CONFIGS["indicial"])
    (rundir,) = (tmp_path / "runs").iterdir()
    assert (rundir / "status").read_text() == "error: KeyboardInterrupt: \n"
