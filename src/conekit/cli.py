"""Command-line entry point: reproducible runs that emit CSV reports.

Every subcommand reads one INI configuration, creates a fresh directory
``<run-root>/<timestamp>-<command>/`` and writes

* ``manifest.ini`` — the full configuration echo (defaults included) plus a
  [meta] block; feeding it back through --config reproduces the run,
* one or more CSV files with the command's results (17 significant digits);
  ``simulate`` also writes ``snapshots/snap_<step>.txt`` as each is recorded,
  so an aborted run keeps them (the aborting step's too) and its memory holds
  no snapshot,
* ``status`` — a single line, ``ok`` or ``error: <type>: <reason>``, written
  whatever ended the run.

Exit codes: 0 success, 2 configuration/validation error (the offending key is
named), 3 numerical abort (partial outputs are flushed first), 4 any other
failure (an internal error; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (absorbing_set_experiment, lojasiewicz_probe,
                       smooth_random_field, tip_probe)
from .config import (ConfigError, RunConfig, manifest_text, parse_config,
                     validate_gamma)
from .dynamics import (DiagnosticsRecord, StabilityError, _mean_free_dual_norm, energy,
                       run_semiflow)
from .fields import Field, constant_field
from .geometry import boundary_spectrum
from .indicial import (asymptotic_space, bilaplacian_indicial_roots,
                       ch_gamma_window, interpolation_exclusions,
                       laplacian_gamma_window, laplacian_indicial_roots,
                       minimal_domain_check)
from .operators import SolverError
from .spaces import h1_seminorm, l2_norm, lp_norm, mean, mellin_norm, poincare_constant

#: Exceptions that end a run as a numerical abort (exit code 3).
NUMERICAL_ABORTS = (StabilityError, SolverError, ValueError, ArithmeticError)

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _make_run_dir(root: str, command: str) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = Path(root) / f"{stamp}-{command}"
    base.parent.mkdir(parents=True, exist_ok=True)
    candidate, n = base, 1
    while True:
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:   # taken by another run started in the same second
            n += 1
            candidate = base.with_name(f"{base.name}-{n}")


def _write_snapshot(path: Path, t: float, coeffs: np.ndarray):
    kmax, m = coeffs.shape[0] - 1, coeffs.shape[2]
    row = " ".join(["%.17g"] * m) + "\n"   # the same text as format(v, ".17g") per value
    with open(path, "w") as fh:
        fh.write(f"# t = {format(t, '.17g')}\n# modes = {kmax}\n# cells = {m}\n")
        fh.writelines(row % tuple(values.tolist()) for values in coeffs.reshape(-1, m))


def _initial_field(cfg: RunConfig, ops) -> Field:
    e = cfg.experiment
    mesh = ops.mesh
    if e.ic == "constant":
        return constant_field(mesh, ops.max_mode, e.mean)
    rng = np.random.default_rng(e.seed)
    u = smooth_random_field(ops, rng, sup_amplitude=e.amplitude,
                            mode_decay=e.mode_decay)
    if e.mean != 0.0:
        u = u + constant_field(mesh, ops.max_mode, e.mean)
    return u


# ----------------------------------------------------------------- commands


def _cmd_indicial(cfg: RunConfig, outdir: Path):
    profile = cfg.geometry.build_profile()
    spectrum = boundary_spectrum(profile, cfg.geometry.K)
    gamma = cfg.norms.gamma
    lower, upper, members = asymptotic_space(1, spectrum, gamma)
    roots = laplacian_indicial_roots(1, spectrum) + bilaplacian_indicial_roots(1, spectrum)
    _write_csv(outdir / "roots.csv",
               ("operator", "mode", "root", "root_float", "multiplicity",
                "log_power_max", "in_asymptotic_window"),
               [(root.operator, root.mode, repr(root.value), float(root.value),
                 root.multiplicity, root.log_power_max, root in members)
                for root in roots])

    lam1 = spectrum[1][1]
    win4 = ch_gamma_window(1, lam1)
    win2 = laplacian_gamma_window(1, lam1)
    _write_csv(outdir / "windows.csv",
               ("name", "lower", "upper", "lower_float", "upper_float", "nonempty"),
               [("fourth_order", repr(win4.lower), repr(win4.upper),
                 float(win4.lower), float(win4.upper), win4.nonempty),
                ("second_order", repr(win2.lower), repr(win2.upper),
                 float(win2.lower), float(win2.upper), win2.nonempty),
                ("branch_window", repr(lower), repr(upper), float(lower), float(upper), True)])

    hits = minimal_domain_check(1, spectrum, gamma)
    _write_csv(outdir / "minimal_domain.csv",
               ("clean", "offending_value", "offending_mode"),
               [(False, repr(v), mode) for v, mode in hits] or [(True, "", "")])

    exclusions = interpolation_exclusions(1, spectrum, gamma)
    _write_csv(outdir / "exclusions.csv", ("value", "value_float"),
               [(repr(v), float(v)) for v in exclusions])


def _cmd_spectrum(cfg: RunConfig, outdir: Path):
    ops = cfg.geometry.build_workspace()
    n_eigs = min(cfg.experiment.n_eigs, ops.mesh.cells)
    rows = []
    for k in range(ops.max_mode + 1):
        vals = ops.eigenvalues(k)[:n_eigs]
        rows.extend((k, i, float(v)) for i, v in enumerate(vals))
    _write_csv(outdir / "spectrum.csv", ("mode", "index", "eigenvalue"), rows)
    mu1 = min(ops.smallest_eigenvalue(k) for k in range(ops.max_mode + 1))
    _write_csv(outdir / "summary.csv", ("quantity", "value"),
               [("poincare_constant", poincare_constant(ops)),
                ("mu_1", mu1),
                ("area", ops.mesh.area),
                ("min_width", ops.mesh.min_width),
                ("s_min", ops.mesh.s_min)])


def _cmd_norms(cfg: RunConfig, outdir: Path):
    ops = cfg.geometry.build_workspace()
    u = _initial_field(cfg, ops)
    rows = []
    for s, gamma in cfg.norms.pairs:
        rows.append(("mellin_norm", s, gamma, mellin_norm(u, s, gamma)))
    rows += [("mass", "", "", mean(u) * ops.mesh.area),
             ("mean", "", "", mean(u)),
             ("energy", "", "", energy(u)),
             ("l2_norm", "", "", l2_norm(u)),
             ("l4_norm", "", "", lp_norm(u, 4)),
             ("h1_seminorm", "", "", h1_seminorm(u)),
             ("h01_dual_norm_meanfree", "", "", _mean_free_dual_norm(ops, u.coeffs.copy())),
             ("sup", "", "", u.max_abs())]
    _write_csv(outdir / "field_norms.csv", ("quantity", "s", "gamma", "value"), rows)


def _cmd_simulate(cfg: RunConfig, outdir: Path):
    ops = cfg.geometry.build_workspace()
    u0 = _initial_field(cfg, ops)
    stepper = cfg.dynamics.stepper(cfg.norms.gamma)
    snap_dir = outdir / "snapshots"
    if cfg.experiment.snapshots:
        snap_dir.mkdir()

    with open(outdir / "diagnostics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DiagnosticsRecord.CSV_FIELDS)

        def on_record(rec, coeffs):
            # on disk as soon as recorded: an aborted run keeps them, and none stays in memory
            writer.writerow([_fmt(v) for v in rec.csv_values()])
            fh.flush()
            if cfg.experiment.snapshots:
                _write_snapshot(snap_dir / f"snap_{rec.step:08d}.txt", rec.t, coeffs)

        result = run_semiflow(ops, u0, stepper, on_record=on_record)
    state = result.state
    _write_snapshot(outdir / "final_state.txt", state.step * stepper.dt, state.u.coeffs)
    _write_csv(outdir / "summary.csv", ("quantity", "value"),
               [("equilibrium_reached", result.equilibrium_reached),
                ("final_residual", result.final_residual),
                ("t_final", state.step * stepper.dt),
                ("steps", state.step),
                ("mass_drift", abs(result.records[-1].mass - result.records[0].mass))])


def _cmd_attractor(cfg: RunConfig, outdir: Path):
    ops = cfg.geometry.build_workspace()
    e = cfg.experiment
    stepper = cfg.dynamics.stepper(cfg.norms.gamma)
    report = absorbing_set_experiment(
        ops, stepper, radii=e.radii, seeds_per_radius=e.seeds_per_radius,
        base_seed=e.seed, level_margin=e.level_margin, mode_decay=e.mode_decay)
    rows = []
    for radius in report.radii:
        for i in range(report.seeds_per_radius):
            rows.append((radius, e.seed + i, report.entry_times[radius][i],
                         report.post_sups[radius][i]))
    _write_csv(outdir / "entries.csv", ("radius", "seed", "entry_time", "post_entry_sup"), rows)
    _write_csv(outdir / "kappa.csv",
               ("radius", "kappa", "tip_norm_sup", "tip_norm_sup_lap", "level"),
               [(r, report.kappa[r], report.tip_norm_sup[r], report.tip_norm_sup_lap[r],
                 report.level) for r in report.radii])
    header = ["t"] + [f"diameter_r{format(r, 'g')}" for r in report.radii]
    rows = [[t] + [report.diameters[r][i] for r in report.radii]
            for i, t in enumerate(report.diam_times)]
    _write_csv(outdir / "diameters.csv", header, rows)


def _cmd_fit_asymptotics(cfg: RunConfig, outdir: Path):
    ops = cfg.geometry.build_workspace()
    e = cfg.experiment
    fits, profiles = [], {}
    for mode in e.modes:
        sol, fit = tip_probe(ops, mode, source_center_frac=e.source_center,
                             source_width_frac=e.source_width)
        profiles[mode] = sol
        fits.append((mode,
                     "" if fit.rho_hat is None else fit.rho_hat,
                     "" if fit.log_slope is None else fit.log_slope,
                     fit.r_squared, fit.n_points, fit.window[0], fit.window[1]))
    _write_csv(outdir / "fits.csv",
               ("mode", "rho_hat", "log_slope", "r_squared", "n_points",
                "window_lo", "window_hi"), fits)
    header = ["s"] + [f"u_mode{m}" for m in e.modes]
    rows = [[s] + [profiles[m][i] for m in e.modes]
            for i, s in enumerate(ops.mesh.centers)]
    _write_csv(outdir / "profiles.csv", header, rows)


def _cmd_ls_probe(cfg: RunConfig, outdir: Path):
    ops = cfg.geometry.build_workspace()
    u0 = _initial_field(cfg, ops)
    # records and gradient samples every quarter stride: the default run settles within ten strides
    stepper = replace(cfg.dynamics.stepper(cfg.norms.gamma),
                      snapshot_stride=max(1, cfg.dynamics.snapshot_stride // 4))
    result = run_semiflow(ops, u0, stepper, collect_snapshots=True)
    # the trajectory goes out before the probe, which may reject the run
    e_inf = result.records[-1].energy
    rows = [(rec.t, rec.energy - e_inf, rec.ut_h01dual) for rec in result.records]
    _write_csv(outdir / "trajectory.csv", ("t", "energy_gap", "rate_dual_norm"), rows)
    probe = lojasiewicz_probe(ops, result, drop_last_fraction=cfg.experiment.drop_last)
    _write_csv(outdir / "ls_summary.csv",
               ("theta_hat", "slope", "r_squared", "n_samples", "energy_limit", "in_bracket"),
               [(probe.theta_hat, probe.slope, probe.r_squared, probe.n_samples,
                 probe.energy_limit, probe.in_bracket)])


_RUNNERS = {
    "indicial": _cmd_indicial,
    "spectrum": _cmd_spectrum,
    "norms": _cmd_norms,
    "simulate": _cmd_simulate,
    "attractor": _cmd_attractor,
    "fit-asymptotics": _cmd_fit_asymptotics,
    "ls-probe": _cmd_ls_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="Phase-separation dynamics and exact tip asymptotics on "
                    "surfaces of revolution with conical points.")
    parser.add_argument("--version", action="version", version=f"conekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", default=None,
                       help="INI configuration file (defaults apply when omitted)")
        p.add_argument("--run-root", default="runs",
                       help="directory under which the run directory is created")
        p.add_argument("--allow-out-of-window", action="store_true",
                       help="accept weights outside the admissible window")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            text = Path(args.config).read_text()
        else:
            text = ""
        cfg = parse_config(text)
        validate_gamma(cfg, allow_out_of_window=args.allow_out_of_window)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        outdir = _make_run_dir(args.run_root, args.command)
    except OSError as exc:
        print(f"error: cannot create run directory: {exc}", file=sys.stderr)
        return 2
    try:
        (outdir / "manifest.ini").write_text(
            manifest_text(cfg, args.command, time.strftime("%Y-%m-%dT%H:%M:%S")))
        _RUNNERS[args.command](cfg, outdir)
    except BaseException as exc:
        # every run directory ends with a status, whatever stopped the run
        (outdir / "status").write_text(f"error: {type(exc).__name__}: {exc}\n")
        if not isinstance(exc, Exception):
            raise
        numerical = isinstance(exc, NUMERICAL_ABORTS)
        if not numerical:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        print(f"run directory: {outdir}")
        return 3 if numerical else 4
    (outdir / "status").write_text("ok\n")
    print(f"run directory: {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
