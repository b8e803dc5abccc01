"""The benchmark's workloads, their set-up, one unit of work each, and the
fingerprints that show a unit computed the right thing.

A workload is a frozen dataclass: its fields are the shapes (the reference
fingerprints in ``reference.json`` are stored together with them and are
refused when they differ).  ``setup(ck, seed)`` builds everything a unit needs
from the seed, ``run(ck, state)`` performs one unit and times only the calls
into conekit, ``teardown(state)`` removes what set-up created.  ``ck`` is the
imported conekit package; every call goes through its attributes at call
time, so a tracer that patched them sees the calls.

Why these three (see README.md for the per-layer predictions):

* ``ensemble`` -- many small independent trajectories (criterion 8 set-up,
  shorter horizon).  Per-call numpy overhead dominates each step, so this is
  where batching ensemble members must show.  It bypasses equilibrium
  detection and file I/O.
* ``relax`` -- time to a solution of stated accuracy (dual residual 1e-8),
  one trajectory at a time on the sphere and on a cone; batching should leave
  it unchanged.  It exercises the Poincare screen and the exact dual norms,
  and K=16 gives the angular FFT a larger share.
* ``cli`` -- what a user runs: four in-process ``conekit`` commands at the
  default configuration (tip-graded cone, M=256, K=32).  The only workload
  with CSV and snapshot writes, the symbolic layer, and a tip-graded mesh,
  where the solve-residual evaluation floor is active.  ``ls-probe`` is left
  out: at the default configuration it exits 3 with "only 8 usable samples",
  a known defect that a benchmark must not paper over.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

clock = time.perf_counter


@dataclass
class Op:
    """One checked operation of a unit: an ensemble, a trajectory or a command."""

    label: str
    size: int           # trajectories or commands it stands for (failed_frac weight)
    fingerprint: dict


@dataclass
class UnitResult:
    wall: float         # seconds inside conekit calls: the time to solution
    steps: int          # semiflow steps summed over trajectories
    ops: list[Op]
    bytes_written: int = 0


@dataclass(frozen=True)
class Shape:
    """Geometry and stepper shape used to microbenchmark the layers."""

    profile: object          # conekit SurfaceProfile
    cells: int
    grading: float
    modes: int
    dt: float
    stabilization: float

    def build(self, ck):
        return ck.ModeOperators(ck.build_mesh(self.profile, self.cells, self.grading),
                                self.modes)


# (kind, build_profile keyword pairs)
SPHERE = ("sphere", (("radius", 1.0),))
CONE_HALF = ("cone_capped", (("c", "1/2"), ("length", 2.0)))


def profile(ck, geometry):
    kind, args = geometry
    return ck.build_profile(kind, **dict(args))


# ---------------------------------------------------------------- ensemble

#: AbsorbingReport fields keyed by radius that the ensemble fingerprint holds.
PER_RADIUS = ("kappa", "entry_times", "tip_norm_sup", "tip_norm_sup_lap", "diameters")


@dataclass(frozen=True)
class Ensemble:
    """``absorbing_set_experiment`` on the unit sphere, two radii x four seeds."""

    cells: int = 96
    modes: int = 8
    radii: tuple = (1.0, 10.0)
    seeds_per_radius: int = 4
    dt: float = 1e-4
    stabilization: float = 2.0
    t_max: float = 0.05
    snapshot_stride: int = 200
    name: str = "ensemble"

    @property
    def unit_size(self) -> int:
        return len(self.radii) * self.seeds_per_radius

    def shape(self, ck) -> Shape:
        return Shape(profile(ck, SPHERE), self.cells, 1.0, self.modes, self.dt,
                     self.stabilization)

    def setup(self, ck, seed: int):
        ops = self.shape(ck).build(ck)
        ops.ch_factorization(self.dt, self.stabilization)
        cfg = ck.StepperConfig(dt=self.dt, stabilization=self.stabilization, t_max=self.t_max,
                               eq_tol=0.0, snapshot_stride=self.snapshot_stride)
        # member seeds base, ..., base + seeds_per_radius - 1: disjoint across seeds
        return ops, cfg, seed * self.seeds_per_radius

    def run(self, ck, state) -> UnitResult:
        ops, cfg, base_seed = state
        t0 = clock()
        report = ck.absorbing_set_experiment(ops, cfg, radii=self.radii,
                                             seeds_per_radius=self.seeds_per_radius,
                                             base_seed=base_seed)
        wall = clock() - t0
        # eq_tol = 0 disables equilibrium stops: every member runs to t_max
        steps = self.unit_size * int(math.floor(self.t_max / self.dt + 1e-9))
        # what the timed call computes besides the level, listed per radius
        fp = {"level": report.level,
              **{key: [np.asarray(getattr(report, key)[r]).tolist() for r in self.radii]
                 for key in PER_RADIUS}}
        return UnitResult(wall, steps, [Op("experiment", self.unit_size, fp)])

    def teardown(self, state):
        pass


# ------------------------------------------------------------------- relax


@dataclass(frozen=True)
class Relax:
    """``run_semiflow`` to equilibrium on the sphere, then on a cone (c = 1/2)."""

    cells: int = 128
    modes: int = 16
    dt: float = 1e-3
    stabilization: float = 2.0
    t_max: float = 1000.0
    eq_tol: float = 1e-8
    snapshot_stride: int = 200
    amplitude: float = 0.5
    geometries: tuple = (SPHERE, CONE_HALF)
    name: str = "relax"

    @property
    def unit_size(self) -> int:
        return len(self.geometries)

    def shape(self, ck, geometry=None) -> Shape:
        return Shape(profile(ck, geometry or self.geometries[0]), self.cells, 1.0,
                     self.modes, self.dt, self.stabilization)

    def setup(self, ck, seed: int):
        cfg = ck.StepperConfig(dt=self.dt, stabilization=self.stabilization, t_max=self.t_max,
                               eq_tol=self.eq_tol, snapshot_stride=self.snapshot_stride)
        runs = []
        for geometry in self.geometries:
            ops = self.shape(ck, geometry).build(ck)
            u0 = ck.smooth_random_field(ops, np.random.default_rng(seed),
                                        sup_amplitude=self.amplitude)
            ops.ch_factorization(self.dt, self.stabilization)
            runs.append((geometry[0], ops, u0))
        return cfg, runs

    def run(self, ck, state) -> UnitResult:
        cfg, runs = state
        wall, steps, ops_out = 0.0, 0, []
        for kind, ops, u0 in runs:
            t0 = clock()
            result = ck.run_semiflow(ops, u0, cfg, collect_snapshots=True)
            wall += clock() - t0
            recs = result.records
            steps += result.state.step
            ops_out.append(Op(kind, 1, {
                "final_energy": recs[-1].energy,
                "mass_drift": abs(recs[-1].mass - recs[0].mass),
                "final_residual": result.final_residual,
                "eq_step": result.state.step,
                "equilibrium": result.equilibrium_reached}))
        return UnitResult(wall, steps, ops_out)

    def teardown(self, state):
        pass


# --------------------------------------------------------------------- cli


@dataclass(frozen=True)
class Cli:
    """In-process ``conekit.cli.main`` for four commands at the default config.

    ``overrides`` holds extra INI lines (used only to shrink the shapes in the
    smoke test); the seed goes into ``[experiment] seed``.
    """

    commands: tuple = ("simulate", "indicial", "spectrum", "fit-asymptotics")
    overrides: tuple = ()    # (section, key, value)
    name: str = "cli"

    @property
    def unit_size(self) -> int:
        return len(self.commands)

    def config_text(self, seed: int) -> str:
        sections: dict[str, list[str]] = {"experiment": [f"seed = {seed}"]}
        for section, key, value in self.overrides:
            sections.setdefault(section, []).append(f"{key} = {value}")
        return "".join(f"[{s}]\n" + "".join(line + "\n" for line in lines)
                       for s, lines in sections.items())

    def shape(self, ck) -> Shape:
        cfg = ck.config.parse_config(self.config_text(0))
        g, d = cfg.geometry, cfg.dynamics
        return Shape(g.build_profile(), g.M, g.q, g.K, d.dt, d.S)

    def setup(self, ck, seed: int):
        # run roots live in a temporary directory inside the checkout, never in runs/
        tmp = Path(tempfile.mkdtemp(prefix=".bench-cli-", dir=_checkout_root()))
        path = tmp / "run.ini"
        path.write_text(self.config_text(seed))
        ck.config.parse_config(path.read_text())
        return tmp, path

    def run(self, ck, state) -> UnitResult:
        tmp, cfg_path = state
        wall, steps, written, ops_out = 0.0, 0, 0, []
        for command in self.commands:
            root = Path(tempfile.mkdtemp(dir=tmp))
            sink = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = ck.cli.main([command, "--config", str(cfg_path), "--run-root", str(root)])
            wall += clock() - t0
            files = [p for p in sorted(root.rglob("*")) if p.is_file()]
            written += sum(p.stat().st_size for p in files)
            by_name = {p.name: p for p in files}
            status = by_name["status"].read_text().strip() if "status" in by_name else "missing"
            digests = {name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for name, p in by_name.items()
                       if p.suffix == ".csv" or name == "final_state.txt"}
            if command == "simulate" and "summary.csv" in by_name:
                for line in by_name["summary.csv"].read_text().splitlines():
                    if line.startswith("steps,"):
                        steps += int(line.split(",")[1])
            shutil.rmtree(root)
            ops_out.append(Op(command, 1, {"exit": code, "status": status, "sha256": digests}))
        return UnitResult(wall, steps, ops_out, bytes_written=written)

    def teardown(self, state):
        shutil.rmtree(state[0], ignore_errors=True)


def _checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


WORKLOADS = {w.name: w for w in (Ensemble(), Relax(), Cli())}


# -------------------------------------------------------------- fingerprints


def check(fingerprint: dict, reference: dict | None, rules: dict) -> list[str]:
    """Problems found comparing one operation's fingerprint with its reference.

    ``rules`` maps a fingerprint key to one tolerance: ``max`` (an invariant
    bound on the value itself), ``rtol`` (against the reference, elementwise
    for lists) or ``exact``.  A missing reference is a problem.
    """
    problems = []
    for key, rule in rules.items():
        value = fingerprint.get(key)
        if "max" in rule:
            if not (isinstance(value, (int, float)) and value <= rule["max"]):
                problems.append(f"{key} = {value!r} exceeds {rule['max']!r}")
            continue
        if reference is None:
            problems.append("no stored reference")
            break
        ref = reference.get(key)
        if "exact" in rule:
            ok = value == ref
        else:
            vals, refs = np.atleast_1d(value), np.atleast_1d(ref)
            ok = vals.shape == refs.shape and bool(
                np.all(np.abs(vals - refs) <= rule["rtol"] * np.abs(refs)))
        if not ok:
            problems.append(f"{key} = {value!r}, reference {ref!r}")
    return problems
