"""Mass-conserving, energy-decreasing phase-field dynamics on conic surfaces.

The flow is the dual-Dirichlet-space gradient flow of

    E(u) = 1/2 * int |grad u|^2 dmu + int (u^4/4 - u^2/2) dmu ,

i.e.  u_t = Lap( -Lap u + u^3 - u ).  One step of the stabilized
semi-implicit scheme solves

    (I + dt*Lap^2 - S*dt*Lap) u' = u + dt * Lap( u^3 - (1 + S) u ) ,

first order in time, unconditionally gradient-stable for S large enough
relative to sup|u| (S >= 2 covers |u| <= 1 with margin).  The angular mean is
a conserved quantity; after each solve the mode-0 mean is restored to its
initial value exactly, which removes the slow mass leak that solver roundoff
would otherwise produce.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fields import Field, channel_weights, coeffs_to_values, values_to_coeffs
from .operators import ModeOperators, SolverError
from .spaces import h01_dual_norm, h1_seminorm, mean, mellin_norm, poincare_constant

__all__ = [
    "StepperConfig",
    "SemiflowState",
    "SemiflowResult",
    "DiagnosticsRecord",
    "StabilityError",
    "energy",
    "energy_gradient",
    "gradient_residual",
    "run_semiflow",
]

#: Per-step energy increase beyond 1e-9 * (1 + |E|) aborts the run.
ENERGY_INCREASE_TOL = 1.0e-9


class StabilityError(RuntimeError):
    """The discrete energy rose beyond tolerance; reduce dt or raise S."""


class _SliceStopped(Exception):
    """A slice of _run_sliced stopped: another slice aborted at a lockstep this one has finished."""


@dataclass(frozen=True)
class StepperConfig:
    """Parameters of the semi-implicit stepper and its bookkeeping."""

    dt: float = 1.0e-3
    stabilization: float = 2.0
    t_max: float = 1000.0
    eq_tol: float = 1.0e-8          # equilibrium threshold; 0 disables detection
    snapshot_stride: int = 100
    linear_only: bool = False
    mellin_gamma: float = -0.75

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.stabilization < 0:
            raise ValueError("stabilization must be >= 0")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass
class SemiflowState:
    """Evolving field plus the integer step count and the conserved mean.

    Time is always step * dt, so a run split into two resumed halves at a
    record step reproduces the uninterrupted run bit for bit; so does any
    split with eq_tol = 0.  Elsewhere the first half's closing record, which
    tests for equilibrium exactly, can stop a run the whole one continues.
    """

    u: Field
    step: int = 0
    mean0: float = field(default=None)

    def __post_init__(self):
        if self.mean0 is None:
            self.mean0 = mean(self.u)

    def time(self, cfg: StepperConfig) -> float:
        return self.step * cfg.dt


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of the evolution diagnostics (CSV schema of the run reports)."""

    step: int
    t: float
    mass: float
    energy: float
    h1_seminorm: float
    ut_h01dual: float
    mellin_s0: float
    mellin_s1: float
    max_abs_u: float

    CSV_FIELDS = ("t", "mass", "energy", "h1_seminorm", "ut_h01dual",
                  "mellin_s0", "mellin_s1", "max_abs_u")

    def csv_values(self) -> tuple[float, ...]:
        return (self.t, self.mass, self.energy, self.h1_seminorm, self.ut_h01dual,
                self.mellin_s0, self.mellin_s1, self.max_abs_u)


@dataclass
class SemiflowResult:
    records: list
    state: SemiflowState
    equilibrium_reached: bool
    final_residual: float
    snapshots: list  # (step, coeffs copy) pairs when collected


def _energies(mesh, stack: np.ndarray, vals: np.ndarray,
              linear_only: bool) -> tuple[list[float], list[float]]:
    """Free energy and Dirichlet seminorm of each member of a coefficient stack.

    ``stack`` is (B, K+1, 2, M) and ``vals`` its grid values (B, M, N).  The
    densities are formed for the whole stack, but every reduction is taken
    per member: a batched sum would change the summation order and with it
    the last bits of each member's energy.
    """
    h1 = [h1_seminorm(Field(mesh, coeffs)) for coeffs in stack]
    if linear_only:
        pot = [-0.5 * mesh.integrate_radial(row) for row in (vals ** 2).mean(axis=-1)]
    else:
        sq = vals * vals
        pot = [mesh.integrate_radial(row) for row in (0.25 * sq * sq - 0.5 * sq).mean(axis=-1)]
    return [0.5 * g ** 2 + p for g, p in zip(h1, pot)], h1


def energy(u: Field, linear_only: bool = False) -> float:
    """Free energy of a field; quadratic part only when ``linear_only``."""
    return _energies(u.mesh, u.coeffs[None], u.grid_values()[None], linear_only)[0][0]


def energy_gradient(u: Field, ops: ModeOperators) -> Field:
    """First variation -Lap u + u^3 - u - mean(u^3) on the mean-zero slice.

    For a constant field m the result is the constant -m; dual norms of the
    gradient are taken after removing the mean (see gradient_residual).
    """
    ops._check_field(u)
    cube = u.cubed()
    g = ops.apply_laplacian(u).coeffs
    out = cube.coeffs - u.coeffs - g
    out[0, 0, :] -= u.mesh.integrate_radial(cube.coeffs[0, 0]) / u.mesh.area
    return Field(u.mesh, out)


def gradient_residual(u: Field, ops: ModeOperators) -> float:
    """Dual-space length of the energy gradient (mean removed first)."""
    return _mean_free_dual_norm(ops, energy_gradient(u, ops).coeffs)


def _weighted_l2(coeffs: np.ndarray, mesh) -> float:
    w = channel_weights(coeffs.shape[0] - 1)
    return math.sqrt(float(np.einsum("kci,i,kc->", coeffs ** 2, mesh.volumes, w)))


def _mean_free_dual_norm(ops: ModeOperators, coeffs: np.ndarray) -> float:
    """h01_dual_norm after removing the mean in place, so mean roundoff cannot trip its check."""
    coeffs[0, 0, :] -= (ops.volumes @ coeffs[0, 0]) / ops.mesh.area
    return h01_dual_norm(Field(ops.mesh, coeffs), ops)


def _advance(ops: ModeOperators, stack: np.ndarray, vals: np.ndarray, cfg: StepperConfig,
             mean0: list) -> np.ndarray:
    """One implicit solve for a (B, K+1, 2, M) stack, with exact mean restoration.

    ``vals`` are the stack's grid values and ``mean0`` the conserved mean of
    each member.  The solve verifies every member's residual against an
    independent flux-form application of the operator and raises
    SolverError on failure.
    """
    dt, s = cfg.dt, cfg.stabilization
    if cfg.linear_only:
        nl = -(1.0 + s) * stack
    else:
        nl = values_to_coeffs(vals * vals * vals, ops.max_mode) - (1.0 + s) * stack
    unew = ops.solve_ch_system(stack + dt * ops.apply_laplacian_coeffs(nl), dt, s)
    area = ops.mesh.area
    for c, m0 in zip(unew, mean0):
        c[0, 0, :] += m0 - (ops.volumes @ c[0, 0]) / area
    return unew


def run_semiflow(ops: ModeOperators, initial, cfg: StepperConfig,
                 on_record: Optional[Callable] = None,
                 collect_snapshots: bool = False) -> SemiflowResult:
    """Run the semiflow until t_max or until the equilibrium residual drops
    below eq_tol.

    ``initial`` is a Field (fresh run) or a SemiflowState (resume; time
    continues from state.step * dt).  Diagnostics are recorded every
    ``snapshot_stride`` steps and at the final step; ``on_record`` receives
    each DiagnosticsRecord as it is produced, so partial output survives an
    abort.  Raises StabilityError when the energy rises beyond the per-step
    tolerance or stops being finite (the records produced so far remain
    delivered).

    Equilibrium is declared once the dual norm of the discrete time
    derivative drops below eq_tol.  Because that norm requires a solve over
    every mode, each step is first screened with the Poincare inequality
    (dual norm <= C_P * L2 norm); the exact dual norm is evaluated at record
    steps and whenever the screen certifies the threshold is reachable, so a
    detected equilibrium always carries its exact residual.

    This is the one-member case of the ensemble step kernel (_run_batch).
    """
    deliver = None if on_record is None else (lambda _member, rec: on_record(rec))
    return _run_batch(ops, [initial], cfg, deliver, collect_snapshots)[0]


def _last_step(cfg: StepperConfig) -> int:
    """The step at which a run stops unless it reaches equilibrium first."""
    return int(math.floor(cfg.t_max / cfg.dt + 1e-9))


def _initial_states(ops: ModeOperators, initials: list) -> list[SemiflowState]:
    """The members as SemiflowStates; a foreign or non-finite one raises ValueError."""
    states = [s if isinstance(s, SemiflowState) else SemiflowState(u=s) for s in initials]
    for b, st in enumerate(states):
        ops._check_field(st.u)
        if not (np.isfinite(st.u.coeffs).all() and math.isfinite(st.mean0)):
            raise ValueError(f"member {b} has a non-finite state at step {st.step}")
    return states


def _run_batch(ops: ModeOperators, initials: list, cfg: StepperConfig,
               on_record: Optional[Callable] = None,
               collect_snapshots: bool = False, stop=None) -> list[SemiflowResult]:
    """Run several trajectories through one step kernel; one result per member.

    Each entry of ``initials`` is a Field (fresh run) or a SemiflowState
    (resume), as for run_semiflow.  The active members form the leading axis
    of one coefficient stack, so a step costs one cube transform pair, one
    Laplacian and one stacked implicit solve whatever the member count.
    Everything that decides or records a trajectory -- energy guard,
    Poincare screen, exact residual, equilibrium stop, mean restoration,
    records and snapshots -- is evaluated per member, on that member's slice
    and in the expression a lone run uses, so every member is bitwise equal
    to its own run_semiflow.  A member leaves the stack when it reaches
    equilibrium or t_max.  ``on_record(member, record)`` receives every
    record as it is produced; an energy violation in any member raises
    StabilityError after that member's record is delivered.  ``stop`` is
    the shared value of _run_sliced, the earliest lockstep at which a slice
    aborted; the batch raises _SliceStopped instead of starting a later one.
    """
    states = _initial_states(ops, initials)
    mesh, dt, eq_tol = ops.mesh, cfg.dt, cfg.eq_tol
    n_steps_max = _last_step(cfg)
    steps = [st.step for st in states]
    mean0 = [st.mean0 for st in states]
    records: list[list[DiagnosticsRecord]] = [[] for _ in states]
    snapshots: list[list] = [[] for _ in states]
    residual = [math.inf] * len(states)
    equilibrium = [False] * len(states)
    results: list[Optional[SemiflowResult]] = [None] * len(states)

    stack = np.stack([st.u.coeffs for st in states])
    vals = coeffs_to_values(stack)
    e_now, h1_now = _energies(mesh, stack, vals, cfg.linear_only)

    def emit(member: int, coeffs, vals_m, step: int, e: float, h1: float, res: float):
        u = Field(mesh, coeffs)
        rec = DiagnosticsRecord(
            step=step, t=step * dt, mass=mesh.integrate_radial(coeffs[0, 0]),
            energy=e, h1_seminorm=h1, ut_h01dual=res,
            mellin_s0=mellin_norm(u, 0, cfg.mellin_gamma),
            mellin_s1=mellin_norm(u, 1, cfg.mellin_gamma),
            max_abs_u=float(np.abs(vals_m).max()))
        records[member].append(rec)
        if on_record is not None:
            on_record(member, rec)
        if collect_snapshots:
            snapshots[member].append((step, coeffs.copy()))

    for b, st in enumerate(states):
        if st.step == 0:
            u = Field(mesh, stack[b])
            if cfg.linear_only:
                rate0 = ops.apply_laplacian_coeffs(-ops.apply_laplacian_coeffs(u.coeffs) - u.coeffs)
            else:
                rate0 = ops.apply_laplacian(energy_gradient(u, ops)).coeffs
            # the round trip through dt keeps the bits of the step-0 ut_h01dual;
            # an overflowed rate has no dual residual, as for a step below
            res0 = (_mean_free_dual_norm(ops, rate0 * dt / dt) if np.isfinite(rate0).all()
                    else math.nan)
            emit(b, stack[b], vals[b], 0, e_now[b], h1_now[b], res0)

    active = list(range(len(states)))    # member index of each stack row
    poincare = None
    lockstep = 0    # steps the batch has taken together; orders the aborts of slices
    while True:
        done = [row for row, b in enumerate(active)
                if equilibrium[b] or steps[b] >= n_steps_max]
        for row in done:
            b = active[row]
            results[b] = SemiflowResult(
                records=records[b],
                state=SemiflowState(u=Field(mesh, stack[row]), step=steps[b], mean0=mean0[b]),
                equilibrium_reached=equilibrium[b], final_residual=residual[b],
                snapshots=snapshots[b])
        if done:
            keep = [row for row in range(len(active)) if row not in done]
            if not keep:
                break
            stack, vals = stack[keep], vals[keep]
            e_now = [e_now[row] for row in keep]
            active = [active[row] for row in keep]
        if stop is not None and stop.value < lockstep:
            raise _SliceStopped

        prev = stack
        try:
            stack = _advance(ops, prev, vals, cfg, [mean0[b] for b in active])
        except SolverError as exc:
            exc.lockstep = lockstep
            raise
        vals = coeffs_to_values(stack)
        e_new, h1_new = _energies(mesh, stack, vals, cfg.linear_only)
        for row, b in enumerate(active):
            steps[b] += 1
            step = steps[b]
            is_record = step % cfg.snapshot_stride == 0 or step == n_steps_max
            # written so that a NaN energy counts as a rise
            energy_rose = not (e_new[row] <= e_now[row]
                               + ENERGY_INCREASE_TOL * (1.0 + abs(e_now[row])))
            # The dual norm costs a solve over every mode, so per step we
            # first test the Poincare bound C_P * ||du/dt||_L2 <= eq_tol, which
            # certifies the dual residual is below threshold before paying for it.
            du = None
            maybe_eq = False
            if eq_tol > 0.0:
                if poincare is None:
                    poincare = poincare_constant(ops)
                du = stack[row] - prev[row]
                maybe_eq = poincare * _weighted_l2(du, mesh) / dt <= eq_tol
            if not math.isfinite(e_new[row]):
                residual[b] = math.nan  # a non-finite step has no dual residual
            elif is_record or maybe_eq or energy_rose:
                if du is None:
                    du = stack[row] - prev[row]
                residual[b] = _mean_free_dual_norm(ops, du / dt)
                equilibrium[b] = eq_tol > 0.0 and residual[b] <= eq_tol
            if is_record or equilibrium[b] or energy_rose:
                emit(b, stack[row], vals[row], step, e_new[row], h1_new[row], residual[b])
            if energy_rose:
                change = e_new[row] - e_now[row]
                what = (f"rose by {change:.3e}" if math.isfinite(change)
                        else f"went from {e_now[row]:g} to {e_new[row]:g}")
                err = StabilityError(
                    f"energy {what} in one step at t = {step * dt:g}; "
                    "reduce dt or raise the stabilization parameter")
                err.lockstep = lockstep
                raise err
        e_now = e_new
        lockstep += 1

    return results


def _run_sliced(ops: ModeOperators, initials: list, cfg: StepperConfig,
                collect_snapshots: bool = False) -> list[SemiflowResult]:
    """_run_batch over contiguous slices of the members, one per usable CPU.

    The calling process runs the first slice itself.  Every other slice runs
    in a child forked from it, which inherits ``ops`` with its cached
    factorizations, so nothing is pickled on the way in; the child sends back
    plain data per member and the results are rebuilt on this process's
    mesh, in member order.  Members are independent rows of the kernel, so
    each member is bitwise its one-process result.

    When slices fail, the error raised is the one the one-process batch
    raises: the earliest lockstep first (errors raised before the first step
    rank first, and a failed solve ranks before an energy rise in the same
    step), then the lowest member.  A slice that aborts at lockstep n lowers
    a shared stop value to n, and every other slice stops as soon as it has
    finished lockstep n: by then it has raised any error of its own that
    ranks before the abort.  A child that ends without sending its slice
    raises RuntimeError.
    Any exception here, interrupts included, terminates and reaps the
    children.  With one usable CPU, one member, or no "fork" start method
    this is a plain _run_batch call and starts no process.  Members are checked
    before any slice starts, so a bad one raises the one-process batch's error.
    """
    import multiprocessing  # only ensembles fork; single runs need not load it

    initials = _initial_states(ops, initials)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_slices = min(cpus, len(initials))
    if n_slices < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return _run_batch(ops, initials, cfg, collect_snapshots=collect_snapshots)
    bounds = [len(initials) * i // n_slices for i in range(n_slices + 1)]
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Value("q", 2 ** 62)   # created before the fork: shared by every slice
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_slice_worker, daemon=True,
                               args=(writer, ops, initials[lo:hi], cfg, collect_snapshots, stop))
            proc.start()
            children.append((proc, reader))
            writer.close()  # so that a dead child reads as EOF, not as a hang
        try:
            outcomes = [(True, _run_batch(ops, initials[:bounds[1]], cfg,
                                          collect_snapshots=collect_snapshots, stop=stop))]
        except Exception as exc:  # ranked against the children's aborts below
            _lower_slice_stop(stop, exc)
            outcomes = [(False, exc)]
        for proc, reader in children:
            try:
                ok, value = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"ensemble worker {proc.pid} ended without sending "
                                   f"its slice (exit code {proc.exitcode})") from None
            outcomes.append((ok, [_plain_to_result(ops.mesh, p) for p in value] if ok else value))
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, reader in children:
            proc.join()
            reader.close()
    aborts = [(getattr(exc, "lockstep", -1), not isinstance(exc, SolverError), i, exc)
              for i, (ok, exc) in enumerate(outcomes)
              if not ok and not isinstance(exc, _SliceStopped)]
    if aborts:
        raise min(aborts, key=lambda a: a[:3])[3]
    return [res for _, results in outcomes for res in results]


def _lower_slice_stop(stop, exc: Exception):
    """Make the other slices stop after the lockstep at which ``exc`` aborted this one."""
    if not isinstance(exc, _SliceStopped):
        with stop.get_lock():
            stop.value = min(stop.value, getattr(exc, "lockstep", -1))


def _slice_worker(writer, ops: ModeOperators, initials: list, cfg: StepperConfig,
                  collect_snapshots: bool, stop):
    """Forked child of _run_sliced: run one slice, send it back, end with os._exit.

    Results travel as plain data, never as a Field: a mesh holds its
    profile's closure, which does not pickle.  os._exit keeps the parent's
    atexit handlers and stdio buffers from running a second time here.
    """
    try:
        try:
            message = (True, [(r.records, r.state.u.coeffs, r.state.step, r.state.mean0,
                               r.equilibrium_reached, r.final_residual, r.snapshots)
                              for r in _run_batch(ops, initials, cfg,
                                                  collect_snapshots=collect_snapshots,
                                                  stop=stop)])
        except Exception as exc:
            _lower_slice_stop(stop, exc)
            message = (False, exc)
        try:
            writer.send(message)
        except (pickle.PicklingError, TypeError, AttributeError):  # an unpicklable error
            writer.send((False, RuntimeError(f"ensemble worker failed: {message[1]!r}")))
    finally:
        os._exit(0)


def _plain_to_result(mesh, plain: tuple) -> SemiflowResult:
    records, coeffs, step, mean0, equilibrium, residual, snapshots = plain
    return SemiflowResult(records=records,
                          state=SemiflowState(u=Field(mesh, coeffs), step=step, mean0=mean0),
                          equilibrium_reached=equilibrium, final_residual=residual,
                          snapshots=snapshots)
