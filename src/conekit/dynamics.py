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
would otherwise produce.  A single run busy-polls a second CPU when one is
free: past its first steps it forks one checker, which sweeps half the columns
of each step's implicit solve beside the run, and verifies each step and takes
its energy behind it.  At the first step the pipeline cannot take, the run
takes that step and every later one inline.
An ensemble runs in slices, one per usable CPU, each in a forked child; a slice
that fails has the whole ensemble run again in one process, to raise its error.
"""

from __future__ import annotations

import collections
import contextlib
import math
import mmap
import os
import pickle
import select
import signal
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import Field, channel_weights, coeffs_to_values, values_to_coeffs
from .geometry import _integer
from .operators import ModeOperators
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


@dataclass(frozen=True)
class StepperConfig:
    """Parameters of the semi-implicit stepper and its bookkeeping."""

    dt: float = 1.0e-3
    stabilization: float = 2.0
    t_max: float = 1000.0
    eq_tol: float = 1.0e-8          # equilibrium threshold; 0 disables detection
    snapshot_stride: int = 100
    mellin_gamma: float = -0.75

    def __post_init__(self):
        # each rule is written so that a NaN breaks it
        rules = (("dt", self.dt > 0.0, " and > 0"), ("t_max", self.t_max > 0.0, " and > 0"),
                 ("stabilization", self.stabilization >= 0.0, " and >= 0"),
                 ("eq_tol", self.eq_tol >= 0.0, " and >= 0"),
                 ("mellin_gamma", self.mellin_gamma > -math.inf, ""))
        for name, holds, rule in rules:
            if not (holds and getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite{rule}, got {getattr(self, name)}")
        _integer("snapshot_stride", self.snapshot_stride, 1)


@dataclass
class SemiflowState:
    """The field a run ended with and the step it ended at; time is step * dt."""

    u: Field
    step: int


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


def _energies(mesh, stack: np.ndarray, vals: np.ndarray) -> tuple[list[float], list[float]]:
    """Free energy and Dirichlet seminorm of each member of a coefficient stack.

    ``stack`` is (B, K+1, 2, M) and ``vals`` its grid values (B, M, N).  The
    densities are formed for the whole stack, but every reduction is taken
    per member: a batched sum would change the summation order and with it
    the last bits of each member's energy.
    """
    h1 = [h1_seminorm(Field(mesh, coeffs)) for coeffs in stack]
    sq = vals * vals
    dens = np.multiply(0.25, sq)   # 0.25 sq sq - 0.5 sq, in place
    dens *= sq
    dens -= np.multiply(0.5, sq, out=sq)
    pot = [mesh.integrate_radial(row) for row in dens.mean(axis=-1)]
    return [0.5 * g ** 2 + p for g, p in zip(h1, pot)], h1


def energy(u: Field) -> float:
    """Free energy of a field."""
    return _energies(u.mesh, u.coeffs[None], u.grid_values()[None])[0][0]


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
    """h01_dual_norm after removing the mean in place, so mean roundoff cannot trip its check.
    Near a constant c one removal leaves a mean of about eps |c|, too large for the check
    beside a far smaller mean-free part: then the field is shifted by its angular mean in the
    first cell, exactly near a constant, and its mean is removed again."""
    coeffs[0, 0, :] -= (ops.volumes @ coeffs[0, 0]) / ops.mesh.area
    try:
        return h01_dual_norm(Field(ops.mesh, coeffs), ops)
    except ValueError:   # raised again below if the mean was not the cause
        coeffs[0, 0, :] -= coeffs[0, 0, 0]
        coeffs[0, 0, :] -= (ops.volumes @ coeffs[0, 0]) / ops.mesh.area
        return h01_dual_norm(Field(ops.mesh, coeffs), ops)


def _rhs(ops: ModeOperators, cfg: StepperConfig, stack: np.ndarray, vals: np.ndarray,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """The implicit solve's right-hand side for the step after ``stack``, in ``out`` if given."""
    dt, s = cfg.dt, cfg.stabilization
    nl = values_to_coeffs(vals * vals * vals, ops.max_mode)
    nl -= (1.0 + s) * stack
    lap = ops.apply_laplacian_coeffs(nl)   # stack + dt * lap, operands in that order
    return np.add(stack, np.multiply(dt, lap, out=lap), out=lap if out is None else out)


def _settle(ops: ModeOperators, stack: np.ndarray, mean0: list) -> np.ndarray:
    """Restore each member's conserved mean exactly; the grid values of the stack."""
    area = ops.mesh.area
    for c, m0 in zip(stack, mean0):
        c[0, 0, :] += m0 - (ops.volumes @ c[0, 0]) / area
    return coeffs_to_values(stack)


def _step_checks(ops: ModeOperators, cfg: StepperConfig, stack: np.ndarray, vals: np.ndarray,
                 prev: np.ndarray) -> tuple:
    """Each member's energy, Dirichlet seminorm and Poincare-screen L2 norm of its change
    (None if eq_tol = 0), for a settled step."""
    return (*_energies(ops.mesh, stack, vals),
            [_weighted_l2(u - p, ops.mesh) for u, p in zip(stack, prev)] if cfg.eq_tol else None)


class _Checker:
    """A forked process that sweeps half of each implicit solve beside the caller and checks
    steps behind it, from a ring of shared slots.

    For step n the caller packs the solve's right-hand side into a shared work slot, asks the
    checker on one pipe to sweep the second half of its columns, sweeps the first half itself
    and reads the checker's reply on another: a column swept alone has the bits it has in the
    whole solve.  A request the checker has not read by then, because it is checking or has
    stopped, the caller takes back from the pipe and sweeps itself, as it does the half of a
    checker that ends inside a sweep.  The caller settles the state into a slot, and posts
    step n's check on a third pipe once it has asked for step n + 1's sweep, or once it waits
    for step n's checks.  The checker serves sweeps before checks, so a check runs while the
    caller computes the next step; it verifies the solve and takes the energies and screen
    norm from the caller's own state, so its results, sent on a fourth pipe, have the inline
    bits.  Both sides busy-poll, since a blocking read would wake the checker on the caller's
    CPU.
    A run forks its checker once, after its first steps (see first()).  At the first step
    that warns or raises ahead, or that the checker cannot check, the checker is closed and
    the steps not yet decided are dropped: the run takes that step and the rest inline, with
    the bits they have aside, as it does when the fork fails."""

    FIRST = 2 ** 19   # state values a run steps inline before its checker, see first()

    @classmethod
    def first(cls, size: int) -> int:
        """Steps a run of ``size`` state values per step takes inline before its checker,
        fewer the costlier its steps: a run of short steps loses by the fork."""
        return -(-cls.FIRST // size)

    def __init__(self, ops: ModeOperators, stack: np.ndarray):
        size = stack.size
        self.depth = d = 3   # steps computed ahead of their checks
        flat = np.frombuffer(mmap.mmap(-1, 8 * size * (3 * d + 3 * (d + 1))), dtype=float)
        # step n's solve in n % d: its right-hand side, and its packed (n, 2B) complex columns,
        # which both processes sweep in place
        works = flat[:2 * d * size].view(complex).reshape(d, 2 * len(stack), -1)
        self.slots = [(rhs.reshape(stack.shape), work.T)
                      for rhs, work in zip(flat[2 * d * size:3 * d * size].reshape(d, -1), works)]
        # step n's settled state and grid values in n % (d + 1): the caller and the checker
        # still read step n - 1 while the caller fills step n + d - 1.  The state has the
        # strides of a fresh _unpack, which fix the bits of every reduction over it.
        strides = ops._unpack(self.slots[0][1].real).strides
        self.states = [(np.ndarray(stack.shape, buffer=state[:size], strides=strides),
                        state[size:].reshape(len(stack), stack.shape[-1], -1))   # (B, M, N)
                       for state in flat[3 * d * size:].reshape(d + 1, -1)]
        self.ahead = collections.deque()   # steps computed, not decided
        self.pid, self.told = None, 0   # told: the last check posted
        self.start = self.first(size) + 1   # the step the checker is forked at

    def _start(self, ops, cfg, stack: np.ndarray):
        """Fork the checker; on failure the run steps inline."""
        # the caller writes steps to check and to sweep, and reads checks and sweep replies;
        # both processes read sweep requests, so the caller can take back one left unread
        pipes = [os.pipe() for _ in range(4)]
        (todo, self.todo), (self.done, done), (self.asked, self.sweeps), (self.swept, swept) = pipes
        for fd in (todo, self.done, self.asked, self.swept):
            os.set_blocking(fd, False)
        ops.ch_factorization(cfg.dt, cfg.stabilization)   # made before the fork: shared
        try:
            self.pid = os.fork()
        except OSError:   # no process or memory to spare
            for fd in (fd for pipe in pipes for fd in pipe):
                os.close(fd)
            return
        if self.pid == 0:
            try:
                for fd in (self.todo, self.done, self.sweeps, self.swept):
                    os.close(fd)
                signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller ends the checker
                time.sleep(0.001)   # forked onto the caller's CPU, it wakes on an idle one
                self._serve(ops, cfg, stack, todo, done, self.asked, swept)
                os._exit(0)
            finally:
                os._exit(1)
        for fd in (todo, done, swept):
            os.close(fd)

    @staticmethod
    def _read(fd: int, size: int = 8) -> Optional[bytes]:
        """A non-blocking pipe's next message, b"" once its writers are gone, None before."""
        try:
            return os.read(fd, size)
        except BlockingIOError:
            return None

    @classmethod
    def _poll(cls, fd: int, size: int = 8) -> bytes:
        """Busy-poll a non-blocking pipe for its next message; b"" once its writers are gone."""
        while (msg := cls._read(fd, size)) is None:
            os.sched_yield()   # a peer that shares the CPU runs at once
        return msg

    def _serve(self, ops, cfg, prev: np.ndarray, todo: int, done: int, asked: int, swept: int):
        """Sweep the second half of each requested step's columns, and check each posted step:
        (ok, energies, seminorms, screen norms) back.  Sweeps go first: the caller waits."""
        half = len(prev)
        while True:
            if (msg := self._read(asked)) is not None:
                if not msg:
                    return
                n = int.from_bytes(msg, "little")
                ops._sweep_columns(self.slots[n % self.depth][1][:, half:],
                                   cfg.dt, cfg.stabilization)
                os.write(swept, msg)
                continue
            if (msg := self._read(todo)) is None:
                os.sched_yield()
                continue
            if not msg:
                return
            n = int.from_bytes(msg, "little")
            (rhs, work), (u, uvals) = self.slots[n % self.depth], self.states[n % (self.depth + 1)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    ops._ch_verify(rhs, work.real, cfg.dt, cfg.stabilization)
                    e, h1, l2 = _step_checks(ops, cfg, u, uvals, prev)
                except Exception:
                    os.write(done, bytes(8 * (3 * len(u) + 1)))   # not ok
                    return
            checks = [1.0] + e + h1 + (l2 or [math.nan] * len(e))
            os.write(done, np.array(checks).tobytes())
            prev = u

    def _tell(self, n: int):
        """Post step ``n``'s check, once."""
        if self.told < n:
            self.told = n
            with contextlib.suppress(BrokenPipeError):   # a gone checker: its checks read EOF
                os.write(self.todo, n.to_bytes(8, "little"))

    def advance(self, ops, cfg, stack, vals, mean0: list, n: int, left: int) -> Optional[tuple]:
        """Step ``n`` from ``stack``: its state, grid values and checks, once up to ``depth`` of
        the ``left`` steps are computed ahead; None when step ``n`` runs inline."""
        if n == self.start:
            self._start(ops, cfg, stack)
        while self.pid is not None and len(self.ahead) < min(self.depth, left):
            self._ahead(ops, cfg, *(self.ahead[-1] if self.ahead else (stack, vals)),
                        n + len(self.ahead), mean0)
        if self.pid is None:
            return None
        u, uvals = self.ahead.popleft()
        self._tell(n)
        checks = np.frombuffer(self._poll(self.done, 8 * (3 * len(stack) + 1)))
        if not checks.size:
            raise RuntimeError(f"step checker ended before checking step {n} "
                               f"(exit code {os.waitstatus_to_exitcode(self.close())})")
        if not checks[0]:   # the checker stopped at this step
            self.close()
            return None
        e, h1, l2 = checks[1:].reshape(3, -1).tolist()
        return u, uvals, (e, h1, l2 if cfg.eq_tol > 0.0 else None)

    def _ahead(self, ops, cfg, stack, vals, n: int, mean0: list):
        """Step ``n`` from ``stack``, its columns swept half here and half by the checker, and
        step n - 1's check posted: its state and grid values, in slots, join the steps ahead;
        a step that warns or raises closes the checker instead."""
        (rhs, work), (u, uvals) = self.slots[n % self.depth], self.states[n % (self.depth + 1)]
        half, dt, s = len(stack), cfg.dt, cfg.stabilization
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ops._ch_pack(_rhs(ops, cfg, stack, vals, out=rhs), out=work)
                os.write(self.sweeps, n.to_bytes(8, "little"))   # never a broken pipe: see _start
                if self.ahead:   # checked once the checker has the sweep
                    self._tell(n - 1)
                ops._sweep_columns(work[:, :half], dt, s)
                # a request still unread, by a checker that is checking or has stopped, is
                # taken back, and so is one the checker ended in: the half is swept here
                if self._read(self.asked) is not None or not self._poll(self.swept):
                    ops._sweep_columns(work[:, half:], dt, s)
                uvals[...] = _settle(ops, ops._unpack(work.real, out=u), mean0)
            except Exception:  # taken again inline
                self.close()
                return
        self.ahead.append((u, uvals))

    def close(self) -> int:
        """Drop the steps not yet decided, close the pipes, which ends the checker, and reap
        it: its wait status, once."""
        pid, self.pid = self.pid, None
        self.ahead.clear()
        for fd in (self.todo, self.done, self.asked, self.sweeps, self.swept) if pid else ():
            os.close(fd)
        return os.waitpid(pid, 0)[1] if pid else 0


def run_semiflow(ops: ModeOperators, initial, cfg: StepperConfig,
                 on_record: Optional[Callable] = None,
                 collect_snapshots: bool = False) -> SemiflowResult:
    """Run the semiflow until t_max or until the equilibrium residual drops
    below eq_tol.

    The run starts from the Field ``initial`` at step 0, and its result's
    ``state`` holds the final field and its step.  Diagnostics are recorded
    every ``snapshot_stride`` steps and at the final step; ``on_record(record,
    coeffs)`` receives each DiagnosticsRecord as it is produced, with the
    coefficients of the state it describes, so partial output survives an
    abort.  ``coeffs`` is the run's own array: do not modify it, and copy it
    to keep it.  Raises StabilityError when the energy rises beyond the
    per-step tolerance or stops being finite, after the record of that step
    is delivered.

    Equilibrium is declared once the dual norm of the discrete time
    derivative drops below eq_tol.  Because that norm requires a solve over
    every mode, each step is first screened with the Poincare inequality
    (dual norm <= C_P * L2 norm); the exact dual norm is evaluated at record
    steps and whenever the screen certifies the threshold is reachable, so a
    detected equilibrium always carries its exact residual.

    This is the one-member case of the ensemble step kernel (_run_batch).
    """
    deliver = None if on_record is None else (lambda _member, rec, coeffs: on_record(rec, coeffs))
    return _run_batch(ops, [initial], cfg, deliver, collect_snapshots, _usable_cpus() >= 2)[0]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _check_initials(ops: ModeOperators, initials: list):
    """Raise TypeError for a member that is not a Field, ValueError for a foreign one or
    one whose coefficients or conserved mean are not finite."""
    for b, u in enumerate(initials):
        if not isinstance(u, Field):
            raise TypeError(f"member {b} is a {type(u).__name__}, not a Field: "
                            "every run starts from a Field at step 0")
        ops._check_field(u)
        with np.errstate(over="ignore", invalid="ignore"):   # an overflowing mean is named below
            finite = np.isfinite(u.coeffs).all() and math.isfinite(mean(u))
        if not finite:
            raise ValueError(f"member {b} has a non-finite state at step 0")


def _run_batch(ops: ModeOperators, initials: list, cfg: StepperConfig,
               on_record: Optional[Callable] = None,
               collect_snapshots: bool = False, checked: bool = False) -> list[SemiflowResult]:
    """Run several trajectories through one step kernel; one result per member.

    Each entry of ``initials`` is a Field, and every member starts at step 0,
    so the batch keeps one step counter.  The active members form the leading
    axis of one coefficient stack, so a step costs one cube transform pair, one
    Laplacian and one stacked implicit solve whatever the member count.
    Everything that decides or records a trajectory -- energy guard,
    Poincare screen, exact residual, equilibrium stop, mean restoration,
    records and snapshots -- is evaluated per member, on that member's slice
    and in the expression a lone run uses, so every member is bitwise equal
    to its own run_semiflow.  A member leaves the stack when it reaches
    equilibrium or t_max.  ``on_record(member, record, coeffs)`` receives
    every record as it is produced, as for run_semiflow; an energy violation
    in any member raises StabilityError after that member's record is
    delivered.  One ``checked`` member decides its steps past its first ones
    with the checks a forked _Checker took meanwhile; a step the checker cannot
    take, it takes inline with every later one.
    """
    _check_initials(ops, initials)
    mesh, dt, eq_tol = ops.mesh, cfg.dt, cfg.eq_tol
    n_steps_max = int(math.floor(cfg.t_max / cfg.dt + 1e-9))   # unless equilibrium comes first
    mean0 = [mean(u) for u in initials]
    records: list[list[DiagnosticsRecord]] = [[] for _ in initials]
    snapshots: list[list] = [[] for _ in initials]
    residual = [math.inf] * len(initials)
    equilibrium = [False] * len(initials)
    results: list[Optional[SemiflowResult]] = [None] * len(initials)

    stack = np.stack([u.coeffs for u in initials])
    vals = coeffs_to_values(stack)
    e_now, h1_now = _energies(mesh, stack, vals)

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
            on_record(member, rec, coeffs)
        if collect_snapshots:
            snapshots[member].append((step, coeffs.copy()))

    for b in range(len(initials)):
        rate0 = ops.apply_laplacian(energy_gradient(Field(mesh, stack[b]), ops)).coeffs
        # the round trip through dt keeps the bits of the step-0 ut_h01dual;
        # an overflowed rate has no dual residual, as for a step below
        res0 = (_mean_free_dual_norm(ops, rate0 * dt / dt) if np.isfinite(rate0).all()
                else math.nan)
        emit(b, stack[b], vals[b], 0, e_now[b], h1_now[b], res0)

    checker = (_Checker(ops, stack) if checked and len(initials) == 1 and hasattr(os, "fork")
               else None)
    active = list(range(len(initials)))    # member index of each stack row
    poincare = None
    step = 0    # the step every active member has reached
    try:
        while True:
            done = [row for row, b in enumerate(active) if equilibrium[b] or step >= n_steps_max]
            for row in done:
                b = active[row]
                # a checker's state slots are reused: the final state leaves the ring, strides kept
                u = np.copy(stack[row], order="K")
                results[b] = SemiflowResult(
                    records=records[b], state=SemiflowState(u=Field(mesh, u), step=step),
                    equilibrium_reached=equilibrium[b], final_residual=residual[b],
                    snapshots=snapshots[b])
            if done:
                keep = [row for row in range(len(active)) if row not in done]
                if not keep:
                    break
                stack, vals = stack[keep], vals[keep]
                e_now = [e_now[row] for row in keep]
                active = [active[row] for row in keep]

            prev = stack
            step += 1
            taken = None if checker is None else checker.advance(
                ops, cfg, prev, vals, mean0, step, n_steps_max - step + 1)
            if taken is None:   # inline
                u = ops.solve_ch_system(_rhs(ops, cfg, prev, vals), dt, cfg.stabilization)
                uvals = _settle(ops, u, [mean0[b] for b in active])
                taken = u, uvals, _step_checks(ops, cfg, u, uvals, prev)
            stack, vals, (e_new, h1_new, l2) = taken
            is_record = step % cfg.snapshot_stride == 0 or step == n_steps_max
            for row, b in enumerate(active):
                # written so that a NaN energy counts as a rise
                energy_rose = not (e_new[row] <= e_now[row]
                                   + ENERGY_INCREASE_TOL * (1.0 + abs(e_now[row])))
                # The dual norm costs a solve over every mode, so per step we
                # first test the Poincare bound C_P * ||du/dt||_L2 <= eq_tol, which
                # certifies the dual residual is below threshold before paying for it.
                maybe_eq = False
                if eq_tol > 0.0:
                    if poincare is None:
                        poincare = poincare_constant(ops)
                    maybe_eq = poincare * l2[row] / dt <= eq_tol
                if not math.isfinite(e_new[row]):
                    residual[b] = math.nan  # a non-finite step has no dual residual
                elif is_record or maybe_eq or energy_rose:
                    residual[b] = _mean_free_dual_norm(ops, (stack[row] - prev[row]) / dt)
                    equilibrium[b] = eq_tol > 0.0 and residual[b] <= eq_tol
                if is_record or equilibrium[b] or energy_rose:
                    emit(b, stack[row], vals[row], step, e_new[row], h1_new[row], residual[b])
                if energy_rose:
                    change = e_new[row] - e_now[row]
                    what = (f"rose by {change:.3e}" if math.isfinite(change)
                            else f"went from {e_now[row]:g} to {e_new[row]:g}")
                    raise StabilityError(
                        f"energy {what} in one step at t = {step * dt:g}; "
                        "reduce dt or raise the stabilization parameter")
            e_now = e_new
    finally:
        if checker is not None:
            checker.close()
    return results


def _run_sliced(ops: ModeOperators, initials: list, cfg: StepperConfig,
                collect_snapshots: bool = False) -> list[SemiflowResult]:
    """_run_batch over contiguous slices of the members, one per usable CPU.

    Each slice runs in a child forked from this process, which inherits ``ops``
    with its cached factorizations and pickles plain data per member to a pipe,
    or None if its batch raised; each member is rebuilt on this process's mesh
    in member order, bitwise its one-process result.  Once a slice sends None
    or a fork fails, the other children are killed and the whole ensemble runs
    here as one batch, which raises the one-process error.  A child that ends
    without sending its slice raises RuntimeError; any exception here,
    interrupts included, kills and reaps the children.  With one usable CPU,
    one member or no os.fork this is a plain _run_batch call, checked as
    run_semiflow is; a slice never forks a checker.
    """
    cpus = _usable_cpus()
    n_slices = min(cpus, len(initials))
    if n_slices < 2 or not hasattr(os, "fork"):
        return _run_batch(ops, initials, cfg, collect_snapshots=collect_snapshots,
                          checked=cpus >= 2)
    bounds = [len(initials) * i // n_slices for i in range(n_slices + 1)]
    children = {}   # the pid and slice index of each forked slice by its pipe's reader
    sent = {}       # each slice's plain results by slice index, None for a failed slice
    try:
        for i in range(n_slices):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process or memory to spare: the ensemble runs here
                os.close(reader)
                os.close(writer)
                sent[i] = None
                break
            if pid == 0:
                try:
                    for fd in (reader, *children):
                        os.close(fd)
                    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller ends its slices
                    try:   # plain data: the caller rebuilds each Field on its own mesh
                        message = [(r.records, r.state.u.coeffs, r.state.step,
                                    r.equilibrium_reached, r.final_residual, r.snapshots)
                                   for r in _run_batch(ops, initials[bounds[i]:bounds[i + 1]],
                                                       cfg, collect_snapshots=collect_snapshots)]
                    except Exception:   # raised again when the caller runs the ensemble
                        message = None
                    with open(writer, "wb") as pipe:
                        pipe.write(pickle.dumps(message))
                    os._exit(0)   # not the caller's atexit handlers and stdio buffers again
                finally:
                    os._exit(1)
            os.close(writer)   # so that a dead child reads as EOF, not as a hang
            children[reader] = pid, i
        while children and None not in sent.values():
            for reader in select.select(list(children), [], [])[0]:
                with open(reader, "rb", closefd=False) as pipe:
                    message = pipe.read()   # until the child ends
                pid, i = children[reader]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[reader]
                os.close(reader)
                if code or not message:
                    raise RuntimeError(f"ensemble worker {pid} ended without sending "
                                       f"its slice (exit code {code})")
                sent[i] = pickle.loads(message)
    finally:
        for reader, (pid, _) in children.items():   # left by a failed slice or an exception
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
    if None in sent.values():
        return _run_batch(ops, initials, cfg, collect_snapshots=collect_snapshots)
    return [SemiflowResult(records, SemiflowState(Field(ops.mesh, u), step), *rest)
            for i in range(n_slices) for records, u, step, *rest in sent[i]]
