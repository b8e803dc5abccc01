"""Ensemble step kernel and its forked slices.

Every batch member is bitwise its own run_semiflow, and every member run in
a forked slice is bitwise its one-process batch result.
"""

import contextlib
import dataclasses
import errno
import os
import signal
import time
import warnings

import numpy as np
import pytest

import conekit.dynamics
from conekit.analysis import smooth_random_field
from conekit.dynamics import StabilityError, StepperConfig, _run_batch, _run_sliced, run_semiflow
from conekit.fields import coeffs_to_values, constant_field
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators, SolverError
from conftest import leftover_children

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DT = 1e-3


def assert_same_run(got, want):
    assert got.records == want.records
    assert got.equilibrium_reached == want.equilibrium_reached
    assert got.final_residual == want.final_residual
    assert got.state.step == want.state.step
    assert np.array_equal(got.state.u.coeffs, want.state.u.coeffs)
    assert [step for step, _ in got.snapshots] == [step for step, _ in want.snapshots]
    for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a, b)


def assert_delivered(delivered, result):
    """``delivered`` holds (record, coeffs copy) pairs: the records and snapshots of ``result``."""
    assert [rec for rec, _ in delivered] == result.records
    assert len(delivered) == len(result.snapshots)
    for (rec, coeffs), (step, snap) in zip(delivered, result.snapshots):
        assert rec.step == step and np.array_equal(coeffs, snap)


def check_batch(ops, initials, cfg):
    delivered = [[] for _ in initials]
    batch = _run_batch(ops, initials, cfg, collect_snapshots=True,
                       on_record=lambda member, rec, coeffs:
                       delivered[member].append((rec, coeffs.copy())))
    assert len(batch) == len(initials)
    for initial, got, recs in zip(initials, batch, delivered):
        assert_delivered(recs, got)
        assert_same_run(got, run_semiflow(ops, initial, cfg, collect_snapshots=True))
    return batch


@st.composite
def ensembles(draw):
    kind = draw(st.sampled_from(("sphere", "cone_capped")))
    if kind == "sphere":
        profile = build_profile("sphere", radius=1.0)
    else:
        profile = build_profile("cone_capped", c=draw(st.sampled_from(("1/2", "3/4", "1"))),
                                length=2.0)
    grading = draw(st.sampled_from((1.0, 0.9, 0.8)))
    ops = ModeOperators(build_mesh(profile, draw(st.integers(8, 24)), grading),
                        draw(st.integers(0, 4)))
    n_steps = draw(st.integers(1, 30))
    cfg = StepperConfig(dt=DT, t_max=n_steps * DT, snapshot_stride=draw(st.integers(1, 8)),
                        eq_tol=draw(st.sampled_from((1e-2, 1e-1, 1.0, 10.0))))
    initials = []
    for _ in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        amplitude = draw(st.one_of(st.just(1e-6), st.floats(1e-3, 0.5)))  # 1e-6 stops at once
        initials.append(smooth_random_field(ops, rng, sup_amplitude=amplitude)
                        + constant_field(ops.mesh, ops.max_mode,
                                         draw(st.sampled_from((0.0, 0.25, -0.4)))))
    return ops, initials, cfg


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ensembles())
def test_batch_members_equal_lone_runs(case):
    check_batch(*case)


def test_members_leave_the_batch_at_their_own_stop(small_sphere_ops):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=0.05, eq_tol=1e-2, snapshot_stride=10)
    rng = np.random.default_rng(3)
    moving = smooth_random_field(ops, rng, sup_amplitude=0.5)
    at_rest = constant_field(ops.mesh, ops.max_mode, 0.25)
    batch = check_batch(ops, [moving, at_rest], cfg)
    assert batch[1].equilibrium_reached and batch[1].state.step == 1
    assert batch[0].state.step > 1


# ------------------------------------------------------------ forked slices


def usable_cpus(mp, count):
    """Make the runner see ``count`` usable CPUs, whatever this machine has, and fork a
    checker for a single run's first step, however short the run and small its steps."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    mp.setattr(conekit.dynamics._Checker, "FIRST", 0)   # no state values stepped inline first
    assert conekit.dynamics._Checker.first(1) == 0


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging when the block takes longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_sliced(ops, initials, cfg, cpus):
    with pytest.MonkeyPatch.context() as mp, deadline(120):
        usable_cpus(mp, cpus)
        sliced = _run_sliced(ops, initials, cfg, collect_snapshots=True)
    assert leftover_children() == []
    whole = _run_batch(ops, initials, cfg, collect_snapshots=True)
    assert len(sliced) == len(whole)
    for got, want in zip(sliced, whole):
        assert got.state.u.mesh is ops.mesh
        assert_same_run(got, want)
    return sliced


@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ensembles(), st.integers(2, 5))
def test_sliced_members_equal_the_one_process_batch(case, cpus):
    check_sliced(*case, cpus)


@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ensembles(), st.integers(1, 3))
def test_sliced_runs_conserve_mass_and_never_raise_energy(case, cpus):
    ops, initials, cfg = case
    for initial, result in zip(initials, check_sliced(ops, initials, cfg, cpus)):
        mass0 = ops.mesh.integrate_radial(initial.coeffs[0, 0])
        masses = [rec.mass for rec in result.records]
        masses.append(ops.mesh.integrate_radial(result.state.u.coeffs[0, 0]))
        assert max(abs(m - mass0) for m in masses) <= 1e-12
        energies = [rec.energy for rec in result.records]
        assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_one_usable_cpu_starts_no_process(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=5 * DT, eq_tol=0.0, snapshot_stride=2)
    rng = np.random.default_rng(11)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(3)]
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    with monkeypatch.context() as mp:
        mp.setattr(os, "fork", counted_fork)
        check_sliced(ops, members, cfg, 1)
        assert forks == []
        mp.delattr(os, "fork")                        # no fork on this platform
        check_sliced(ops, members, cfg, 4)
        check_sliced(ops, members[:1], cfg, 4)        # nor a checker for one member

    # one member: one slice, which may check its steps in a forked process, and only that
    monkeypatch.setattr(os, "fork", counted_fork)
    check_sliced(ops, members[:1], cfg, 4)
    assert len(forks) == 1


def test_an_ensemble_forks_one_child_per_slice(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=5 * DT, eq_tol=1e-2, snapshot_stride=2)
    rng = np.random.default_rng(13)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(4)]
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    check_sliced(ops, members, cfg, 2)   # slices: members 0-1 | 2-3, both forked
    assert len(forks) == 2


def test_a_slice_never_forks_a_checker(small_sphere_ops, monkeypatch):
    # two usable CPUs per member: a slice of one member still steps alone, so a checker
    # that cannot be made fails no slice, and the ensemble is not run again here
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=5 * DT, eq_tol=1e-2, snapshot_stride=2)
    rng = np.random.default_rng(15)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(2)]
    real, here = conekit.dynamics._run_batch, []

    def no_checker(self, *args):
        raise RuntimeError("a checker was made")

    def counted(*args, **kwargs):
        here.append(None)   # a forked slice counts in its own memory
        return real(*args, **kwargs)

    monkeypatch.setattr(conekit.dynamics._Checker, "__init__", no_checker)
    monkeypatch.setattr(conekit.dynamics, "_run_batch", counted)
    check_sliced(ops, members, cfg, 4)
    assert here == []


def test_a_failed_slice_fork_runs_the_ensemble_here(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=5 * DT, eq_tol=1e-2, snapshot_stride=2)
    rng = np.random.default_rng(12)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(5)]
    open_fds = os.listdir("/proc/self/fd")
    forks, real_fork = [], os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    # slices: members 0 | 1-2 | 3-4; the first is forked, the second fork fails, and the
    # first slice is killed while the whole ensemble runs here
    check_sliced(ops, members, cfg, 3)
    assert len(forks) == 2
    assert os.listdir("/proc/self/fd") == open_fds


def failing_members(ops):
    """Members that pass, abort with an energy rise at step 3 or 1, abort when the energy
    overflows to inf at step 1, or fail the solve at step 1 (its cube overflows)."""
    def field(amplitude, seed=1):
        return smooth_random_field(ops, np.random.default_rng(seed), sup_amplitude=amplitude)
    with np.errstate(all="ignore"):
        overflowing = field(1e200)
    return {"ok": field(0.5, 2), "ok2": field(0.3, 3), "rise_late": field(8.0),
            "rise": field(9.0), "rise2": field(10.0, 4), "overflow": field(1e50),
            "solve": overflowing}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("layout, cpus, expected", [
    (("ok", "ok2", "ok", "solve"), 2, SolverError),            # only a child slice fails
    (("rise_late", "ok", "ok2", "rise"), 2, StabilityError),   # the child fails earlier
    (("rise", "ok", "ok2", "solve"), 2, SolverError),          # a solve fails before a rise
    (("ok", "rise", "ok2", "rise2", "ok"), 3, StabilityError),  # lowest member of one step
])
def test_failing_slice_raises_the_one_process_error(layout, cpus, expected):
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 24, 1.0), 2)
    cfg = StepperConfig(dt=1e-2, stabilization=0.0, t_max=0.5, eq_tol=0.0,
                        snapshot_stride=5)
    members = failing_members(ops)
    initials = [members[name] for name in layout]
    with pytest.raises(expected) as whole:
        _run_batch(ops, initials, cfg)
    with pytest.MonkeyPatch.context() as mp, deadline(120), pytest.raises(expected) as sliced:
        usable_cpus(mp, cpus)
        _run_sliced(ops, initials, cfg)
    assert leftover_children() == []
    if expected is StabilityError:
        assert str(sliced.value) == str(whole.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("layout", [("rise", "ok"), ("ok", "rise")])
def test_an_abort_stops_the_other_slices(layout):
    """One member blows up at once; the healthy one would run 10000 steps."""
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 96, 1.0), 8)
    cfg = StepperConfig(dt=1e-2, stabilization=0.0, t_max=100.0, eq_tol=0.0,
                        snapshot_stride=100)
    members = failing_members(ops)
    initials = [members[name] for name in layout]
    with pytest.raises(StabilityError) as whole:
        _run_batch(ops, initials, cfg)
    # the healthy slice is the second child in the first layout and the first in the second
    with pytest.MonkeyPatch.context() as mp, deadline(3), pytest.raises(StabilityError) as sliced:
        usable_cpus(mp, 2)
        _run_sliced(ops, initials, cfg)
    assert leftover_children() == []
    assert str(sliced.value) == str(whole.value)


@pytest.mark.parametrize("mode", [0, 2])   # mode 2 leaves the conserved mean finite
def test_non_finite_member_of_a_child_slice_raises_the_one_process_error(mode):
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 24, 1.0), 2)
    cfg = StepperConfig(dt=1e-2, stabilization=0.0, t_max=0.5, eq_tol=0.0, snapshot_stride=5)
    members = failing_members(ops)
    bad = members["ok"].copy()
    bad.coeffs[mode, 0, 5] = np.nan
    initials = [members["ok"], members["ok2"], bad]
    with pytest.raises(ValueError) as whole:
        _run_batch(ops, initials, cfg)
    with pytest.MonkeyPatch.context() as mp, deadline(120), pytest.raises(ValueError) as sliced:
        usable_cpus(mp, 2)                     # slices: member 0 | members 1 and 2
        _run_sliced(ops, initials, cfg)
    assert leftover_children() == []
    assert str(sliced.value) == str(whole.value) \
        == "member 2 has a non-finite state at step 0"


@pytest.mark.parametrize("fates", [("dies", "sleeps"), ("runs", "dies")])
def test_dead_child_raises_and_the_others_are_reaped(small_sphere_ops, monkeypatch, fates):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=3 * DT, eq_tol=0.0)
    rng = np.random.default_rng(5)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(3)]
    real = conekit.dynamics._run_batch

    def fragile(ops, initials, cfg, on_record=None, collect_snapshots=False, checked=False):
        fate = dict(zip((id(m) for m in members[1:]), fates)).get(id(initials[0]))
        if fate == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        if fate == "sleeps":
            time.sleep(60)
        return real(ops, initials, cfg, on_record, collect_snapshots, checked)

    monkeypatch.setattr(conekit.dynamics, "_run_batch", fragile)
    usable_cpus(monkeypatch, 3)
    with deadline(30), pytest.raises(RuntimeError, match="ended without sending its slice"):
        _run_sliced(ops, members, cfg)


def test_interrupt_in_the_parent_reaps_the_children(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=3 * DT, eq_tol=0.0)
    rng = np.random.default_rng(6)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(2)]
    parent = os.getpid()

    def slow_child(ops, initials, cfg, on_record=None, collect_snapshots=False, checked=False):
        assert os.getpid() != parent   # the parent only waits on its children
        if initials[0] is members[0]:   # the first slice's child interrupts it, once
            time.sleep(0.2)
            os.kill(parent, signal.SIGINT)
        time.sleep(60)

    monkeypatch.setattr(conekit.dynamics, "_run_batch", slow_child)
    usable_cpus(monkeypatch, 2)
    with deadline(30), pytest.raises(KeyboardInterrupt):
        _run_sliced(ops, members, cfg)


def test_an_unpicklable_error_of_a_slice_reaches_the_caller(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=3 * DT, eq_tol=0.0)
    rng = np.random.default_rng(14)
    members = [smooth_random_field(ops, rng, sup_amplitude=0.3) for _ in range(3)]
    real = conekit.dynamics._run_batch

    class Unpicklable(Exception):   # a local class does not pickle
        pass

    def fragile(ops, initials, cfg, on_record=None, collect_snapshots=False, checked=False):
        if any(u is members[-1] for u in initials):
            raise Unpicklable("a failure that only this process can hold")
        return real(ops, initials, cfg, on_record, collect_snapshots, checked)

    monkeypatch.setattr(conekit.dynamics, "_run_batch", fragile)
    usable_cpus(monkeypatch, 2)   # slices: member 0 | members 1-2
    with deadline(30), pytest.raises(Unpicklable, match="only this process"):
        _run_sliced(ops, members, cfg)


# ------------------------------------------------- steps checked in a forked checker


def test_leftover_children_reports_a_running_child_until_it_is_reaped():
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(write)
            os.read(read, 1)   # until the parent closes its end
        finally:
            os._exit(0)
    os.close(read)
    try:
        assert leftover_children() == ["a running child"]
    finally:
        os.close(write)
        os.waitpid(pid, 0)
    assert leftover_children() == []


def lone_run(ops, initial, cfg, cpus):
    """run_semiflow on ``cpus`` usable CPUs: with two or more its steps are checked aside."""
    delivered = []
    with pytest.MonkeyPatch.context() as mp, deadline(120):
        usable_cpus(mp, cpus)
        result = run_semiflow(ops, initial, cfg, collect_snapshots=True,
                              on_record=lambda rec, coeffs: delivered.append((rec, coeffs.copy())))
    assert_delivered(delivered, result)
    assert leftover_children() == []
    return result


@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ensembles(), st.integers(1, 4), st.booleans())
def test_runs_checked_aside_equal_the_inline_kernel(case, cpus, detect):
    ops, initials, cfg = case
    if not detect:
        cfg = dataclasses.replace(cfg, eq_tol=0.0)
    for initial in initials[:2]:
        want = _run_batch(ops, [initial], cfg, collect_snapshots=True)[0]
        assert_same_run(lone_run(ops, initial, cfg, cpus), want)
        assert lone_run(ops, initial, cfg, cpus).state.u.coeffs.strides \
            == want.state.u.coeffs.strides


@pytest.mark.parametrize("max_mode", range(5))
def test_state_slots_have_the_inline_layout_and_the_result_leaves_the_ring(max_mode,
                                                                           monkeypatch):
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 8, 1.0), max_mode)
    cfg = StepperConfig(dt=DT, t_max=12 * DT, eq_tol=1e-2, snapshot_stride=5)
    initial = smooth_random_field(ops, np.random.default_rng(max_mode), sup_amplitude=0.3)
    checkers, real_init = [], conekit.dynamics._Checker.__init__

    def kept(self, *args):
        real_init(self, *args)
        checkers.append(self)

    monkeypatch.setattr(conekit.dynamics._Checker, "__init__", kept)
    got = lone_run(ops, initial, cfg, 2)
    assert_same_run(got, _run_batch(ops, [initial], cfg, collect_snapshots=True)[0])
    (checker,) = checkers
    fresh = ops.solve_ch_system(initial.coeffs[None], DT, cfg.stabilization)   # a fresh _unpack
    assert len(checker.states) == checker.depth + 1
    for u, uvals in checker.states:
        assert u.shape == fresh.shape and u.strides == fresh.strides
        assert uvals.strides == coeffs_to_values(fresh).strides
    assert got.state.u.coeffs.strides == fresh[0].strides
    assert not any(np.shares_memory(got.state.u.coeffs, slot)
                   for pair in checker.slots + checker.states for slot in pair)


def failed_run(ops, initial, cfg, cpus, action):
    """(type, message, records, warnings) of a failing run, warnings under ``action``."""
    seen = []
    with pytest.MonkeyPatch.context() as mp, deadline(120), \
            warnings.catch_warnings(record=True) as warned, pytest.raises(Exception) as err:
        warnings.simplefilter(action)
        usable_cpus(mp, cpus)
        run_semiflow(ops, initial, cfg,
                     on_record=lambda rec, coeffs: seen.append((repr(rec), coeffs.tobytes())))
    assert leftover_children() == []
    return (type(err.value), str(err.value),
            seen,   # records and states, exact for floats, and NaN equals NaN
            [(w.category, str(w.message), w.filename, w.lineno) for w in warned])


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("eq_tol", [0.0, 1e-8])
@pytest.mark.parametrize("name", ["rise_late", "rise", "solve", "overflow"])
def test_failures_checked_aside_are_the_inline_ones(name, eq_tol, action):
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 24, 1.0), 2)
    cfg = StepperConfig(dt=1e-2, stabilization=0.0, t_max=0.5, eq_tol=eq_tol,
                        snapshot_stride=5)
    initial = failing_members(ops)[name]
    want = failed_run(ops, initial, cfg, 1, action)
    for cpus in (2, 4):
        assert failed_run(ops, initial, cfg, cpus, action) == want


def sphere_member(ops, seed=7, amplitude=0.3):
    return smooth_random_field(ops, np.random.default_rng(seed), sup_amplitude=amplitude)


@pytest.mark.parametrize("ending", ["t_max", "equilibrium", "abort", "on_record", "interrupt"])
def test_every_ending_reaps_the_checker(small_sphere_ops, ending):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=40 * DT, eq_tol=0.0, snapshot_stride=5)
    initial = sphere_member(ops)
    expected, raised = None, {"on_record": ValueError, "interrupt": KeyboardInterrupt}.get(ending)
    if ending == "equilibrium":
        cfg = dataclasses.replace(cfg, eq_tol=1.0)
    if ending == "abort":
        ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 24, 1.0), 2)
        cfg = StepperConfig(dt=1e-2, stabilization=0.0, t_max=0.5, eq_tol=0.0, snapshot_stride=5)
        initial, expected = failing_members(ops)["rise_late"], StabilityError

    def on_record(rec, _coeffs):
        if raised is not None and rec.step == 10:
            raise raised("stop here")

    with pytest.MonkeyPatch.context() as mp, deadline(60):
        usable_cpus(mp, 2)
        if raised or expected:
            with pytest.raises(raised or expected):
                run_semiflow(ops, initial, cfg, on_record=on_record)
        else:
            result = run_semiflow(ops, initial, cfg, on_record=on_record)
            assert result.equilibrium_reached == (ending == "equilibrium")


def test_a_dead_checker_raises_with_its_exit_code(small_sphere_ops, monkeypatch):
    parent = os.getpid()
    real = conekit.dynamics._step_checks

    def mortal(ops, cfg, stack, vals, prev):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(ops, cfg, stack, vals, prev)

    monkeypatch.setattr(conekit.dynamics, "_step_checks", mortal)
    usable_cpus(monkeypatch, 2)
    cfg = StepperConfig(dt=DT, t_max=20 * DT, eq_tol=0.0)
    with deadline(30), pytest.raises(RuntimeError, match=r"step checker .*exit code -9"):
        run_semiflow(small_sphere_ops, sphere_member(small_sphere_ops), cfg)


@pytest.mark.parametrize("eq_tol", [0.0, 1e-2])
def test_a_fault_stops_the_checker_and_the_rest_is_checked_inline(small_sphere_ops,
                                                                   monkeypatch, eq_tol):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=30 * DT, eq_tol=eq_tol, snapshot_stride=4)
    initial = sphere_member(ops)
    want = _run_batch(ops, [initial], cfg, collect_snapshots=True)[0]
    parent = os.getpid()
    real = conekit.dynamics._step_checks
    checked = []   # each process counts its own calls

    def flaky(ops, cfg, stack, vals, prev):
        checked.append(None)
        if os.getpid() != parent and len(checked) == 5:
            raise FloatingPointError("a fault only the checker meets")
        return real(ops, cfg, stack, vals, prev)

    monkeypatch.setattr(conekit.dynamics, "_step_checks", flaky)
    assert_same_run(lone_run(ops, initial, cfg, 2), want)
    # steps 1-4 were checked aside; the checker stopped at step 5, and steps 5-30 ran inline
    assert len(checked) == 26


def test_a_failed_fork_runs_inline(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=10 * DT, eq_tol=1e-2, snapshot_stride=4)
    initial = sphere_member(ops)
    want = _run_batch(ops, [initial], cfg, collect_snapshots=True)[0]
    open_fds = os.listdir("/proc/self/fd")

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_run(lone_run(ops, initial, cfg, 2), want)
    assert os.listdir("/proc/self/fd") == open_fds


def test_a_slow_checker_is_forked_once(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=400 * DT, eq_tol=1e-2, snapshot_stride=4)
    initial = sphere_member(ops)
    want = _run_batch(ops, [initial], cfg, collect_snapshots=True)[0]
    parent = os.getpid()
    real_checks, real_fork = conekit.dynamics._step_checks, os.fork
    forks = []

    def slow_aside(ops, cfg, stack, vals, prev):
        if os.getpid() != parent:
            time.sleep(0.003)   # every step checked aside is slower than an inline one
        return real_checks(ops, cfg, stack, vals, prev)

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(conekit.dynamics, "_step_checks", slow_aside)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert_same_run(lone_run(ops, initial, cfg, 2), want)
    assert len(forks) == 1


def test_a_run_forks_its_checker_after_its_first_steps(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    initial = sphere_member(ops)
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    first = conekit.dynamics._Checker.first(initial.coeffs.size)
    assert first == 304   # 2^19 state values over 1728 per step
    for n_steps, n_forks in ((first, 0), (first + 10, 1)):
        cfg = StepperConfig(dt=DT, t_max=n_steps * DT, eq_tol=0.0, snapshot_stride=50)
        forks.clear()
        with deadline(60):
            got = run_semiflow(ops, initial, cfg, collect_snapshots=True)
        assert len(forks) == n_forks
        assert_same_run(got, _run_batch(ops, [initial], cfg, collect_snapshots=True)[0])


def test_a_step_that_warns_ahead_ends_the_pipelining(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=DT, t_max=30 * DT, eq_tol=1e-2, snapshot_stride=4)
    initial = sphere_member(ops)
    want = _run_batch(ops, [initial], cfg, collect_snapshots=True)[0]
    parent = os.getpid()
    real = conekit.dynamics._settle
    settled = []

    def noisy(ops, stack, mean0):
        vals = real(ops, stack, mean0)
        if os.getpid() == parent:
            settled.append(None)
            if len(settled) >= 6:
                warnings.warn("a step that warns", UserWarning)
        return vals

    monkeypatch.setattr(conekit.dynamics, "_settle", noisy)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        assert_same_run(lone_run(ops, initial, cfg, 2), want)
    # steps 1-5 were checked aside; step 6 warned ahead, and it and the rest ran inline
    assert len(settled) == 5 + 1 + 25
    assert [str(w.message) for w in warned] == ["a step that warns"] * 25
