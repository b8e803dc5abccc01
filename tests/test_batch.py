"""Ensemble step kernel: every batch member is bitwise its own run_semiflow."""

import numpy as np
import pytest

from conekit.analysis import smooth_random_field
from conekit.dynamics import StepperConfig, _run_batch, run_semiflow
from conekit.fields import constant_field
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DT = 1e-3


def assert_same_run(got, want):
    assert got.records == want.records
    assert got.equilibrium_reached == want.equilibrium_reached
    assert got.final_residual == want.final_residual
    assert got.state.step == want.state.step
    assert got.state.mean0 == want.state.mean0
    assert np.array_equal(got.state.u.coeffs, want.state.u.coeffs)
    assert [step for step, _ in got.snapshots] == [step for step, _ in want.snapshots]
    for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a, b)


def check_batch(ops, initials, cfg):
    delivered = [[] for _ in initials]
    batch = _run_batch(ops, initials, cfg,
                       on_record=lambda member, rec: delivered[member].append(rec),
                       collect_snapshots=True)
    assert len(batch) == len(initials)
    for initial, got, recs in zip(initials, batch, delivered):
        assert recs == got.records
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
        u = smooth_random_field(ops, rng, sup_amplitude=amplitude)
        resume_at = draw(st.integers(0, n_steps))
        if resume_at:
            head = StepperConfig(dt=DT, t_max=resume_at * DT, eq_tol=0.0)
            initials.append(run_semiflow(ops, u, head).state)
        else:
            initials.append(u)
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
    resumed = run_semiflow(ops, smooth_random_field(ops, rng, sup_amplitude=0.3),
                           StepperConfig(dt=DT, t_max=0.02, eq_tol=0.0)).state
    at_rest = constant_field(ops.mesh, ops.max_mode, 0.25)
    batch = check_batch(ops, [moving, at_rest, resumed], cfg)
    assert batch[1].equilibrium_reached and batch[1].state.step == 1
    assert batch[0].state.step > 1 and batch[2].state.step > 20
