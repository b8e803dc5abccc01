"""What the CLI keeps in memory: one eigensystem at a time, and snapshots on disk.

Peaks are read with tracemalloc, which sees every numpy allocation, so they
do not depend on the allocator or on what the interpreter already holds.
"""

import contextlib
import io
import tracemalloc

from conekit.cli import main


def sphere(cells, modes):
    return f"[geometry]\nkind = sphere\nM = {cells}\nK = {modes}\nq = 1.0\n"


def run(tmp_path, command, ini_text):
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(ini_text)
    root = tmp_path / "runs"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(cfg), "--run-root", str(root)])
    return rc, max(root.iterdir())


def traced_peak(tmp_path, command, ini_text):
    tracemalloc.start()
    try:
        rc, rundir = run(tmp_path, command, ini_text)
        return rc, rundir, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_spectrum_holds_one_eigensystem_at_a_time(tmp_path):
    # 33 modes of 256 x 256 eigenvectors would take 17 MB; one mode takes 0.5 MB
    rc, _, peak = traced_peak(tmp_path, "spectrum", "")
    assert rc == 0
    assert peak < 4e6


def test_simulate_memory_does_not_grow_with_t_max(tmp_path):
    def peak(strides):
        ini = sphere(96, 8) \
            + f"[dynamics]\nT_max = {strides * 5e-3}\neq_tol = 0\nsnapshot_stride = 5\n"
        rc, rundir, traced = traced_peak(tmp_path, "simulate", ini)
        assert rc == 0
        assert len(list((rundir / "snapshots").iterdir())) == strides + 1
        return traced

    peak(1)  # caches and lazy imports of a first run are not part of either peak
    short, long = peak(4), peak(16)
    # holding the 12 further snapshots and records until the end adds about 25%
    assert abs(long - short) <= 0.1 * short


def test_aborted_simulate_keeps_the_snapshots_up_to_the_aborting_step(tmp_path):
    # the energy rises at the step to t = 0.03, whose record and snapshot are written before the abort
    ini = sphere(24, 2) \
        + "[dynamics]\ndt = 0.01\nS = 0\nT_max = 0.5\neq_tol = 0\nsnapshot_stride = 1\n" \
        + "[experiment]\nic = random\namplitude = 8\nseed = 1\n"
    rc, rundir = run(tmp_path, "simulate", ini)
    assert rc == 3
    assert (rundir / "status").read_text().startswith("error: StabilityError")
    snaps = sorted(p.name for p in (rundir / "snapshots").iterdir())
    assert snaps == [f"snap_{step:08d}.txt" for step in range(4)]
    # t = 0.03 at 17 digits: 0.029999999999999999
    assert (rundir / "snapshots" / snaps[-1]).read_text().startswith(f"# t = {0.03:.17g}\n")
