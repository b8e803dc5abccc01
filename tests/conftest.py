"""Shared fixtures: a few standard geometries and operator workspaces.

Session-scoped because meshes and operator workspaces are immutable; building
them once keeps the suite fast.  Every test must also end without a child
process: a single run longer than 128 steps forks a checker, and an ensemble
forks slices.
"""

import multiprocessing
import os

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conekit import build_mesh, build_profile
from conekit.operators import ModeOperators


@pytest.fixture(scope="session")
def sphere_mesh():
    """Unit sphere, uniform M=256 (the spectrum-oracle resolution)."""
    return build_mesh(build_profile("sphere", radius=1.0), 256, 1.0)


@pytest.fixture(scope="session")
def sphere_ops(sphere_mesh):
    return ModeOperators(sphere_mesh, 8)


@pytest.fixture(scope="session")
def small_sphere_ops():
    """Unit sphere at modest resolution for dynamics tests."""
    mesh = build_mesh(build_profile("sphere", radius=1.0), 96, 1.0)
    return ModeOperators(mesh, 8)


@pytest.fixture(scope="session")
def cone_ops():
    """Capped cone with tip slope 1/2, uniform mesh, for dynamics tests."""
    mesh = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 96, 1.0)
    return ModeOperators(mesh, 8)


@pytest.fixture(scope="session")
def graded_cone_ops():
    """Capped cone on a deeply tip-graded mesh, for elliptic/tip work."""
    mesh = build_mesh(build_profile("cone_capped", c=1, length=2.0), 512, 0.8)
    return ModeOperators(mesh, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)


def eigensystem(ops, mode):
    """Ascending eigenvalues of -L_k and its eigenvectors as radial profiles, orthonormal in
    the volume inner product (columns)."""
    vals, vecs = eigh_tridiagonal(*ops.neglap_bands(mode))
    return vals, vecs / ops.sqrt_volumes[:, None]


def leftover_children() -> list[str]:
    """The child processes of this process: live multiprocessing children, then any other
    child, running or ended; an ended one is reaped, so it is reported once."""
    found = [repr(proc) for proc in multiprocessing.active_children()]
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no child at all
        return found
    return found + ["a running child" if pid == 0 else f"child {pid}, wait status {status}"]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    left = leftover_children()
    for proc in multiprocessing.active_children():   # spare the tests after this one
        proc.terminate()
        proc.join()
    assert left == [], f"the test left child processes: {left}"
