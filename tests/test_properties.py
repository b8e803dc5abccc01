"""Invariants of the discrete operator over generated meshes and fields.

Meshes are spheres and capped cones, uniform and tip-graded, with angular
truncations 0 to 4.
"""

import math

import numpy as np
import pytest

from conekit.analysis import smooth_random_field
from conekit.fields import Field, channel_weights
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators
from conekit.spaces import h01_dual_norm, h1_seminorm

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SLOPES = ("1/3", "1/2", "3/4", "1")


def profile(kind, c):
    if kind == "sphere":
        return build_profile("sphere", radius=1.0)
    return build_profile("cone_capped", c=c, length=math.pi)  # the sphere's length


@st.composite
def workspaces(draw):
    kind = draw(st.sampled_from(("sphere", "cone_capped")))
    c = draw(st.sampled_from(SLOPES)) if kind == "cone_capped" else None
    grading = draw(st.sampled_from((1.0, 0.9, 0.8)))
    cells = draw(st.integers(8, 64))
    ops = ModeOperators(build_mesh(profile(kind, c), cells, grading), draw(st.integers(0, 4)))
    return ops, (kind, c, grading, cells)


@st.composite
def fields_on(draw, ops):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        return smooth_random_field(ops, rng, sup_amplitude=draw(st.floats(1e-3, 2.0)))
    c = rng.standard_normal((ops.max_mode + 1, 2, ops.mesh.cells))
    c[0, 1] = 0.0
    return Field(ops.mesh, c)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_dirichlet_seminorm_is_the_laplacian_pairing(data):
    ops, _ = data.draw(workspaces())
    u = data.draw(fields_on(ops))
    w = channel_weights(ops.max_mode)
    lap = ops.apply_laplacian(u).coeffs
    pairing = -float(np.einsum("kci,kci,kc,i->", lap, u.coeffs, w, ops.volumes))
    assert h1_seminorm(u) ** 2 == pytest.approx(pairing, rel=1e-12)


@st.composite
def foreign_fields(draw, ops, spec):
    """A field on the same cell count from another slope, grading or truncation."""
    kind, c, grading, cells = spec
    change = draw(st.sampled_from(("slope", "grading", "truncation")))
    max_mode = ops.max_mode
    if change == "slope":
        kind, c = "cone_capped", draw(st.sampled_from([s for s in SLOPES if s != c]))
    elif change == "grading":
        grading = draw(st.sampled_from([q for q in (1.0, 0.9, 0.8, 0.7) if q != grading]))
    else:
        max_mode = draw(st.sampled_from([k for k in range(6) if k != max_mode]))
    return Field(build_mesh(profile(kind, c), cells, grading), np.zeros((max_mode + 1, 2, cells)))


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fields_from_another_geometry_or_truncation_are_rejected(data):
    ops, spec = data.draw(workspaces())
    foreign = data.draw(foreign_fields(ops, spec))
    for apply in (ops.apply_laplacian, lambda v: ops.solve_ch_system(v, 1e-3, 2.0),
                  lambda v: h01_dual_norm(v, ops)):
        with pytest.raises(ValueError, match="does not match operator"):
            apply(foreign)
