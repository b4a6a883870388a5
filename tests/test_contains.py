"""The vectorized membership test ``geom.contains`` against the scalar references."""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Sampled, Shell, Sphere
from tspn import planner
from tspn.geom import contains, region_contains, regions_intersect, touch_tolerance
from tspn.planner import _surface_samples, build_detour, fibonacci_sphere

from oracles import (
    loop_regions_intersect,
    per_direction_surface_samples,
    scalar_region_contains,
    scalar_trace_perimeter,
)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from(("sphere", "shell", "sampled"))


def unit_rows(rng, k: int) -> np.ndarray:
    u = rng.normal(size=(k, 3))
    return u / np.linalg.norm(u, axis=1)[:, None]


def random_region(rng, kind: str, center=None) -> Region:
    c = rng.uniform(-20.0, 20.0, size=3) if center is None else np.asarray(center, dtype=float)
    r_out = rng.uniform(1.0, 5.0)
    if kind == "sphere":
        return Region(center=Point3(*c), shape=Sphere(2.0 * r_out))
    if kind == "shell":
        r_in = r_out * rng.choice([rng.uniform(0.2, 1.0), 1.0])  # inner == outer included
        return Region(center=Point3(*c), shape=Shell(2.0 * r_in, 2.0 * r_out))
    m = int(rng.integers(8, 64))
    dirs = unit_rows(rng, m)
    radii = rng.uniform(0.6 * r_out, r_out, size=m)
    return Region(
        center=Point3(*c),
        shape=Sampled(points=c + dirs * radii[:, None], normals=dirs,
                      d_min=2.0 * float(radii.min()), d_max=2.0 * float(radii.max())),
    )


def probe_points(rng, region: Region, tol: float) -> np.ndarray:
    """Random points around the region, its center, and points at each
    boundary radius and at that radius +- 2 tol."""
    c = region.center.as_array()
    s = region.shape
    if isinstance(s, Sampled):
        offsets = s.points - c
        radii = np.linalg.norm(offsets, axis=1)
        dirs = offsets / radii[:, None]
        extremes = np.array([radii.min(), radii.max()])
        rings = [dirs * radii[:, None]] + [
            unit_rows(rng, 8) * r for r in np.concatenate([extremes - 2 * tol, extremes + 2 * tol])
        ]
        rings += [dirs * (radii + 2 * tol)[:, None], dirs * (radii - 2 * tol)[:, None]]
    else:
        r_in = s.inner_diameter / 2.0 if isinstance(s, Shell) else 0.0
        r_out = region.d_max / 2.0
        radii = (r_in, r_out, r_in - 2 * tol, r_in + 2 * tol, r_out - 2 * tol, r_out + 2 * tol)
        rings = [unit_rows(rng, 8) * r for r in radii if r >= 0.0]
    reach = region.d_max
    box = c + rng.uniform(-reach, reach, size=(64, 3))
    return np.concatenate([box, c[None, :], c + np.concatenate(rings)])


@SETTINGS
@given(seed=SEEDS, kind=KINDS, k=st.sampled_from((0, 1, None)))
def test_contains_matches_scalar_reference(seed, kind, k):
    rng = np.random.default_rng(seed)
    region = random_region(rng, kind)
    tol = touch_tolerance(region)
    pts = probe_points(rng, region, tol)
    if k is not None:
        pts = pts[rng.permutation(len(pts))[:k]]
    got = contains(region, pts, tol)
    assert got.dtype == bool and got.shape == (len(pts),)
    assert got.tolist() == [scalar_region_contains(region, p, tol) for p in pts]
    assert np.array_equal(contains(region, pts), got)  # tol defaults to touch_tolerance
    assert [region_contains(region, Point3(*p)) for p in pts] == got.tolist()


@SETTINGS
@given(seed=SEEDS, other=KINDS, spread=st.floats(0.0, 1.3))
def test_sampled_regions_intersect_matches_point_loop(seed, other, spread):
    rng = np.random.default_rng(seed)
    a = random_region(rng, "sampled")
    reach = (a.d_max + 10.0) / 2.0
    offset = unit_rows(rng, 1)[0] * spread * reach
    b = random_region(rng, other, center=a.center.as_array() + offset)
    want = loop_regions_intersect(a, b, touch_tolerance)
    assert regions_intersect(a, b) == want
    assert regions_intersect(b, a) == want


@SETTINGS
@given(seed=SEEDS, n=st.sampled_from((4, 5, 32, 108)))
def test_surface_samples_bitwise_equal_to_per_direction_lookup(seed, n):
    region = random_region(np.random.default_rng(seed), "sampled")
    want = per_direction_surface_samples(region, fibonacci_sphere(n))
    assert np.array_equal(_surface_samples([region], n)[0], want)


def _detour_arrays(plan):
    return list(plan.perimeters), plan.spikes.reshape(-1, 6), plan.stitched


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=SEEDS)
def test_sampled_detour_matches_scalar_bisection(seed):
    rng = np.random.default_rng(seed)
    region = random_region(rng, "sampled")
    d_min_global = region.d_min * rng.uniform(0.5, 1.0)
    got = build_detour(region, d_min_global, owner_id="o")

    def scalar(owner, plane_point, axis_dir, step):
        return scalar_trace_perimeter(owner, plane_point, axis_dir, step, planner._plane_basis)

    with mock.patch.object(planner, "_trace_perimeter", scalar):
        want = build_detour(region, d_min_global, owner_id="o")
    got_p, got_s, got_w = _detour_arrays(got)
    want_p, want_s, want_w = _detour_arrays(want)
    assert [len(r) for r in got_p] == [len(r) for r in want_p]
    assert got_s.shape == want_s.shape and got_w.shape == want_w.shape
    bound = 1e-12 * region.d_max
    for g, w in zip(got_p + [got_s, got_w], want_p + [want_s, want_w]):
        assert np.all(np.abs(g - w) <= bound)
