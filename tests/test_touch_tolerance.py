"""One touch tolerance: every containment and contact test reads the scene's ``tol``.

Every region, sphere, shell or sampled, is touched within ``TOUCH_FRACTION *
d_min_global``, a hair above float noise scaled by the scene's smallest
diameter, not by the region's own. The scenes here set ``d_min_global``
below a sphere's own ``d_min`` and put a point in the gap between the two,
where a rule scaled by the region would disagree. A large sampled region
gets no more slack than a small one: a point or a sphere 1 m outside every
boundary sample's radius does not touch it.
"""

import numpy as np
import pytest

from tspn import Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere, Tour
from tspn.geom import (
    TOUCH_FRACTION, _reach, contains, first_touch_indices, intersecting_pairs,
    region_contains, regions_intersect, touch_tolerance,
)
from tspn.planner import missed_objects

from oracles import fibonacci_directions, loop_regions_intersect

D_MIN, D_MAX = 5.4, 8.2


def sampled_ball(center, radius: float) -> Region:
    """A sampled ball whose first boundary sample lies at ``center - (radius, 0, 0)``."""
    dirs = np.vstack([[-1.0, 0.0, 0.0], fibonacci_directions(24)])
    c = np.asarray(center, dtype=float)
    return Region(center=Point3(*c), shape=Sampled(c + radius * dirs, dirs, 2 * radius, 2 * radius))


# Gaps past the 8 m sphere's surface: on it, inside the scene tolerance
# (1e-6 * 5.4 m), between it and the sphere's own 1e-6 * 8 m, and past both.
@pytest.mark.parametrize("gap", [0.0, 3e-6, 6e-6, 1e-5])
def test_exact_region_is_touched_within_the_scene_tolerance(gap):
    big = Region(center=Point3(0.0, 0.0, 0.0), shape=Sphere(8.0))
    near = sampled_ball((4.0 + gap + 3.0, 0.0, 0.0), 3.0)
    scene = Scene(objects=(SceneObject("big", big), SceneObject("near", near)),
                  d_min_global=D_MIN, d_max_global=D_MAX)
    tol = scene.tol
    assert tol == TOUCH_FRACTION * D_MIN < TOUCH_FRACTION * big.d_min
    p = near.shape.points[:1]
    assert abs(float(np.linalg.norm(p)) - 4.0 - gap) < 1e-9
    touched = gap <= tol

    # A waypoint on the near region's boundary sample closest to the sphere.
    tour = Tour(waypoints=p)
    assert first_touch_indices(scene, tour.waypoints).tolist() == [0 if touched else -1, 0]
    assert missed_objects(tour, scene) == ([] if touched else ["big"])
    assert contains(big, tour.waypoints, tol).tolist() == [touched]
    assert region_contains(big, Point3(*p[0]), tol) == touched

    # A boundary sample of the sampled region touches the sphere exactly when the waypoint does.
    sample_touches = first_touch_indices(scene, near.shape.points)[0] >= 0
    assert sample_touches == touched
    # The pair meets exactly when the waypoint touches: the sphere's point nearest the sampled
    # center, (4, 0, 0), lies ``gap`` past the sampled region's boundary sample there.
    assert loop_regions_intersect(big, near, D_MIN) == touched
    assert intersecting_pairs(scene) == ([(0, 1)] if touched else [])


def test_scene_columns_are_the_touch_tolerance_and_its_reach():
    regions = [
        Region(center=Point3(1.0, 2.0, 3.0), shape=Sphere(6.0)),
        Region(center=Point3(-4.0, 0.5, 9.0), shape=Shell(5.5, 8.0)),
        sampled_ball((20.0, -3.0, 0.25), 3.0),
    ]
    scene = Scene(objects=tuple(SceneObject(f"o{i}", r) for i, r in enumerate(regions)),
                  d_min_global=D_MIN, d_max_global=D_MAX)
    tol = touch_tolerance(D_MIN)
    assert type(scene.tol) is float and scene.tol == tol == TOUCH_FRACTION * D_MIN
    for i, region in enumerate(regions):
        assert scene.reach[i] == _reach(region.d_max / 2.0, tol)


def test_a_large_sampled_region_gets_no_more_slack_than_float_noise():
    """A 380 m sampled region meets no sphere lying wholly 1 m or more outside every boundary
    sample's radius, and a waypoint 1 m outside it does not touch it."""
    c = np.array([200.0, 200.0, 200.0])
    dirs = fibonacci_directions(64)
    big = Region(center=Point3(*c), shape=Sampled(c + 190.0 * dirs, dirs, 380.0, 380.0))
    # Along each sample's own direction and halfway between two samples, a 1 m sphere whose
    # near side is 191 m from the center.
    between = dirs[:32] + dirs[32:]
    ways = np.vstack([dirs, between / np.linalg.norm(between, axis=1)[:, None]])
    spheres = [Region(center=Point3(*(c + 191.5 * u)), shape=Sphere(1.0)) for u in ways]
    scene = Scene(objects=[SceneObject(f"o{i}", r) for i, r in enumerate([big] + spheres)],
                  d_min_global=1.0, d_max_global=380.0)
    assert intersecting_pairs(scene) == []
    assert not any(regions_intersect(big, s, 1.0) or loop_regions_intersect(s, big, 1.0) for s in spheres)
    outside = c + 191.0 * ways
    assert not contains(big, outside, scene.tol).any()
    assert first_touch_indices(scene, outside)[0] == -1
    assert missed_objects(Tour(waypoints=outside), scene)[0] == "o0"
    # The same 1 m sphere 0.5 m nearer, its near side on the boundary sample, meets the region.
    on = [Region(center=Point3(*(c + 190.5 * u)), shape=Sphere(1.0)) for u in dirs]
    assert all(regions_intersect(big, s, 1.0) and loop_regions_intersect(s, big, 1.0) for s in on)
