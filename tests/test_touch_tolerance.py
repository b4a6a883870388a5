"""One touch tolerance: every containment and contact test reads the scene's ``tol``.

An exact region (sphere or shell) is touched within ``EXACT_TOUCH_FRACTION *
d_min_global``, the scene's smallest diameter, not its own. The scenes here
set ``d_min_global`` below a sphere's own ``d_min`` and put a point in the
gap between the two tolerances, where a second rule would disagree.
"""

import numpy as np
import pytest

from tspn import Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere, Tour
from tspn.geom import (
    EXACT_TOUCH_FRACTION, _reach, contains, first_touch_indices, intersecting_pairs,
    region_contains, touch_tolerance,
)
from tspn.planner import missed_objects

from oracles import fibonacci_directions

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
    tol = scene.tol[0]
    assert tol == EXACT_TOUCH_FRACTION * D_MIN < EXACT_TOUCH_FRACTION * big.d_min
    p = near.shape.points[:1]
    assert abs(float(np.linalg.norm(p)) - 4.0 - gap) < 1e-9
    touched = gap <= tol

    # A waypoint on the near region's boundary sample closest to the sphere.
    tour = Tour(waypoints=p)
    assert first_touch_indices(scene, tour.waypoints).tolist() == [0 if touched else -1, 0]
    assert missed_objects(tour, scene) == ([] if touched else ["big"])
    assert contains(big, tour.waypoints, tol).tolist() == [touched]
    assert region_contains(big, Point3(*p[0]), tol) == touched

    # The pair meets exactly when a boundary sample of the sampled region touches the sphere.
    sample_touches = first_touch_indices(scene, near.shape.points)[0] >= 0
    assert sample_touches == touched
    assert intersecting_pairs(scene) == ([(0, 1)] if sample_touches else [])


def test_scene_columns_are_the_touch_tolerance_and_its_reach():
    regions = [
        Region(center=Point3(1.0, 2.0, 3.0), shape=Sphere(6.0)),
        Region(center=Point3(-4.0, 0.5, 9.0), shape=Shell(5.5, 8.0)),
        sampled_ball((20.0, -3.0, 0.25), 3.0),
    ]
    scene = Scene(objects=tuple(SceneObject(f"o{i}", r) for i, r in enumerate(regions)),
                  d_min_global=D_MIN, d_max_global=D_MAX)
    for i, region in enumerate(regions):
        tol = touch_tolerance(region, D_MIN)
        assert scene.tol[i] == tol
        assert scene.reach[i] == _reach(region.d_max / 2.0, tol)
    assert scene.tol.tolist() == [EXACT_TOUCH_FRACTION * D_MIN] * 2 + [0.05 * 6.0]
