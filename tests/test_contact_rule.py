"""The block sphere/shell contact decisions against the scalar if-chains they replaced.

``intersecting_pairs`` and ``first_touch_indices`` decide sphere and shell
contacts for a whole block of candidates at once with ``geom.balls_meet``
and ``geom.in_ball``. ``tests/oracles.py`` restates the if-chains that
decided them one pair or one region at a time, with ``math.dist``. On
sphere/shell-only scenes every decision takes the block path.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Shell, Sphere
from tspn.geom import (
    TOUCH_FRACTION, contains, first_touch_indices, intersecting_pairs, regions_intersect,
)

from oracles import (
    ball_interval,
    brute_intersecting_pairs,
    chain_contains,
    chain_first_touch_indices,
    chain_regions_intersect,
    scene_of,
)

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# At 2**52 every coordinate sits on a 1 m float grid.
OFFSETS = (0.0, -(2.0**40), 2.0**52)


@st.composite
def ball_scenes(draw, max_n=10):
    """Spheres and shells on a 1.5 m lattice about an offset, diameters on a 0.5 m one.

    Coincident centers, shells with inner == outer, and exact outer and
    nested tangencies along the axes are all common.
    """
    offset = draw(st.sampled_from(OFFSETS))
    coord = st.integers(0, 6).map(lambda k: offset + 1.5 * k)
    regions = []
    for _ in range(draw(st.integers(1, max_n))):
        out = 0.5 * draw(st.integers(2, 12))
        center = Point3(draw(coord), draw(coord), draw(coord))
        if draw(st.booleans()):
            shape = Sphere(out)
        else:
            shape = Shell(0.5 * draw(st.integers(1, int(out / 0.5))), out)
        regions.append(Region(center=center, shape=shape))
    return regions


def probe_points(rng, regions, tol: float) -> np.ndarray:
    """Random rows near the regions, plus rows on either side of every ball interval's ends."""
    centers = np.array([r.center.as_array() for r in regions])
    lo, hi = centers.min(axis=0) - 4.0, centers.max(axis=0) + 4.0
    rows = list(lo + rng.uniform(size=(8, 3)) * (hi - lo))
    for region in regions:
        c = region.center.as_array()
        r_in, r_out = ball_interval(region)
        for r in (r_out, r_out + tol, r_in - tol, r_in):
            for dist in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
                e = np.zeros(3)
                e[int(rng.integers(3))] = dist
                rows += [c + e, c - e]
        rows.append(c)
    rng.shuffle(rows)
    return np.array(rows)


def assert_block_decisions_match_the_chains(regions, points):
    scene = scene_of(regions)
    tol = TOUCH_FRACTION * scene.d_min_global
    want = brute_intersecting_pairs(regions, chain_regions_intersect)
    assert intersecting_pairs(scene) == want
    intersect = partial(regions_intersect, d_min_global=scene.d_min_global)
    assert brute_intersecting_pairs(regions, intersect) == want
    assert np.array_equal(first_touch_indices(scene, points),
                          chain_first_touch_indices(regions, points, tol))
    for region in regions:
        assert contains(region, points, tol).tolist() == [
            chain_contains(region, p, tol) for p in points
        ]


@SETTINGS
@given(ball_scenes(), st.integers(0, 2**32 - 1))
def test_block_contacts_match_the_scalar_chains(regions, seed):
    rng = np.random.default_rng(seed)
    tol = TOUCH_FRACTION * min(r.d_min for r in regions)
    assert_block_decisions_match_the_chains(regions, probe_points(rng, regions, tol))


def ball(center, shape) -> Region:
    return Region(center=Point3(*center), shape=shape)


# (a, b, meet): a pair of solids and whether they share a point.
EDGE_PAIRS = {
    # dist == out_a + out_b, along an axis and along a 3-4-5 diagonal.
    "tangent": (ball((0, 0, 0), Sphere(2.0)), ball((3, 0, 0), Sphere(4.0)), True),
    "tangent-diagonal": (ball((0, 0, 0), Shell(1.0, 4.0)), ball((3, 4, 0), Sphere(6.0)), True),
    "apart": (ball((0, 0, 0), Sphere(2.0)), ball((3, 0, 0), Shell(2.0, 3.5)), False),
    # dist + out_a == in_b: a ball touching a shell's inner sphere from inside.
    "nested-tangent": (ball((2, 0, 0), Sphere(2.0)), ball((0, 0, 0), Shell(6.0, 10.0)), True),
    "nested-inside-hole": (ball((1, 0, 0), Sphere(2.0)), ball((0, 0, 0), Shell(6.0, 10.0)), False),
    # Coincident centers.
    "coincident-in-hole": (ball((0, 0, 0), Sphere(4.0)), ball((0, 0, 0), Shell(6.0, 8.0)), False),
    "coincident-touching": (ball((0, 0, 0), Sphere(6.0)), ball((0, 0, 0), Shell(6.0, 8.0)), True),
    "coincident-spheres": (ball((0, 0, 0), Sphere(2.0)), ball((0, 0, 0), Sphere(5.0)), True),
    # Shells with inner == outer.
    "twin-shells-same": (ball((0, 0, 0), Shell(4.0, 4.0)), ball((0, 0, 0), Shell(4.0, 4.0)), True),
    "twin-shells-nested": (ball((0, 0, 0), Shell(4.0, 4.0)), ball((0, 0, 0), Shell(6.0, 6.0)), False),
    "twin-shells-tangent": (ball((0, 0, 0), Shell(4.0, 4.0)), ball((5, 0, 0), Shell(6.0, 6.0)), True),
    "twin-shells-inner-tangent": (
        ball((1, 0, 0), Shell(4.0, 4.0)), ball((0, 0, 0), Shell(6.0, 6.0)), True),
}


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("name", sorted(EDGE_PAIRS))
def test_hand_built_edge_pairs(name, offset):
    a, b, meet = EDGE_PAIRS[name]
    a, b = (ball(r.center.as_array() + offset, r.shape) for r in (a, b))
    assert chain_regions_intersect(a, b) == chain_regions_intersect(b, a) == meet
    assert intersecting_pairs(scene_of([a, b])) == ([(0, 1)] if meet else [])
    d_min_global = min(a.d_min, b.d_min)
    assert regions_intersect(a, b, d_min_global) == regions_intersect(b, a, d_min_global) == meet
    rng = np.random.default_rng(len(name))
    tol = TOUCH_FRACTION * min(a.d_min, b.d_min)
    assert_block_decisions_match_the_chains([a, b], probe_points(rng, [a, b], tol))
