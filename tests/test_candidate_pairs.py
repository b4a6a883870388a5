"""Batched cell queries (``geom.candidate_pairs``) against the per-point grid walks they replaced.

``tests/oracles.py`` keeps the per-point walks: a row is a candidate of a
query when each of its cell keys, as Python integers, differs from the
query's by at most 1. Above 2**53 a float key's ``+ 1`` can round up to
the next float, so there the batched query may return more candidates
than the walk, never fewer; everything decided from the candidates must
still be equal.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Sampled, Shell, Sphere
from tspn import geom
from tspn.geom import candidate_pairs, earlier_within, intersecting_pairs, regions_intersect

from oracles import (
    cell_edge,
    cell_keys,
    fibonacci_directions,
    loop_regions_intersect,
    near_rows,
    per_point_intersecting_pairs,
    per_point_near_pairs,
    reach_of,
    scene_of,
)

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# 2**52 puts coordinates on a 1 m float grid and keys near 2**53; at 1e20
# an int64 cast of a key would overflow.
OFFSETS = (0.0, -(2.0**40), 2.0**52, 1e20, -1e20)

# Block sizes: the module's, and blocks of a few pairs.
BLOCKS = (geom.CANDIDATE_BLOCK, 1, 7)


@contextmanager
def block_size(block):
    saved = geom.CANDIDATE_BLOCK
    geom.CANDIDATE_BLOCK = block
    try:
        yield
    finally:
        geom.CANDIDATE_BLOCK = saved


@st.composite
def point_sets(draw, max_n=30, max_queries=0):
    """(points, queries, radius): lattice rows about one offset. Coincident
    rows are common, and some rows sit exactly on cell boundaries."""
    offset = draw(st.sampled_from(OFFSETS))
    radius = draw(st.floats(0.3, 4.0))
    spacing = draw(st.sampled_from((0.5, 1.25, 3.0)))
    cell = cell_edge(radius)
    sets = []
    for most in (max_n, max_queries):
        rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3), max_size=most))
        points = offset + np.array(rows, dtype=float).reshape(-1, 3) * spacing
        on_edge = draw(st.integers(0, len(points)))
        points[:on_edge] = np.round(points[:on_edge] / cell) * cell
        sets.append(points)
    return sets[0], sets[1], radius


def all_pairs(blocks) -> tuple[np.ndarray, ...]:
    blocks = list(blocks)
    if not blocks:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(2))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def keys_below_2_53(points, radius) -> bool:
    keys = np.floor(points / cell_edge(radius))
    return not len(keys) or float(np.abs(keys).max()) < 2.0**53


# ------------------------------------------------------------------ candidate pairs


@SETTINGS
@given(point_sets(max_queries=12), st.sampled_from(BLOCKS))
@example((np.empty((0, 3)), np.zeros((1, 3)), 1.0), BLOCKS[0])
@example((np.zeros((1, 3)), np.empty((0, 3)), 1.0), BLOCKS[0])
@example((np.full((5, 3), 1e20), np.full((2, 3), 1e20), 2.0), BLOCKS[1])
def test_candidates_are_the_27_cells_around_each_query(sets, block):
    points, queries, radius = sets
    keys, query_keys = cell_keys(points, radius), cell_keys(queries, radius)
    with block_size(block):
        blocks = list(candidate_pairs(queries, points, radius))
    for q, p in blocks:
        assert q.size and np.all(np.diff(q * len(points) + p) > 0)  # sorted, no repeats
    if len(blocks) > 1:
        assert all(a[0][-1] < b[0][0] for a, b in zip(blocks, blocks[1:]))
    q, p = all_pairs(blocks)
    for k in range(len(queries)):
        want = near_rows(query_keys[k], keys)
        got = p[q == k].tolist()
        if keys_below_2_53(np.vstack([points, queries]), radius):
            assert got == want
        else:
            assert set(want) <= set(got)


@SETTINGS
@given(point_sets(), st.integers(1, 40))
@example((np.zeros((2, 3)), None, 1.0), 1)
@example((np.array([[0.0, 0.0, 0.0], [1.25, 0.0, 0.0], [3.0, 0.0, 0.0]]), None, 1.25), 2)
@example((np.full((40, 3), -1e20), None, 0.5), 25)
@example((np.full((40, 3), 1e20), None, 2.0), 3)
def test_earlier_within_matches_the_per_point_walk(sets, later_start):
    points, _, radius = sets
    # Per row, its earlier rows within the radius, from the walk's pairs.
    earlier = [[] for _ in points]
    for i, near, dist in per_point_near_pairs(points, radius):
        for j in near[dist <= radius].tolist():
            earlier[j].append(i)
    # Past 2**53 the candidates may be a superset; the distance filter
    # makes the result exact there too.
    for start in (0, min(later_start, len(points))):
        for block in BLOCKS:
            with block_size(block):
                got = list(earlier_within(points, start, radius))
            assert got == [(i, earlier[i]) for i in range(start, len(points))]


# ------------------------------------------------------------------ intersecting pairs


@st.composite
def offset_regions(draw, max_n=12):
    """Spheres and shells on a coarse lattice about an offset; sampled
    regions too at the origin, where their boundaries stay exact enough to
    validate."""
    offset = draw(st.sampled_from(OFFSETS))
    coord = st.integers(0, 6).map(lambda k: k * 1.5)
    regions = []
    for _ in range(draw(st.integers(0, max_n))):
        c = offset + np.array([draw(coord), draw(coord), draw(coord)])
        d = draw(st.floats(1.0, 6.0))
        kinds = ("sphere", "shell", "sampled") if offset == 0.0 else ("sphere", "shell")
        kind = draw(st.sampled_from(kinds))
        if kind == "sphere":
            shape = Sphere(d)
        elif kind == "shell":
            shape = Shell(draw(st.floats(0.2, 1.0)) * d, d)
        else:
            radii = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=8, max_size=16))) * d / 2.0
            dirs = fibonacci_directions(len(radii))
            shape = Sampled(points=c + dirs * radii[:, None], normals=dirs,
                            d_min=2.0 * float(radii.min()), d_max=2.0 * float(radii.max()))
        regions.append(Region(center=Point3(*c), shape=shape))
    return regions


@SETTINGS
@given(offset_regions(), st.sampled_from(BLOCKS))
def test_intersecting_pairs_match_the_per_point_walk(regions, block):
    with block_size(block):
        got = intersecting_pairs(scene_of(regions))
    assert got == per_point_intersecting_pairs(regions)


# ------------------------------------------------------------------ skewed inputs

# The skewed inputs below put about 4M candidate pairs in one cell. Blocked,
# either test peaks near 8 MB; a pass that held all the pairs at once peaks
# near 218 MB on the coincident points (32 MB per int64 array of them).
PEAK_CAP = 16 * 2**20


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_skewed_scene_in_one_cell_matches_brute_force_in_bounded_memory():
    # One large sampled region and 2000 small spheres inside it, all in the
    # single cell the large region's reach sets. Its d_max bound, 400 m, is
    # wider than its 380 m of samples, so that the cell holds them all.
    big_c = np.array([200.0, 200.0, 200.0])
    dirs = fibonacci_directions(64)
    big = Region(center=Point3(*big_c), shape=Sampled(points=big_c + 190.0 * dirs, normals=dirs,
                                                      d_min=380.0, d_max=400.0))
    rng = np.random.default_rng(3)
    lattice = np.stack(np.meshgrid(*[np.arange(13)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = 20.0 + 25.0 * lattice[rng.choice(len(lattice), size=2000, replace=False)]
    # A few spheres sit on boundary samples of the large region; it meets them, and
    # those inside it.
    centers[:5] = big_c + 190.0 * dirs[:5]
    regions = [big] + [Region(center=Point3(*c), shape=Sphere(float(d)))
                       for c, d in zip(centers, rng.uniform(0.5, 1.0, size=2000))]
    scene = scene_of(regions)
    cell = cell_edge(2.0 * reach_of(big, scene.d_min_global))
    assert not np.floor(np.vstack([centers, big.shape.points, big_c]) / cell).any()
    # Brute force: the sphere centers are at least 25 m apart, so no two
    # spheres meet; every pair with the large region is tested.
    gaps = geom.distances(centers[:, None], centers)
    gaps[np.diag_indices(len(centers))] = np.inf
    assert gaps.min() > 2.0
    expected = [(0, j) for j in range(1, len(regions))
                if regions_intersect(big, regions[j], scene.d_min_global)]
    assert expected == [(0, j) for j in range(1, len(regions))
                        if loop_regions_intersect(big, regions[j], scene.d_min_global)]
    assert len(expected) == 1384 and expected[:5] == [(0, j) for j in range(1, 6)]
    got, peak = traced_peak(intersecting_pairs, scene_of(regions))
    assert got == expected
    assert peak < PEAK_CAP


def test_coincident_centers_match_brute_force_in_bounded_memory():
    n = 2000
    center = np.array([3.0, -7.0, 11.0])
    # Concentric shells, each in the next one's hole: no two meet.
    shells = [Region(center=Point3(*center), shape=Shell(4.0 * k + 2.0, 4.0 * k + 3.0))
              for k in range(n)]
    # Brute force over every pair, by regions_intersect's rule at distance 0:
    # two concentric shells meet unless one lies inside the other's hole.
    inner = np.array([r.shape.inner_diameter for r in shells]) / 2.0
    outer = np.array([r.shape.outer_diameter for r in shells]) / 2.0
    apart = (outer[:, None] < inner[None, :]) | (outer[None, :] < inner[:, None])
    expected = [tuple(p) for p in np.argwhere(np.triu(~apart, 1)).tolist()]
    assert intersecting_pairs(scene_of(shells)) == expected == []
    # The same 4M candidates under tracemalloc, through a full walk of
    # earlier_within, which shares intersecting_pairs' broad phase.
    points = np.tile(center, (n, 1))
    got, peak = traced_peak(lambda p, r: [len(near) for _, near in earlier_within(p, 0, r)],
                            points, 1.0)
    assert got == list(range(n))
    assert peak < PEAK_CAP
