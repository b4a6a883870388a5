"""Scene-wide neighbour queries, and the scenes drawn through them, against brute-force references."""

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tspn import (
    CapacityError, ContractError, Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere,
)
from tspn.bench import SceneConfig, generate_scene, scene_to_json
from tspn.geom import intersecting_pairs, regions_intersect
from tspn.planner import maximal_independent_set, plan_online, scene_is_disjoint

from oracles import (
    brute_intersecting_pairs,
    dense_regions_meet,
    fibonacci_directions,
    greedy_mis,
    one_at_a_time_disjoint_centers,
    per_point_near_pairs,
    reach_of,
    scene_of,
)
from test_coverage import overlap_scene

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def sampled_region(center, radii) -> Region:
    radii = np.asarray(radii, dtype=float)
    dirs = fibonacci_directions(len(radii))
    c = np.asarray(center, dtype=float)
    return Region(
        center=Point3(*c),
        shape=Sampled(points=c + dirs * radii[:, None], normals=dirs,
                      d_min=2.0 * float(radii.min()), d_max=2.0 * float(radii.max())),
    )


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(("sphere", "shell", "sampled")))
    d_out = draw(st.floats(1.0, 6.0))
    if kind == "sphere":
        return Sphere(d_out)
    if kind == "shell":
        return Shell(draw(st.floats(0.2, 1.0)) * d_out, d_out)
    fractions = draw(st.lists(st.floats(0.3, 1.0), min_size=8, max_size=24))
    return [f * d_out / 2.0 for f in fractions]


def make_region(center, shape) -> Region:
    if isinstance(shape, list):
        return sampled_region(center, shape)
    return Region(center=Point3(*center), shape=shape)


@st.composite
def region_lists(draw, max_n=10):
    """Mixed regions on a coarse lattice (coincident and touching centers are
    common), plus optional regions placed exactly at the summed reach."""
    coord = st.integers(0, 6).map(lambda k: k * 1.5)
    regions = [
        make_region((draw(coord), draw(coord), draw(coord)), draw(shapes()))
        for _ in range(draw(st.integers(0, max_n)))
    ]
    for _ in range(draw(st.integers(0, 2)) if regions else 0):
        base = regions[draw(st.integers(0, len(regions) - 1))]
        shape = draw(shapes())
        other = make_region((0.0, 0.0, 0.0), shape)
        reach = reach_of(base, base.d_min) + reach_of(other, other.d_min)
        axis = draw(st.integers(0, 2))
        c = base.center.as_array()
        c[axis] += reach
        regions.append(make_region(tuple(c), shape))
    return regions


# ------------------------------------------------------------------ intersecting pairs


@SETTINGS
@given(region_lists())
def test_intersecting_pairs_match_brute_force(regions):
    intersect = partial(regions_intersect, d_min_global=scene_of(regions).d_min_global)
    expected = brute_intersecting_pairs(regions, intersect)
    assert intersecting_pairs(scene_of(regions)) == expected
    assert scene_is_disjoint(scene_of(regions)) == (not expected)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_intersecting_pairs_tiny_scenes(n):
    regions = [Region(center=Point3(1.0, 2.0, 3.0), shape=Sphere(2.0)) for _ in range(n)]
    expected = [(0, 1)] if n == 2 else []  # coincident centers intersect
    assert intersecting_pairs(scene_of(regions)) == expected
    intersect = partial(regions_intersect, d_min_global=2.0)
    assert brute_intersecting_pairs(regions, intersect) == expected


def test_spheres_exactly_at_summed_reach_do_not_intersect():
    a = Region(center=Point3(0.0, 0.0, 0.0), shape=Sphere(2.0))
    b = Region(center=Point3(reach_of(a, a.d_min) * 2.0, 0.0, 0.0), shape=Sphere(2.0))
    assert intersecting_pairs(scene_of([a, b])) == []
    touching = Region(center=Point3(2.0, 0.0, 0.0), shape=Sphere(2.0))
    assert intersecting_pairs(scene_of([a, b, touching])) == [(0, 2), (1, 2)]


def test_intersecting_pairs_on_generated_overlap_scene():
    scene = generate_scene(SceneConfig(n_objects=150, d_min=5.4, d_max=8.2, cube_edge=60.0,
                                       disjoint=False, overlap_rate=0.35, seed=4))
    regions = [o.region for o in scene.objects]
    pairs = intersecting_pairs(scene)
    assert pairs and pairs == brute_intersecting_pairs(
        regions, partial(regions_intersect, d_min_global=scene.d_min_global))


@pytest.mark.parametrize("kinds", [("sampled",), ("sphere", "shell", "sampled")])
def test_every_reported_pair_with_a_sampled_member_meets_by_dense_sampling(kinds):
    # Sampled pairs are decided on their boundary samples; a pair reported as meeting
    # must share a point within the scene's touch tolerance. Pairs the dense oracle sees
    # meeting may still go unreported, where the overlap passes between samples.
    confirmed = 0
    for seed in range(10):
        scene = overlap_scene(np.random.default_rng(seed), 16, 0.0, kinds)
        for i, j in intersecting_pairs(scene):
            a, b = scene.region(i), scene.region(j)
            if isinstance(a.shape, Sampled) or isinstance(b.shape, Sampled):
                assert dense_regions_meet(a, b, scene.tol), (seed, i, j)
                confirmed += 1
    assert confirmed > 100


# ------------------------------------------------------------------ maximal independent set


@SETTINGS
@given(region_lists(max_n=12))
def test_mis_matches_greedy_reference(regions):
    scene = scene_of(regions)
    intersect = partial(regions_intersect, d_min_global=scene.d_min_global)
    kept, assignment = greedy_mis(scene.objects, intersect)
    mis = maximal_independent_set(scene)
    assert mis.kept == kept
    assert list(mis.assignment.items()) == list(assignment.items())


def test_mis_matches_greedy_reference_on_generated_scene():
    scene = generate_scene(SceneConfig(n_objects=200, d_min=5.4, d_max=8.2, cube_edge=70.0,
                                       disjoint=False, overlap_rate=0.35, seed=9))
    intersect = partial(regions_intersect, d_min_global=scene.d_min_global)
    kept, assignment = greedy_mis(scene.objects, intersect)
    mis = maximal_independent_set(scene)
    assert mis.kept == kept
    assert list(mis.assignment.items()) == list(assignment.items())


# ------------------------------------------------------------------ disjoint scene sampling


def reference_scene_json(config: SceneConfig, diameters, centers) -> str:
    objects = tuple(
        SceneObject(id=f"obj-{i:03d}",
                    region=Region(center=Point3.from_array(centers[i]), shape=Sphere(float(diameters[i]))))
        for i in range(config.n_objects)
    )
    return scene_to_json(Scene(objects=objects, d_min_global=config.d_min,
                               d_max_global=config.d_max, cube_edge=config.cube_edge))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       cube=st.sampled_from([40.0, 60.0, 100.0]), d_max=st.floats(2.0, 9.0))
def test_generate_scene_matches_reference_sampler(seed, n, cube, d_max):
    config = SceneConfig(n_objects=n, d_min=1.0, d_max=d_max, cube_edge=cube, seed=seed)
    diameters, centers = one_at_a_time_disjoint_centers(config)
    assert len(centers) == n
    assert scene_to_json(generate_scene(config)) == reference_scene_json(config, diameters, centers)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generate_scene_capacity_error_matches_reference_sampler(seed):
    config = SceneConfig(n_objects=30, d_min=5.4, d_max=8.2, cube_edge=12.0, seed=seed)
    with pytest.raises(CapacityError) as want:
        one_at_a_time_disjoint_centers(config)
    with pytest.raises(CapacityError) as err:
        generate_scene(config)
    assert err.value.placed == want.value.placed


# (cube edge, d_max): the roomy cubes hold 400 centers; the 12-20 m cubes
# stall after about 20, so generate_scene raises CapacityError, without an
# O(n**2) batch of mutual neighbours at n = 2000. Packings in
# between stall only after a long approach to jamming, which costs the
# one-at-a-time oracle seconds per example.
PACKINGS = ((12.0, 8.2), (15.0, 6.0), (20.0, 9.0), (60.0, 2.0), (100.0, 8.2), (200.0, 8.2))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400), packing=st.sampled_from(PACKINGS))
@example(seed=1, n=0, packing=PACKINGS[0])
@example(seed=1, n=400, packing=PACKINGS[0])
@example(seed=7, n=400, packing=PACKINGS[4])
@example(seed=1, n=2000, packing=PACKINGS[0])
def test_generate_scene_is_the_one_at_a_time_sampler(seed, n, packing):
    # Bitwise: the same scene bytes, or the same CapacityError message and count.
    cube, d_max = packing
    config = SceneConfig(n_objects=n, d_min=1.0, d_max=d_max, cube_edge=cube, seed=seed)
    try:
        diameters, centers = one_at_a_time_disjoint_centers(config)
    except CapacityError as want:
        with pytest.raises(CapacityError) as got:
            generate_scene(config)
        assert (str(got.value), got.value.placed) == (str(want), want.placed)
    else:
        assert scene_to_json(generate_scene(config)) == reference_scene_json(config, diameters, centers)


# ------------------------------------------------------------------ online's disjointness rule


@SETTINGS
@given(st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=2, max_size=30),
       st.one_of(st.floats(0.5, 4.0), st.sampled_from((1.25, 2.5, 3.75))))
@example([(0, 0, 0), (4, 0, 0), (2, 0, 0), (3, 0, 0)], 2.5)
def test_plan_online_refuses_exactly_centers_within_d_max(cells, d_max):
    # Lattice: many distance ties, and at d_max a multiple of the spacing,
    # pairs exactly d_max apart.
    points = np.array(cells, dtype=float) * 1.25
    shell = Shell(d_max / 2.0, d_max)
    scene = Scene(
        objects=tuple(SceneObject(id=f"o{k}", region=Region(center=Point3(*c), shape=shell))
                      for k, c in enumerate(points)),
        d_min_global=d_max / 2.0,
        d_max_global=d_max,
    )
    # The first pair in row order: the lowest later row, then its lowest earlier row.
    within = [(int(j), i) for i, near, dist in per_point_near_pairs(points, d_max)
              for j in near[dist <= d_max]]
    if not within:
        plan_online(Point3(0, 0, 0), scene, lambda object_id, position: True)
        return
    j, i = min(within)
    with pytest.raises(ContractError) as err:
        plan_online(Point3(0, 0, 0), scene, lambda object_id, position: True)
    assert str(err.value).startswith(f"centers 'o{i}' and 'o{j}' closer than d_max;")
