import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tspn import InsufficientCoverageError, Point3
from tspn.errors import ContractError
from tspn.geom import EPS_TOL
from tspn.viewscore import (
    DIAMETER_PROFILES,
    GrayImage,
    ObjectMask,
    OrientationHistogram,
    ViewSample,
    _sobel_gradients,
    build_region_from_scores,
    edge_orientation_histogram,
    histogram_entropy,
    read_mask_pgm,
    read_pgm,
    read_score_csv,
    region_from_profile,
    viewing_score,
    write_pgm,
    write_score_csv,
)

from oracles import (
    brute_farthest_pair,
    manual_sobel,
    nine_tap_edge_orientation_histogram,
    nine_tap_sobel_gradients,
    nine_tap_viewing_score,
)


def full_mask(img):
    return ObjectMask.from_array(np.ones(img.pixels.shape, dtype=bool))


def uniform_orientation_image():
    """360 isolated gradient cells, one per one-degree orientation bin.

    Each 5x5 cell holds a 3x3 linear ramp whose central Sobel response is
    (8a, 8b) with (a, b) on a circle, so with a high edge fraction exactly
    one edge pixel lands in every bin.
    """
    rows, cols = 15, 24
    img = np.full((rows * 5, cols * 5), 128.0)
    s = 10.0
    for k in range(360):
        rb, cb = divmod(k, cols)
        r0, c0 = rb * 5 + 2, cb * 5 + 2
        theta = math.radians(k + 0.5)
        a, b = s * math.cos(theta), s * math.sin(theta)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                img[r0 + dr, c0 + dc] = 128.0 + a * dc + b * dr
    return GrayImage.from_array(img)


# ------------------------------------------------------------------ histogram


def test_constant_image_has_no_edges():
    img = GrayImage.from_array(np.full((8, 8), 77.0))
    hist = edge_orientation_histogram(img)
    assert hist.total_edge_pixels == 0
    assert viewing_score(img, full_mask(img)) == 0.0


def test_vertical_step_edge_mass_at_0_and_180():
    arr = np.zeros((5, 5))
    arr[:, 2:] = 200.0
    hist = edge_orientation_histogram(GrayImage.from_array(arr))
    assert hist.total_edge_pixels > 0
    assert hist.bins[0] == hist.total_edge_pixels

    flipped = edge_orientation_histogram(GrayImage.from_array(arr[:, ::-1].copy()))
    assert flipped.bins[180] == flipped.total_edge_pixels


def test_diagonal_fixture_matches_hand_computed_sobel():
    # I[r, c] = 100 where r + c >= 5: a 45-degree step across the image.
    arr = np.zeros((5, 5))
    for r in range(5):
        for c in range(5):
            if r + c >= 5:
                arr[r, c] = 100.0
    # Hand-computed 3x3 Sobel responses for the nine interior pixels.
    expected = {
        (1, 1): (0.0, 0.0),
        (1, 2): (100.0, 100.0),
        (1, 3): (300.0, 300.0),
        (2, 1): (100.0, 100.0),
        (2, 2): (300.0, 300.0),
        (2, 3): (300.0, 300.0),
        (3, 1): (300.0, 300.0),
        (3, 2): (300.0, 300.0),
        (3, 3): (100.0, 100.0),
    }
    for r, c, gx, gy in manual_sobel(arr):
        assert (gx, gy) == expected[(r, c)]

    hist = edge_orientation_histogram(GrayImage.from_array(arr), edge_fraction=0.1)
    want = np.zeros(360, dtype=int)
    want[45] = 8  # every nonzero-gradient pixel points along the diagonal
    assert hist.total_edge_pixels == 8
    assert np.array_equal(hist.bins, want)


def test_uniform_orientation_image_fills_every_bin_once():
    img = uniform_orientation_image()
    hist = edge_orientation_histogram(img, edge_fraction=0.99)
    assert hist.total_edge_pixels == 360
    assert np.array_equal(hist.bins, np.ones(360, dtype=int))
    assert math.isclose(histogram_entropy(hist), math.log(360.0), rel_tol=1e-12)


def test_entropy_bounds():
    rng = np.random.default_rng(0)
    for _ in range(10):
        img = GrayImage.from_array(rng.uniform(0, 255, size=(16, 16)))
        h = histogram_entropy(edge_orientation_histogram(img))
        assert 0.0 <= h <= math.log(360.0) + 1e-12


# ------------------------------------------------------------------ score


def test_score_uniform_orientations_full_mask_is_ln_360():
    img = uniform_orientation_image()
    s = viewing_score(img, full_mask(img), edge_fraction=0.99)
    assert abs(s - math.log(360.0)) < 1e-9


def test_score_halves_with_half_mask():
    img = uniform_orientation_image()
    bits = np.zeros(img.pixels.shape, dtype=bool)
    bits[:, : img.pixels.shape[1] // 2] = True
    assert bits.sum() * 2 == img.pixels.size
    s_full = viewing_score(img, full_mask(img), edge_fraction=0.99)
    s_half = viewing_score(img, ObjectMask.from_array(bits), edge_fraction=0.99)
    assert abs(s_half - 0.5 * s_full) <= 1e-12 * s_full


def test_score_zero_for_empty_mask():
    rng = np.random.default_rng(1)
    img = GrayImage.from_array(rng.uniform(0, 255, size=(10, 10)))
    mask = ObjectMask.from_array(np.zeros((10, 10), dtype=bool))
    assert viewing_score(img, mask) == 0.0


def test_score_dimension_mismatch_rejected():
    img = GrayImage.from_array(np.zeros((5, 5)))
    mask = ObjectMask.from_array(np.ones((5, 6), dtype=bool))
    with pytest.raises(ContractError):
        viewing_score(img, mask)


def test_score_dimension_mismatch_names_width_by_height():
    img = GrayImage.from_array(np.zeros((4, 5)))
    mask = ObjectMask.from_array(np.ones((4, 6), dtype=bool))
    with pytest.raises(ContractError, match=r"^mask 6x4 does not match image 5x4$"):
        viewing_score(img, mask)


@pytest.mark.parametrize("shape", [(25,), (5, 5, 3)])
def test_image_and_mask_must_be_2d(shape):
    with pytest.raises(ContractError, match="must be 2-D"):
        GrayImage(np.zeros(shape))
    with pytest.raises(ContractError, match="must be 2-D"):
        ObjectMask(np.ones(shape, dtype=bool))


def test_score_invariant_under_intensity_inversion():
    rng = np.random.default_rng(7)
    for _ in range(5):
        arr = rng.uniform(0, 255, size=(20, 20))
        img = GrayImage.from_array(arr)
        inv = GrayImage.from_array(255.0 - arr)
        h1 = edge_orientation_histogram(img)
        h2 = edge_orientation_histogram(inv)
        assert np.array_equal(h2.bins, np.roll(h1.bins, 180))
        assert math.isclose(histogram_entropy(h1), histogram_entropy(h2), rel_tol=1e-12)
        m = full_mask(img)
        assert math.isclose(viewing_score(img, m), viewing_score(inv, m), rel_tol=1e-12)


def test_score_monotone_in_mask():
    rng = np.random.default_rng(9)
    arr = rng.uniform(0, 255, size=(12, 12))
    img = GrayImage.from_array(arr)
    big = np.zeros((12, 12), dtype=bool)
    big[2:10, 2:10] = True
    small = np.zeros((12, 12), dtype=bool)
    small[4:8, 4:8] = True
    assert viewing_score(img, ObjectMask.from_array(small)) <= viewing_score(
        img, ObjectMask.from_array(big)
    )


@st.composite
def images_and_masks(draw):
    """uint8, non-integer float or constant images from 3x3 up, non-square
    too, each with an empty, a partial or a full mask."""
    shape = (draw(st.integers(3, 12)), draw(st.integers(3, 12)))
    kind = draw(st.sampled_from(["uint8", "float", "constant"]))
    if kind == "uint8":
        arr = draw(hnp.arrays(np.uint8, shape))
    elif kind == "float":
        arr = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 255.0)))
    else:
        arr = np.full(shape, draw(st.floats(0.0, 255.0)))
    cover = draw(st.sampled_from(["empty", "partial", "full"]))
    if cover == "partial":
        bits = draw(hnp.arrays(np.bool_, shape))
    else:
        bits = np.full(shape, cover == "full")
    return GrayImage.from_array(arr), ObjectMask.from_array(bits)


# The top-left 1e-13 gives a gradient angle a hair below 0 degrees, which
# wraps to exactly 360.0 and has to land in bin 0.
_WRAP = np.array([[1e-13, 0.0, 100.0], [0.0, 0.0, 100.0], [0.0, 0.0, 100.0]])
# A constant image whose gy rounds to 3.16e-322: edge_fraction * peak
# underflows to 0, so every zero-magnitude pixel is an edge pixel.
_UNDERFLOW = np.full((3, 3), 2.7655692527655694e-306)
# A diagonal step: at edge_fraction 1.0 the eight peak-tied pixels, whose
# magnitude is irrational, all sit exactly on the cut.
_TIES = 255.0 * (np.add.outer(np.arange(6), -np.arange(7)) < 0)
# One interior pixel with gradient (2a, 2b), for the first integer pair
# whose np.hypot exceeds np.sqrt(gx*gx + gy*gy): a sqrt-based edge test at
# edge_fraction 1.0 would miss the peak pixel itself. Where no such pair
# exists the image still serves as a plain example.
_A, _B = next(
    ((a, b) for a in range(256) for b in range(256)
     if np.sqrt(4.0 * (a * a + b * b)) < np.hypot(2.0 * a, 2.0 * b)),
    (1, 1),
)
_HYPOT_ABOVE_SQRT = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, _A], [0.0, _B, 0.0]])
# Subnormal gradients, whose squares all round to 0. Then gradients near
# 2**-537, whose squares are subnormal: at edge_fraction 0.5 a pixel on
# the cut is decided right only thanks to the absolute margin of the
# squared-magnitude screen.
_SUBNORMAL = np.array([[0, 3, 1, 0], [5, 0, 2, 7], [1, 4, 0, 2], [0, 6, 3, 1]]) * 2.0**-1074
_SUBNORMAL_SQUARES = np.array([[0, 0, 7], [5, 3, 0], [7, 0, 3], [2, 0, 3], [4, 5, 1]]) * 2.0**-540
# The last pixel's gradient, (-4, -6) * s, is half as long as the peak
# pixel's, (-12, -8) * s, so at edge_fraction 0.5 it sits on the cut. Its
# m2 rounds just below 0.25 * max(m2): only the relative margin of the
# screen sends it to hypot.
_HALF_PEAK = np.array([[6, 4, 6], [4, 7, 1], [4, 3, 0], [5, 1, 4], [1, 0, 3]]) * 0.45899935262727753
# uint8, with gx = 40 and 80 on its two interior pixels: at edge_fraction
# 0.5 the first one's m2, 1600, equals 0.25 * max(m2) exactly, so the
# floored and ceiled integer cuts of the screen both land on it.
_INT_ON_CUT = np.array([[0, 0, 10, 20]] * 3, dtype=np.uint8)


@settings(max_examples=300, deadline=None)
@given(images_and_masks(), st.sampled_from([1e-6, 0.1, 1.0]))
@example((GrayImage.from_array(_WRAP), ObjectMask.from_array(np.ones((3, 3), bool))), 1.0)
@example((GrayImage.from_array(_UNDERFLOW), ObjectMask.from_array(np.ones((3, 3), bool))), 1e-6)
@example((GrayImage.from_array(_TIES), ObjectMask.from_array(np.ones((6, 7), bool))), 1.0)
@example((GrayImage.from_array(_HYPOT_ABOVE_SQRT), ObjectMask.from_array(np.ones((3, 3), bool))), 1.0)
@example((GrayImage.from_array(_SUBNORMAL), ObjectMask.from_array(np.ones((4, 4), bool))), 0.5)
@example(
    (GrayImage.from_array(_SUBNORMAL_SQUARES), ObjectMask.from_array(np.ones((5, 3), bool))), 0.5
)
@example((GrayImage.from_array(_HALF_PEAK), ObjectMask.from_array(np.ones((5, 3), bool))), 0.5)
@example((GrayImage.from_array(_INT_ON_CUT), ObjectMask.from_array(np.ones((3, 4), bool))), 0.5)
def test_kernel_bitwise_equal_to_nine_tap_reference(image_mask, edge_fraction):
    img, mask = image_mask
    gx, gy = _sobel_gradients(img.pixels)
    want_gx, want_gy = nine_tap_sobel_gradients(img.pixels)
    assert np.array_equal(gx[:, :-2], want_gx) and np.array_equal(gy[:, :-2], want_gy)
    hist = edge_orientation_histogram(img, edge_fraction)
    want = nine_tap_edge_orientation_histogram(img, edge_fraction)
    assert np.array_equal(hist.bins, want.bins)
    assert hist.total_edge_pixels == want.total_edge_pixels
    score = viewing_score(img, mask, edge_fraction)
    assert score.hex() == nine_tap_viewing_score(img, mask, edge_fraction).hex()


def textured_view(rng, px: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """A seeded uint8 view as the benchmark draws them: a textured ellipse
    (four random sinusoids about 128) on a flat background of 40."""
    yy, xx = np.mgrid[0:px, 0:px] - (px - 1) / 2.0
    a = rng.uniform(4.0, px / 3.0)
    b = a * rng.uniform(0.6, 1.0)
    th = rng.uniform(0.0, math.pi)
    u = xx * math.cos(th) + yy * math.sin(th)
    v = -xx * math.sin(th) + yy * math.cos(th)
    mask = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    texture = np.zeros((px, px))
    for _ in range(4):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        freq = rng.uniform(0.15, 0.6)
        texture += np.sin(freq * (xx * math.cos(ang) + yy * math.sin(ang)) + rng.uniform(0.0, 2 * math.pi))
    image = np.clip(np.where(mask, 128.0 + 30.0 * texture, 40.0), 0, 255).astype(np.uint8)
    return image, mask


def extreme_views(px: int = 64) -> list[np.ndarray]:
    """0/255 steps and an 8-pixel checkerboard (|gx| or |gy| of 1020 on their
    straight edges), a step of slope 1/2 (where |g| reaches hypot(1020, 510),
    the most any 3x3 window of uint8 pixels gives), a one-pixel checkerboard
    (no gradient at all) and single-pixel spikes."""
    r, c = np.mgrid[0:px, 0:px]
    spike = np.zeros((px, px), dtype=np.uint8)
    spike[px // 2, px // 3] = 255
    views = [c >= px // 2, r >= px // 2, r > c, r + 2 * c >= px, (r // 8 + c // 8) % 2 == 1, (r + c) % 2 == 1]
    return [255 * v.astype(np.uint8) for v in views] + [spike, 255 - spike]


@pytest.mark.parametrize("edge_fraction", [1e-6, 0.1, 0.5, 1.0])
def test_uint8_views_take_the_exact_integer_path(edge_fraction):
    rng = np.random.default_rng(22)
    views = [textured_view(rng) for _ in range(24)]
    views += [(arr, arr > 0) for arr in extreme_views()]
    for arr, bits in views:
        img, twin = GrayImage.from_array(arr), GrayImage.from_array(arr.astype(float))
        mask = ObjectMask.from_array(bits)
        assert img.pixels.dtype == np.uint8 and twin.pixels.dtype == np.float64
        gx, gy = _sobel_gradients(img.pixels)
        assert gx.dtype == gy.dtype == np.int32
        want_gx, want_gy = nine_tap_sobel_gradients(img.pixels)
        assert np.array_equal(gx[:, :-2], want_gx) and np.array_equal(gy[:, :-2], want_gy)
        hist = edge_orientation_histogram(img, edge_fraction)
        assert np.array_equal(hist.bins, nine_tap_edge_orientation_histogram(img, edge_fraction).bins)
        assert np.array_equal(hist.bins, edge_orientation_histogram(twin, edge_fraction).bins)
        score = viewing_score(img, mask, edge_fraction)
        assert score.hex() == nine_tap_viewing_score(img, mask, edge_fraction).hex()
        assert score.hex() == viewing_score(twin, mask, edge_fraction).hex()


def test_extreme_views_reach_the_largest_gradient():
    peaks = [float(np.hypot(*nine_tap_sobel_gradients(arr)).max()) for arr in extreme_views()]
    assert peaks[:6] == [1020.0, 1020.0, math.hypot(765, 765), math.hypot(1020, 510), 1020.0, 0.0]
    assert peaks[6:] == [math.hypot(510, 0)] * 2


def test_images_copy_their_input_and_reject_nan():
    arr = np.full((4, 5), 7.0)
    img = GrayImage(arr)
    assert arr.flags.writeable and not img.pixels.flags.writeable
    arr[0, 0] = 9.0
    assert img.pixels[0, 0] == 7.0
    arr[1, 1] = np.nan
    with pytest.raises(ContractError, match=r"\[0, 255\]"):
        GrayImage.from_array(arr)


def test_uint8_images_stay_uint8_and_other_dtypes_become_float():
    arr = np.full((4, 5), 7, dtype=np.uint8)
    img = GrayImage(arr)
    assert img.pixels.dtype == np.uint8 and not np.shares_memory(img.pixels, arr)
    assert arr.flags.writeable and not img.pixels.flags.writeable
    arr[0, 0] = 9
    assert img.pixels[0, 0] == 7
    for dtype in (np.int64, np.float32, np.uint16, bool):
        assert GrayImage(arr.astype(dtype)).pixels.dtype == np.float64
    with pytest.raises(ContractError, match=r"\[0, 255\]"):
        GrayImage(np.full((3, 3), 256, dtype=np.uint16))


# ------------------------------------------------------------------ regions


def shell_grid_samples(r=5.0, score=1.0):
    out = []
    for az_step in range(12):
        for el_step in range(-4, 5):
            out.append(
                ViewSample(
                    azimuth=az_step * math.pi / 6.0,
                    elevation=el_step * math.pi / 10.0,
                    distance=r,
                    score=score,
                )
            )
    return out


def test_region_from_uniform_shell():
    region = build_region_from_scores(Point3(1, 2, 3), shell_grid_samples(r=5.0), threshold=0.3)
    assert math.isclose(region.d_max, 10.0, rel_tol=1e-9)
    assert math.isclose(region.d_min, 10.0, rel_tol=1e-9)


def test_region_threshold_filters_band():
    samples = []
    for az_step in range(16):
        az = az_step * math.pi / 8.0
        for el_step in range(-3, 4):
            el = el_step * math.pi / 8.0
            low_band = 0.0 <= az < math.pi / 2.0
            samples.append(
                ViewSample(azimuth=az, elevation=el, distance=4.0, score=0.1 if low_band else 0.9)
            )
    region = build_region_from_scores(Point3(0, 0, 0), samples, threshold=0.3)
    pts = region.shape.points
    az = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
    assert not np.any((az >= 1e-9) & (az < math.pi / 2.0 - 1e-9))
    i, j, d = brute_farthest_pair(pts)
    assert math.isclose(region.d_max, d, rel_tol=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1e9])
def test_region_from_antipodal_views_bounds_its_points_far_from_the_origin(offset):
    """d_max is twice the largest view distance, unless rounding put a point past it."""
    samples = [ViewSample(2 * math.pi * k / 16, 0.0, 4.0, 0.9) for k in range(16)]
    region = build_region_from_scores(Point3(offset, 0, 0), samples, threshold=0.3)
    far = float(region.radial[0].max())
    if offset < 1e8:
        assert region.d_max == 8.0
    else:  # rounding put a point past 4 m by more than the validated slack
        assert far > 4.0 * (1 + EPS_TOL) + EPS_TOL and region.d_max == 2 * far


def test_region_requires_enough_survivors():
    samples = shell_grid_samples(score=0.1)
    with pytest.raises(InsufficientCoverageError):
        build_region_from_scores(Point3(0, 0, 0), samples, threshold=0.3)


def test_raising_threshold_never_grows_d_max():
    rng = np.random.default_rng(21)
    samples = []
    for az_step in range(18):
        for el_step in range(-4, 5):
            samples.append(
                ViewSample(
                    azimuth=az_step * math.pi / 9.0,
                    elevation=el_step * math.pi / 10.0,
                    distance=float(rng.uniform(3.0, 5.0)),
                    score=float(rng.uniform(0.0, 1.0)),
                )
            )
    prev = None
    for thr in (0.1, 0.2, 0.3, 0.4):
        region = build_region_from_scores(Point3(0, 0, 0), samples, threshold=thr)
        if prev is not None:
            assert region.d_max <= prev + 1e-12
        prev = region.d_max


def test_profile_defaults_match_table():
    region = region_from_profile(Point3(0, 0, 0), "car")
    assert region.d_max == 8.2 and region.d_min == 5.4
    assert DIAMETER_PROFILES["bus"].d_max == 17.3
    assert DIAMETER_PROFILES["bus"].d_min == 13.4
    assert DIAMETER_PROFILES["piano"].d_max == 6.2
    assert DIAMETER_PROFILES["table"].d_min == 3.3
    assert DIAMETER_PROFILES["bed"].d_max == 5.2


# ------------------------------------------------------------------ file formats


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, size=(9, 7)).astype(float)
    img = GrayImage.from_array(arr)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.pixels.shape == (9, 7)
    assert np.array_equal(back.pixels, arr)
    mask = read_mask_pgm(path)
    assert np.array_equal(mask.bits, arr > 0)


def test_pgm_bytes_of_uint8_and_float_images(tmp_path):
    arr = np.random.default_rng(5).integers(0, 256, size=(9, 7)).astype(np.uint8)
    want = b"P5\n7 9\n255\n" + arr.tobytes()
    # Float intensities round to the nearest integer, ties to even; the last
    # image is a non-contiguous view.
    noisy = arr + np.where(arr % 2 == 0, 0.5, -0.4)
    for k, pixels in enumerate([arr, arr.astype(float), noisy, np.repeat(arr, 2, axis=1)[:, ::2]]):
        path = tmp_path / f"img{k}.pgm"
        write_pgm(path, GrayImage.from_array(pixels))
        assert path.read_bytes() == want


def test_score_csv_roundtrip(tmp_path):
    img = uniform_orientation_image()
    scored = viewing_score(img, full_mask(img), edge_fraction=0.99)
    assert type(scored) is float  # a numpy scalar would be written as "np.float64(...)"
    samples = [
        ViewSample(azimuth=0.1, elevation=-0.2, distance=3.5, score=0.42),
        ViewSample(azimuth=2.0, elevation=0.7, distance=5.0, score=0.0),
        ViewSample(azimuth=-1.0, elevation=0.3, distance=4.0, score=scored),
    ]
    path = tmp_path / "scores.csv"
    write_score_csv(path, samples)
    back = read_score_csv(path)
    assert back == samples


def test_histogram_type_validation():
    with pytest.raises(ContractError):
        OrientationHistogram(bins=np.zeros(10, dtype=int))


def test_single_orientation_image_scores_plus_zero():
    # one-bin distributions have zero entropy; make sure the sign is clean
    arr = np.zeros((16, 16))
    arr[:, 8:] = 200.0
    img = GrayImage.from_array(arr)
    s = viewing_score(img, full_mask(img))
    assert s == 0.0 and math.copysign(1.0, s) == 1.0
