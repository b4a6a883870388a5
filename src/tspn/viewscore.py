"""Entropy-based viewing score and score-driven region construction.

The score of a view is the entropy of its edge-orientation distribution
multiplied by the object-to-image area ratio: rich, varied edges seen
from close up score high, bland or distant views score low. Thresholded
view samples around an object are then folded into a sampled
diameter-bounded region.
"""

from __future__ import annotations

import csv
import math
import re
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InsufficientCoverageError, _echo
from .geom import Point3, Region, Sampled, Shell, _checked, _reach, _Record, distances

ORIENTATION_BINS = 360
DEFAULT_EDGE_FRACTION = 0.1
DEFAULT_SCORE_THRESHOLD = 0.3
# Relative and absolute margins of the squared-magnitude edge screen in
# _orientation_bins.
_RHO = 1e-9
_ALPHA = 2.0**-1000

# Built-in per-class diameter defaults (meters): mean max / mean min region
# diameter.
class DiameterProfile(NamedTuple):
    d_max: float
    d_min: float


DIAMETER_PROFILES: dict[str, DiameterProfile] = {
    "car": DiameterProfile(8.2, 5.4),
    "bus": DiameterProfile(17.3, 13.4),
    "piano": DiameterProfile(6.2, 4.5),
    "table": DiameterProfile(5.6, 3.3),
    "chair": DiameterProfile(3.4, 1.3),
    "bed": DiameterProfile(5.2, 3.2),
}


class GrayImage(_Record):
    """Row-major grayscale image with intensities in [0, 255].

    ``pixels`` is stored as a read-only copy of what is given: uint8 stays
    uint8, for exact integer gradients; any other dtype becomes float.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):  # (height, width) uint8 or float
        src = np.asarray(pixels)
        if src.ndim != 2:
            raise ContractError(f"pixel array must be 2-D, got shape {src.shape}")
        if min(src.shape) < 3:
            raise ContractError("image must be at least 3x3 for gradient windows")
        arr = src.copy() if src.dtype == np.uint8 else src.astype(float)
        # uint8 already guarantees the range; NaN fails both comparisons.
        if arr.dtype != np.uint8 and not (arr.min() >= 0.0 and arr.max() <= 255.0):
            raise ContractError("intensities must lie in [0, 255]")
        arr.flags.writeable = False
        self._set(arr)

    @staticmethod
    def from_array(arr) -> "GrayImage":
        return GrayImage(arr)


class ObjectMask(_Record):
    """Per-pixel object membership, dimensions matching the paired image.

    ``bits`` is stored as a read-only bool copy of what is given.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):  # (height, width) bool
        arr = np.asarray(bits).astype(bool)
        if arr.ndim != 2:
            raise ContractError(f"mask array must be 2-D, got shape {arr.shape}")
        arr.flags.writeable = False
        self._set(arr)

    @staticmethod
    def from_array(arr) -> "ObjectMask":
        return ObjectMask(arr)


class OrientationHistogram(_Record):
    """Edge-orientation counts over 360 one-degree bins."""

    __slots__ = ("bins",)

    def __init__(self, bins: np.ndarray):  # (360,) int
        arr = np.asarray(bins, dtype=int)
        if arr.shape != (ORIENTATION_BINS,):
            raise ContractError("histogram needs exactly 360 bins")
        arr.flags.writeable = False
        self._set(arr)

    @property
    def total_edge_pixels(self) -> int:
        return int(self.bins.sum())


def _sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) on interior pixels, as (h - 2, w) arrays.

    Entry [r, c] is the gradient at pixel (r + 1, c + 1) for c < w - 2;
    the last two columns are filler (window sums that wrap into the next
    row, and zeros). Working on the flattened image makes every tap one
    contiguous 1-D slice. The kernels are gx = [[-1, 0, 1], [-2, 0, 2],
    [-1, 0, 1]] and gy its transpose. A uint8 image is cast once to int32
    (numpy takes hypot and arctan2 of int16 in float32) and takes the
    separable form, [1, 2, 1] across rows then [-1, 0, 1] along them for gx
    and the transpose for gy: integer sums are exact in any order. A float
    image sums each kernel's six non-zero taps left to right, in row-major
    order (gy's first two swapped, which rounds the same), so every sum
    rounds as in a full 3x3 pass.
    """
    h, w = img.shape
    m = (h - 2) * w
    n = m - 2  # the last interior pixel sits at n - 1
    if img.dtype == np.uint8:
        flat = img.reshape(-1).astype(np.int32)
        gx, gy = np.zeros((2, m), np.int32)
        v = flat[:m] + flat[2 * w :]  # rows r and r + 2 at every column
        v += flat[w : w + m]
        v += flat[w : w + m]
        np.subtract(v[2:], v[:-2], out=gx[:n])
        s = flat[:-2] + flat[2:]  # columns c and c + 2 at every row
        s += flat[1:-1]
        s += flat[1:-1]
        np.subtract(s[2 * w :], s[:n], out=gy[:n])
    else:
        flat = img.reshape(-1)  # t{dr}{dc}: every entry's window tap at row dr, column dc
        t00, t01, t02, t10, t12, t20, t21, t22 = (
            flat[k : k + n] for k in (0, 1, 2, w, w + 2, 2 * w, 2 * w + 1, 2 * w + 2)
        )
        gx, gy = np.zeros((2, m))
        gx[:n] = t02 - t00 - 2.0 * t10 + 2.0 * t12 - t20 + t22
        gy[:n] = -2.0 * t01 - t00 - t02 + t20 + 2.0 * t21 + t22
    return gx.reshape(h - 2, w), gy.reshape(h - 2, w)


def _orientation_bins(pixels: np.ndarray, edge_fraction: float) -> tuple[np.ndarray, int]:
    """(360 per-degree counts, edge pixel count); see ``edge_orientation_histogram``."""
    if not (0.0 < edge_fraction <= 1.0):
        raise ContractError("edge_fraction must be in (0, 1]")
    gx, gy = _sobel_gradients(pixels)
    # Edge pixels are those whose hypot(gx, gy) reaches cut = edge_fraction
    # * peak, peak being the largest hypot. Exact squared magnitudes m2
    # decide every pixel clearly above or below c2 = edge_fraction**2 *
    # max(m2), which lies within a few ulp of cut**2: hypot errs by under
    # 1 ulp and m2 by about 2 ulp, and each square, product or sum that
    # goes subnormal adds an absolute error below 2**-1073. The relative
    # margin _RHO and the absolute margin _ALPHA cover these many times
    # over, so the screen sends no pixel to the wrong side. hypot runs only
    # on the pixels between the margins, and on the near-peak ones to find
    # the exact cut when there are any, so the edge set and the bins are
    # bitwise those of a full hypot pass.
    m2 = gx * gx
    m2 += gy * gy
    m2[:, -2:] = -1  # filler columns hold no pixel, and fall below every cut
    top = float(m2.max())
    c2 = edge_fraction * edge_fraction * top
    hi, lo, tie = c2 * (1.0 + _RHO) + _ALPHA, c2 * (1.0 - _RHO) - _ALPHA, top * (1.0 - _RHO) - _ALPHA
    if m2.dtype != float:  # an integer reaches x iff it reaches ceil(x), exceeds x iff floor(x)
        hi, lo, tie = math.floor(hi), math.ceil(lo), math.ceil(tie)
    edge = m2 > hi
    if lo <= hi:  # integer cuts with lo > hi leave no m2 between them
        near = m2 >= lo
        near ^= edge  # edge implies near, so this leaves the pixels between the margins
        if np.count_nonzero(near):
            tied = m2 >= tie
            peak = float(np.hypot(gx[tied], gy[tied]).max())
            if peak == 0.0:
                return np.zeros(ORIENTATION_BINS, dtype=np.intp), 0
            edge[near] = np.hypot(gx[near], gy[near]) >= edge_fraction * peak
    deg = np.arctan2(gy[edge], gx[edge])
    np.degrees(deg, out=deg)
    # deg lies in [-180, 180], where this is bitwise ``deg % 360.0``
    # (up to the sign of a zero, which floors to bin 0 either way).
    np.add(deg, 360.0, out=deg, where=deg < 0.0)
    np.floor(deg, out=deg)
    # A tiny negative angle rounds up to 360.0: count it in bin 0.
    bins = np.bincount(deg.astype(np.intp), minlength=ORIENTATION_BINS + 1)
    bins[0] += bins[ORIENTATION_BINS]
    return bins[:ORIENTATION_BINS], deg.size


def _entropy(bins: np.ndarray, total: int) -> float:
    p = bins[bins > 0] / total
    plogp = np.log(p)
    plogp *= p
    return float(-plogp.sum()) + 0.0  # fold -0.0 to 0.0


def edge_orientation_histogram(
    image: GrayImage, edge_fraction: float = DEFAULT_EDGE_FRACTION
) -> OrientationHistogram:
    """Histogram of gradient orientations over the image's edge pixels.

    A pixel is an edge pixel when its gradient magnitude reaches
    ``edge_fraction`` times the maximum magnitude in the image; a constant
    image therefore yields an empty histogram. Orientations map to
    integer-degree bins, bin b covering [b, b+1) degrees.
    """
    return OrientationHistogram(_orientation_bins(image.pixels, edge_fraction)[0])


def histogram_entropy(hist: OrientationHistogram) -> float:
    """Natural-log entropy of the orientation distribution; 0 when empty."""
    total = hist.total_edge_pixels
    return _entropy(hist.bins, total) if total else 0.0


def viewing_score(
    image: GrayImage, mask: ObjectMask, edge_fraction: float = DEFAULT_EDGE_FRACTION
) -> float:
    """Edge-orientation entropy times the object-to-image area ratio."""
    if mask.bits.shape != image.pixels.shape:
        (h, w), (mh, mw) = image.pixels.shape, mask.bits.shape
        raise ContractError(f"mask {mw}x{mh} does not match image {w}x{h}")
    bins, total = _orientation_bins(image.pixels, edge_fraction)
    if total == 0:
        return 0.0
    object_pixels = int(np.count_nonzero(mask.bits))  # a Python int keeps the score a Python float
    if object_pixels == 0:
        return 0.0
    ratio = object_pixels / image.pixels.size
    return _entropy(bins, total) * ratio


# ------------------------------------------------------------------ view samples


class ViewSample(_checked("ViewSample", "azimuth elevation distance score")):
    """A scored view direction: spherical angles, range and score."""

    __slots__ = ()

    def __new__(cls, azimuth: float, elevation: float, distance: float, score: float):
        self = super().__new__(cls, azimuth, elevation, distance, score)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ContractError(f"view sample {name} must be finite, got {value!r}")
        if distance <= 0:
            raise ContractError("view sample distance must be positive")
        if score < 0:
            raise ContractError("view sample score must be non-negative")
        return self


def _sample_direction(s: ViewSample) -> np.ndarray:
    ce = math.cos(s.elevation)
    return np.array(
        [ce * math.cos(s.azimuth), ce * math.sin(s.azimuth), math.sin(s.elevation)]
    )


def build_region_from_scores(
    center: Point3, samples: list[ViewSample], threshold: float = DEFAULT_SCORE_THRESHOLD
) -> Region:
    """Fold thresholded view samples into a sampled diameter-bounded region.

    Samples scoring at least ``threshold`` become boundary points at their
    viewing distance about the object center, with outward radial normals.
    d_max and d_min are twice the largest and the smallest surviving radial
    distance (d_max widened if rounding put a point past its limit).
    """
    if threshold <= 0:
        raise ContractError("threshold must be positive")
    if len(samples) < 8:
        raise InsufficientCoverageError(f"need >= 8 view samples, got {len(samples)}")
    kept = [s for s in samples if s.score >= threshold]
    if len(kept) < 8:
        raise InsufficientCoverageError(
            f"only {len(kept)} of {len(samples)} samples survive threshold {threshold}"
        )
    c = center.as_array()
    dirs = np.array([_sample_direction(s) for s in kept])
    radii = np.array([s.distance for s in kept])
    pts = c + dirs * radii[:, None]
    # |p - q| <= r_p + r_q: twice the largest distance bounds every pair, unless
    # rounding far from the origin put a point past it. Its own distance counts then.
    d_max = 2.0 * float(radii.max())
    far = float(distances(c, pts).max())
    if far > _reach(d_max / 2.0, 0.0):
        d_max = 2.0 * far
    return Region(
        center=center,
        shape=Sampled(points=pts, normals=dirs, d_min=2.0 * float(radii.min()), d_max=d_max),
    )


def region_from_profile(center: Point3, profile: str) -> Region:
    """Fallback region from the built-in class defaults (no imagery needed)."""
    key = profile.lower()
    if key not in DIAMETER_PROFILES:
        raise ContractError(
            f"unknown profile {profile!r}; choose from {sorted(DIAMETER_PROFILES)}"
        )
    p = DIAMETER_PROFILES[key]
    return Region(center=center, shape=Shell(inner_diameter=p.d_min, outer_diameter=p.d_max))


# ------------------------------------------------------------------ file formats


# Magic, width, height and maxval, each after whitespace or '#' comments,
# then the one whitespace byte that ends the header.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> GrayImage:
    """Read a binary portable graymap (magic P5, 1 <= maxval <= 255)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise ContractError(f"{path}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ContractError(f"{path}: malformed PGM header: need P5, then width, height and maxval "
                            f"as digits, separated by whitespace or '#' comments")
    width, height, maxval = map(int, header.groups())
    if not 1 <= maxval <= 255:
        raise ContractError(f"{path}: maxval {_echo(maxval, str)} unsupported (need 1 to 255)")
    raw = data[header.end() : header.end() + width * height]
    if len(raw) != width * height:
        raise ContractError(f"{path}: truncated pixel data")
    return GrayImage(np.frombuffer(raw, dtype=np.uint8).reshape(height, width))


def write_pgm(path, image: GrayImage) -> None:
    arr = image.pixels
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % arr.shape[::-1])
        f.write(arr.tobytes())


def read_mask_pgm(path) -> ObjectMask:
    """Mask in PGM form: any nonzero pixel belongs to the object."""
    return ObjectMask(read_pgm(path).pixels > 0)


SCORE_CSV_HEADER = ["azimuth_rad", "elevation_rad", "distance_m", "score"]


def read_score_csv(path) -> list[ViewSample]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != SCORE_CSV_HEADER:
            raise ContractError(
                f"{path}: expected header {','.join(SCORE_CSV_HEADER)}, got {_echo(header, str)}"
            )
        samples = []
        for r in reader:
            if len(r) != 4:
                raise ContractError(
                    f"{path}: line {reader.line_num}: expected 4 fields, got {len(r)}"
                )
            try:
                samples.append(ViewSample(*map(float, r)))
            except (ValueError, ContractError) as exc:
                raise ContractError(f"{path}: line {reader.line_num}: {exc}") from None
        return samples


def write_score_csv(path, samples: list[ViewSample]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SCORE_CSV_HEADER)
        for s in samples:
            writer.writerow([repr(s.azimuth), repr(s.elevation), repr(s.distance), repr(s.score)])
