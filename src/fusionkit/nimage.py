"""Grayscale image pipeline over (T, I, F) planes.

A grayscale image maps into three planes: T scales the local mean
intensity, I scales the absolute deviation of each pixel from its local
mean (how untypical the pixel is for its neighborhood), and F = 1 - T.
Impulse noise shows up as high indeterminacy, so denoising applies a
median filter only where I exceeds a threshold and stops when the
entropy of the I plane settles.  Segmentation maps intensities through
an S-shaped curve instead, thresholds the planes into object, edge and
background pixels, and grows the regions with dams where two fronts
meet.

All windowed passes replicate edge pixels, so plane shapes always match
the image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    BadDimensions,
    BadMagic,
    BadParams,
    BadWindow,
    DegenerateHistogram,
    OutOfRange,
    TruncatedData,
)


def _check_int(value, what: str, error=BadParams) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")


class GrayImage:
    """Rectangular grid of 8-bit intensities."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        try:
            arr = np.asarray(pixels)
        except ValueError:
            raise BadDimensions("pixel rows must all have the same length") from None
        if arr.ndim != 2 or arr.size == 0:
            raise BadDimensions("pixels must form a non-empty 2-D grid")
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "biuf":
                raise BadDimensions(f"intensities must be real numbers, got {arr.dtype}")
            if not np.all((arr >= 0) & (arr <= 255)):
                raise BadDimensions("intensities must lie in [0, 255]")
            if arr.dtype.kind == "f" and not np.array_equal(arr, np.trunc(arr)):
                raise BadDimensions("intensities must be whole numbers")
            arr = arr.astype(np.uint8)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GrayImage is immutable")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "GrayImage":
        _check_int(width, "width", BadDimensions)
        _check_int(height, "height", BadDimensions)
        if width <= 0 or height <= 0:
            raise BadDimensions(f"bad dimensions {width}x{height}")
        try:
            data = np.asarray(list(values))
        except ValueError:
            raise BadDimensions(
                "pixel values must be a flat sequence of numbers"
            ) from None
        if data.size != width * height:
            raise TruncatedData(
                f"expected {width * height} pixels, got {data.size}"
            )
        return cls(data.reshape(height, width))

    def __eq__(self, other):
        return isinstance(other, GrayImage) and np.array_equal(
            self.pixels, other.pixels
        )

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


# --- PGM I/O -----------------------------------------------------------------


def _pgm_tokens(data: bytes):
    """Header tokens, skipping '#' comments."""
    i = 0
    while i < len(data):
        if data[i : i + 1].isspace():
            i += 1
            continue
        if data[i : i + 1] == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        yield data[i:j], j
        i = j


def load_pgm(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise BadMagic("empty file") from None
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {magic!r})")
    try:
        (w, _), (h, _), (maxval, end) = (next(tokens) for _ in range(3))
        width, height, maxval = int(w), int(h), int(maxval)
    except (StopIteration, ValueError):
        raise TruncatedData("incomplete PGM header") from None
    if width <= 0 or height <= 0:
        raise BadDimensions(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise BadDimensions(f"unsupported maxval {maxval}")
    n = width * height
    if magic == b"P5":
        raster = data[end + 1 : end + 1 + n]
        if len(raster) < n:
            raise TruncatedData(f"expected {n} raster bytes, got {len(raster)}")
        flat = np.frombuffer(raster, dtype=np.uint8, count=n)
    else:
        values = []
        for tok, _ in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise TruncatedData(f"bad sample {tok!r}") from None
            if len(values) == n:
                break
        if len(values) < n:
            raise TruncatedData(f"expected {n} samples, got {len(values)}")
        flat = np.asarray(values, dtype=np.int64)
    if np.any(flat > maxval):
        raise TruncatedData("sample above declared maxval")
    return GrayImage(flat.reshape(height, width))


def save_pgm(img: GrayImage, path, binary: bool = True) -> None:
    header = f"P5 {img.width} {img.height} 255\n" if binary else \
        f"P2\n{img.width} {img.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(img.pixels.tobytes())
        else:
            for row in img.pixels:
                fh.write((" ".join(str(v) for v in row) + "\n").encode("ascii"))


# --- neutrosophic planes -----------------------------------------------------


class NsImage:
    """The three planes of an image plus the scaling frozen at build
    time (needed to map T back to gray levels)."""

    __slots__ = ("t", "i", "f", "w", "g_lo", "g_hi")

    def __init__(self, t, i, f, w, g_lo, g_hi):
        for name, plane in (("t", t), ("i", i), ("f", f)):
            if plane.shape != t.shape:
                raise BadDimensions(f"plane {name} shape differs")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "g_lo", g_lo)
        object.__setattr__(self, "g_hi", g_hi)

    def __setattr__(self, name, value):
        raise AttributeError("NsImage is immutable")

    @property
    def shape(self):
        return self.t.shape


def _check_window(size: int, shape, what: str = "window") -> None:
    _check_int(size, f"{what} size", BadWindow)
    if size < 3 or size % 2 == 0:
        raise BadWindow(f"{what} size must be odd and >= 3, got {size}")
    if size > min(shape):
        raise BadWindow(f"{what} size {size} exceeds image dimensions")


def _indeterminacy(g: np.ndarray, w: int):
    """Local mean and I plane: |g - local mean|, min-max scaled to
    [0, 1] in place; a constant deviation maps to 0."""
    gbar = ndimage.uniform_filter(g, size=w, mode="nearest")
    i = np.subtract(g, gbar)
    np.abs(i, out=i)
    lo, hi = float(i.min()), float(i.max())
    if hi == lo:
        i.fill(0.0)
    else:
        i -= lo
        i /= hi - lo
    return gbar, i


def _to_ns_array(g: np.ndarray, w: int) -> NsImage:
    gbar, i = _indeterminacy(g, w)
    lo, hi = float(gbar.min()), float(gbar.max())
    if hi == lo:
        t = np.full_like(g, 0.5)
    else:
        t = (gbar - lo) / (hi - lo)
    return NsImage(t, i, 1.0 - t, w, lo, hi)


def to_ns(img: GrayImage, w: int = 3) -> NsImage:
    """Build the T, I, F planes from local w-by-w statistics."""
    _check_window(w, img.pixels.shape)
    return _to_ns_array(img.pixels.astype(np.float64), w)


def ns_to_gray(ns: NsImage) -> GrayImage:
    """Invert the min-max scaling of the T plane back to gray levels."""
    g = ns.t * (ns.g_hi - ns.g_lo) + ns.g_lo
    return GrayImage(np.clip(np.rint(g), 0, 255).astype(np.uint8))


def _check_bins(bins) -> None:
    _check_int(bins, "bins")
    if bins < 2:
        raise BadParams(f"bins must be >= 2, got {bins}")


@functools.lru_cache(maxsize=16)
def _bin_edges(bins: int) -> np.ndarray:
    edges = np.linspace(0.0, 1.0, bins + 1)
    edges.setflags(write=False)
    return edges


def _bin_index(x: np.ndarray, bins: int) -> np.ndarray:
    """Bin of each value of ``x`` in [0, 1] among ``bins`` equal bins,
    by ``np.histogram``'s own rule over that range, including its
    one-ulp corrections against the bin edges."""
    edges = _bin_edges(bins)
    k = (x * bins).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    k -= x < edges.take(k)
    k += (x >= edges.take(k + 1)) & (k != bins - 1)
    return k


def _entropy(counts: np.ndarray, total) -> float:
    """Shannon entropy (nats) of a histogram holding ``total`` pixels."""
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p))) + 0.0


def _plane_entropy(plane: np.ndarray, bins: int, weights=None) -> float:
    """Histogram entropy; ``weights[k]`` pixels share the value ``plane[k]``.

    ``fit_abc`` bins many planes in one call of :func:`_row_histograms`,
    whose counts equal this function's; only its bulk sums of
    :func:`_row_entropies` differ from :func:`_entropy`, by a few ulp.
    """
    counts = np.bincount(_bin_index(plane.ravel(), bins), weights=weights,
                         minlength=bins)
    return _entropy(counts, plane.size if weights is None else weights.sum())


def _row_histograms(planes: np.ndarray, bins: int, weights: np.ndarray) -> np.ndarray:
    """The histogram of every row of ``planes``, all rows sharing
    ``weights``, from one ``bincount`` over ``row * bins + bin``.  That
    adds each bin's weights in the row's own order, so every row's
    counts equal those :func:`_plane_entropy` builds for the row alone."""
    rows = planes.shape[0]
    k = _bin_index(planes, bins)
    k += np.arange(0, rows * bins, bins)[:, None]
    return np.bincount(k.ravel(), weights=np.tile(weights, rows),
                       minlength=rows * bins).reshape(rows, bins)


def _row_entropies(counts: np.ndarray, total) -> np.ndarray:
    """:func:`_entropy` of every row of ``counts`` at once.  The sums
    also take in the zeros of empty bins and group the terms otherwise,
    so they may differ from :func:`_entropy`'s by a few ulp; all terms
    are non-negative, so nothing cancels."""
    p = counts / total
    plogp = np.log(p, out=np.zeros_like(p), where=counts > 0)
    plogp *= p
    return -plogp.sum(axis=1)


def ns_entropy(ns: NsImage, bins: int = 64):
    """Per-plane Shannon entropies (nats) and their sum."""
    _check_bins(bins)
    en_t = _plane_entropy(ns.t, bins)
    en_i = _plane_entropy(ns.i, bins)
    en_f = _plane_entropy(ns.f, bins)
    return en_t, en_i, en_f, en_t + en_i + en_f


def gamma_median(ns: NsImage, gamma: float, s: int = 3) -> NsImage:
    """Median-filter T and F where the indeterminacy reaches gamma,
    then rebuild I from the filtered T plane's local statistics.

    A gamma that nothing reaches returns the input unchanged.
    """
    if not gamma >= 0.0:
        raise OutOfRange(f"gamma must be >= 0, got {gamma}")
    _check_window(s, ns.shape, "median")
    mask = ns.i >= gamma
    if not mask.any():
        return ns
    t_hat = np.where(mask, ndimage.median_filter(ns.t, size=s, mode="nearest"), ns.t)
    f_hat = np.where(mask, ndimage.median_filter(ns.f, size=s, mode="nearest"), ns.f)
    _, i_hat = _indeterminacy(t_hat, ns.w)
    return NsImage(t_hat, i_hat, f_hat, ns.w, ns.g_lo, ns.g_hi)


@dataclass(frozen=True)
class DenoiseResult:
    image: "GrayImage"
    iterations: int
    entropy_trace: tuple[float, ...]


def denoise_detailed(img: GrayImage, *, gamma: float, delta: float,
                     w: int = 3, s: int = 3, max_iters: int = 10) -> DenoiseResult:
    """Iterative impulse-noise cleanup with the full entropy trace.

    Each pass median-filters the pixels whose indeterminacy reaches
    gamma, rebuilds the I plane from the new gray levels, and stops when
    the I-plane entropy changes by less than ``delta`` relative to the
    previous pass (or after ``max_iters`` passes).  The filtering runs
    on the 8-bit gray levels themselves so that restored pixels land
    back on true intensities rather than on re-scaled local means: the
    median of an odd window is one of its inputs.  All medians of a pass
    are read before any pixel is written.
    """
    if not gamma >= 0.0:
        raise OutOfRange(f"gamma must be >= 0, got {gamma}")
    if not delta >= 0.0:
        raise BadParams(f"delta must be >= 0, got {delta}")
    _check_int(max_iters, "max_iters")
    if max_iters < 1:
        raise BadParams(f"max_iters must be >= 1, got {max_iters}")
    _check_window(w, img.pixels.shape)
    _check_window(s, img.pixels.shape, "median")

    u = img.pixels.copy()
    r = s // 2
    # Window cell (dy, dx) of pixel (y, x) lies at (y + dy, x + dx) of
    # the edge-padded image: flat offset dy * padded width + dx from the
    # pixel's window corner, which is y * padded width + x.
    padded_w = u.shape[1] + 2 * r
    offsets = (np.arange(s)[:, None] * padded_w + np.arange(s)).ravel()
    _, i = _indeterminacy(u.astype(np.float64), w)
    en_prev = _plane_entropy(i, 64)
    trace = [en_prev]
    done = 0
    for _ in range(max_iters):
        flagged = np.flatnonzero(i >= gamma)
        if flagged.size:
            padded = np.pad(u, r, mode="edge").ravel()
            corner = flagged + flagged // u.shape[1] * (2 * r)
            windows = np.empty((flagged.size, s * s), dtype=np.uint8)
            # One column at a time: an (n, s*s) index array would
            # outweigh the 8-bit windows it gathers.
            for col, offset in enumerate(offsets):
                padded.take(corner + offset, out=windows[:, col])
            u.ravel()[flagged] = np.partition(windows, s * s // 2,
                                              axis=1)[:, s * s // 2]
        done += 1
        _, i = _indeterminacy(u.astype(np.float64), w)
        en = _plane_entropy(i, 64)
        trace.append(en)
        if en_prev == 0.0 or abs(en - en_prev) / en_prev < delta:
            break
        en_prev = en
    return DenoiseResult(GrayImage(u), done, tuple(trace))


def denoise(img: GrayImage, *, gamma: float, delta: float,
            w: int = 3, s: int = 3, max_iters: int = 10) -> GrayImage:
    """Iterative gamma-median cleanup; see :func:`denoise_detailed`."""
    return denoise_detailed(
        img, gamma=gamma, delta=delta, w=w, s=s, max_iters=max_iters
    ).image


# --- S-function segmentation --------------------------------------------------


@dataclass(frozen=True)
class SFunctionParams:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < self.c <= 255.0):
            raise BadParams(
                f"need 0 <= a < b < c <= 255, got ({self.a}, {self.b}, {self.c})"
            )


def s_function(g, params: SFunctionParams):
    """S-shaped intensity-to-truth map: 0 below a, 1 above c, and two
    parabolic arcs joining continuously at b."""
    t = _s_curve(np.asarray(g, dtype=np.float64), params.a, params.b, params.c)
    return t if t.ndim else float(t)


def _s_curve(g: np.ndarray, a, b, c) -> np.ndarray:
    """The S-function's arithmetic; knots broadcast against ``g``."""
    low = (g - a) ** 2 / ((b - a) * (c - a))
    high = 1.0 - (g - c) ** 2 / ((c - b) * (c - a))
    return np.where(g <= a, 0.0, np.where(g <= b, low, np.where(g <= c, high, 1.0)))


def sfunction_ns(img: GrayImage, params: SFunctionParams, w: int = 3) -> NsImage:
    """Planes for segmentation: T from the S-function, I from local
    statistics, F = 1 - T."""
    _check_window(w, img.pixels.shape)
    g = img.pixels.astype(np.float64)
    t = s_function(g, params)
    _, i = _indeterminacy(g, w)
    return NsImage(t, i, 1.0 - t, w, 0.0, 255.0)


def fit_abc(img: GrayImage, w: int = 3, bins: int = 64) -> SFunctionParams:
    """Choose S-function knots by maximum entropy.

    a and c are the lowest and highest occupied intensities; b sweeps
    every intensity strictly between them and keeps the first one whose
    resulting planes have the largest total entropy.  T depends on the
    gray level alone, so the planes are histogrammed over the 256 levels.
    The I plane does not depend on b, so its entropy is left out.

    All candidates are scored at once, one row of T per b, and their
    histograms are exact (see :func:`_row_histograms`); only the bulk
    sums of :func:`_row_entropies` may differ from the exact scores of
    :func:`_entropy`, by a few ulp, far inside a relative 1e-12.  So the
    best candidate always lies within 1e-12 of the bulk maximum, and
    only the rows in that band are re-scored exactly, in order, keeping
    the first strict maximum as a candidate-by-candidate loop does.
    When every score ties (two-level images), every row is re-scored.
    """
    _check_window(w, img.pixels.shape)
    _check_bins(bins)
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    occupied = np.nonzero(hist)[0]
    if occupied.size < 2:
        raise DegenerateHistogram("image needs at least two intensities")
    a, c = int(occupied[0]), int(occupied[-1])
    if c - a < 2:
        raise DegenerateHistogram("no intensity strictly between a and c")
    n = hist.sum()
    t = _s_curve(np.arange(256.0), a, np.arange(a + 1, c)[:, None], c)
    counts_t = _row_histograms(t, bins, hist)
    counts_f = _row_histograms(1.0 - t, bins, hist)
    scores = _row_entropies(counts_t, n) + _row_entropies(counts_f, n)
    best_row, best_en = None, -1.0
    for row in np.flatnonzero(scores >= scores.max() * (1.0 - 1e-12)):
        en = _entropy(counts_t[row], n) + _entropy(counts_f[row], n)
        if en > best_en:
            best_row, best_en = row, en
    return SFunctionParams(float(a), float(a + 1 + best_row), float(c))


# --- watershed-style region growing -------------------------------------------

DAM = -1
BACKGROUND = 0
_UNASSIGNED = -2

_STRUCT = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class SegmentResult:
    """Label map: 0 background, 1..n_objects regions, -1 dam pixels."""

    labels: np.ndarray
    n_objects: int

    def counts(self) -> dict:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def segment(img: GrayImage, params: SFunctionParams, *,
            t_low: float, t_high: float, i_threshold: float,
            w: int = 3) -> SegmentResult:
    """Threshold the planes into seeds and grow them.

    Pixels with T >= t_high and calm indeterminacy seed object regions
    (8-connected components); pixels with T <= t_low and calm
    indeterminacy seed the background.  All remaining pixels are
    contested: every region (background included) dilates one step per
    round, a pixel claimed by two different regions in the same round
    becomes a dam, and pockets no front can reach are marked as dams so
    the final map is a partition.  A pixel is claimed by one region
    exactly when the maximum and minimum filters see the same label.
    """
    if not (0.0 <= t_low <= t_high <= 1.0):
        raise BadParams(f"need 0 <= t_low <= t_high <= 1, got ({t_low}, {t_high})")
    if not 0.0 <= i_threshold:
        raise BadParams(f"i_threshold must be >= 0, got {i_threshold}")
    ns = sfunction_ns(img, params, w)
    calm = ns.i < i_threshold
    object_mask = (ns.t >= t_high) & calm
    background_mask = (ns.t <= t_low) & calm

    comp, n_objects = ndimage.label(object_mask, structure=_STRUCT)
    labels = np.full(img.pixels.shape, _UNASSIGNED, dtype=np.int32)
    labels[background_mask] = BACKGROUND
    labels[object_mask] = comp[object_mask]

    above = n_objects + 1  # DAM and _UNASSIGNED already lie below every region
    while True:
        unassigned = labels == _UNASSIGNED
        if not unassigned.any():
            break
        hi = ndimage.maximum_filter(labels, size=3, mode="constant", cval=DAM)
        lo = ndimage.minimum_filter(np.where(labels < 0, above, labels), size=3,
                                    mode="constant", cval=above)
        reached = unassigned & (hi >= 0)
        if not reached.any():
            labels[unassigned] = DAM
            break
        single = reached & (hi == lo)
        labels[single] = hi[single]
        labels[reached & ~single] = DAM
    return SegmentResult(labels, n_objects)
