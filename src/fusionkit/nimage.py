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
import re
from dataclasses import dataclass

import numpy as np

from .algebra import _is_int
from .errors import (
    BadDimensions,
    BadMagic,
    BadParams,
    BadWindow,
    DegenerateHistogram,
    InputError,
    OutOfRange,
    TruncatedData,
    real,
)


def _check_int(value, what: str, error=BadParams) -> None:
    if not _is_int(value):
        raise error(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Rectangular grid of 8-bit intensities."""

    pixels: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.pixels)
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


#: A header or P2 body token: a ``#`` that starts a token starts a
#: comment running to the end of its line; whitespace is what
#: ``bytes.isspace`` says.
_PGM_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def _check_path(path) -> None:
    """Refuse an integer path: ``open`` would take it for a file
    descriptor, such as stdout's, and close it."""
    if isinstance(path, bool) or _is_int(path):
        raise InputError(f"path must be a file name, got {path!r}")


def load_pgm(path) -> GrayImage:
    _check_path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = ((m[1], m.end()) for m in _PGM_TOKEN.finditer(data) if m[1])
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise BadMagic("empty file") from None
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM file (magic {magic!r})")
    try:
        (w, _), (h, _), (maxval, end) = next(tokens), next(tokens), next(tokens)
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
    _check_path(path)
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


@dataclass(frozen=True, eq=False, repr=False)
class NsImage:
    """The three planes of an image plus the scaling frozen at build
    time (needed to map T back to gray levels)."""

    t: np.ndarray
    i: np.ndarray
    f: np.ndarray
    w: int
    g_lo: float
    g_hi: float

    def __post_init__(self):
        if self.t.ndim != 2:
            raise BadDimensions("planes must be 2-D")
        for name in "tif":
            if getattr(self, name).shape != self.t.shape:
                raise BadDimensions(f"plane {name} shape differs")

    @property
    def shape(self):
        return self.t.shape


def _non_negative(value, what: str, error) -> float:
    """``value`` read by :func:`errors.real` as a float >= 0."""
    x = real(value)
    if x is None or not x >= 0.0:
        raise error(f"{what} must be >= 0, got {value}")
    return x


def _check_window(size: int, shape, what: str = "window") -> None:
    _check_int(size, f"{what} size", BadWindow)
    if size < 3 or size % 2 == 0:
        raise BadWindow(f"{what} size must be odd and >= 3, got {size}")
    if size > min(shape):
        raise BadWindow(f"{what} size {size} exceeds image dimensions")


def _local_mean(g: np.ndarray, w: int) -> np.ndarray:
    """The mean of the ``w``-by-``w`` window of each pixel of ``g``,
    edge pixels replicated, as a float64 plane.

    Down each column, ``w`` edge-clamped rows are added in one go (in
    int32 for 8-bit planes) and divided by ``w``.  Along each row the
    window sum runs: it starts as the sum of the first window, left to
    right, and each step adds the difference of the pixel entering and
    the pixel leaving; each sum is divided by ``w``.  Whole-number
    planes thus get, to the last bit, the mean of a filter that runs its
    sums down the columns too (the test oracle
    ``reference_uniform_filter``), because their column sums are exact;
    other planes differ from it by the rounding of those sums, within
    1e-14 relative."""
    h, (rows, n) = w // 2, g.shape
    padded = g.take(np.clip(np.arange(-h, rows + h), 0, rows - 1), axis=0)
    col = padded[:rows].astype(np.promote_types(g.dtype, np.int32))
    for d in range(1, w):
        col += padded[d : d + rows]
    col = col / w
    run = np.empty_like(col)
    first = run[:, 0]
    first[:] = col[:, 0]
    for d in range(1 - h, h + 1):  # the rest of the first window, edge-clamped
        first += col[:, max(d, 0)]
    np.subtract(col[:, h + 1 : 2 * h + 1], col[:, :1], out=run[:, 1 : h + 1])
    np.subtract(col[:, 2 * h + 1 :], col[:, : n - 2 * h - 1], out=run[:, h + 1 : n - h])
    np.subtract(col[:, n - 1 :], col[:, n - 2 * h - 1 : n - h - 1], out=run[:, n - h :])
    np.add.accumulate(run, axis=1, out=run)
    run /= w
    return run


def _indeterminacy(g: np.ndarray, w: int):
    """Local mean and I plane: |g - local mean|, min-max scaled to
    [0, 1] in place; a constant deviation maps to 0."""
    gbar = _local_mean(g, w)
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
    by ``np.histogram``'s own rule over that range: ``floor(x * bins)``
    with 1.0 in the last bin, corrected by one where the rounded product
    and the ``np.linspace`` edges disagree.

    When ``bins`` is a power of two the corrections cannot fire.  Then
    ``x * bins`` only shifts the exponent, so it is exact (a subnormal
    ``x`` too), and ``np.linspace(0, 1, bins + 1)`` multiplies ``k`` by
    the exact step ``1 / bins``, so edge ``k`` is exactly ``k / bins``.
    ``k = floor(x * bins)`` thus holds ``k / bins <= x < (k + 1) / bins``
    exactly: neither ``x < edges[k]`` nor ``x >= edges[k + 1]`` is true,
    and for ``k = bins - 1`` the second test is masked anyway."""
    k = (x * bins).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    if bins & (bins - 1):
        edges = _bin_edges(bins)
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
    """Per-plane Shannon entropies (nats) and their sum, of planes in [0, 1]."""
    _check_bins(bins)
    planes = (ns.t, ns.i, ns.f)
    for name, plane in zip("tif", planes):
        if not ((plane >= 0.0) & (plane <= 1.0)).all():
            raise OutOfRange(f"plane {name} holds NaN or a value outside [0, 1]")
    en_t, en_i, en_f = (_plane_entropy(plane, bins) for plane in planes)
    return en_t, en_i, en_f, en_t + en_i + en_f


def gamma_median(ns: NsImage, gamma: float, s: int = 3) -> NsImage:
    """Median-filter T and F where the indeterminacy reaches gamma,
    then rebuild I from the filtered T plane's local statistics.  Only
    the flagged pixels' windows are read, by :func:`_masked_median`.

    A gamma that nothing reaches returns the input unchanged.  The
    planes' own window ``ns.w`` must fit them, as :func:`to_ns` checks.
    """
    gamma = _non_negative(gamma, "gamma", OutOfRange)
    _check_window(ns.w, ns.shape)
    _check_window(s, ns.shape, "median")
    flagged = np.flatnonzero(ns.i >= gamma)
    if not flagged.size:
        return ns
    # C-order copies, so that ravel() is a view the medians are written through.
    t_hat, f_hat = np.array(ns.t, order="C"), np.array(ns.f, order="C")
    for plane in (t_hat, f_hat):
        plane.ravel()[flagged] = _masked_median(plane, flagged, s)
    _, i_hat = _indeterminacy(t_hat, ns.w)
    return NsImage(t_hat, i_hat, f_hat, ns.w, ns.g_lo, ns.g_hi)


@functools.lru_cache(maxsize=8)
def _median_network(n: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The comparators of Batcher's odd-even merge sort on ``n`` inputs
    that output ``n // 2`` depends on, in order, as ``(a, b, lo, hi)``.

    A comparator leaves the smaller input on wire ``a < b`` and the
    larger on ``b``; the full network sorts, so wire ``n // 2`` ends on
    the median.  Walking the network backwards from that wire keeps
    every comparator that writes a wire still to be read (24 of 28 at
    n = 9, 113 of 140 at n = 25, 319 of 394 at n = 49); ``lo`` and
    ``hi`` tell whether its minimum and its maximum are read (both are
    for 16 of the 24 at n = 9)."""
    network = []
    p = 1
    while p < n:
        k = p
        while k:
            for j in range(k % p, n - k, 2 * k):
                for a in range(j, min(j + k, n - k)):
                    if a // (2 * p) == (a + k) // (2 * p):
                        network.append((a, a + k))
            k //= 2
        p *= 2
    needed, kept = {n // 2}, []
    for a, b in reversed(network):
        if a in needed or b in needed:
            kept.append((a, b, a in needed, b in needed))
            needed.update((a, b))
    return tuple(reversed(kept))


def _window_median(windows: np.ndarray) -> np.ndarray:
    """The median of every column of ``windows`` (an odd number of rows)
    by :func:`_median_network`, swapping row references in a list, so
    ``windows`` itself is only read."""
    rows = list(windows)
    for a, b, lo, hi in _median_network(len(rows)):
        x, y = rows[a], rows[b]
        if lo:
            rows[a] = np.minimum(x, y)
        if hi:
            rows[b] = np.maximum(x, y)
    return rows[len(rows) // 2]


def _masked_median(plane: np.ndarray, flagged: np.ndarray, s: int) -> np.ndarray:
    """The median of the ``s``-by-``s`` window, edge pixels replicated,
    of each pixel of the 2-D ``plane`` at the flat indices ``flagged``.

    The windows are gathered into ``s * s`` contiguous rows, one per
    window cell, and :func:`_window_median` selects each pixel's median
    with the comparators of a sorting network pruned to its middle
    output, one NumPy call per comparator over all flagged pixels.
    Comparators only move values, so for any odd ``s`` each pixel gets
    the value that sorting its window would put in the middle."""
    r = s // 2
    padded = np.pad(plane, r, mode="edge").ravel()
    # Window cell (dy, dx) of pixel (y, x) lies at (y + dy, x + dx) of
    # the padded plane: flat offset dy * padded width + dx from the
    # pixel's window corner, which is y * padded width + x.
    padded_w = plane.shape[1] + 2 * r
    offsets = (np.arange(s)[:, None] * padded_w + np.arange(s)).ravel()
    corner = flagged + flagged // plane.shape[1] * (2 * r)
    windows = np.empty((s * s, flagged.size), dtype=plane.dtype)
    # One cell at a time: an (s*s, n) index array would outweigh the
    # windows it gathers, eight times over for 8-bit ones.
    for row, offset in zip(windows, offsets):
        padded.take(corner + offset, out=row)
    return _window_median(windows)


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
    are read (by :func:`_masked_median`) before any pixel is written.
    """
    gamma = _non_negative(gamma, "gamma", OutOfRange)
    delta = _non_negative(delta, "delta", BadParams)
    _check_int(max_iters, "max_iters")
    if max_iters < 1:
        raise BadParams(f"max_iters must be >= 1, got {max_iters}")
    _check_window(w, img.pixels.shape)
    _check_window(s, img.pixels.shape, "median")

    u = img.pixels.copy()
    _, i = _indeterminacy(u, w)
    en_prev = _plane_entropy(i, 64)
    trace = [en_prev]
    done = 0
    for _ in range(max_iters):
        flagged = np.flatnonzero(i >= gamma)
        if flagged.size:
            u.ravel()[flagged] = _masked_median(u, flagged, s)
        done += 1
        _, i = _indeterminacy(u, w)
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
        knots = tuple(map(real, (self.a, self.b, self.c)))
        if None in knots or not (0.0 <= knots[0] < knots[1] < knots[2] <= 255.0):
            raise BadParams(
                f"need 0 <= a < b < c <= 255, got ({self.a}, {self.b}, {self.c})"
            )
        for name, x in zip("abc", knots):
            object.__setattr__(self, name, x)


def s_function(g, params: SFunctionParams):
    """S-shaped intensity-to-truth map: 0 below a, 1 above c, and two
    parabolic arcs joining continuously at b.  ``g`` is a number read by
    :func:`errors.real` or an array of integers or floats; NaN is
    refused."""
    x = real(g)
    if x is None:
        try:
            x = np.asarray(g)
        except ValueError:
            raise BadParams("intensities must form a regular array") from None
        if x.dtype.kind not in "iuf":
            raise BadParams(f"intensities must be real numbers, got {x.dtype}")
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise BadParams("intensities must not be NaN")
    t = _s_curve(x, params.a, params.b, params.c)
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


def _label(mask: np.ndarray):
    """The 8-connected components of a 2-D boolean ``mask``, numbered
    1.. in raster order of their first pixel, and their count.

    Each row splits into runs (a False column ends every row).  A run
    of the next row touches run a when it starts at most one column
    past a's last pixel and ends at most one column before a's first;
    with the next row's runs moved back one row of flat positions, two
    searches of their sorted ends and starts find the first and the
    last of them.  The runs are joined by hooking each component's root
    onto the smallest root it touches and jumping pointers until every
    run points at its root, the first run of its component, so the
    roots come in raster order."""
    rows, n = mask.shape
    flat = np.zeros((rows, n + 1), dtype=bool)
    flat[:, :n] = mask
    flat = flat.ravel()
    bounds = np.flatnonzero(np.diff(flat, prepend=False))
    starts, ends = bounds[::2], bounds[1::2]
    lo = np.searchsorted(ends - (n + 1), starts)
    hi = np.searchsorted(starts - (n + 1), ends, side="right")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(starts.size), count)
    b = np.arange(a.size) - np.repeat(np.cumsum(count) - count - lo, count)
    parent = np.arange(starts.size)
    while a.size:
        pa, pb = parent[a], parent[b]
        apart = pa != pb
        a, b, pa, pb = a[apart], b[apart], pa[apart], pb[apart]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    root = parent == np.arange(starts.size)
    out = np.zeros(flat.size, dtype=np.int32)
    out[flat] = np.repeat(np.cumsum(root, dtype=np.int32)[parent], ends - starts)
    return out.reshape(rows, n + 1)[:, :n], int(root.sum())


def _extreme3(plane: np.ndarray, op, fill) -> np.ndarray:
    """``op`` (``np.maximum`` or ``np.minimum``) over the 3-by-3 window
    of each pixel, pixels outside the plane reading ``fill``: over three
    shifted rows, then over three shifted columns."""
    padded = np.full((plane.shape[0] + 2, plane.shape[1] + 2), fill, dtype=plane.dtype)
    padded[1:-1, 1:-1] = plane
    rows = op(op(padded[:-2], padded[1:-1]), padded[2:])
    return op(op(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


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
    lo, hi = real(t_low), real(t_high)
    if lo is None or hi is None or not (0.0 <= lo <= hi <= 1.0):
        raise BadParams(f"need 0 <= t_low <= t_high <= 1, got ({t_low}, {t_high})")
    i_threshold = _non_negative(i_threshold, "i_threshold", BadParams)
    ns = sfunction_ns(img, params, w)
    calm = ns.i < i_threshold
    object_mask = (ns.t >= t_high) & calm
    background_mask = (ns.t <= t_low) & calm

    comp, n_objects = _label(object_mask)
    labels = np.full(img.pixels.shape, _UNASSIGNED, dtype=np.int32)
    labels[background_mask] = BACKGROUND
    labels[object_mask] = comp[object_mask]

    above = n_objects + 1  # DAM and _UNASSIGNED already lie below every region
    while True:
        unassigned = labels == _UNASSIGNED
        if not unassigned.any():
            break
        hi = _extreme3(labels, np.maximum, DAM)
        lo = _extreme3(np.where(labels < 0, above, labels), np.minimum, above)
        reached = unassigned & (hi >= 0)
        if not reached.any():
            labels[unassigned] = DAM
            break
        single = reached & (hi == lo)
        labels[single] = hi[single]
        labels[reached & ~single] = DAM
    return SegmentResult(labels, n_objects)
