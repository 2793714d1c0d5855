"""Image pipeline: plane construction, cleanup, region growing."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import (
    flat_with_squares,
    reference_gamma_median,
    reference_load_pgm,
    salt_pepper,
)

import fusionkit
from fusionkit import (
    GrayImage,
    NsImage,
    SFunctionParams,
    denoise,
    denoise_detailed,
    fit_abc,
    gamma_median,
    load_pgm,
    ns_entropy,
    ns_to_gray,
    s_function,
    save_pgm,
    segment,
    sfunction_ns,
    to_ns,
)
from fusionkit.errors import (
    BadDimensions,
    BadMagic,
    BadParams,
    BadWindow,
    DegenerateHistogram,
    InputError,
    OutOfRange,
    TruncatedData,
)
from fusionkit.nimage import (
    _bin_index,
    _median_network,
    _plane_entropy,
    _row_entropies,
    _row_histograms,
    _window_median,
)


def checkerboard(size=8, lo=40, hi=200):
    px = np.fromfunction(
        lambda r, c: np.where((r + c) % 2 == 0, lo, hi), (size, size)
    )
    return GrayImage(px.astype(np.uint8))


class TestGrayImage:
    def test_shape_accessors(self):
        img = GrayImage(np.zeros((3, 5), dtype=np.uint8))
        assert (img.height, img.width) == (3, 5)

    def test_from_flat_round_trip(self):
        img = GrayImage.from_flat(3, 2, [1, 2, 3, 4, 5, 6])
        assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_from_flat_length_checked(self):
        with pytest.raises(TruncatedData):
            GrayImage.from_flat(3, 2, [1, 2, 3])

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            GrayImage(np.zeros(4, dtype=np.uint8))
        with pytest.raises(BadDimensions):
            GrayImage.from_flat(0, 2, [])

    def test_out_of_range_intensities(self):
        with pytest.raises(BadDimensions):
            GrayImage(np.array([[0, 300]]))

    def test_nan_intensity_rejected(self):
        with pytest.raises(BadDimensions):
            GrayImage([[1.0, math.nan]])

    def test_non_numeric_pixels_rejected(self):
        with pytest.raises(BadDimensions, match="real numbers"):
            GrayImage([["a", "b"]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(BadDimensions, match="same length"):
            GrayImage([[1, 2], [3]])

    def test_complex_pixels_rejected(self):
        with pytest.raises(BadDimensions, match="real numbers"):
            GrayImage([[1j]])

    def test_fractional_pixels_rejected(self):
        with pytest.raises(BadDimensions, match="whole numbers"):
            GrayImage([[3.7]])
        assert GrayImage([[3.0]]).pixels.tolist() == [[3]]

    def test_from_flat_non_numeric_rejected(self):
        with pytest.raises(BadDimensions, match="real numbers"):
            GrayImage.from_flat(2, 1, ["a", "b"])
        with pytest.raises(BadDimensions, match="flat sequence"):
            GrayImage.from_flat(2, 1, [[1, 2], [3]])

    @pytest.mark.parametrize("call, error", [
        (lambda: GrayImage.from_flat(2.0, 1, [1, 2]), BadDimensions),
        (lambda: GrayImage.from_flat(2, "1", [1, 2]), BadDimensions),
        (lambda: fit_abc(flat_with_squares(), bins=64.0), BadParams),
        (lambda: ns_entropy(to_ns(checkerboard()), bins="64"), BadParams),
        (lambda: denoise(checkerboard(), gamma=0.4, delta=0.01, max_iters=2.5),
         BadParams),
        (lambda: denoise(checkerboard(), gamma=0.4, delta=0.01, s=3.0), BadWindow),
        (lambda: to_ns(checkerboard(), w=True), BadWindow),
    ], ids=["width", "height", "fit_abc-bins", "ns_entropy-bins", "max_iters",
            "median-size", "window-size"])
    def test_non_int_sizes_rejected(self, call, error):
        with pytest.raises(error, match="must be an integer"):
            call()

    def test_immutable(self):
        img = checkerboard()
        with pytest.raises(AttributeError):
            img.pixels = None
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1


class TestPgmIO:
    def test_binary_round_trip(self, tmp_path):
        img = checkerboard()
        path = tmp_path / "img.pgm"
        save_pgm(img, path)
        assert load_pgm(path) == img

    def test_ascii_round_trip(self, tmp_path):
        img = checkerboard()
        path = tmp_path / "img.pgm"
        save_pgm(img, path, binary=False)
        assert load_pgm(path) == img

    def test_ascii_with_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n# made by hand\n2 2\n# maxval next\n255\n0 10\n20 30\n")
        img = load_pgm(path)
        assert img.pixels.tolist() == [[0, 10], [20, 30]]

    def test_color_format_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(BadMagic):
            load_pgm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"")
        with pytest.raises(BadMagic):
            load_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        save_pgm(checkerboard(), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedData):
            load_pgm(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n0 2\n255\n")
        with pytest.raises(BadDimensions):
            load_pgm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n1 1\n100\n200\n")
        with pytest.raises(TruncatedData):
            load_pgm(path)


class TestPgmHeaderAndBody:
    @pytest.mark.parametrize("data", [b"P2\n2\n", b"P5 2 x 255\n", b"P2 2 2"],
                             ids=["short", "not-a-number", "no-maxval"])
    def test_incomplete_header(self, tmp_path, data):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(TruncatedData, match="^incomplete PGM header$"):
            load_pgm(path)

    @pytest.mark.parametrize("maxval", [0, 256, 65535])
    def test_unsupported_maxval(self, tmp_path, maxval):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n1 1\n%d\n0\n" % maxval)
        with pytest.raises(BadDimensions, match=f"^unsupported maxval {maxval}$"):
            load_pgm(path)

    def test_bad_sample(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 x1\n")
        with pytest.raises(TruncatedData, match=r"^bad sample b'x1'$"):
            load_pgm(path)

    def test_short_ascii_body(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(TruncatedData, match="^expected 4 samples, got 3$"):
            load_pgm(path)


class TestPgmPaths:
    """``open`` takes an integer for a file descriptor and closes it, so
    both PGM functions refuse one before opening anything."""

    @pytest.mark.parametrize("path", [-1, np.int64(-1)], ids=repr)
    def test_an_integer_path_is_refused(self, path):
        with pytest.raises(InputError, match=r"^path must be a file name, got "):
            load_pgm(path)
        with pytest.raises(InputError, match=r"^path must be a file name, got "):
            save_pgm(checkerboard(), path)

    def test_a_bool_path_leaves_stdout_open(self):
        # In a child process: were True opened, it would close this one's stdout.
        code = ("import numpy as np\n"
                "from fusionkit import GrayImage, load_pgm, save_pgm\n"
                "from fusionkit.errors import InputError\n"
                "for call in (lambda: load_pgm(True),\n"
                "             lambda: save_pgm(GrayImage(np.zeros((1, 1), np.uint8)), True)):\n"
                "    try:\n"
                "        call()\n"
                "    except InputError as exc:\n"
                "        print(exc)\n"
                "print('stdout open')\n")
        src = str(pathlib.Path(fusionkit.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["path must be a file name, got True"] * 2 + [
            "stdout open"]


class TestPlaneConstruction:
    def test_flat_image_planes(self):
        img = GrayImage(np.full((6, 6), 77, dtype=np.uint8))
        ns = to_ns(img)
        assert np.all(ns.t == 0.5)
        assert np.all(ns.i == 0.0)
        assert np.all(ns.f == 0.5)

    def test_truth_encodes_the_local_mean(self):
        img = checkerboard()
        ns = to_ns(img, w=3)
        gbar = ndimage.uniform_filter(
            img.pixels.astype(np.float64), size=3, mode="nearest"
        )
        back = ns_to_gray(ns)
        assert np.array_equal(
            back.pixels, np.clip(np.rint(gbar), 0, 255).astype(np.uint8)
        )

    def test_falsity_complements_truth(self):
        ns = to_ns(checkerboard())
        assert np.allclose(ns.f, 1.0 - ns.t)

    def test_window_validation(self):
        img = checkerboard()
        with pytest.raises(BadWindow):
            to_ns(img, w=4)
        with pytest.raises(BadWindow):
            to_ns(img, w=1)
        with pytest.raises(BadWindow):
            to_ns(img, w=9)


class TestEntropy:
    def test_constant_plane_is_exactly_zero(self):
        ns = to_ns(GrayImage(np.full((6, 6), 10, dtype=np.uint8)))
        en_t, en_i, en_f, total = ns_entropy(ns)
        assert en_i == 0.0
        assert math.copysign(1.0, en_i) == 1.0
        assert total == en_t + en_i + en_f

    def test_balanced_plane_reaches_log_two(self):
        t = np.zeros((4, 4))
        t[:2] = 1.0
        ns = NsImage(t, np.zeros_like(t), 1.0 - t, 3, 0.0, 255.0)
        en_t, en_i, en_f, total = ns_entropy(ns)
        assert en_t == pytest.approx(math.log(2))
        assert en_i == 0.0
        assert total == pytest.approx(2 * math.log(2))

    def test_bins_validated(self):
        ns = to_ns(checkerboard())
        with pytest.raises(BadParams):
            ns_entropy(ns, bins=1)

    @pytest.mark.parametrize("value", [-0.001, 1.001, math.nan, -math.inf], ids=repr)
    @pytest.mark.parametrize("plane", "tif")
    def test_plane_values_outside_the_unit_interval_are_refused(self, plane, value):
        planes = {name: np.full((4, 4), 0.5) for name in "tif"}
        planes[plane][1, 2] = value
        ns = NsImage(planes["t"], planes["i"], planes["f"], 3, 0.0, 255.0)
        with pytest.raises(OutOfRange, match=f"^plane {plane} holds NaN or a value outside"):
            ns_entropy(ns)


class TestGammaMedian:
    def test_unreachable_gamma_is_identity(self):
        ns = to_ns(checkerboard())
        assert gamma_median(ns, gamma=2.0) is ns

    def test_impulse_is_smoothed(self):
        # The local mean smears the impulse over a 3x3 plateau, so the
        # median window must be wider than that to see past it.
        px = np.full((9, 9), 100, dtype=np.uint8)
        px[4, 4] = 255
        ns = to_ns(GrayImage(px))
        out = gamma_median(ns, gamma=0.5, s=5)
        assert out.t[4, 4] < ns.t[4, 4]
        assert out.i.max() <= 1.0

    def test_validation(self):
        ns = to_ns(checkerboard())
        with pytest.raises(OutOfRange):
            gamma_median(ns, gamma=-0.1)
        with pytest.raises(OutOfRange):
            gamma_median(ns, gamma=math.nan)
        with pytest.raises(BadWindow):
            gamma_median(ns, gamma=0.5, s=4)

    @pytest.mark.parametrize("gamma", ["x", "0.5", None, True, [0.5]], ids=repr)
    def test_gamma_that_is_not_a_number_is_refused(self, gamma):
        with pytest.raises(OutOfRange) as info:
            gamma_median(to_ns(checkerboard()), gamma=gamma)
        assert str(info.value) == f"gamma must be >= 0, got {gamma}"

    def test_gamma_reads_any_real_number(self):
        ns = to_ns(checkerboard())
        assert gamma_median(ns, gamma=10 ** 400) is ns
        assert gamma_median(ns, gamma=np.float64(2.0)) is ns
        assert np.array_equal(gamma_median(ns, gamma=np.int64(0)).t,
                              gamma_median(ns, gamma=0.0).t)


class TestDenoise:
    def setup_method(self):
        self.clean = flat_with_squares()
        self.noisy, self.hits = salt_pepper(self.clean)

    def test_impulses_are_restored(self):
        out = denoise(self.noisy, gamma=0.4, delta=0.01)
        diff = np.abs(
            out.pixels.astype(int) - self.clean.pixels.astype(int)
        )
        assert (diff <= 2).mean() >= 0.99

    def test_detailed_trace(self):
        res = denoise_detailed(self.noisy, gamma=0.4, delta=0.01,
                               max_iters=10)
        assert 1 <= res.iterations <= 10
        assert len(res.entropy_trace) == res.iterations + 1
        assert res.entropy_trace[1] < res.entropy_trace[0]
        assert res.image == denoise(self.noisy, gamma=0.4, delta=0.01)

    def test_clean_image_converges_quickly(self):
        res = denoise_detailed(self.clean, gamma=0.9, delta=0.5,
                               max_iters=10)
        assert res.iterations == 1

    def test_validation(self):
        with pytest.raises(OutOfRange):
            denoise(self.noisy, gamma=-1.0, delta=0.01)
        with pytest.raises(OutOfRange):
            denoise(self.noisy, gamma=math.nan, delta=0.01)
        with pytest.raises(BadParams):
            denoise(self.noisy, gamma=0.4, delta=-0.01)
        with pytest.raises(BadParams):
            denoise(self.noisy, gamma=0.4, delta=math.nan)
        with pytest.raises(BadParams):
            denoise(self.noisy, gamma=0.4, delta=0.01, max_iters=0)

    @pytest.mark.parametrize("gamma", ["x", None, True, False], ids=repr)
    def test_gamma_that_is_not_a_number_is_refused(self, gamma):
        with pytest.raises(OutOfRange) as info:
            denoise(self.noisy, gamma=gamma, delta=0.01)
        assert str(info.value) == f"gamma must be >= 0, got {gamma}"

    @pytest.mark.parametrize("delta", ["x", None, True, False], ids=repr)
    def test_delta_that_is_not_a_number_is_refused(self, delta):
        with pytest.raises(BadParams) as info:
            denoise(self.noisy, gamma=0.4, delta=delta)
        assert str(info.value) == f"delta must be >= 0, got {delta}"

    def test_gamma_and_delta_read_any_real_number(self):
        expected = denoise_detailed(self.noisy, gamma=0.4, delta=0.0, max_iters=3)
        res = denoise_detailed(self.noisy, gamma=np.float64(0.4), delta=np.int64(0),
                               max_iters=3)
        assert res == expected
        res = denoise_detailed(self.noisy, gamma=10 ** 400, delta=10 ** 400)
        assert res.image == self.noisy and res.iterations == 1

    def test_sizes_read_numpy_integers_but_not_bools(self):
        expected = denoise_detailed(self.noisy, gamma=0.4, delta=0.01, w=5, s=3, max_iters=2)
        res = denoise_detailed(self.noisy, gamma=0.4, delta=0.01, w=np.int64(5),
                               s=np.int64(3), max_iters=np.int64(2))
        assert res == expected
        for kw, error in (("w", BadWindow), ("s", BadWindow), ("max_iters", BadParams)):
            with pytest.raises(error, match="must be an integer, got True$"):
                denoise_detailed(self.noisy, gamma=0.4, delta=0.01, **{kw: True})


class TestSFunction:
    PARAMS = SFunctionParams(30.0, 125.0, 220.0)

    def test_boundary_values(self):
        p = self.PARAMS
        assert s_function(10.0, p) == 0.0
        assert s_function(30.0, p) == 0.0
        assert s_function(220.0, p) == 1.0
        assert s_function(250.0, p) == 1.0
        assert s_function(125.0, p) == pytest.approx(95.0 / 190.0)

    def test_arcs_join_continuously(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b, c = np.sort(rng.uniform(0.0, 255.0, size=3))
            if b - a < 1e-6 or c - b < 1e-6:
                continue
            p = SFunctionParams(a, b, c)
            low_at_b = (b - a) ** 2 / ((b - a) * (c - a))
            high_at_b = 1.0 - (b - c) ** 2 / ((c - b) * (c - a))
            assert low_at_b == pytest.approx(high_at_b, abs=1e-12)
            assert s_function(b, p) == pytest.approx(low_at_b, abs=1e-12)
            assert s_function(a, p) == 0.0
            assert s_function(c, p) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        g = np.linspace(0.0, 255.0, 512)
        t = s_function(g, self.PARAMS)
        assert np.all(np.diff(t) >= -1e-12)

    def test_vectorised_matches_scalar(self):
        g = np.array([[10.0, 125.0], [200.0, 250.0]])
        t = s_function(g, self.PARAMS)
        assert t.shape == g.shape
        for idx in np.ndindex(g.shape):
            assert t[idx] == s_function(float(g[idx]), self.PARAMS)

    def test_params_validated(self):
        for a, b, c in [(50, 40, 60), (10, 10, 20), (0, 10, 300), (-1, 5, 9)]:
            with pytest.raises(BadParams):
                SFunctionParams(a, b, c)

    def test_segmentation_planes(self):
        img = flat_with_squares()
        ns = sfunction_ns(img, self.PARAMS)
        assert np.allclose(ns.f, 1.0 - ns.t)
        assert np.all(ns.t[img.pixels == 30] == 0.0)
        assert np.all(ns.t[img.pixels == 220] == 1.0)


class TestFitAbc:
    def test_bimodal_image(self):
        p = fit_abc(flat_with_squares())
        assert p.a == 30.0
        assert p.c == 220.0
        assert 30.0 < p.b < 220.0

    def test_constant_image_rejected(self):
        with pytest.raises(DegenerateHistogram):
            fit_abc(GrayImage(np.full((8, 8), 9, dtype=np.uint8)))

    def test_two_adjacent_levels_rejected(self):
        px = np.full((8, 8), 30, dtype=np.uint8)
        px[::2] = 31
        with pytest.raises(DegenerateHistogram):
            fit_abc(GrayImage(px))

    def test_bins_validated(self):
        for bins in (0, 1):
            with pytest.raises(BadParams, match=f"bins must be >= 2, got {bins}"):
                fit_abc(flat_with_squares(), bins=bins)

    @pytest.mark.parametrize("w", [0, 1, 4, 9])
    def test_window_validated(self, w):
        img = GrayImage(np.arange(0, 256, 4, dtype=np.uint8).reshape(8, 8))
        with pytest.raises(BadWindow):
            fit_abc(img, w=w)


class TestSegment:
    PARAMS = SFunctionParams(30.0, 125.0, 220.0)

    def test_two_squares(self):
        seg = segment(flat_with_squares(), self.PARAMS,
                      t_low=0.2, t_high=0.8, i_threshold=0.5)
        assert seg.n_objects == 2
        counts = seg.counts()
        assert counts[1] == counts[2]
        assert counts[1] >= 900
        assert counts[0] > counts[1]
        assert sum(counts.values()) == 128 * 128

    def test_all_bright_image_is_one_object(self):
        img = GrayImage(np.full((8, 8), 240, dtype=np.uint8))
        seg = segment(img, self.PARAMS,
                      t_low=0.2, t_high=0.8, i_threshold=0.5)
        assert seg.n_objects == 1
        assert seg.counts() == {1: 64}

    def test_fronts_meeting_builds_a_dam(self):
        px = np.full((9, 9), 30, dtype=np.uint8)
        px[2:7, 0:3] = 220
        px[2:7, 4:5] = 125
        px[2:7, 5:8] = 220
        seg = segment(GrayImage(px), self.PARAMS,
                      t_low=0.2, t_high=0.8, i_threshold=2.0)
        assert seg.n_objects == 2
        counts = seg.counts()
        assert counts[-1] == 5
        assert counts[1] == counts[2] == 15

    def test_partition_is_complete(self):
        seg = segment(flat_with_squares(), self.PARAMS,
                      t_low=0.2, t_high=0.8, i_threshold=0.5)
        assert np.all(seg.labels >= -1)
        assert seg.labels.max() == seg.n_objects

    def test_threshold_validation(self):
        img = flat_with_squares()
        with pytest.raises(BadParams):
            segment(img, self.PARAMS, t_low=0.9, t_high=0.2,
                    i_threshold=0.5)
        with pytest.raises(BadParams):
            segment(img, self.PARAMS, t_low=0.2, t_high=0.8,
                    i_threshold=-0.5)


# --- reference paths -----------------------------------------------------------
#
# The loops below are the first, direct transcriptions of region growth,
# of the knot fit and of the denoising loop.  The library computes the
# same results another way; these pin them exactly.

_STRUCT = np.ones((3, 3), dtype=bool)


def reference_segment(img, params, *, t_low, t_high, i_threshold, w=3):
    """Every region dilates on its own each round; a pixel claimed by
    two regions in one round becomes a dam."""
    ns = sfunction_ns(img, params, w)
    calm = ns.i < i_threshold
    object_mask = (ns.t >= t_high) & calm
    background_mask = (ns.t <= t_low) & calm
    comp, n_objects = ndimage.label(object_mask, structure=_STRUCT)
    labels = np.full(img.pixels.shape, -2, dtype=np.int32)
    labels[background_mask] = 0
    labels[object_mask] = comp[object_mask]
    region_ids = range(0 if background_mask.any() else 1, n_objects + 1)
    while True:
        unassigned = labels == -2
        if not unassigned.any():
            break
        claims = np.zeros(labels.shape, dtype=np.int32)
        claimant = np.full(labels.shape, -2, dtype=np.int32)
        for rid in region_ids:
            front = ndimage.binary_dilation(labels == rid, structure=_STRUCT)
            front &= unassigned
            claims += front
            claimant[front] = rid
        single = claims == 1
        contested = claims >= 2
        if not (single.any() or contested.any()):
            labels[unassigned] = -1
            break
        labels[single] = claimant[single]
        labels[contested] = -1
    return labels, n_objects


def reference_entropy(plane, bins, weights=None):
    counts, _ = np.histogram(plane, bins=bins, range=(0.0, 1.0), weights=weights)
    p = counts[counts > 0] / (plane.size if weights is None else weights.sum())
    return float(-np.sum(p * np.log(p))) + 0.0


def reference_bin_index(x, bins):
    """``np.histogram``'s bin over [0, 1] for every ``bins``: the rounded
    ``x * bins``, corrected by one against the ``np.linspace`` edges."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    k = (x * bins).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    k -= x < edges.take(k)
    k += (x >= edges.take(k + 1)) & (k != bins - 1)
    return k


def reference_window_median(windows):
    """The middle byte of every row of an (n, s*s) uint8 array."""
    return np.partition(windows, windows.shape[1] // 2, axis=1)[:, windows.shape[1] // 2]


def reference_fit_abc(img, w=3, bins=64):
    """The S-function on every pixel for every candidate b.

    The I plane's entropy is the same for every b, so it is left out:
    added to every score, its rounding can merge two scores one ulp
    apart into a tie and move the first maximum (an 8x11 image with
    b = 223 and 224 showed it)."""
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    occupied = np.nonzero(hist)[0]
    a, c = int(occupied[0]), int(occupied[-1])
    g = img.pixels.astype(np.float64)
    best_b, best_en = None, -1.0
    for b in range(a + 1, c):
        t = s_function(g, SFunctionParams(a, b, c))
        en = reference_entropy(t, bins) + reference_entropy(1.0 - t, bins)
        if en > best_en:
            best_b, best_en = b, en
    return SFunctionParams(float(a), float(best_b), float(c))


def reference_denoise(img, *, gamma, delta, w=3, s=3, max_iters=10):
    """Every pass median-filters the whole image and rebuilds all three
    planes, then keeps the medians where I reached gamma."""
    g = img.pixels.astype(np.float64)
    ns = to_ns(img, w)
    en_prev = reference_entropy(ns.i, 64)
    trace = [en_prev]
    done = 0
    for _ in range(max_iters):
        mask = ns.i >= gamma
        med = ndimage.median_filter(g, size=s, mode="nearest")
        g = np.where(mask, med, g)
        done += 1
        ns = to_ns(GrayImage(g), w)
        en = reference_entropy(ns.i, 64)
        trace.append(en)
        if en_prev == 0.0 or abs(en - en_prev) / en_prev < delta:
            break
        en_prev = en
    image = GrayImage(np.clip(np.rint(g), 0, 255).astype(np.uint8))
    return image, done, tuple(trace)


def impulse_ramp(size=256, fraction=0.2, seed=1):
    """A diagonal gray ramp with ``fraction`` of its pixels set to 0 or
    255, as the benchmark's denoise jobs draw them."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / (size - 1)
    ramp = x * np.cos(0.7) + y * np.sin(0.7)
    ramp = (ramp - ramp.min()) / (ramp.max() - ramp.min())
    px = np.rint(40.0 + 170.0 * ramp)
    hit = rng.random(px.shape) < fraction
    px[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0, 255)
    return GrayImage(px.astype(np.uint8))


def dot_grid(size=96):
    """Gray field, bright dots every 8 px and dark dots every 16 px."""
    px = np.full((size, size), 128, dtype=np.uint8)
    px[::8, ::8] = 250
    px[4::16, 4::16] = 0
    return GrayImage(px)


def random_image(kind, seed, shape=(40, 56)):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        px = rng.integers(0, 256, shape)
    elif kind == "blobs":
        smooth = ndimage.gaussian_filter(rng.random(shape), 3.0)
        lo, hi = smooth.min(), smooth.max()
        px = np.rint(255 * (smooth - lo) / (hi - lo))
    elif kind == "levels":
        coarse = rng.choice([0, 64, 128, 192, 255], (shape[0] // 4, shape[1] // 4))
        px = np.kron(coarse, np.ones((4, 4), dtype=np.int64))
    else:  # sparse bright and dark dots on a gray field
        px = np.full(shape, 128)
        px[rng.random(shape) < 0.03] = 250
        px[rng.random(shape) < 0.03] = 0
    return GrayImage(px.astype(np.uint8))


KINDS = ("noise", "blobs", "levels", "dots")
DENOISE_SETTINGS = (
    dict(gamma=0.4, delta=0.01),
    dict(gamma=0.3, delta=0.01, w=5, s=5),
    dict(gamma=0.0, delta=0.01),  # every pixel is filtered
    dict(gamma=1.5, delta=0.01),  # no pixel is filtered
    dict(gamma=0.4, delta=0.0, max_iters=6),  # runs every pass
)
SEGMENT_SETTINGS = (
    (SFunctionParams(10.0, 100.0, 200.0), 0.1, 0.9, 1.01),
    (SFunctionParams(30.0, 125.0, 220.0), 0.2, 0.8, 0.5),
    (SFunctionParams(0.0, 60.0, 255.0), 0.3, 0.6, 0.2),
)


class TestAgainstReferences:
    @pytest.mark.parametrize("setting", range(len(SEGMENT_SETTINGS)))
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_segment_labels_are_identical(self, kind, seed, setting):
        params, t_low, t_high, i_threshold = SEGMENT_SETTINGS[setting]
        img = random_image(kind, seed)
        seg = segment(img, params, t_low=t_low, t_high=t_high,
                      i_threshold=i_threshold)
        labels, n_objects = reference_segment(
            img, params, t_low=t_low, t_high=t_high, i_threshold=i_threshold)
        assert seg.n_objects == n_objects
        assert np.array_equal(seg.labels, labels)

    def test_dot_grid_with_many_regions(self):
        img = dot_grid()
        params = SFunctionParams(10.0, 100.0, 200.0)
        kw = dict(t_low=0.1, t_high=0.9, i_threshold=1.01)
        seg = segment(img, params, **kw)
        labels, n_objects = reference_segment(img, params, **kw)
        assert seg.n_objects == n_objects > 100
        assert np.array_equal(seg.labels, labels)
        assert (labels == -1).any()

    def test_no_seed_image_is_all_dams(self):
        img = random_image("noise", 0)
        params = SFunctionParams(10.0, 100.0, 200.0)
        kw = dict(t_low=0.1, t_high=0.9, i_threshold=0.0)
        seg = segment(img, params, **kw)
        labels, n_objects = reference_segment(img, params, **kw)
        assert seg.n_objects == n_objects == 0
        assert np.array_equal(seg.labels, labels)
        assert np.all(labels == -1)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_abc_knots_are_identical(self, kind, seed):
        img = random_image(kind, seed)
        assert fit_abc(img) == reference_fit_abc(img)

    def test_fit_abc_on_the_dot_grid(self):
        img = dot_grid(48)
        assert fit_abc(img, w=5, bins=32) == reference_fit_abc(img, w=5, bins=32)

    @staticmethod
    def assert_denoise_matches(img, **kw):
        res = denoise_detailed(img, **kw)
        image, iterations, trace = reference_denoise(img, **kw)
        assert res.image.pixels.tobytes() == image.pixels.tobytes()
        assert res.iterations == iterations
        assert res.entropy_trace == trace

    @pytest.mark.parametrize("gamma", (0.0, 0.15))
    @pytest.mark.parametrize("shape", ((7, 12), (12, 7), (9, None)),
                             ids=("wide", "tall", "s-wide"))
    @pytest.mark.parametrize("s", (3, 5, 7))
    def test_denoise_impulses_on_every_border(self, s, shape, gamma):
        """Flagged pixels at every corner and mid-edge gather windows
        that run off the image on one or two sides."""
        height, width = shape[0], shape[1] or s
        rng = np.random.default_rng(s * 100 + height)
        px = rng.integers(60, 190, (height, width))
        ys = [0, 0, -1, -1, 0, -1, height // 2, height // 2]
        xs = [0, -1, 0, -1, width // 2, width // 2, 0, -1]
        px[ys, xs] = [0, 255, 255, 0, 255, 0, 255, 0]
        img = GrayImage(px.astype(np.uint8))
        assert (to_ns(img).i[ys, xs] >= gamma).all()
        self.assert_denoise_matches(img, gamma=gamma, delta=0.01, s=s)

    @pytest.mark.parametrize("setting", range(len(DENOISE_SETTINGS)))
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_denoise_is_identical(self, kind, seed, setting):
        self.assert_denoise_matches(random_image(kind, seed),
                                    **DENOISE_SETTINGS[setting])

    def test_denoise_salt_and_pepper(self):
        noisy, _ = salt_pepper(flat_with_squares())
        for kw in DENOISE_SETTINGS:
            self.assert_denoise_matches(noisy, **kw)

    @pytest.mark.parametrize("s", (3, 5))
    @pytest.mark.parametrize("gamma", (0.3, 0.4))
    def test_denoise_at_benchmark_size(self, gamma, s):
        img = impulse_ramp()
        assert (to_ns(img).i >= gamma).mean() > 0.1
        self.assert_denoise_matches(img, gamma=gamma, delta=0.01, s=s)

    @pytest.mark.parametrize("gamma", (0.0, 0.5))
    def test_denoise_constant_image(self, gamma):
        img = GrayImage(np.full((9, 12), 77, dtype=np.uint8))
        self.assert_denoise_matches(img, gamma=gamma, delta=0.01)
        assert denoise_detailed(img, gamma=gamma, delta=0.01).iterations == 1

    @pytest.mark.parametrize("bins", (2, 3, 7, 10, 64, 256))
    def test_plane_entropy_bins_match_histogram(self, bins):
        """Bin j of the base holds j + 1 values, so the entropy tells
        which bin one more value lands in."""
        edges = np.concatenate([np.arange(bins + 1) / bins,
                                np.linspace(0.0, 1.0, bins + 1)])
        probes = np.unique(np.concatenate([
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]))
        probes = probes[(probes >= 0.0) & (probes <= 1.0)]
        centers = (np.arange(bins) + 0.5) / bins
        multiplicity = np.arange(1, bins + 1)
        base = np.repeat(centers, multiplicity)
        for x in probes:
            plane = np.append(base, x)
            assert _plane_entropy(plane, bins) == reference_entropy(plane, bins)
            plane = np.append(centers, x)
            weights = np.append(multiplicity, 1)
            assert (_plane_entropy(plane, bins, weights)
                    == reference_entropy(plane, bins, weights))


def edge_probes(bins):
    """Every bin edge, as ``k / bins`` and as ``np.linspace`` draws it,
    one ulp either side of each, and 0.0 and 1.0."""
    edges = np.concatenate([np.arange(bins + 1) / bins,
                            np.linspace(0.0, 1.0, bins + 1)])
    probes = np.concatenate([edges, np.nextafter(edges, -1.0),
                             np.nextafter(edges, 2.0), [0.0, 1.0]])
    return probes[(probes >= 0.0) & (probes <= 1.0)]


def histogram_bin(x, bins):
    """The bin ``np.histogram`` over [0, 1] counts ``x`` in."""
    return int(np.flatnonzero(np.histogram([x], bins=bins, range=(0.0, 1.0))[0])[0])


class TestExactForms:
    """The power-of-two binning and the median network against the
    corrected binning and ``np.partition`` they replaced."""

    @pytest.mark.parametrize("bins", range(2, 131))
    def test_bins_at_every_edge(self, bins):
        x = edge_probes(bins)
        assert np.array_equal(_bin_index(x, bins), reference_bin_index(x, bins))
        assert np.array_equal(
            np.bincount(_bin_index(x, bins), minlength=bins),
            np.histogram(x, bins=bins, range=(0.0, 1.0))[0])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 130) | st.sampled_from([2 ** e for e in range(1, 8)]),
           st.data())
    def test_bins_match_the_correction_and_the_histogram(self, bins, data):
        x = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0) | st.sampled_from(edge_probes(bins).tolist()),
            min_size=1, max_size=20)))
        k = _bin_index(x, bins)
        assert np.array_equal(k, reference_bin_index(x, bins))
        assert k.tolist() == [histogram_bin(v, bins) for v in x]

    def test_bins_of_a_two_dimensional_block(self):
        x = np.random.default_rng(3).random((5, 400))
        x[:, :4] = [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0)]
        for bins in (10, 50, 64):
            assert np.array_equal(_bin_index(x, bins), reference_bin_index(x, bins))

    @pytest.mark.parametrize("s", (3, 5, 7, 9, 21))
    def test_network_selects_the_middle_byte(self, s):
        n = s * s
        rng = np.random.default_rng(s)
        cases = [
            rng.integers(0, 256, (500, n)),           # random bytes
            rng.integers(0, 3, (500, n)) + 120,       # many ties
            np.repeat(rng.integers(0, 256, (20, 1)), n, axis=1),  # all equal
            rng.choice([0, 255], (500, n)),           # only 0 and 255
            rng.integers(0, 256, (1, n)),             # a single flagged pixel
        ]
        for windows in cases:
            windows = windows.astype(np.uint8)
            rows = np.ascontiguousarray(windows.T)
            median = _window_median(rows)
            assert median.dtype == np.uint8
            assert np.array_equal(median, reference_window_median(windows))
            assert np.array_equal(rows, windows.T)  # only read

    def test_network_on_every_zero_one_window_of_three(self):
        """By the 0-1 principle a comparator network that selects the
        median of every 0/1 input selects it on every input."""
        windows = (np.arange(512)[:, None] >> np.arange(9) & 1).astype(np.uint8)
        assert np.array_equal(_window_median(np.ascontiguousarray(windows.T)),
                              reference_window_median(windows))

    def test_network_sizes(self):
        sizes = {s: len(_median_network(s * s)) for s in (3, 5, 7)}
        assert sizes == {3: 24, 5: 113, 7: 319}
        for a, b, lo, hi in _median_network(81):
            assert 0 <= a < b < 81 and (lo or hi)


BINS = (2, 3, 7, 32, 64, 256)


@st.composite
def knot_images(draw):
    """Images on two to four gray levels, where many or all candidate
    knots tie, and images spread over a random range of levels."""
    height, width = draw(st.integers(5, 12)), draw(st.integers(5, 12))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, 255), min_size=2, max_size=4,
                               unique=True).filter(lambda v: max(v) - min(v) >= 2))
        values = st.sampled_from(levels)
    else:
        lo = draw(st.integers(0, 253))
        levels = [lo, draw(st.integers(lo + 2, 255))]
        values = st.integers(levels[0], levels[1])
    px = draw(st.lists(values, min_size=height * width, max_size=height * width))
    px[:2] = min(levels), max(levels)
    return GrayImage(np.array(px, dtype=np.uint8).reshape(height, width))


class TestBulkKnotFit:
    @settings(max_examples=120, deadline=None)
    @given(knot_images(), st.sampled_from(BINS), st.sampled_from((3, 5)))
    def test_fit_abc_matches_the_reference(self, img, bins, w):
        assert fit_abc(img, w, bins) == reference_fit_abc(img, w, bins)

    @settings(max_examples=120, deadline=None)
    @given(knot_images(), st.sampled_from(BINS))
    def test_bulk_scores_track_the_exact_scores(self, img, bins):
        """fit_abc re-scores every candidate within 1e-12 of the bulk
        maximum, so the bulk scores must hold well inside that."""
        hist = np.bincount(img.pixels.ravel(), minlength=256)
        occupied = np.flatnonzero(hist)
        a, c = int(occupied[0]), int(occupied[-1])
        levels = np.arange(256.0)
        t = np.array([s_function(levels, SFunctionParams(a, b, c))
                      for b in range(a + 1, c)])
        n = hist.sum()
        bulk = (_row_entropies(_row_histograms(t, bins, hist), n)
                + _row_entropies(_row_histograms(1.0 - t, bins, hist), n))
        exact = [_plane_entropy(row, bins, hist) + _plane_entropy(1.0 - row, bins, hist)
                 for row in t]
        np.testing.assert_allclose(bulk, exact, rtol=1e-13, atol=0.0)


# --- one median, one tokenizer, frozen values -----------------------------------


@st.composite
def ns_planes(draw):
    """Planes from ``to_ns`` or ``sfunction_ns`` of a seeded image, with
    a median window that fits it."""
    shape = (draw(st.integers(8, 28)), draw(st.integers(8, 28)))
    img = random_image(draw(st.sampled_from(KINDS)), draw(st.integers(0, 2 ** 16)), shape)
    w = draw(st.sampled_from((3, 5)))
    if draw(st.booleans()):
        return to_ns(img, w)
    a, b, c = sorted(draw(st.lists(st.integers(0, 255), min_size=3, max_size=3,
                                   unique=True)))
    return sfunction_ns(img, SFunctionParams(a, b, c), w)


class TestGammaMedianAgainstTheFilter:
    @settings(max_examples=320, deadline=None)
    @given(ns_planes(), st.sampled_from((3, 5, 7)),
           st.sampled_from((0.0, 0.2, 0.4, 0.7, 1.0, 1.5)) | st.floats(0.0, 1.0))
    def test_bit_for_bit(self, ns, s, gamma):
        out = gamma_median(ns, gamma, s)
        want = reference_gamma_median(ns, gamma, s)
        if want is ns:
            assert out is ns
            return
        for name in "tif":
            got, ref = getattr(out, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), name
        assert (out.w, out.g_lo, out.g_hi) == (ns.w, ns.g_lo, ns.g_hi)

    def test_planes_that_are_not_c_ordered(self):
        ns = to_ns(random_image("dots", 4, (20, 24)))
        t, i, f = (np.asfortranarray(p) for p in (ns.t, ns.i, ns.f))
        fortran = NsImage(t, i, f, ns.w, ns.g_lo, ns.g_hi)
        out, want = gamma_median(fortran, 0.3, 5), reference_gamma_median(ns, 0.3, 5)
        for name in "tif":
            assert np.array_equal(getattr(out, name), getattr(want, name))
        assert np.array_equal(fortran.t, ns.t)  # the input is left as it was


_PGM_GAPS = st.lists(st.sampled_from(
    [b" ", b"\n", b"\r\n", b"\t", b"\x0b", b"\x0c", b"# note\n", b"#\n", b"#\r1\n"]),
    max_size=3).map(b"".join)
_PGM_WORDS = st.sampled_from(
    [b"0", b"1", b"2", b"3", b"7", b"255", b"256", b"+3", b"1_0", b"-1", b"x",
     b"2#x", b"\x1c", b"\xff", b"03", b"P2"])


@st.composite
def pgm_bytes(draw):
    """PGM-like bytes: a magic, then header numbers and samples with
    whitespace, comments and malformed tokens between them, and at times
    raw raster bytes or a comment at the end with no newline."""
    parts = [draw(st.sampled_from([b"P2", b"P5", b"P3", b"#P2\n", b""]))]
    for _ in range(draw(st.integers(0, 10))):
        parts += draw(_PGM_GAPS), draw(_PGM_WORDS)
    parts.append(draw(st.sampled_from([b"", b"\n", b"\r", b" ", b"#eof"])))
    parts.append(draw(st.binary(max_size=12)))
    return b"".join(parts)


def _pgm_outcome(read, path):
    try:
        img = read(path)
    except InputError as exc:
        return type(exc), str(exc)
    return img.pixels.dtype, img.pixels.tolist()


class TestPgmTokens:
    @settings(max_examples=2000, deadline=None)
    @given(pgm_bytes())
    def test_the_pattern_reads_what_the_byte_loop_read(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        path.write_bytes(data)
        assert _pgm_outcome(load_pgm, path) == _pgm_outcome(reference_load_pgm, path)

    @pytest.mark.parametrize("data, pixels", [
        (b"P2\r\n2\x0b1\x0c255\r\n+3 1_0", [[3, 10]]),
        (b"P2 2 1 255 4 5 # last comment, no newline", [[4, 5]]),
        (b"P2 1 1 255 # a carriage return\r 9\n 4", [[4]]),
        (b"P2#x 1 1 255 0", None),
        (b"P2 1 1 255 4#5", None),
    ], ids=["separators", "comment-at-eof", "cr-in-comment", "hash-in-magic",
            "hash-in-sample"])
    def test_a_hash_starts_a_comment_only_at_a_token_start(self, tmp_path, data, pixels):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        if pixels is not None:
            assert load_pgm(path).pixels.tolist() == pixels
            return
        with pytest.raises((BadMagic, TruncatedData)) as info:
            load_pgm(path)
        assert str(info.value) in ("not a PGM file (magic b'P2#x')", "bad sample b'4#5'")


class TestFrozenValues:
    def test_ns_image_fields_cannot_be_set(self):
        ns = to_ns(checkerboard())
        for name in ("t", "i", "f", "w", "g_lo", "g_hi", "other"):
            with pytest.raises(AttributeError):
                setattr(ns, name, None)

    def test_ns_images_compare_by_identity(self):
        img = checkerboard()
        a, b = to_ns(img), to_ns(img)
        assert a == a and a != b
        assert len({a, b}) == 2
        assert repr(a).startswith("<fusionkit.nimage.NsImage object")

    def test_gray_images_compare_by_pixels(self):
        a, b = checkerboard(), checkerboard()
        assert a == b and repr(a) == "GrayImage(8x8)"
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(AttributeError):
            a.width = 3

    @pytest.mark.parametrize("shape", [(16,), (2, 4, 4)])
    def test_planes_must_be_two_dimensional(self, shape):
        plane = np.full(shape, 0.5)
        with pytest.raises(BadDimensions, match="^planes must be 2-D$"):
            NsImage(plane, plane, plane, 3, 0.0, 255.0)


class TestImageNumbers:
    """The knots, the intensities of ``s_function`` and the thresholds of
    ``segment`` are read by ``errors.real``; what it refuses is BadParams."""

    @pytest.mark.parametrize("knots", [("1", 2, 3), (None, 2, 3), (True, 2, 3),
                                       (0, 2, [3]), (0, math.nan, 3)], ids=repr)
    def test_knots_that_are_not_numbers_are_refused(self, knots):
        with pytest.raises(BadParams) as info:
            SFunctionParams(*knots)
        assert str(info.value) == "need 0 <= a < b < c <= 255, got ({}, {}, {})".format(
            *knots)

    def test_knots_are_read_as_floats(self):
        params = SFunctionParams(np.int64(10), 100, np.float32(200.0))
        assert params == SFunctionParams(10.0, 100.0, 200.0)
        assert all(type(x) is float for x in (params.a, params.b, params.c))

    @pytest.mark.parametrize("g, message", [
        ("x", "intensities must be real numbers, got <U1"),
        (None, "intensities must be real numbers, got object"),
        ([True, False], "intensities must be real numbers, got bool"),
        ([[1, 2], [3]], "intensities must form a regular array"),
    ], ids=["text", "None", "bools", "ragged"])
    def test_intensities_that_are_not_numbers_are_refused(self, g, message):
        with pytest.raises(BadParams) as info:
            s_function(g, SFunctionParams(10, 100, 200))
        assert str(info.value) == message

    def test_intensities_beyond_a_float_saturate(self):
        params = SFunctionParams(0, 100, 200)
        assert s_function(10 ** 400, params) == 1.0
        assert s_function(-10 ** 400, params) == 0.0
        assert s_function(np.int64(100), params) == s_function(100.0, params) == 0.5
        assert s_function(np.array(100), params) == 0.5

    @pytest.mark.parametrize("t_low, t_high", [("a", 0.9), (0.1, None), (0.1, True)],
                             ids=repr)
    def test_thresholds_that_are_not_numbers_are_refused(self, t_low, t_high):
        with pytest.raises(BadParams) as info:
            segment(flat_with_squares(), SFunctionParams(10, 100, 200),
                    t_low=t_low, t_high=t_high, i_threshold=0.5)
        assert str(info.value) == f"need 0 <= t_low <= t_high <= 1, got ({t_low}, {t_high})"

    @pytest.mark.parametrize("i_threshold", ["0.5", None, -0.1], ids=repr)
    def test_an_indeterminacy_threshold_that_is_not_a_number_is_refused(self, i_threshold):
        with pytest.raises(BadParams) as info:
            segment(flat_with_squares(), SFunctionParams(10, 100, 200),
                    t_low=0.1, t_high=0.9, i_threshold=i_threshold)
        assert str(info.value) == f"i_threshold must be >= 0, got {i_threshold}"

    def test_integer_and_numpy_thresholds_segment_alike(self):
        img, params = flat_with_squares(), SFunctionParams(10, 100, 200)
        want = segment(img, params, t_low=0.0, t_high=1.0, i_threshold=1.0)
        got = segment(img, params, t_low=0, t_high=np.float64(1), i_threshold=1)
        assert got.n_objects == want.n_objects
        assert np.array_equal(got.labels, want.labels)
