import re

import numpy as np
import pytest

from bklab import Disk, Polygon, make_domain, make_grid
from bklab.errors import BklabError
from bklab.svgplot import loglog_svg, parse_svg_data
from bklab.util import (fit_loglog, gradient_on_mask, mask_stencil, masked_gradient,
                        parallel_map, thread_count)


class TestFit:
    def test_recovers_power_law(self):
        x = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        y = 3.0 * x ** -1.5
        fit = fit_loglog(x, y)
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_drops_smallest(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = np.array([100.0, 8.0, 4.0, 2.0])  # outlier at the smallest x
        fit = fit_loglog(x, y)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0], [1.0])


class TestParallelMap:
    def test_order_preserved(self, monkeypatch):
        monkeypatch.setenv("BKLAB_THREADS", "4")
        out = parallel_map(lambda x: x * x, range(37))
        assert out == [x * x for x in range(37)]

    def test_threads_env(self, monkeypatch):
        monkeypatch.setenv("BKLAB_THREADS", "3")
        assert thread_count() == 3
        monkeypatch.setenv("BKLAB_THREADS", "0")
        assert thread_count() >= 1


class TestMaskedGradient:
    def test_linear_exact_inside(self):
        g = make_grid(1.0, 32)
        mask = np.abs(g.Z) < 0.8
        fx, fy = masked_gradient(g.X + 2j * g.Y, mask, g.h)
        inner = np.abs(g.Z) < 0.6
        assert np.abs(fx[inner] - 1.0).max() < 1e-12
        assert np.abs(fy[inner] - 2j).max() < 1e-12
        assert np.abs(fx[~mask]).max() == 0.0

    @pytest.mark.parametrize("L, N, shape", [
        (1.2, 128, Polygon((-0.9 - 0.7j, 0.8 - 0.9j, 0.6 + 0.8j, -0.5 + 0.6j))),
        (1.0, 16, Disk(0j, 0.97)),
        (1.2, 64, "all-ones"),
        (1.2, 64, "random"),
    ], ids=["polygon", "disk-at-edge", "all-ones", "random"])
    def test_stencil_matches_padded_differences(self, L, N, shape, padded_gradient):
        # bitwise: the stencil gathers the same samples and applies the same
        # arithmetic as differences of zero-padded shifted copies.  The
        # all-ones mask is the one `cauchy.wirtinger` differences; a random
        # mask has cells of every class, isolated ones too
        g = make_grid(L, N)
        rng = np.random.default_rng(2)
        if shape == "all-ones":
            mask = np.ones((N, N), dtype=bool)
        elif shape == "random":
            mask = rng.random((N, N)) < 0.6
        else:
            mask = make_domain(g, shape).mask
        f = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        ref = padded_gradient(f, mask, g.h)
        for got, want in zip(masked_gradient(f, mask, g.h), ref):
            assert np.array_equal(got, want)
        for got, want in zip(gradient_on_mask(f[mask], mask_stencil(mask), g.h), ref):
            assert np.array_equal(got, want[mask])
        for axis in mask_stencil(mask):
            for cls in axis:
                assert all(a.dtype == np.int32 for a in cls)
                assert shape != "random" or cls[0].size > 0


class TestSvg:
    def test_round_trip(self, tmp_path):
        xs = [4.0, 8.0, 16.0]
        series = {"a": [1.0, 0.5, 0.25], "b": [2.0, 1.9, 1.7]}
        svg = loglog_svg(xs, series, "t", "tau", "norm", {"a": "slope -1"})
        assert svg.startswith("<svg")
        assert 'width="800" height="600"' in svg
        data = parse_svg_data(svg)
        assert data["a"] == list(zip(xs, series["a"]))
        assert data["b"] == list(zip(xs, series["b"]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            loglog_svg([1.0], {"a": [0.0]}, "t", "x", "y")

    @pytest.mark.parametrize("xs, ys, message", [
        ([1.0, 2.0], [1.0, float("inf")], "'a' is inf at x = 2.0"),
        ([1.0, 2.0], [-1.0, 1.0], "'a' is -1.0 at x = 1.0"),
        ([1.0, 2.0], [1.0, float("nan")], "'a' is nan at x = 2.0"),
        ([0.0, 2.0], [1.0, 1.0], "'tau' is 0.0 at x = 0.0"),
    ])
    def test_rejects_values_off_the_log_axes(self, xs, ys, message):
        # a point the plot cannot place is an error, never a dropped point
        with pytest.raises(BklabError, match=f"{re.escape(message)}$"):
            loglog_svg(xs, {"a": ys, "b": [1.0, 1.0]}, "t", "tau", "y")
