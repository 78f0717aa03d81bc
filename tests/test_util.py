import numpy as np
import pytest

from bklab.lorentz import LorentzIndex, lorentz_norm, ms_surrogate
from bklab.svgplot import loglog_svg, parse_svg_data
from bklab.util import fit_loglog, masked_gradient, parallel_map, thread_count


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
        from bklab import make_grid
        g = make_grid(1.0, 32)
        mask = np.abs(g.Z) < 0.8
        fx, fy = masked_gradient(g.X + 2j * g.Y, mask, g.h)
        inner = np.abs(g.Z) < 0.6
        assert np.abs(fx[inner] - 1.0).max() < 1e-12
        assert np.abs(fy[inner] - 2j).max() < 1e-12
        assert np.abs(fx[~mask]).max() == 0.0


class TestMsSurrogate:
    def test_dominates_sup(self):
        from bklab import make_grid
        g = make_grid(2.0, 64)
        f = np.exp(-np.abs(g.Z) ** 2)
        val = ms_surrogate(f, 0.5, grid=g)
        assert val >= np.abs(f).max()
        # at smoothness 0 the Bessel part reduces to the plain (2,1) norm
        assert ms_surrogate(f, 0.0, grid=g) >= lorentz_norm(f, LorentzIndex(2, 1), grid=g)
        # monotone in s
        assert ms_surrogate(f, 0.75, grid=g) >= ms_surrogate(f, 0.5, grid=g)


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
