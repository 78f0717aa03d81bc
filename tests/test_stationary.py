import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from bklab import kernel_dft_check, kernel_multiplier, make_grid, smooth
from bklab.errors import AliasingGuardError
from bklab.stationary import kernel_samples, phase_holder_check
from bklab.util import fit_loglog


def halton_disk(n: int, radius: float) -> np.ndarray:
    """Deterministic low-discrepancy complex samples in B(0, radius)
    (area-uniform Halton map)."""
    pts = qmc.Halton(d=2, scramble=False).random(n)
    r = radius * np.sqrt(pts[:, 0])
    th = 2 * np.pi * pts[:, 1]
    return r * np.exp(1j * th)


class TestConvention:
    def test_gaussian_1d_identity(self):
        # F(e^{-c t^2/2})(xi) = c^{-1/2} e^{-xi^2/(2c)} in the symmetric
        # convention, for Re c > 0 with arg sqrt in (-pi/2, pi/2]
        for c in (1.0, 2.5, 1.0 - 4.0j, 0.3 + 2.0j):
            for xi in (0.0, 1.0, -2.5):
                re, _ = quad(lambda t: (np.exp(-c * t * t / 2)
                                        * np.exp(-1j * xi * t)).real, -40, 40,
                             limit=400)
                im, _ = quad(lambda t: (np.exp(-c * t * t / 2)
                                        * np.exp(-1j * xi * t)).imag, -40, 40,
                             limit=400)
                got = (re + 1j * im) / math.sqrt(2 * np.pi)
                want = np.exp(-xi * xi / (2 * c)) / np.sqrt(c)
                assert abs(got - want) < 1e-8


class TestKernel:
    def test_multiplier_unimodular(self):
        g = make_grid(2.0, 128)
        m = kernel_multiplier(g, 8.0)
        assert np.abs(np.abs(m) - 1.0).max() < 5e-16
        assert m[0, 0] == 1.0  # xi = 0

    def test_samples_constant_modulus(self):
        g = make_grid(2.0, 64)
        tau = 4.0
        k = kernel_samples(g, tau)
        assert np.abs(np.abs(k) - 2 * tau / np.pi).max() < 1e-13

    def test_value_at_zero_frequency(self):
        # closed-form transform at xi = 0 is 1/(2 pi)
        assert abs(1 / (2 * np.pi) - 0.159155) < 1e-6

    def test_dft_matches_closed_form_regularized(self):
        # Schwartz-regularized pairing: both sides are the exact transform
        # pair of e^{-eps|z|^2} kappa_tau (complex-Gaussian closed form)
        g = make_grid(5.0, 512)
        rel = kernel_dft_check(g, 8.0, regularization=1.0)
        assert rel <= 1e-3

    def test_regularization_trend_toward_limit(self):
        # as eps shrinks the regularized closed form approaches the
        # unimodular limit formula on interior frequencies
        g = make_grid(5.0, 512)
        xi = 2 * np.pi * np.fft.fftfreq(512, d=g.h)
        sel = np.abs(np.fft.fftfreq(512) * 512) <= 16
        XI1, XI2 = np.meshgrid(xi[sel], xi[sel], indexing="xy")
        tau = 8.0
        limit = (1 / (2 * np.pi)) * np.exp(-1j * (XI1 ** 2 - XI2 ** 2) / (8 * tau))
        gaps = []
        for eps in (0.25, 0.05, 0.005):
            c1, c2 = 2 * eps - 4j * tau, 2 * eps + 4j * tau
            reg = (2 * tau / np.pi) / np.sqrt(c1 * c2) * np.exp(
                -XI1 ** 2 / (2 * c1) - XI2 ** 2 / (2 * c2))
            gaps.append(np.abs(reg - limit).max() * 2 * np.pi)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_raw_window_floor_documented(self):
        # sharp-window DFT of the non-decaying chirp: irreducible O(1e-1)
        # floor at the admissible parameters (see the decisions ledger)
        g = make_grid(5.0, 512)
        rel = kernel_dft_check(g, 8.0, regularization=0.0)
        assert 1e-3 < rel < 1.0


class TestSmooth:
    def test_zero(self):
        g = make_grid(2.0, 64)
        assert np.abs(smooth(np.zeros((64, 64)), 4.0, g)).max() == 0.0

    def test_linear_nonexpansive(self):
        g = make_grid(2.0, 128)
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        for tau in (2.0, 8.0, 32.0):
            sm = smooth(Q, tau, g)
            assert np.linalg.norm(sm) <= (1 + 1e-10) * np.linalg.norm(Q)
        a = smooth(2.0 * Q, 8.0, g)
        b = 2.0 * smooth(Q, 8.0, g)
        assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()

    def test_gaussian_error_bound_and_slope(self):
        g = make_grid(4.0, 256)
        Q = np.exp(-np.abs(g.Z) ** 2).astype(complex)
        h2 = g.cell_measure
        hnorm = math.sqrt(3 * np.pi / 2)
        taus = (4.0, 16.0, 64.0, 256.0)
        errs = []
        for tau in taus:
            err = math.sqrt(float((np.abs(Q - smooth(Q, tau, g)) ** 2).sum() * h2))
            errs.append(err)
            assert err <= 2 * tau ** -0.5 * hnorm
        assert fit_loglog(taus, errs).slope <= -0.45
        assert errs == sorted(errs, reverse=True)  # decreasing in tau

    def test_paths_agree(self):
        g = make_grid(3.0, 256)
        Q = np.exp(-np.abs(g.Z) ** 2).astype(complex)
        a = smooth(Q, 8.0, g, path="multiplier")
        b = smooth(Q, 8.0, g, path="direct")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-3

    def test_direct_path_guard(self):
        g = make_grid(3.0, 64)
        Q = np.exp(-np.abs(g.Z) ** 2).astype(complex)
        with pytest.raises(AliasingGuardError):
            smooth(Q, 100.0, g, path="direct")
        smooth(Q, 100.0, g, path="multiplier")  # guard-exempt


class TestPhaseHolder:
    def test_s0_bound_attained(self):
        xi = halton_disk(100_000, 10.0)
        r = phase_holder_check(0.0, xi)
        assert r <= 2.0 + 1e-12
        assert r >= 1.9

    def test_s1_bound(self):
        xi = halton_disk(100_000, 10.0)
        r = phase_holder_check(1.0, xi)
        assert r <= 2 ** 1.5

    def test_origin_convention(self):
        assert phase_holder_check(1.0, np.array([0.0 + 0.0j])) == 0.0

    def test_s2_bound(self):
        xi = halton_disk(50_000, 5.0)
        assert phase_holder_check(2.0, xi) <= 2.0 ** 2
