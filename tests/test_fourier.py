import math

import numpy as np
import pytest

from diracbvp.boundary import BoundaryConditions
from diracbvp.fourier import bessel_sum, fourier, maximal_fourier
from diracbvp.gridfn import InvalidExponentError, SampledFunction, lp_norm
from diracbvp.spectrum import zeros_delta0


def grid_fn(f, n=256):
    x = np.linspace(0.0, 1.0, n + 1)
    return SampledFunction(np.asarray(f(x), dtype=complex))


class TestFourier:
    def test_constant_at_zero(self):
        g = grid_fn(lambda x: np.ones_like(x))
        assert abs(fourier(g, 0.0) - 1.0) < 1e-14

    def test_constant_full_period(self):
        g = grid_fn(lambda x: np.ones_like(x))
        assert abs(fourier(g, 2 * math.pi)) < 1e-12

    def test_orthogonality(self):
        g = grid_fn(lambda x: np.exp(-2j * np.pi * x))
        assert abs(fourier(g, 2 * math.pi) - 1.0) < 1e-12


class TestMaximalFourier:
    def test_zero(self):
        assert maximal_fourier(grid_fn(lambda x: np.zeros_like(x)), 3.0) == 0.0

    def test_constant_at_zero(self):
        assert abs(maximal_fourier(grid_fn(lambda x: np.ones_like(x)), 0.0) - 1.0) < 1e-14

    def test_constant_full_period_brute_force(self):
        # sup_x |(e^{2 pi i x} - 1)/(2 pi)| = 1/pi at x = 1/2
        g = grid_fn(lambda x: np.ones_like(x), n=2048)
        got = maximal_fourier(g, 2 * math.pi)
        xs = np.linspace(0, 1, 20001)
        brute = np.abs((np.exp(2j * np.pi * xs) - 1.0) / (2j * np.pi)).max()
        assert abs(got - brute) < 1e-6
        assert abs(got - 1.0 / math.pi) < 1e-6

    def test_dominates_plain_transform(self, rng):
        g = SampledFunction(rng.standard_normal(129) + 1j * rng.standard_normal(129))
        for lam in (0.0, 3.0, 17.0 - 1.0j):
            assert maximal_fourier(g, lam) >= abs(fourier(g, lam)) - 1e-14

    def test_crude_exponential_bound(self, rng):
        g = SampledFunction(rng.standard_normal(129) + 1j * rng.standard_normal(129))
        for lam in (2.0 + 1.5j, -4.0 - 2.0j):
            bound = math.exp(abs(lam.imag)) * lp_norm(g, 1)
            assert maximal_fourier(g, lam) <= bound * (1 + 1e-12)

    def test_riemann_lebesgue_decay(self):
        g = grid_fn(lambda x: np.sin(np.pi * x) * np.exp(x), n=4096)
        near = max(abs(fourier(g, t)) for t in np.linspace(0, 100, 301))
        far = max(abs(fourier(g, t)) for t in np.linspace(100, 200, 301))
        assert far < near


class TestBesselSum:
    def test_zero_function(self):
        g = grid_fn(lambda x: np.zeros_like(x))
        rep = bessel_sum(g, [2 * math.pi * n for n in range(-10, 11)], 2)
        assert rep.total == 0.0

    def test_parseval_single_term(self):
        # g = e^{-2 pi i m t}: only mu = 2 pi m survives, F there equals 1
        m = 3
        g = grid_fn(lambda x: np.exp(-2j * np.pi * m * x))
        seq = [2 * math.pi * n for n in range(-50, 51)]
        rep = bessel_sum(g, seq, 2, use_maximal=False)
        assert abs(rep.total - 1.0) < 1e-6
        assert abs(rep.ratio - 1.0) < 1e-6

    def test_uniformity_over_random_ball(self, rng):
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        window = zeros_delta0(bc, -1.0, 1.0, 40)
        seq = [lam for _, lam, _ in window]
        idx = [n for n, _, _ in window]
        ratios = []
        for _ in range(12):
            coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            g = grid_fn(lambda x: sum(c * np.exp(2j * np.pi * m * x) for m, c in enumerate(coeffs, start=-10)))
            g = g.scale(1.0 / lp_norm(g, 2))
            rep = bessel_sum(g, seq, 2, indices=idx)
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) <= 50

    def test_weighted_hardy_littlewood_finiteness(self, rng):
        g = SampledFunction(rng.standard_normal(257) + 1j * rng.standard_normal(257))
        seq = [2 * math.pi * n for n in range(-60, 61)]
        rep = bessel_sum(g, seq, 1.5, weighted=True)
        assert rep.weighted
        assert math.isfinite(rep.total)
        assert rep.norm_ref == pytest.approx(lp_norm(g, 1.5) ** 1.5)

    def test_ratio_from_the_scaled_terms(self):
        # at p = 1.05 (p' = 21) with ||g||_p = 5e-21 both T^{p'} and
        # ||g||_p^{p'} underflow to 0, yet the ratio is about 1 at k = -1;
        # a representable sum and norm give the same ratio to rounding
        g = grid_fn(lambda x: 0.5 * np.exp(2j * np.pi * x))
        seq = [2 * math.pi * k for k in range(-5, 6)]
        rep = bessel_sum(g, seq, 1.05)
        assert rep.ratio == pytest.approx(rep.total / rep.norm_ref, rel=1e-12) and rep.ratio > 1.0 - 1e-12
        with pytest.raises(ArithmeticError, match=r"p = 1\.05 \(p' = 20\.99+\d*\).*\|\|g\|\|_p = 5\.0"):
            bessel_sum(g.scale(1e-20), seq, 1.05)

    def test_rejects_bad_exponent(self):
        g = grid_fn(lambda x: np.ones_like(x))
        for p in (1.0, 2.5, math.inf):
            with pytest.raises(InvalidExponentError):
                bessel_sum(g, [0.0], p)

    def test_indices_length_checked(self):
        g = grid_fn(lambda x: np.ones_like(x))
        with pytest.raises(ValueError):
            bessel_sum(g, [0.0, 1.0], 2, indices=[0])
