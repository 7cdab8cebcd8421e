import numpy as np
import pytest
import scipy.integrate as si

from diracbvp.boundary import BoundaryConditions, delta0
from diracbvp.gridfn import SampledFunction
from diracbvp.ode import DiracSystem, char_det_direct, e_pm, fundamental_matrix

from conftest import smooth_potential


def test_free_system_is_diagonal_exponential():
    sys = DiracSystem.zero(-1.0, 1.5)
    lam = 2.0 - 0.3j
    phi = fundamental_matrix(sys, lam, 128)
    x = np.linspace(0, 1, 129)
    assert np.abs(phi.values[:, 0, 0] - np.exp(1j * -1.0 * lam * x)).max() < 1e-7
    assert np.abs(phi.values[:, 1, 1] - np.exp(1j * 1.5 * lam * x)).max() < 1e-7
    assert np.abs(phi.values[:, 0, 1]).max() == 0.0
    assert np.abs(phi.values[:, 1, 0]).max() == 0.0


def test_initial_value_is_identity():
    sys = smooth_potential(3, 256)
    phi = fundamental_matrix(sys, 1.0 + 1.0j, 64)
    assert np.array_equal(phi.values[0], np.eye(2))


def test_q12_zero_lower_left_formula():
    # phi_21(x, lam) = -i b2 e^{i b2 lam x} int_0^x Q21 e^{i(b1-b2) lam t} dt
    n = 512
    b1, b2 = -1.0, 2.0
    x = np.linspace(0, 1, n + 1)
    q = lambda t: np.cos(2 * np.pi * t) + 0.5j * t  # noqa: E731
    sys = DiracSystem(b1, b2, SampledFunction.zero(n), SampledFunction(q(x).astype(complex)))
    lam = 3.0 + 0.5j
    phi = fundamental_matrix(sys, lam, n)
    for xi in (0.25, 0.5, 1.0):
        integrand = lambda t: q(t) * np.exp(1j * (b1 - b2) * lam * t)  # noqa: E731
        val = si.quad(lambda t: integrand(t).real, 0, xi, limit=200)[0] + 1j * si.quad(
            lambda t: integrand(t).imag, 0, xi, limit=200
        )[0]
        expected = -1j * b2 * np.exp(1j * b2 * lam * xi) * val
        i = int(round(xi * n))
        # linear interpolation of the sampled Q dominates: O(h^2)
        assert abs(phi.values[i, 1, 0] - expected) < 5e-5


def test_liouville_determinant():
    sys = smooth_potential(11, 512)
    for lam in (0.0, 5.0, -8.0 + 1.0j, 15.0 - 0.5j):
        phi = fundamental_matrix(sys, lam, 512)
        target = np.exp(1j * lam * (sys.b1 + sys.b2))
        assert abs(phi.det_at_one() - target) / abs(target) < 1e-6


def test_e_pm_superposition():
    sys = smooth_potential(7, 256)
    lam = 4.0 + 0.2j
    ep = e_pm(sys, lam, +1, 256)
    em = e_pm(sys, lam, -1, 256)
    phi = fundamental_matrix(sys, lam, 256)
    col1 = phi.values[:, :, 0]
    assert np.abs(ep.samples + em.samples - 2 * col1).max() < 1e-12


def test_e_pm_free():
    sys = DiracSystem.zero(-2.0, 1.0)
    lam = 1.5
    x = np.linspace(0, 1, 65)
    e = e_pm(sys, lam, -1, 64)
    assert np.abs(e.samples[:, 0] - np.exp(1j * -2.0 * lam * x)).max() < 1e-6
    assert np.abs(e.samples[:, 1] + np.exp(1j * 1.0 * lam * x)).max() < 1e-6


def test_char_det_matches_delta0_for_free_system():
    bc = BoundaryConditions.from_canonical(0.5, 0.2j, -0.3, 1.0)
    sys = DiracSystem.zero(-1.0, 1.0)
    for lam in (0.0, 2.0, 5.0 - 1.0j):
        direct = char_det_direct(sys, bc, lam, 256)
        assert abs(direct - delta0((0.5, 0.2j, -0.3, 1.0), -1.0, 1.0, lam)) < 1e-7


def test_char_det_q12_zero_b_zero_is_unperturbed():
    n = 512
    x = np.linspace(0, 1, n + 1)
    sys = DiracSystem(-1.0, 1.0, SampledFunction.zero(n), SampledFunction((x * (1 - x) * 3).astype(complex)))
    quad = (1.0, 0.0, 0.4, 1.0)
    bc = BoundaryConditions.from_canonical(*quad)
    for lam in (1.0, 3.0 + 0.3j, 7.0):
        assert abs(char_det_direct(sys, bc, lam, n) - delta0(quad, -1.0, 1.0, lam)) < 1e-6


def test_char_det_q12_zero_explicit_term():
    # Delta_Q = Delta_0 + i b2 b e^{i b2 lam} int_0^1 Q21 e^{i(b1-b2) lam t} dt
    # (sign fixed by the minor expansion of the canonical embedding)
    n = 512
    b1, b2 = -1.0, 1.0
    x = np.linspace(0, 1, n + 1)
    q = lambda t: 0.8 * np.cos(2 * np.pi * t) + 0.3  # noqa: E731
    sys = DiracSystem(b1, b2, SampledFunction.zero(n), SampledFunction(q(x).astype(complex)))
    quad = (0.5, 0.7, 0.2, 1.1)
    bc = BoundaryConditions.from_canonical(*quad)
    lam = 2.3 + 0.4j
    integrand = lambda t: q(t) * np.exp(1j * (b1 - b2) * lam * t)  # noqa: E731
    val = si.quad(lambda t: integrand(t).real, 0, 1, limit=200)[0] + 1j * si.quad(
        lambda t: integrand(t).imag, 0, 1, limit=200
    )[0]
    expected = delta0(quad, b1, b2, lam) + 1j * b2 * quad[1] * np.exp(1j * b2 * lam) * val
    assert abs(char_det_direct(sys, bc, lam, n) - expected) < 2e-5


def test_entire_in_lambda():
    # finite-difference Cauchy-Riemann check: dPhi/d(conj lam) ~ 0
    sys = smooth_potential(5, 256)
    lam = 1.0 + 0.5j
    h = 1e-4
    n = 256
    f = lambda z: fundamental_matrix(sys, z, n).at_one()  # noqa: E731
    d_re = (f(lam + h) - f(lam - h)) / (2 * h)
    d_im = (f(lam + 1j * h) - f(lam - 1j * h)) / (2 * h)
    dbar = 0.5 * (d_re + 1j * d_im)
    assert np.abs(dbar).max() < 1e-5


def test_rk4_convergence_order():
    # Q sampled on a fine shared grid so every run integrates the same
    # vector field; expected global order 4
    fine = 8192
    sys = smooth_potential(9, fine)
    lam = 5.0
    ref = fundamental_matrix(sys, lam, fine).at_one()
    errors = {}
    for n in (32, 64, 128):
        errors[n] = np.abs(fundamental_matrix(sys, lam, n).at_one() - ref).max()
    for n in (32, 64):
        ratio = errors[n] / errors[2 * n]
        assert 16 * 0.7 <= ratio <= 16 * 1.3, (n, ratio)


def test_batched_lambda_equals_scalar_calls():
    # the batch runs the same RK4 arithmetic per lam, so agreement is exact
    sys = smooth_potential(13, 128, b1=-1.0, b2=2.0)
    bc = BoundaryConditions.from_canonical(0.4, 0.3, -0.2, 1.2)
    lams = np.array([[0.3, -5.0 + 1.0j, 12.5 - 0.7j], [40.0 + 2.0j, -33.3, 0.0]])
    phi = fundamental_matrix(sys, lams, 96)
    assert phi.values.shape == lams.shape + (97, 2, 2)
    single = np.array([[fundamental_matrix(sys, lam, 96).values for lam in row] for row in lams])
    assert np.array_equal(phi.values, single)
    single_det = np.array([[fundamental_matrix(sys, lam, 96).det_at_one() for lam in row] for row in lams])
    assert np.array_equal(phi.det_at_one(), single_det)
    dets = char_det_direct(sys, bc, lams, 96)
    assert np.array_equal(dets, np.array([[char_det_direct(sys, bc, lam, 96) for lam in row] for row in lams]))
    assert isinstance(char_det_direct(sys, bc, 1.0, 96), complex)


def test_weights_validated():
    with pytest.raises(ValueError):
        DiracSystem(1.0, 2.0, SampledFunction.zero(8), SampledFunction.zero(8))
