import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as si

from diracbvp import ode
from diracbvp.boundary import BoundaryConditions, delta0, minors
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


def step_loop_oracle(sys, lam, n):
    """Phi at every node by one Python iteration per RK4 step, the four
    stages as batched 2x2 matmuls: the loop the blocked step-matrix
    products replaced, kept as their reference."""
    lam = np.asarray(lam, dtype=complex)
    h = 1.0 / n
    ib = 1j * np.array([[sys.b1], [sys.b2]])
    x = np.linspace(0.0, 1.0, n + 1)

    def ibq(t):
        q = np.zeros(t.shape + (2, 2), dtype=complex)
        q[..., 0, 1] = sys.q12(t)
        q[..., 1, 0] = sys.q21(t)
        return ib * q

    ibq_nodes = ibq(x)
    ibq_half = ibq(x[:-1] + 0.5 * h)
    ib_lam = ib * (lam[..., None, None] * np.eye(2))
    values = np.empty(lam.shape + (n + 1, 2, 2), dtype=complex)
    phi = np.broadcast_to(np.eye(2, dtype=complex), ib_lam.shape).copy()
    values[..., 0, :, :] = phi
    a1 = ib_lam - ibq_nodes[0]
    for i in range(n):
        a0 = a1
        am = ib_lam - ibq_half[i]
        a1 = ib_lam - ibq_nodes[i + 1]
        k1 = a0 @ phi
        k2 = am @ (phi + 0.5 * h * k1)
        k3 = am @ (phi + 0.5 * h * k2)
        k4 = a1 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[..., i + 1, :, :] = phi
    return values


@pytest.mark.parametrize("b2", [1.0, 2.0, math.sqrt(2.0)])
@pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 63, 64, 65, 96, 129])
def test_blocked_products_match_the_step_loop(n, b2):
    # every block edge of the step-matrix products, against the per-step loop
    sys = smooth_potential(17, 256, b1=-1.0, b2=b2)
    rng = np.random.default_rng(n)
    lams = rng.uniform(-60.0, 60.0, 24) + 1j * rng.uniform(-3.0, 3.0, 24)
    lams = np.append(lams, [60.0 + 3.0j, -60.0 - 3.0j, 0.0])
    got = fundamental_matrix(sys, lams, n).values
    want = step_loop_oracle(sys, lams, n)
    err = np.abs(got - want).max(axis=(1, 2, 3))
    scale = np.abs(want).max(axis=(1, 2, 3))
    assert np.all(err <= 1e-13 * scale), (err / scale).max()


def test_array_equals_scalar_calls_across_chunks():
    # more lam than one chunk: every lam still gets bitwise its scalar call
    sys = smooth_potential(19, 64, b1=-1.0, b2=math.sqrt(2.0))
    bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
    rng = np.random.default_rng(5)
    count = ode._CHUNK + 7
    lams = rng.uniform(-30.0, 30.0, count) + 1j * rng.uniform(-2.0, 2.0, count)
    n = ode._BLOCK + 3
    phi = fundamental_matrix(sys, lams, n)
    assert np.array_equal(phi.values, np.array([fundamental_matrix(sys, lam, n).values for lam in lams]))
    dets = char_det_direct(sys, bc, lams, n)
    assert np.array_equal(dets, np.array([char_det_direct(sys, bc, lam, n) for lam in lams]))


def test_char_det_direct_is_the_minors_formula_on_phi_at_one():
    sys = smooth_potential(23, 128, b1=-1.0, b2=2.0)
    bc = BoundaryConditions.from_canonical(0.4, 0.3, -0.2, 1.2)
    lams = np.array([[0.3, -5.0 + 1.0j, 12.5 - 0.7j], [40.0 + 2.0j, -33.3, 0.0]])
    m = minors(bc)
    for n in (2, 65, 130):
        phi = fundamental_matrix(sys, lams, n).at_one()
        expected = (
            m[1, 2]
            + m[3, 4] * np.exp(1j * (sys.b1 + sys.b2) * lams)
            + m[3, 2] * phi[..., 0, 0]
            + m[1, 3] * phi[..., 0, 1]
            + m[4, 2] * phi[..., 1, 0]
            + m[1, 4] * phi[..., 1, 1]
        )
        assert np.array_equal(char_det_direct(sys, bc, lams, n), expected)


def test_char_det_direct_holds_no_values_array():
    # 2048 lam at N = 512: the node values alone would be 64 * 2048 * 513 bytes
    n = 512
    sys = smooth_potential(29, n, b1=-1.0, b2=2.0)
    bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
    lams = np.linspace(-40.0, 40.0, 2048) + 0.5j
    tracemalloc.start()
    try:
        char_det_direct(sys, bc, lams, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


@pytest.mark.parametrize("lam", [np.zeros(0), np.zeros((0, 3)), 1.5 - 0.5j, np.array(2.0)])
def test_shapes_and_types_for_empty_and_scalar_lam(lam):
    sys = smooth_potential(31, 32)
    bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
    shape = np.shape(lam)
    phi = fundamental_matrix(sys, lam, 8)
    det = char_det_direct(sys, bc, lam, 8)
    assert phi.values.shape == shape + (9, 2, 2) and phi.values.dtype == complex
    assert phi.at_one().shape == shape + (2, 2)
    if shape == ():
        assert type(phi.lam) is complex
        assert type(phi.det_at_one()) is complex and type(det) is complex
    else:
        assert isinstance(phi.lam, np.ndarray) and phi.lam.shape == shape
        assert phi.det_at_one().shape == shape
        assert isinstance(det, np.ndarray) and det.shape == shape and det.dtype == complex
