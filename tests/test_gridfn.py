import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbvp.gridfn import (
    GridMismatchError,
    InvalidExponentError,
    PNorm,
    SampledFunction,
    TriangularKernel,
    compose_kernels,
    lp_norm,
    resolvent_kernel,
    x_norm,
)


def grid_fn(f, n):
    x = np.linspace(0.0, 1.0, n + 1)
    return SampledFunction(np.asarray(f(x), dtype=complex))


class TestPNorm:
    def test_rejects_small_exponents(self):
        with pytest.raises(InvalidExponentError):
            PNorm(0.5)

    def test_conjugate(self):
        assert PNorm(2).conjugate().p == 2
        assert PNorm(1).conjugate().is_inf
        assert PNorm(math.inf).conjugate().p == 1
        assert abs(PNorm(1.5).conjugate().p - 3.0) < 1e-15


class TestSampledFunction:
    def test_node_evaluation_is_exact(self):
        f = grid_fn(lambda x: np.exp(2j * np.pi * x), 17)
        x = f.grid
        assert np.array_equal(f(x), f.samples)

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            SampledFunction(np.zeros(2))

    def test_linear_interpolation(self):
        f = grid_fn(lambda x: x, 10)
        assert abs(f(0.05) - 0.05) < 1e-15


class TestLpNorm:
    def test_constant_function(self):
        assert abs(lp_norm(grid_fn(lambda x: np.ones_like(x), 32), 2) - 1.0) < 1e-14

    def test_linear_function_l1(self):
        # int_0^1 x dx = 1/2, and the trapezoid is exact for linear f
        assert abs(lp_norm(grid_fn(lambda x: x, 64), 1) - 0.5) < 1e-14

    def test_sup_norm(self):
        f = grid_fn(lambda x: np.sin(np.pi * x), 64)
        assert abs(lp_norm(f, math.inf) - 1.0) < 1e-12

    def test_against_refined_quadrature(self, rng):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)

        def f(x):
            return sum(c * np.exp(2j * np.pi * m * x) for m, c in enumerate(coeffs, start=-2))

        coarse = lp_norm(grid_fn(f, 64), 2)
        fine = lp_norm(grid_fn(f, 4096), 2)
        # |f|^2 second-derivative proxy from the fine grid
        vals = np.abs(grid_fn(f, 4096).samples) ** 2
        second = np.abs(np.diff(vals, 2)).max() * 4096**2
        assert abs(coarse - fine) <= 10 * second / 64**2

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
    )
    def test_absolute_homogeneity(self, scale, p):
        f = grid_fn(lambda x: np.exp(2j * np.pi * x) + x, 16)
        lhs = lp_norm(f.scale(scale), p)
        rhs = abs(scale) * lp_norm(f, p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_vector_valued(self):
        # ||f||_2^2 = sum of component squares
        f = SampledFunction(np.stack([np.ones(33), 2 * np.ones(33)], axis=1))
        assert abs(lp_norm(f, 2) - math.sqrt(5.0)) < 1e-13


class TestTriangularKernel:
    def test_entry_guard(self):
        k = TriangularKernel.zero(8)
        k.entry(5, 5)
        with pytest.raises(IndexError):
            k.entry(3, 4)

    def test_data_outside_triangle_is_not_trusted(self):
        # an adopted array loses every slot j > i and keeps the triangle
        data = np.ones((9, 9, 2, 2), dtype=complex)
        k = TriangularKernel(data)
        upper = np.triu(np.ones((9, 9), dtype=bool), 1)
        assert np.shares_memory(k.data, data)
        assert not k.data[upper].any()
        assert np.all(k.data[~upper] == 1)

    def test_fresh_array_is_adopted(self):
        data = np.ones((9, 9, 2, 2), dtype=complex)
        k = TriangularKernel(data)
        assert np.shares_memory(k.data, data)
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[3, 1] = 0.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TriangularKernel(np.ones((9, 9, 2, 2), dtype=complex)).data,
            lambda: np.ones((12, 12, 2, 2), dtype=complex)[:9, :9],
            lambda: np.ones(9 * 9 * 4, dtype=complex).reshape(9, 9, 2, 2),
            lambda: np.ones((9, 9, 2, 2)),
        ],
        ids=["other-kernel-data", "strided-view", "contiguous-view", "real-dtype"],
    )
    def test_borrowed_array_is_copied(self, make):
        data = make()
        before, writeable = data.copy(), data.flags.writeable
        k = TriangularKernel(data)
        assert not np.shares_memory(k.data, data)
        assert np.array_equal(data, before) and data.flags.writeable == writeable
        if data.base is not None:
            assert data.base.flags.writeable
        assert np.all(k.data[0, 5] == 0) and not k.data.flags.writeable


def dense_x_norm(kernel, family, p):
    """Reference x_norm: every node's matrix norm at once, weighted by the
    trapezoid's (N+1, N+1) table and summed along rows or columns."""
    a = np.abs(kernel.data if family == "one" else np.swapaxes(kernel.data, -1, -2))
    if math.isinf(p):
        mats = a.max(axis=(-2, -1))
    else:
        mats = np.maximum((a[..., 0, 0] ** p + a[..., 1, 0] ** p) ** (1.0 / p), (a[..., 0, 1] ** p + a[..., 1, 1] ** p) ** (1.0 / p))
    n = kernel.n
    if math.isinf(p):
        return float(mats.max())
    w = np.ones((n + 1, n + 1))
    np.fill_diagonal(w, 0.5)
    if family == "one":
        w[n, :] = 0.5
        w[n, n] = 0.0
    else:
        w[:, 0] = 0.5
        w[0, 0] = 0.0
    sums = (w * mats**p).sum(axis=0 if family == "one" else 1) / n
    return float(sums.max() ** (1.0 / p))


class TestXNorm:
    @pytest.mark.parametrize("n", [8, 33])
    def test_diagonal_sums_match_the_dense_weights(self, n, rng):
        # summed diagonal by diagonal, in another order than the dense
        # table's row and column sums: equal to roundoff
        shape = (n + 1, n + 1, 2, 2)
        k = TriangularKernel(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for p in (1.0, 1.5, 2.0, math.inf):
            for family in ("one", "infinity"):
                ref = dense_x_norm(k, family, p)
                assert abs(x_norm(k, family, p) - ref) <= 1e-13 * ref

    def test_zero_kernel(self):
        assert x_norm(TriangularKernel.zero(16), "one", 2) == 0.0
        assert x_norm(TriangularKernel.zero(16), "infinity", 2) == 0.0

    def test_constant_scalar_infinity_family(self):
        # K == 1: max over x of int_0^x 1 dt = 1
        k = TriangularKernel.from_scalar(lambda x, t: np.ones_like(x), 64)
        assert abs(x_norm(k, "infinity", 1) - 1.0) < 1e-13

    def test_x_kernel_one_family(self):
        # K(x,t) = x: max over t of int_t^1 x dx = 1/2 at t = 0
        k = TriangularKernel.from_scalar(lambda x, t: x, 64)
        assert abs(x_norm(k, "one", 1) - 0.5) < 1e-13

    def test_x_kernel_one_family_p2(self):
        # K(x,t) = x, p = 2: max over t of (int_t^1 x^2 dx)^{1/2} = 3^{-1/2}
        k = TriangularKernel.from_scalar(lambda x, t: x, 128)
        assert abs(x_norm(k, "one", 2) - 1.0 / math.sqrt(3.0)) < 1e-4

    def test_matrix_norms_against_unit_sphere(self, rng):
        # the closed-form column/row maximization must agree with a direct
        # sup of |A u| over unit vectors; random samples verify <=, the
        # analytic maximizers (basis vectors / Hoelder-equality vectors)
        # verify the sup is attained
        from diracbvp.gridfn import _COLUMN, _PART, _node_powers

        def normalize(v, p_exp):
            if math.isinf(p_exp):
                scale = np.abs(v).max(axis=1)
            else:
                scale = (np.abs(v) ** p_exp).sum(axis=1) ** (1.0 / p_exp)
            return v / scale[:, None]

        for p in (1.0, 1.5, 2.0, 4.0):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            # |A|_{1->p}: sup over the l^1 sphere, attained at basis vectors
            u = normalize(rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2)), 1.0)
            u = np.vstack([u, np.eye(2)])
            img = np.einsum("ab,mb->ma", a, u)
            brute = ((np.abs(img) ** p).sum(axis=1) ** (1.0 / p)).max()
            one_p, inf_p = _node_powers(a[_PART, _COLUMN][:, None], p)
            closed = one_p[0] ** (1.0 / p)
            assert abs(brute - closed) <= 1e-9 * closed
            # |A|_{p'->inf}: sup over the l^{p'} sphere, attained at the
            # Hoelder-equality vector of the dominating row
            pc = p / (p - 1) if p > 1 else math.inf
            u = normalize(rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2)), pc)
            extremes = np.conj(a) * np.abs(a) ** (p - 1.0) / np.abs(a)  # row-wise maximizers
            u = np.vstack([u, normalize(extremes, pc)])
            img = np.einsum("ab,mb->ma", a, u)
            brute = np.abs(img).max()
            closed = inf_p[0] ** (1.0 / p)
            assert abs(brute - closed) <= 1e-9 * closed

    def test_submultiplicative_under_composition(self, rng):
        n = 64
        for p in (1.0, 2.0):
            for family in ("one", "infinity"):
                a = TriangularKernel(rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2)))
                b = TriangularKernel(rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2)))
                lhs = x_norm(compose_kernels(a, b), family, p)
                rhs = x_norm(a, family, p) * x_norm(b, family, p) * (1 + 5.0 / n)
                assert lhs <= rhs


class TestCompose:
    def test_zero_annihilates(self):
        z = TriangularKernel.zero(16)
        k = TriangularKernel.from_scalar(lambda x, t: x + t, 16)
        assert np.abs(compose_kernels(z, k).data).max() == 0.0

    def test_constant_ones(self):
        # scalar 1 * 1 = (x - t)
        n = 32
        k = TriangularKernel.from_scalar(lambda x, t: np.ones_like(x), n)
        out = compose_kernels(k, k)
        x = np.linspace(0, 1, n + 1)
        ii, jj = np.meshgrid(x, x, indexing="ij")
        expected = np.where(jj <= ii, ii - jj, 0.0)
        assert np.abs(out.data[:, :, 0, 0] - expected).max() < 1e-13

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            compose_kernels(TriangularKernel.zero(8), TriangularKernel.zero(16))

    def test_against_refined_grid(self):
        def k1(x, t):
            return np.exp(x - t) * np.sin(1 + x * t)

        def k2(x, t):
            return np.cos(2 * x) + 1j * t

        n = 32
        coarse = compose_kernels(TriangularKernel.from_scalar(k1, n), TriangularKernel.from_scalar(k2, n))
        fine = compose_kernels(TriangularKernel.from_scalar(k1, 8 * n), TriangularKernel.from_scalar(k2, 8 * n))
        err_c = np.abs(coarse.data[:, :, 0, 0] - fine.data[::8, ::8, 0, 0]).max()
        # second-order quadrature: the 8x refinement is ~64x more accurate,
        # so the coarse error is essentially the true one
        assert err_c <= 5.0 / n**2
        finest = compose_kernels(TriangularKernel.from_scalar(k1, 16 * n), TriangularKernel.from_scalar(k2, 16 * n))
        err_f = np.abs(fine.data[::8, ::8, 0, 0] - finest.data[::16, ::16, 0, 0]).max()
        assert err_c / err_f > 30  # consistent with O(N^-2)


def apply_volterra(kernel: TriangularKernel, f: np.ndarray) -> np.ndarray:
    """Independent row-trapezoid application of f -> int_0^x K(x,t) f(t) dt."""
    n = kernel.n
    h = 1.0 / n
    out = np.zeros_like(f)
    for i in range(1, n + 1):
        w = np.ones(i + 1)
        w[0] = w[-1] = 0.5
        out[i] = h * np.einsum("j,jab,jb->a", w, kernel.data[i, : i + 1], f[: i + 1])
    return out


class TestResolvent:
    def test_zero_kernel(self):
        res = resolvent_kernel(TriangularKernel.zero(16))
        assert np.abs(res.kernel.data).max() == 0.0
        assert res.residual < 1e-10

    def test_scalar_exponential(self):
        # N == 1 (scalar): S(x,t) = -e^{-(x-t)} solves N + S + N*S = 0
        n = 128
        tol = 1e-6
        res = resolvent_kernel(TriangularKernel.from_scalar(lambda x, t: np.ones_like(x), n), tol=tol)
        x = np.linspace(0, 1, n + 1)
        ii, jj = np.meshgrid(x, x, indexing="ij")
        expected = np.where(jj <= ii, -np.exp(-(ii - jj)), 0.0)
        assert np.abs(res.kernel.data[:, :, 0, 0] - expected).max() < 5e-5
        assert res.residual < tol

    def test_inverse_operator_action(self, rng):
        # (I + N)(I + S) f = f within 10 tol for random kernels/functions
        n = 96
        tol = 1e-5
        for trial in range(3):
            data = 0.5 * (rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2)))
            kern = TriangularKernel(data)
            res = resolvent_kernel(kern, tol=tol)
            for _ in range(5):
                f = rng.standard_normal((n + 1, 2)) + 1j * rng.standard_normal((n + 1, 2))
                g = f + apply_volterra(res.kernel, f)
                back = g + apply_volterra(kern, g)
                assert np.abs(back - f).max() <= 10 * tol * np.abs(f).max()

    def test_involution(self, rng):
        # the discrete kernel product is associative only to O(h^2), so tol
        # below that level cannot be recovered by the double resolvent
        n = 64
        tol = 1e-4
        data = 0.4 * (rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2)))
        kern = TriangularKernel(data)
        s = resolvent_kernel(kern, tol=tol).kernel
        back = resolvent_kernel(s, tol=tol).kernel
        diff = TriangularKernel(back.data - kern.data)
        assert x_norm(diff, "infinity", 1) <= 10 * tol
