import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracbvp.boundary import BoundaryConditions, delta0, minors
from diracbvp.gridfn import IterationLimitError, SampledFunction, TriangularKernel, _trapezoid_weights, x_norm
from diracbvp.ode import DiracSystem, char_det_direct, e_pm, fundamental_matrix
from diracbvp import transformop
from diracbvp.transformop import (
    build_kernels,
    combos,
    determinant_evaluator,
    kernel_deviation_norms,
    potential_diff_norm,
    r_equation_residual,
    read_kernel,
    reconstruct_e,
    solve_P,
    solve_R,
    write_kernel,
)
from diracbvp.spectrum import zeros_deltaQ

from conftest import smooth_potential
from kernel_oracle import assemble_K, oracle_K


def q12_zero_system(n, b1=-1.0, b2=1.0):
    x = np.linspace(0, 1, n + 1)
    q21 = SampledFunction(np.cos(2 * np.pi * x).astype(complex))
    return DiracSystem(b1, b2, SampledFunction.zero(n), q21)


def closed_forms(sys, n):
    """Exact R, P, K for Q12 = 0 with q~ = -i b2 Q21."""
    x = np.linspace(0, 1, n + 1)
    ii, jj = np.meshgrid(x, x, indexing="ij")
    mask = jj <= ii
    a1, a2 = sys.alpha1, sys.alpha2

    def qt(s):
        return -1j * sys.b2 * np.cos(2 * np.pi * s)

    r21 = np.where(mask, a2 * qt(a1 * ii + a2 * jj), 0)
    p2 = a1 * qt(a1 * x)
    k22 = np.where(mask, a1 * qt(a1 * ii - a1 * jj), 0)
    return r21, p2, k22


KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))  # the planes R_ab


def valid_mask(n):
    """Diagonal layout rd[m, l] = R((l + m)h, lh) is meaningful for l <= N - m."""
    idx = np.arange(n + 1)
    return idx[None, :] <= n - idx[:, None]


def to_diagonals(data):
    """Kernel array (N+1, N+1, 2, 2) -> diagonal layout planes rd[(a, b)][m, l]
    = R_ab((l + m)h, lh), zero for l > N - m."""
    n = data.shape[0] - 1
    m, l = np.nonzero(valid_mask(n))
    rd = {}
    for a, b in KEYS:
        rd[(a, b)] = np.zeros((n + 1, n + 1), dtype=complex)
        rd[(a, b)][m, l] = data[m + l, l, a - 1, b - 1]
    return rd


def to_kernel_array(rd):
    """Inverse of ``to_diagonals``: a writeable kernel array."""
    n = rd[(1, 1)].shape[0] - 1
    m, l = np.nonzero(valid_mask(n))
    data = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    for a, b in KEYS:
        data[m + l, l, a - 1, b - 1] = rd[(a, b)][m, l]
    return data


def random_state(n, rng):
    """Random R in diagonal layout, zero off the triangle."""
    valid = valid_mask(n)
    return {key: np.where(valid, rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1)), 0)
            for key in KEYS}


def march_state(sweeper):
    """The march's R in diagonal layout (a sweeper of one potential)."""
    data = np.zeros((sweeper.n + 1, sweeper.n + 1, 2, 2), dtype=complex)
    sweeper.sweep([data], solve=True)
    return to_diagonals(data)


def offdiagonal_defect(sweeper, rd, k):
    """Largest change of R_jk when the pass recomputes it from R_kk of ``rd``."""
    return sweeper.sweep([to_kernel_array(rd)], solve=False)[1, 0, k - 1]


def q_nodes(sweeper):
    """Q_jk on the grid, keyed (j, k), of a sweeper's first potential."""
    return {(2, 1): sweeper.qjk[0, 0], (1, 2): sweeper.qjk[0, 1]}


def gather_linear(values, base, offsets):
    """Linear interpolation of ``values`` at base[j] + offsets[l], shape
    (len(offsets), len(base)); out-of-range neighbours are clipped."""
    top = values.shape[0] - 1
    f = np.floor(offsets).astype(int)
    frac = offsets - f
    idx0 = np.clip(base[None, :] + f[:, None], 0, top)
    idx1 = np.clip(idx0 + 1, 0, top)
    return (1.0 - frac)[:, None] * values[idx0] + frac[:, None] * values[idx1]


def explicit_planes(sweeper):
    """The R_jk equations' source terms as (N+1, N+1) planes in diagonal
    layout, keyed (j, k): c0 times ``_source_rows`` on every diagonal."""
    npts = sweeper.n + 1
    planes = {}
    for k in (1, 2):
        plane = np.zeros((npts, npts), dtype=complex)
        for m in range(npts):
            plane[m, : npts - m] = sweeper._source_rows(m)[0, k - 1]
        planes[(3 - k, k)] = sweeper.c0[k - 1, 0] * plane
    return planes


def offdiagonal_oracle(sweeper, rd, k):
    """Per-node R_jk update: interpolate and integrate the whole path of
    every node (O(N^3) per sweep); reference for the line prefix sums."""
    n = sweeper.n
    j = 3 - k
    qjk = q_nodes(sweeper)[(j, k)]
    out = explicit_planes(sweeper)[(j, k)].copy()
    if not rd[(k, k)].any():
        return out
    aj, ak = sweeper.alpha[j], sweeper.alpha[k]
    coeff = -1j * sweeper.b[j] * aj * sweeper.h
    rkk = rd[(k, k)]
    for m in range(1, n + 1):
        base = np.arange(n - m + 1)
        ls = np.arange(m + 1)
        xi_off = ak * m + ls * aj  # Q positions (grid units)
        eta_off = ak * (m - ls)  # position along diagonal l
        qv = gather_linear(qjk, base, xi_off)
        fl = np.floor(eta_off).astype(int)
        frac = (eta_off - fl)[:, None]
        idx0 = np.clip(base[None, :] + fl[:, None], 0, n)
        idx1 = np.clip(idx0 + 1, 0, n)
        rv = (1.0 - frac) * rkk[ls[:, None], idx0] + frac * rkk[ls[:, None], idx1]
        w = np.ones(m + 1)
        w[0] = w[-1] = 0.5
        out[m, : n - m + 1] += coeff * np.einsum("l,lj->j", w, qv * rv)
    out[~valid_mask(n)] = 0.0
    return out


def gathered_crossings(sweeper, k, rflat, lines, diag):
    """Integrand Q_jk R_kk where ``lines`` cross the diagonals ``diag``
    (broadcast), each point located and interpolated on its own."""
    n = sweeper.n
    q, step = transformop._line_spacing(sweeper.alpha[k])
    coord = (lines - step * diag) / q
    whole = np.floor(coord)
    pos = whole.astype(np.intp)
    frac = coord - whole
    f = transformop._lerp_clamped(q_nodes(sweeper)[(3 - k, k)], 0, n, pos + diag, frac)
    f *= transformop._lerp_clamped(rflat, diag * (n + 1), n - diag, pos, frac)
    return f


def node_lines(sweeper, k, m, l):
    """Lower line and weight of the upper line of the nodes (m, l)."""
    q, step = transformop._line_spacing(sweeper.alpha[k])
    coord = q * l + step * m
    line = np.floor(coord)
    return line.astype(np.intp), coord - line


def gather_march(sweeper):
    """Reference march: every node's lines and every crossing located by a
    floor and interpolated by a gather, one diagonal at a time."""
    n = sweeper.n
    npts = n + 1
    idx = np.arange(npts)
    rd = {key: np.zeros((npts, npts), dtype=complex) for key in KEYS}
    for k in (1, 2):
        j = 3 - k
        q, step = transformop._line_spacing(sweeper.alpha[k])
        last = q * n
        explicit = explicit_planes(sweeper)[(j, k)]
        rkk, rjk = rd[(k, k)], rd[(j, k)]
        rflat = rkk.reshape(-1)
        coeff = -1j * sweeper.b[j] * sweeper.alpha[j] * sweeper.h
        diag_half = (-0.5j * sweeper.b[k] * sweeper.h) * q_nodes(sweeper)[(k, j)]
        end_half = (0.5 * coeff) * q_nodes(sweeper)[(j, k)]
        d = diag_half * end_half
        growth = np.ones(npts, dtype=complex)
        growth[1:] = (1.0 + d[:-1]) / (1.0 - d[1:])
        np.cumprod(growth, out=growth)
        scale = 1.0 / ((1.0 - d) * growth)
        sums = np.zeros(last + 2, dtype=complex)
        for m in range(npts):
            top = n - m
            line, w = node_lines(sweeper, k, m, idx[: top + 1])
            lower = sums[line]
            a = explicit[m, : top + 1] + coeff * (lower + w * (sums[line + 1] - lower))
            pa = diag_half[m:] * a
            x = rkk[m, : top + 1]
            if m:
                x[1:] = growth[m + 1 :] * np.cumsum((pa[:-1] + pa[1:]) * scale[m + 1 :])
                rjk[m, : top + 1] = a + end_half[m:] * x
            else:
                x[1:] = np.cumsum(pa[:-1] + pa[1:])
                rjk[m, : top + 1] = a
            if m == n:
                break
            lo = math.floor(step * (m + 1))
            hi = min(math.floor(q * (top - 1) + step * (m + 1)) + 1, last)
            f = gathered_crossings(sweeper, k, rflat, np.arange(lo, hi + 1), m)
            sums[lo : hi + 1] += f if m else 0.5 * f
    return rd


def block_offdiagonal(sweeper, rd, k):
    """Reference R_jk update: the crossings of every line with every
    diagonal as one table, a cumulative sum along each line over the
    diagonals before the node's, each node's two lines gathered from it,
    and the trapezoid's end term taken at the node."""
    n = sweeper.n
    j = 3 - k
    out = explicit_planes(sweeper)[(j, k)].copy()
    rkk = rd[(k, k)]
    if not rkk.any():
        return out
    q, _ = transformop._line_spacing(sweeper.alpha[k])
    coeff = -1j * sweeper.b[j] * sweeper.alpha[j] * sweeper.h
    f = gathered_crossings(sweeper, k, rkk.reshape(-1), np.arange(q * n + 1)[:, None], np.arange(n + 1))
    g = np.cumsum(f, axis=1) - f  # the diagonals before m, the first at half weight
    g[:, 1:] -= 0.5 * f[:, :1]
    m, l = np.nonzero(valid_mask(n))
    line, w = node_lines(sweeper, k, m, l)
    upper = np.minimum(line + 1, q * n)
    # the end term at the node itself, where its path ends (none on diagonal 0)
    end = np.where(m > 0, 0.5 * q_nodes(sweeper)[(j, k)][m + l] * rkk[m, l], 0.0)
    out[m, l] += coeff * ((1.0 - w) * g[line, m] + w * g[upper, m] + end)
    return out


def whole_plane_diagonal(sweeper, rd, k):
    """Reference R_kk update: the exact-node trapezoid along every diagonal
    of the whole plane at once, from the Hankel table H[m, l] = Q_kj(m + l)."""
    n = sweeper.n
    qkj = np.concatenate([q_nodes(sweeper)[(k, 3 - k)], np.zeros(n, dtype=complex)])
    g = np.lib.stride_tricks.sliding_window_view(qkj, n + 1) * rd[(3 - k, k)]
    out = np.cumsum(g, axis=1) - 0.5 * (g + g[:, :1])
    out *= -1j * sweeper.b[k] * sweeper.h
    out[~valid_mask(n)] = 0.0
    return out


def fixed_point_from_zero(sys, n, tol=transformop.DEFAULT_TOL, offdiagonal=block_offdiagonal, max_sweeps=200):
    """Reference R: Gauss-Seidel fixed-point sweeps of the discrete
    equations from the zero state, the diagonal planes refreshed first and
    R_jk by ``offdiagonal``, until the largest change drops below ``tol``."""
    sweeper = transformop._RSweeper([sys], n)
    rd = {key: np.zeros((n + 1, n + 1), dtype=complex) for key in KEYS}
    for _ in range(max_sweeps):
        increment = 0.0
        for k in (1, 2):
            upd = whole_plane_diagonal(sweeper, rd, k)
            increment = max(increment, float(np.abs(upd - rd[(k, k)]).max()))
            rd[(k, k)] = upd
        for k in (1, 2):
            upd = offdiagonal(sweeper, rd, k)
            increment = max(increment, float(np.abs(upd - rd[(3 - k, k)]).max()))
            rd[(3 - k, k)] = upd
        if increment < tol:
            return TriangularKernel(to_kernel_array(rd))
    raise AssertionError(f"no fixed point in {max_sweeps} sweeps (last increment {increment:.3e})")


def record_sweeps(monkeypatch):
    """(potentials, solve) of every ``_RSweeper`` pass, in order."""
    calls = []
    real = transformop._RSweeper.sweep
    monkeypatch.setattr(transformop._RSweeper, "sweep",
                        lambda self, datas, solve: calls.append((len(datas), solve)) or real(self, datas, solve))
    return calls


def dirac_trig_system(n, b1, b2):
    x = np.linspace(0, 1, n + 1)
    q12 = 0.3 * np.cos(2 * np.pi * x) + 0.2j * np.sin(4 * np.pi * x)
    q21 = 0.25 - 0.15j * np.cos(2 * np.pi * x) + 0.1 * np.sin(2 * np.pi * x)
    return DiracSystem(b1, b2, SampledFunction(q12), SampledFunction(q21))


def dense_assemble_K(r, pplus, pminus, n):
    """Reference K+/-: dense (N+1) x (N+1) products over the whole square,
    the trapezoid end weights at s = t and s = x subtracted afterwards."""
    h = 1.0 / n
    idx = np.arange(n + 1)
    rmat = r.data
    out = []
    for p in (pplus, pminus):
        data = rmat.copy()
        for b in (0, 1):
            col = p.samples[:, b]
            toep = np.tril(col[np.subtract.outer(idx, idx)])
            data[:, :, b, b] += toep
            for a in (0, 1):
                rab = rmat[:, :, a, b]
                prod = rab @ toep - (0.5 * col[0]) * rab - (0.5 * rab[idx, idx])[:, None] * toep
                data[:, :, a, b] += h * prod
        out.append(data)
    return out


def per_sign_solve_P(r, sys, n):
    """Reference P+/-: one forward substitution per sign, with a 2x2 solve
    at every node."""
    h = 1.0 / n
    rmat = r.data
    out = []
    for sign in (+1, -1):
        g = np.stack([-sign * rmat[:, 0, 0, 1] / sys.b2, -rmat[:, 0, 1, 0] / sys.b1], axis=1)
        v = np.zeros((n + 1, 2), dtype=complex)
        v[0] = g[0]
        for i in range(1, n + 1):
            w = np.ones(i)
            w[0] = 0.5
            acc = h * np.einsum("j,jab,jb->a", w, rmat[i, :i], v[:i])
            v[i] = np.linalg.solve(np.eye(2) + 0.5 * h * rmat[i, i], g[i] - acc)
        out.append(np.stack([sys.b1 * v[:, 0], sign * sys.b2 * v[:, 1]], axis=1))
    return out


def q21_zero_system(n, b1=-1.0, b2=1.0):
    x = np.linspace(0, 1, n + 1)
    q12 = SampledFunction((0.4 * np.sin(2 * np.pi * x) + 0.1j).astype(complex))
    return DiracSystem(b1, b2, q12, SampledFunction.zero(n))


# weights crossing rational and irrational line spacings, and one potential
# whose R, P and K have vanishing components
KERNEL_SYSTEMS = {
    "dirac": lambda n: dirac_trig_system(n, -1.0, 1.0),
    "b=(-1,2)": lambda n: dirac_trig_system(n, -1.0, 2.0),
    "b=(-1,sqrt2)": lambda n: dirac_trig_system(n, -1.0, math.sqrt(2.0)),
    "q21=0": q21_zero_system,
}

# rational line spacings q = 2, 3 and 4 with both orientations, and irrational ones
WEIGHT_PAIRS = ((-1.0, 1.0), (-1.0, 2.0), (-2.0, 1.0), (-1.0, 3.0), (-1.0, math.sqrt(2.0)), (-1.0, math.pi))

# the weight pairs, and a potential whose R_11 and R_21 vanish
STEP_SYSTEMS = {
    **{f"b=({b1:g},{b2:.4g})": (lambda n, b1=b1, b2=b2: smooth_potential(30, n, b1, b2, l1_norm=0.8))
       for b1, b2 in WEIGHT_PAIRS},
    "q21=0": q21_zero_system,
}


class TestSolveR:
    def test_zero_potential(self):
        r = solve_R(DiracSystem.zero(-1.0, 2.0, 64), 64)
        assert np.abs(r.data).max() == 0.0

    def test_q12_zero_closed_form(self):
        n = 128
        sys = q12_zero_system(n)
        r = solve_R(sys, n)
        r21, _, _ = closed_forms(sys, n)
        assert np.abs(r.data[:, :, 1, 0] - r21).max() < 5e-4
        for a, b in ((0, 0), (0, 1), (1, 1)):
            assert np.abs(r.data[:, :, a, b]).max() == 0.0

    def test_equation_residual_certificate(self):
        n = 64
        sys = smooth_potential(21, n, l1_norm=0.8)
        tol = 1e-10
        r = solve_R(sys, n, tol=tol)
        assert r_equation_residual(sys, r) <= tol

    def test_diagonal_layout_round_trip(self, rng):
        # diagonal m of R_kk and R_jk, k = 1, 2, indexes the kernel array's
        # nodes (i, j) = (m + l, l), l = 0..N-m: reads see them, writes land there
        for n in (8, 9):
            data = rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2))
            flat = data.reshape(-1)
            for m in (0, 1, n - 1, n):
                l = np.arange(n + 1 - m)
                nodes = transformop._diagonal_index(n + 1)[..., : n + 1 - m] + 4 * m * (n + 1)
                for k in (1, 2):
                    for row, a in enumerate((k, 3 - k)):
                        assert np.array_equal(flat[nodes[row, k - 1]], data[m + l, l, a - 1, k - 1])
                        new = rng.standard_normal(l.size) + 1j * rng.standard_normal(l.size)
                        want = data.copy()
                        want[m + l, l, a - 1, k - 1] = new
                        flat[nodes[row, k - 1]] = new
                        assert np.array_equal(data, want)

    @pytest.mark.parametrize("b", [(-1.0, 1.0), (-1.0, 2.0), (-2.0, 1.0), (-1.0, 3.0)])
    def test_line_sums_match_per_node_paths(self, b, rng):
        # R_jk set to the per-node path update of a random R_kk: the pass's
        # R_jk update departs from it by roundoff only
        n = 64
        sweeper = transformop._RSweeper([smooth_potential(24, n, *b)], n)
        rd = random_state(n, rng)
        for k in (1, 2):
            rd[(3 - k, k)] = offdiagonal_oracle(sweeper, rd, k)
        for k in (1, 2):
            assert offdiagonal_defect(sweeper, rd, k) <= 1e-13 * np.abs(rd[(3 - k, k)]).max()

    @pytest.mark.parametrize("b", [(-1.0, 1.0), (-1.0, 2.0)])
    def test_same_sweep_count_as_per_node_paths(self, b):
        # the check with the per-node path update certifies the march too
        n = 64
        sys = smooth_potential(25, n, *b, l1_norm=0.8)
        r, check = solve_R(sys, n, return_residual=True)
        sweeper = transformop._RSweeper([sys], n)
        rd = to_diagonals(r.data)
        ref_check = max(float(np.abs(offdiagonal_oracle(sweeper, rd, k) - rd[(3 - k, k)]).max()) for k in (1, 2))
        assert max(check, ref_check) <= 1e-14

    @pytest.mark.parametrize("b", [(-1.0, 1.0), (-1.0, 2.0), (-2.0, 1.0), (-1.0, 3.0), (-1.0, np.sqrt(2.0))])
    def test_march_reaches_the_swept_fixed_point(self, b):
        n = 64
        tol = transformop.DEFAULT_TOL
        sys = smooth_potential(26, n, *b, l1_norm=0.8)
        ref = fixed_point_from_zero(sys, n, tol)
        assert np.abs(solve_R(sys, n).data - ref.data).max() <= 10 * tol

    @pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
    def test_march_needs_one_sweep(self, name, monkeypatch):
        # the march solves the discrete equations, irrational alpha_k
        # included, so solve_R makes one pass over both alpha_k and the
        # defect it measures on the way is roundoff
        n = 64
        sys = STEP_SYSTEMS[name](n)
        calls = record_sweeps(monkeypatch)
        _, check = solve_R(sys, n, return_residual=True)
        assert calls == [(1, True)]
        assert check <= 1e-14

    @pytest.mark.parametrize("n", [8, 65])
    @pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
    def test_check_is_the_equation_residual(self, name, n):
        # the defect the march measures is the substitution check at its R
        sys = STEP_SYSTEMS[name](n)
        r, check = solve_R(sys, n, return_residual=True)
        assert check == r_equation_residual(sys, r)

    def test_irrational_line_interpolation_is_second_order(self):
        # between-line interpolation departs from the per-node paths at
        # O(h^2); dropping it (nearest line) would halve the gap per refinement
        b1, b2 = -1.0, np.sqrt(2.0)
        gaps = {}
        for n in (32, 64):
            sys = dirac_trig_system(n, b1, b2)
            r = solve_R(sys, n)
            ref = fixed_point_from_zero(sys, n, offdiagonal=offdiagonal_oracle)
            gaps[n] = np.abs(r.data - ref.data).max()
        assert gaps[64] <= 2e-6
        assert gaps[32] / gaps[64] >= 3.0, gaps

    def test_irrational_weight_ratio_converges(self):
        # b2/b1 = -sqrt(2): no characteristic line runs through the grid
        # nodes, which interpolate between lines half a cell apart.  The
        # per-node path integral gave 1.02e-4 and 2.57e-5 at N = 128, 256.
        b1, b2 = -1.0, np.sqrt(2.0)
        bc = BoundaryConditions.from_canonical(0.4, 0.3, -0.2, 1.2)
        lams = np.array([complex(re, im) for re in np.linspace(-20, 20, 20) for im in np.linspace(-2, 2, 10)])
        fine = 2048
        ref = char_det_direct(dirac_trig_system(fine, b1, b2), bc, lams, fine)
        errors = {}
        for n in (128, 256):
            ks = build_kernels(dirac_trig_system(n, b1, b2), n)
            ev = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), b1, b2)
            errors[n] = np.abs(ev(lams) - ref).max()
        assert errors[256] <= 1e-3
        assert errors[256] <= 2 * 2.57e-5
        assert errors[128] / errors[256] >= 2.5, errors

    @pytest.mark.parametrize("b", [(-1.0, 1.0), (-1.0, 2.0), (-2.0, 1.0), (-1.0, math.sqrt(2.0)), (-1.0, math.pi)])
    @pytest.mark.parametrize("n", [8, 65])
    def test_explicit_term_is_the_per_node_interpolation(self, b, n):
        # one interpolation weight per diagonal gives the same bits as
        # interpolating Q_jk at every node l + alpha_k m
        sys = dirac_trig_system(n, *b)
        sweeper = transformop._RSweeper([sys], n)
        idx = np.arange(n + 1)
        for k in (1, 2):
            j = 3 - k
            c0 = 1j * sweeper.b[j] * sweeper.b[k] / (sweeper.b[j] - sweeper.b[k])
            shift = sweeper.alpha[k] * idx[:, None]
            whole = np.floor(shift)
            expl = transformop._lerp_clamped(q_nodes(sweeper)[(j, k)], 0, n, idx + whole.astype(np.intp), shift - whole)
            expl[~valid_mask(n)] = 0.0
            assert (c0 * expl).tobytes() == explicit_planes(sweeper)[(j, k)].tobytes()

    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    @pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
    def test_march_matches_the_gathered_march(self, name, n):
        # one weight per diagonal and strided line reads give the per-node
        # floors and gathers' numbers, irrational line interpolation included
        sweeper = transformop._RSweeper([STEP_SYSTEMS[name](n)], n)
        got, ref = march_state(sweeper), gather_march(sweeper)
        scale = max(np.abs(arr).max() for arr in ref.values())
        for key in ref:
            assert np.abs(got[key] - ref[key]).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    @pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
    def test_offdiagonal_matches_the_block_update(self, name, n, rng):
        # R_jk set to the block update of R_kk (R_11 random): the pass's
        # R_jk update departs from it by roundoff only
        sweeper = transformop._RSweeper([STEP_SYSTEMS[name](n)], n)
        rd = march_state(sweeper)
        rd[(1, 1)] = random_state(n, rng)[(1, 1)]
        for k in (1, 2):
            rd[(3 - k, k)] = block_offdiagonal(sweeper, rd, k)
        for k in (1, 2):
            assert offdiagonal_defect(sweeper, rd, k) <= 1e-14 * np.abs(rd[(3 - k, k)]).max()

    @pytest.mark.parametrize("name", sorted(STEP_SYSTEMS))
    def test_same_sweeps_as_the_gathered_step(self, name):
        # the gathered march is certified by the check, the strided march by
        # the block R_jk update, and both agree on R
        n = 64
        sys = STEP_SYSTEMS[name](n)
        r, check = solve_R(sys, n, return_residual=True)
        sweeper = transformop._RSweeper([sys], n)
        ref = TriangularKernel(to_kernel_array(gather_march(sweeper)))
        rd = to_diagonals(r.data)
        block_check = max(float(np.abs(block_offdiagonal(sweeper, rd, k) - rd[(3 - k, k)]).max()) for k in (1, 2))
        assert max(check, r_equation_residual(sys, ref), block_check) <= 1e-14
        assert np.abs(r.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()

    def test_check_below_its_roundoff_is_refused(self, monkeypatch):
        # no iteration certifies R below the check's own roundoff: one pass
        # over both alpha_k, then IterationLimitError naming the check and
        # max |R| (the sweep loop ran all 200 sweeps here before raising)
        n = 64
        sys = smooth_potential(26, n, -1.0, math.sqrt(2.0), l1_norm=0.8)
        calls = record_sweeps(monkeypatch)
        with pytest.raises(IterationLimitError, match=r"tol=1e-300 .*max\|R\| = ") as err:
            solve_R(sys, n, tol=1e-300)
        assert calls == [(1, True)]
        assert 0.0 < err.value.residual <= 1e-14

    def test_check_is_relative_to_the_size_of_R(self):
        # an R of 1e6 good to roundoff has a check of 4e-10, above tol
        # itself: the tolerance scales with max(1, max |R|)
        n = 64
        sys = smooth_potential(30, n, -1.0, 2.0, l1_norm=60)
        r, check = solve_R(sys, n, return_residual=True)
        size = np.abs(r.data).max()
        assert size > 1e5
        assert transformop.DEFAULT_TOL < check <= 1e-15 * size
        with pytest.raises(IterationLimitError, match="tol=1e-300") as err:
            solve_R(sys, n, tol=1e-300)
        assert err.value.residual == check

    def test_non_finite_R_is_refused(self):
        # a NaN in Q spreads through R, and so into the check: R is refused
        # (a check that dropped NaN read 0.0 and accepted it)
        n = 16
        q = np.full(n + 1, 0.1 + 0j)
        bad = q.copy()
        bad[5] = np.nan
        sys = DiracSystem(-1.0, 1.0, SampledFunction(q), SampledFunction(bad))
        with np.errstate(invalid="ignore"), pytest.raises(IterationLimitError) as err:
            solve_R(sys, n)
        assert math.isnan(err.value.residual)

    def test_check_is_the_jacobi_substitution(self, rng):
        # every update reads the input state only, R_kk included, and the
        # state is left as it was
        n = 32
        sweeper = transformop._RSweeper([STEP_SYSTEMS["b=(-1,2)"](n)], n)
        rd = random_state(n, rng)
        data = to_kernel_array(rd)
        before = data.copy()
        worst = sweeper.sweep([data], solve=False)
        for k in (1, 2):
            kk, jk = worst[:2, 0, k - 1]
            assert kk == np.abs(whole_plane_diagonal(sweeper, rd, k) - rd[(k, k)]).max()
            assert jk == pytest.approx(np.abs(block_offdiagonal(sweeper, rd, k) - rd[(3 - k, k)]).max(), rel=1e-12)
        assert np.array_equal(data, before)

    def test_peak_allocation(self):
        # the returned R is one dense kernel of 64 (N+1)^2 bytes, which the
        # march fills in place; its tables and one diagonal's temporaries
        # are O(q N).  Marched into diagonal planes and then copied, R put
        # the peak at 2.00
        n = 512
        sys = smooth_potential(29, n, l1_norm=0.8)
        tracemalloc.start()
        try:
            r = solve_R(sys, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del r
        assert peak <= 1.2 * 64 * (n + 1) ** 2

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            solve_R(DiracSystem.zero(-1.0, 1.0, 4), 4)


def march_rows(systems, n):
    """Kernel arrays of one march over ``systems`` and its per-row maxima
    (R_kk defect, R_jk defect, max |R|) x potential x weight."""
    datas = [np.zeros((n + 1, n + 1, 2, 2), dtype=complex) for _ in systems]
    return datas, transformop._RSweeper(systems, n).sweep(datas, solve=True)


class TestRowMarch:
    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    @pytest.mark.parametrize("b", WEIGHT_PAIRS, ids=lambda b: f"b=({b[0]:g},{b[1]:.4g})")
    def test_stack_equals_one_potential_builds(self, b, n):
        # each row of a stacked march runs a one-potential march's
        # operations: R, its check and max |R|, K+/- and their traces at
        # x = 1 of 1 to 4 distinct potentials are bitwise those of
        # one-potential builds
        systems = [smooth_potential(seed, n, *b, l1_norm=0.8) for seed in (60, 61, 62, 63)]
        singles = [build_kernels(sys, n) for sys in systems]
        single_rows = [march_rows([sys], n)[1][:, 0] for sys in systems]
        for count in range(1, 5):
            datas, rows = march_rows(systems[:count], n)
            for data, row, ref, ref_row in zip(datas, rows.transpose(1, 0, 2), singles, single_rows):
                assert data.tobytes() == ref.r.data.tobytes()
                assert row.tobytes() == ref_row.tobytes()
            kdatas, _ = transformop._march([sys for sys in systems[:count] for _ in (1, -1)], [1, -1] * count, n,
                                           transformop.DEFAULT_TOL)
            traces, _ = transformop._kernel_traces(systems[:count], n)
            for kplus, kminus, (tplus, tminus), ref in zip(kdatas[0::2], kdatas[1::2], traces, singles):
                assert kplus.tobytes() == ref.kplus.data.tobytes()
                assert kminus.tobytes() == ref.kminus.data.tobytes()
                assert tplus.tobytes() == ref.kplus.data[n].tobytes()
                assert tminus.tobytes() == ref.kminus.data[n].tobytes()

    @pytest.mark.parametrize("n", [8, 65])
    @pytest.mark.parametrize("b", WEIGHT_PAIRS, ids=lambda b: f"b=({b[0]:g},{b[1]:.4g})")
    def test_check_over_rows_is_the_equation_residual(self, b, n):
        # the check run over a stack reads each R back: its R_jk defect is
        # zero, its R_kk defect the march's own, and each potential's check
        # is r_equation_residual at its R
        systems = [smooth_potential(seed, n, *b, l1_norm=0.8) for seed in (64, 65, 66)]
        datas, marched = march_rows(systems, n)
        checked = transformop._RSweeper(systems, n).sweep(datas, solve=False)
        assert not checked[1].any()
        assert checked[0].tobytes() == marched[0].tobytes()
        for s, (sys, data) in enumerate(zip(systems, datas)):
            assert r_equation_residual(sys, TriangularKernel(data)) == checked[:2, s].max()

    def test_weights_whose_spacings_disagree_share_half_unit_lines(self):
        # b2 = 2 (1 - 4.5e-13): alpha_1 lies within 1e-13 of 2/3 (q = 3)
        # and alpha_2 just outside it (q = 2); the rows share one q, so both
        # take half-unit lines, and R still solves its discrete equations
        # and stays within the interpolation's O(h^2) of the R at b2 = 2
        n = 64
        b2 = 1.9999999999990996
        alpha1, alpha2 = b2 / (b2 + 1.0), 1.0 / (b2 + 1.0)
        assert transformop._line_spacing(alpha1)[0] == 3 and transformop._line_spacing(alpha2)[0] == 2
        sys = smooth_potential(30, n, -1.0, b2, l1_norm=0.8)
        r, check = solve_R(sys, n, return_residual=True)
        assert transformop._RSweeper([sys], n).q == 2
        assert check <= 1e-14 and check == r_equation_residual(sys, r)
        ref = solve_R(smooth_potential(30, n, -1.0, 2.0, l1_norm=0.8), n)
        assert np.abs(r.data - ref.data).max() <= 1e-4 * np.abs(ref.data).max()

    def test_stacked_potentials_share_the_weights(self):
        n = 16
        with pytest.raises(ValueError, match="same weights"):
            transformop._kernel_traces([smooth_potential(1, n, -1.0, 2.0), smooth_potential(2, n, -1.0, 3.0)], n)


class TestSolveP:
    def test_zero_rhs(self):
        n = 32
        sys = DiracSystem.zero(-1.0, 1.0, n)
        r = solve_R(sys, n)
        pp, pm, res = solve_P(r, sys, n)
        assert np.abs(pp.samples).max() == 0.0
        assert np.abs(pm.samples).max() == 0.0
        assert res == 0.0

    def test_q12_zero_closed_form(self):
        n = 128
        sys = q12_zero_system(n)
        r = solve_R(sys, n)
        pp, pm, res = solve_P(r, sys, n)
        _, p2, _ = closed_forms(sys, n)
        assert res < 1e-12
        assert np.abs(pp.samples[:, 1] - p2).max() < 5e-4
        assert np.abs(pm.samples[:, 1] + p2).max() < 5e-4
        assert np.abs(pp.samples[:, 0]).max() == 0.0

    def test_discrete_system_residual_random(self):
        n = 64
        sys = smooth_potential(22, n, l1_norm=1.0)
        r = solve_R(sys, n)
        _, _, res = solve_P(r, sys, n)
        assert res < 1e-12

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    @pytest.mark.parametrize("n", [8, 65, 129])
    def test_matches_per_sign_substitution(self, name, n):
        sys = KERNEL_SYSTEMS[name](n)
        r = solve_R(sys, n)
        pp, pm, _ = solve_P(r, sys, n)
        for got, ref in zip((pp.samples, pm.samples), per_sign_solve_P(r, sys, n)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestAssembleK:
    def test_zero(self):
        n = 32
        sys = DiracSystem.zero(-1.0, 1.0, n)
        ks = build_kernels(sys, n)
        assert np.abs(ks.kplus.data).max() == 0.0
        assert np.abs(ks.kminus.data).max() == 0.0

    def test_q12_zero_closed_form(self):
        n = 128
        sys = q12_zero_system(n)
        ks = build_kernels(sys, n)
        r21, _, k22 = closed_forms(sys, n)
        assert np.abs(ks.kplus.data[:, :, 1, 0] - r21).max() < 5e-4
        assert np.abs(ks.kplus.data[:, :, 1, 1] - k22).max() < 5e-4
        assert np.abs(ks.kminus.data[:, :, 1, 1] + k22).max() < 5e-4
        assert np.abs(ks.kplus.data[:, :, 0, 0]).max() == 0.0

    def test_boundary_relation(self):
        # K(x,0) B^{-1} (1, +/-1)^T = 0 at every x node: the march starts
        # each diagonal's K_kk from it, so it holds to roundoff
        n = 96
        for b2 in (1.0, 2.0, math.sqrt(2.0)):
            sys = smooth_potential(23, n, -1.0, b2, l1_norm=1.2)
            ks = build_kernels(sys, n, tol=1e-10)
            assert ks.residuals["K_boundary"] < 1e-13

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    @pytest.mark.parametrize("n", [8, 63, 64, 65, 129])
    def test_triangular_blocks_match_dense_products(self, name, n):
        # the grid sizes put block edges on, just before and just after N
        sys = KERNEL_SYSTEMS[name](n)
        r = solve_R(sys, n)
        pp, pm, _ = solve_P(r, sys, n)
        for got, ref in zip(assemble_K(r, pp, pm, n), dense_assemble_K(r, pp, pm, n)):
            assert np.abs(got.data - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_diagonal_is_r_plus_p_at_zero(self, name):
        # the one-point path s = t = x adds nothing: K(x, x) = R(x, x) + P(0)
        n = 65
        sys = KERNEL_SYSTEMS[name](n)
        r = solve_R(sys, n)
        pp, pm, _ = solve_P(r, sys, n)
        idx = np.arange(n + 1)
        for k, p in zip(assemble_K(r, pp, pm, n), (pp, pm)):
            assert np.array_equal(k.data[idx, idx], r.data[idx, idx] + np.diag(p.samples[0]))

    def test_peak_allocation(self, rng):
        # K+ and K- are two dense kernels of 64 (N+1)^2 bytes; the blocks
        # add about 0.15 more, where dense products with full-size
        # corrections put the peak at about 2.5
        n = 512
        shape = (n + 1, n + 1, 2, 2)
        r = TriangularKernel(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        pp, pm = (SampledFunction(rng.standard_normal((n + 1, 2)) + 1j * rng.standard_normal((n + 1, 2)))
                  for _ in range(2))
        tracemalloc.start()
        try:
            kernels = assemble_K(r, pp, pm, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del kernels
        assert peak <= 2.35 * 64 * (n + 1) ** 2


class TestKMarch:
    @pytest.mark.parametrize("b2, ratio", [(1.0, 3.5), (2.0, 3.5), (math.sqrt(2.0), 3.0)],
                             ids=["dirac", "b=(-1,2)", "b=(-1,sqrt2)"])
    def test_converges_to_the_oracle(self, b2, ratio):
        # the march and R + P + R o P are both O(h^2) routes to K, so their
        # gap falls about 4x per grid doubling (4.00, 4.00 and 3.6 read)
        gaps = {}
        for n in (128, 256):
            sys = smooth_potential(11, n, -1.0, b2, l1_norm=0.8)
            ks = build_kernels(sys, n)
            gaps[n] = max(np.abs(got.data - ref.data).max() for got, ref in zip((ks.kplus, ks.kminus), oracle_K(sys, n)))
        assert gaps[128] / gaps[256] >= ratio, gaps

    @pytest.mark.parametrize("b2", [1.0, 2.0, math.sqrt(2.0)], ids=["dirac", "two", "sqrt2"])
    def test_trace_route_is_the_dense_route(self, b2):
        # a row's bits do not depend on the stack around it, so K+/-(1, .)
        # kept from a march of K rows alone give the evaluator fed the
        # dense K+/- of build_kernels bitwise, and the kernel route of
        # zeros_deltaQ the same window
        n = 64
        systems = [smooth_potential(seed, n, -1.0, b2, l1_norm=0.8) for seed in (70, 71, 72)]
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        lams = (np.linspace(-30, 30, 31)[:, None] + 1j * np.linspace(-2, 2, 5)).ravel()
        for sys, traces in zip(systems, transformop._kernel_traces(systems, n)[0]):
            ks = build_kernels(sys, n)
            dense = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)
            kept = transformop._trace_evaluator(bc, *traces, sys.b1, sys.b2)
            for got, ref in zip(kept(lams, slope=True), dense(lams, slope=True)):
                assert got.tobytes() == ref.tobytes()
            assert np.array_equal(kept.slope_bound(-1.0, 2.0), dense.slope_bound(-1.0, 2.0))
        kernels, given = (zeros_deltaQ(sys, bc, 4, n_grid=n, determinant=route, allow_nonstrict=True) for route in ("kernels", dense))
        assert kernels == given

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_streamed_deviation_is_x_norm_of_the_difference(self, p):
        n = 64
        systems = [smooth_potential(seed, n, -1.0, 2.0, l1_norm=0.8) for seed in (73, 74, 75, 76)]
        _, deviations = transformop._kernel_traces(systems, n, p)
        for sys_a, sys_b, dev in zip(systems[0::2], systems[1::2], deviations):
            ka, kb = build_kernels(sys_a, n), build_kernels(sys_b, n)
            for family, got in zip(("infinity", "one"), dev):
                ref = max(x_norm(TriangularKernel(getattr(ka, name).data - getattr(kb, name).data), family, p)
                          for name in ("kplus", "kminus"))
                assert abs(got - ref) <= 1e-13 * ref

    def test_check_reads_the_march_back(self):
        # the check over K rows takes each K_kk from the boundary relation's
        # start value: at the march state it reads the march's own K_kk
        # defect and no K_jk one; K_kk(x, 0) = 0, R's start, is a defect
        n = 33
        sys = smooth_potential(77, n, -1.0, 2.0, l1_norm=0.8)
        datas = [np.zeros((n + 1, n + 1, 2, 2), dtype=complex) for _ in range(2)]
        marched = transformop._RSweeper([sys, sys], n, [1, -1]).sweep(datas, solve=True)
        checked = transformop._RSweeper([sys, sys], n, [1, -1]).sweep(datas, solve=False)
        assert not checked[1].any()
        assert checked[0].tobytes() == marched[0].tobytes() and checked[0].max() <= 1e-15
        for data in datas:
            data[:, 0, 0, 0] = data[:, 0, 1, 1] = 0.0
        assert transformop._RSweeper([sys, sys], n, [1, -1]).sweep(datas, solve=False)[0].min() > 1e-3

    def test_check_below_its_roundoff_is_refused(self):
        n = 32
        sys = smooth_potential(26, n, -1.0, 2.0, l1_norm=0.8)
        with pytest.raises(IterationLimitError, match=r"tol=1e-300 .*max\|K\+\| = ") as err:
            transformop._kernel_traces([sys], n, tol=1e-300)
        assert 0.0 < err.value.residual <= 1e-14


class TestReconstruction:
    @pytest.mark.parametrize("lam", [0.0, 5.0, 10.0 + 1.0j])
    def test_matches_ode_solution(self, lam):
        n = 256
        sys = smooth_potential(31, n, l1_norm=1.0)
        ks = build_kernels(sys, n)
        for sign, kern in ((+1, ks.kplus), (-1, ks.kminus)):
            rec = reconstruct_e(kern, sys, sign, lam)
            ode = e_pm(sys, lam, sign, n)
            assert np.abs(rec.samples - ode.samples).max() < 1e-4

    def test_free_system_exact(self):
        n = 64
        sys = DiracSystem.zero(-1.0, 1.0, n)
        ks = build_kernels(sys, n)
        rec = reconstruct_e(ks.kplus, sys, +1, 3.0)
        x = np.linspace(0, 1, n + 1)
        assert np.abs(rec.samples[:, 0] - np.exp(-3j * x)).max() < 1e-14

    def test_q12_zero_lambda_zero_closed_form(self):
        # at lam = 0 the perturbed solution is explicit:
        # e_pm = (1, +/-1 - i b2 int_0^x Q21 dt)^T
        n = 256
        sys = q12_zero_system(n, b2=1.0)
        ks = build_kernels(sys, n)
        x = np.linspace(0, 1, n + 1)
        integral = np.sin(2 * np.pi * x) / (2 * np.pi)  # int_0^x cos(2 pi t) dt
        for sign, kern in ((+1, ks.kplus), (-1, ks.kminus)):
            rec = reconstruct_e(kern, sys, sign, 0.0)
            assert np.abs(rec.samples[:, 0] - 1.0).max() < 1e-12
            expected = sign - 1j * 1.0 * integral
            assert np.abs(rec.samples[:, 1] - expected).max() < 1e-4

    def test_second_order_grid_convergence(self):
        # halving the step should roughly quarter the reconstruction error
        fine = 2048
        sys = smooth_potential(33, fine, l1_norm=0.8)
        lam = 4.0
        ref = e_pm(sys, lam, +1, fine)
        errors = {}
        for n in (64, 128, 256):
            ks = build_kernels(sys, n)
            rec = reconstruct_e(ks.kplus, sys, +1, lam)
            step = fine // n
            errors[n] = np.abs(rec.samples - ref.samples[::step]).max()
        for n in (64, 128):
            assert errors[n] / errors[2 * n] > 2.5, errors


class TestCombos:
    def test_q12_zero_entries(self):
        n = 128
        sys = q12_zero_system(n)
        ks = build_kernels(sys, n)
        ck = combos(ks.kplus, ks.kminus)
        r21, _, k22 = closed_forms(sys, n)
        assert np.abs(ck.get(2, 1, 1) - r21).max() < 5e-4
        assert np.abs(ck.get(2, 2, 1) - k22).max() < 5e-4
        for j, l, k in ((1, 1, 1), (1, 2, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)):
            assert np.abs(ck.get(j, l, k)).max() < 1e-12

    def test_equal_kernels_cancel_odd_combos(self):
        n = 32
        data = np.random.default_rng(0).standard_normal((n + 1, n + 1, 2, 2))
        k = TriangularKernel(data.astype(complex))
        ck = combos(k, k)
        # (-1)^{l+k} = -1 terms vanish when K+ = K-
        assert np.abs(ck.get(1, 1, 2)).max() == 0.0
        assert np.abs(ck.get(1, 2, 1)).max() == 0.0

    def test_phi_reconstruction_identity(self):
        # column reconstruction via combos == (e+ +/- e-)/2, and both match
        # the fundamental matrix
        n = 256
        sys = smooth_potential(41, n, l1_norm=1.0)
        ks = build_kernels(sys, n)
        ck = combos(ks.kplus, ks.kminus)
        lam = 4.0 - 0.5j
        x = np.linspace(0, 1, n + 1)
        h = 1.0 / n
        ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        w = np.where(jj <= ii, h, 0.0)
        w[:, 0] *= 0.5
        w[ii == jj] *= 0.5
        w[0, :] = 0.0
        e_b1 = np.exp(1j * sys.b1 * lam * x)
        e_b2 = np.exp(1j * sys.b2 * lam * x)
        phi_cols = np.zeros((n + 1, 2, 2), dtype=complex)
        for k in (1, 2):
            free = e_b1 if k == 1 else e_b2
            for j in (1, 2):
                delta_jk = 1.0 if j == k else 0.0
                phi_cols[:, j - 1, k - 1] = (
                    delta_jk * free + (w * ck.get(j, 1, k)) @ e_b1 + (w * ck.get(j, 2, k)) @ e_b2
                )
        ep = reconstruct_e(ks.kplus, sys, +1, lam).samples
        em = reconstruct_e(ks.kminus, sys, -1, lam).samples
        # exact linear-algebra identity at the discrete level
        assert np.abs(phi_cols[:, :, 0] - 0.5 * (ep + em)).max() < 1e-10
        assert np.abs(phi_cols[:, :, 1] - 0.5 * (ep - em)).max() < 1e-10
        phi = fundamental_matrix(sys, lam, n)
        assert np.abs(phi_cols - phi.values).max() < 1e-3


class TestDetViaKernels:
    def test_free_system_gives_delta0(self):
        n = 64
        sys = DiracSystem.zero(-1.0, 1.0, n)
        ks = build_kernels(sys, n)
        ck = combos(ks.kplus, ks.kminus)
        quad = (0.4, 0.1, -0.2, 1.3)
        bc = BoundaryConditions.from_canonical(*quad)
        for lam in (0.0, 3.0, 6.0 - 1.0j):
            assert abs(determinant_evaluator(bc, ck, -1.0, 1.0)(lam) - delta0(quad, -1.0, 1.0, lam)) < 1e-12

    def test_q12_zero_b_zero_reduces_to_delta0(self):
        n = 128
        sys = q12_zero_system(n)
        ks = build_kernels(sys, n)
        ck = combos(ks.kplus, ks.kminus)
        quad = (1.0, 0.0, 0.4, 1.0)
        bc = BoundaryConditions.from_canonical(*quad)
        for lam in (1.0, 4.0 + 0.2j):
            assert abs(determinant_evaluator(bc, ck, -1.0, 1.0)(lam) - delta0(quad, -1.0, 1.0, lam)) < 1e-13

    def test_vectorized_evaluator(self):
        n = 64
        sys = smooth_potential(43, n, l1_norm=0.5)
        ks = build_kernels(sys, n)
        bc = BoundaryConditions.from_canonical(0.4, 0.1, -0.2, 1.3)
        ev = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)
        lams = np.array([1.0, 2.0 + 0.5j, -3.0])
        batch = ev(lams)
        single = np.array([ev(l) for l in lams])
        assert np.abs(batch - single).max() < 1e-14

    def test_slope_is_the_derivative(self):
        n = 128
        sys = smooth_potential(44, n, b1=-1.0, b2=2.0, l1_norm=0.8)
        ks = build_kernels(sys, n)
        bc = BoundaryConditions.from_canonical(0.4, 0.3, -0.2, 1.2)
        ev = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)
        lams = np.array([complex(re, im) for re in np.linspace(-20, 20, 9) for im in (-1.5, 0.0, 1.0)])
        value, slope = ev(lams, slope=True)
        assert np.array_equal(value, ev(lams))
        step = 1e-6 * (1.0 + np.abs(lams))
        central = (ev(lams + step) - ev(lams - step)) / (2 * step)
        assert np.abs(slope - central).max() <= 1e-6 * np.abs(slope).max()
        scalar = ev(2.0 - 0.5j, slope=True)
        assert all(isinstance(v, complex) for v in scalar)
        assert scalar == (ev(2.0 - 0.5j), complex(ev(np.array([2.0 - 0.5j]), slope=True)[1][0]))

    @settings(max_examples=8, deadline=None)
    @given(
        coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=10, max_size=10),
        l1_norm=st.floats(0.01, 0.8),
    )
    def test_kernel_route_matches_rk4_for_drawn_potentials(self, coeffs, l1_norm):
        # trig potentials sum_{|m| <= 2} c_m e^{2 pi i m x} / (1 + |m|)^2 per
        # entry, scaled to ||Q||_1 = l1_norm; Dirac weights, N = 256, and
        # criterion 03's bc, lambda grid and bound
        n = 256
        x = np.linspace(0.0, 1.0, n + 1)
        harmonics = np.arange(-2, 3)
        waves = np.exp(2j * np.pi * np.outer(x, harmonics)) / (1.0 + np.abs(harmonics)) ** 2
        c = np.array([complex(re, im) for re, im in coeffs])
        sys = DiracSystem(-1.0, 1.0, SampledFunction(waves @ c[:5]), SampledFunction(waves @ c[5:]))
        norm = potential_diff_norm(sys, DiracSystem.zero(-1.0, 1.0, n), 1, n)
        assume(norm > 1e-6)
        scale = l1_norm / norm
        sys = DiracSystem(-1.0, 1.0, sys.q12.scale(scale), sys.q21.scale(scale))
        bc = BoundaryConditions.from_canonical(0.4, 0.3, -0.2, 1.2)
        lams = (np.linspace(-20, 20, 20)[:, None] + 1j * np.linspace(-2, 2, 10)).ravel()
        ks = build_kernels(sys, n)
        via_kernels = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)(lams)
        assert np.abs(via_kernels - char_det_direct(sys, bc, lams, n)).max() <= 1e-3

    def test_power_table_matches_exponentials(self):
        # e^{i b lam t_j}, j = aB + r, as the giant power (z^B)^a times the
        # baby power z^r, both running products of z = e^{i b lam h}
        n = 1024
        base = math.isqrt(n) + 1
        blocks = -(-(n + 1) // base)
        t = np.linspace(0.0, 1.0, n + 1)
        rng = np.random.default_rng(5)
        lams = rng.uniform(-300, 300, 64) + 1j * rng.uniform(-2, 2, 64)
        for b in (-1.0, np.sqrt(2.0), 3.0):
            z = np.exp(1j * b / n * lams)
            baby = transformop._step_powers(z, base)
            giant = transformop._step_powers(baby[-1] * z, blocks)
            table = (giant[:, None, :] * baby[None, :, :]).reshape(blocks * base, lams.size)[: n + 1].T
            ref = np.exp(1j * b * np.multiply.outer(lams, t))
            assert np.abs(table / ref - 1.0).max() <= 1e-12

    def test_step_powers_match_the_running_cumprod(self):
        # row-wise multiplies may fuse a multiply-add where np.cumprod does
        # not, so the bits differ, but only by a few ulps
        rng = np.random.default_rng(6)
        lams = rng.uniform(-300, 300, 64) + 1j * rng.uniform(-2, 2, 64)
        for count in (1, 2, 3, 12, 33):
            z = np.exp(1j * np.array([-1.0, np.sqrt(2.0)])[:, None] / 128 * lams)
            ref = np.empty((2, count, lams.size), dtype=complex)
            ref[:, 0] = 1.0
            ref[:, 1:] = z[:, None]
            np.cumprod(ref, axis=1, out=ref)
            assert np.abs(transformop._step_powers(z, count) / ref - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("b2", [1.0, 2.0, np.sqrt(2.0)], ids=["dirac", "two", "sqrt2"])
    @pytest.mark.parametrize("n", [8, 63, 64, 128, 512])
    def test_baby_giant_steps_match_the_power_table(self, n, b2):
        # the same trace sums as one (L, N+1) table of z^j times the
        # weights, for B (N+1) a perfect square or not, on a small circle
        # and on a wide grid; every array call agrees with the scalar calls
        sys = smooth_potential(11, n, b1=-1.0, b2=b2, l1_norm=0.8)
        ks = build_kernels(sys, n)
        ck = combos(ks.kplus, ks.kminus)
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        ev = determinant_evaluator(bc, ck, sys.b1, sys.b2)
        table = power_table_evaluator(bc, ck, sys.b1, sys.b2)
        circle = 3.0 + 0.4 * np.exp(2j * np.pi * np.arange(256) / 256)
        grid = (np.linspace(-600, 600, 121)[:, None] + 1j * np.linspace(-3, 3, 7)).ravel()
        for lams in (circle, grid):
            value, slope = ev(lams, slope=True)
            ref_value, ref_slope = table(lams)
            assert np.abs(value / ref_value - 1.0).max() <= 1e-13
            assert np.abs(slope / ref_slope - 1.0).max() <= 1e-13
            assert np.array_equal(value, ev(lams))
            pointwise = np.array([ev(lam, slope=True) for lam in lams[::9]])
            assert np.abs(pointwise[:, 0] / value[::9] - 1.0).max() <= 1e-14
            assert np.abs(pointwise[:, 1] / slope[::9] - 1.0).max() <= 1e-14


def power_table_evaluator(bc, ck, b1, b2):
    """Reference route: one (L, N+1) table of z^j, z = e^{i b_l lam h}, by
    a running product, and one matrix product per weight; returns
    (Delta_Q, Delta_Q') for a 1-d array of lam."""
    m = minors(bc)
    n = ck.n
    h = 1.0 / n
    t = np.linspace(0.0, 1.0, n + 1)
    w = _trapezoid_weights(n)
    kp, km = ck.kplus.data[n], ck.kminus.data[n]
    terms = []
    for l, b in ((1, b1), (2, b2)):
        g = sum(
            m[r, c] * transformop._combo(kp, km, j, l, k)
            for (r, c), j, k in (((3, 2), 1, 1), ((4, 2), 2, 1), ((1, 3), 1, 2), ((1, 4), 2, 2))
        )
        wg = h * w * g
        terms.append((b * h, np.stack([wg, 1j * b * t * wg], axis=1)))

    def delta(lam):
        powers = np.empty((lam.size, n + 1), dtype=complex)
        sums = []
        for step, weights in terms:
            powers[:, 0] = 1.0
            powers[:, 1:] = np.exp(1j * step * lam)[:, None]
            sums.append(np.cumprod(powers, axis=1) @ weights)
        value, slope = delta0(m, b1, b2, lam, slope=True)
        return value + sums[0][:, 0] + sums[1][:, 0], slope + sums[0][:, 1] + sums[1][:, 1]

    return delta


class TestDeviationNorms:
    def test_identical_potentials(self):
        n = 64
        sys = smooth_potential(51, n)
        dev_inf, dev_one, dq = kernel_deviation_norms(sys, sys, 2, n)
        assert dev_inf == 0.0 and dev_one == 0.0 and dq == 0.0

    def test_against_zero_potential(self):
        n = 64
        sys = smooth_potential(52, n, l1_norm=0.8)
        zero = DiracSystem.zero(sys.b1, sys.b2, n)
        dev_inf, dev_one, dq = kernel_deviation_norms(sys, zero, 2, n)
        ks = build_kernels(sys, n)
        ref_inf = max(x_norm(ks.kplus, "infinity", 2), x_norm(ks.kminus, "infinity", 2))
        assert abs(dev_inf - ref_inf) < 1e-12
        assert dq == potential_diff_norm(sys, zero, 2, n)

    def test_scaling_family_ratio_bounded(self):
        n = 64
        base = smooth_potential(53, n, l1_norm=1.0)
        zero = DiracSystem.zero(base.b1, base.b2, n)
        ratios = []
        for s in (0.25, 0.5, 1.0):
            scaled = DiracSystem(base.b1, base.b2, base.q12.scale(s), base.q21.scale(s))
            dev_inf, dev_one, dq = kernel_deviation_norms(scaled, zero, 2, n)
            ratios.append((dev_inf + dev_one) / dq)
        assert max(ratios) / min(ratios) < 2.0


class TestBinaryDump:
    def test_round_trip(self, tmp_path, rng):
        n = 24
        data = rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2))
        kern = TriangularKernel(data)
        path = tmp_path / "kernel.bin"
        write_kernel(kern, path)
        back = read_kernel(path)
        assert np.array_equal(back.data, kern.data)

    def test_bytes_are_the_row_major_triangle(self, tmp_path, rng):
        # reference writer: header, then row i's nodes j = 0..i, four
        # complex doubles per node
        n = 24
        data = rng.standard_normal((n + 1, n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, n + 1, 2, 2))
        kern = TriangularKernel(data)
        rows = np.concatenate([kern.data[i, : i + 1].ravel() for i in range(n + 1)]).astype("<c16")
        expected = struct.pack("<II", n, rows.size) + rows.tobytes()
        path = tmp_path / "kernel.bin"
        write_kernel(kern, path)
        assert path.read_bytes() == expected

    def test_peak_allocation(self, tmp_path, rng):
        # rows are written from their contiguous slices; gathering the
        # whole triangle first held half a dense kernel plus its indices
        n = 256
        kern = TriangularKernel(rng.standard_normal((n + 1, n + 1, 2, 2)) + 0j)
        tracemalloc.start()
        try:
            write_kernel(kern, tmp_path / "kernel.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 64 * (n + 1) ** 2

    def test_malformed_dump_is_a_value_error(self, tmp_path):
        # a file shorter than its header raised struct.error, and a payload
        # of partial complex doubles raised numpy's buffer-size error
        path = tmp_path / "kernel.bin"
        write_kernel(TriangularKernel.zero(8), path)
        raw = path.read_bytes()
        for broken in (raw[:5], raw[:-3]):
            path.write_bytes(broken)
            with pytest.raises(ValueError, match="corrupt kernel dump"):
                read_kernel(path)

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "kernel.bin"
        write_kernel(TriangularKernel.zero(8), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            read_kernel(path)


class TestPackedDumps:
    @pytest.mark.parametrize("n", [8, 9, 64])
    @pytest.mark.parametrize("b", WEIGHT_PAIRS, ids=lambda b: f"b=({b[0]:g},{b[1]:.4g})")
    def test_dumps_and_residuals_are_build_kernels(self, b, n, tmp_path):
        # the kernels task marches R, K+ and K- into their dumps' packed
        # triangles: each dump is write_kernel's bytes of build_kernels'
        # kernel, P+/- from the packed rows are solve_P's bits, and the
        # residuals are build_kernels' own
        sys = smooth_potential(67, n, *b, l1_norm=0.8)
        ks = build_kernels(sys, n)
        store, check = transformop._march_dumps(sys, n, transformop.DEFAULT_TOL)
        path = tmp_path / "kernel.bin"
        for kernel, dump in zip((ks.r, ks.kplus, ks.kminus), transformop._dumps(store)):
            write_kernel(kernel, path)
            assert path.read_bytes() == dump.tobytes()
        assert {"R": check, **transformop._dump_residuals(store, sys, n)} == ks.residuals
        rows = transformop._packed_rows(transformop._packed(store)[0], n)
        pplus, pminus, residual = transformop._solve_P_rows(rows, sys, n)
        assert pplus.samples.tobytes() == ks.pplus.samples.tobytes()
        assert pminus.samples.tobytes() == ks.pminus.samples.tobytes()
        assert residual == ks.residuals["P"]

    def test_check_below_its_roundoff_is_refused(self):
        n = 16
        sys = smooth_potential(68, n, -1.0, 2.0, l1_norm=0.8)
        with pytest.raises(IterationLimitError):
            transformop._march_dumps(sys, n, 1e-300)
