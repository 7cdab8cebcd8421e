"""Transformation-operator kernels R, P+/-, K+/- and what they rebuild.

The kernel R solves the coupled integral system (a_k = 1/b_k,
gamma_k = b_j/b_k, alpha_k = b_j/(b_j-b_k), j = 3-k):

    R_kk(x,t) = -i b_k  int_{x-t}^{x} Q_kj(s) R_jk(s, s-x+t) ds,
    R_jk(x,t) = i b_j b_k/(b_j-b_k) * Q_jk(alpha_k x + alpha_j t)
                - i b_j int_{alpha_k x + alpha_j t}^{x}
                        Q_jk(s) R_kk(s, gamma_k (s-x) + t) ds,

the diagonal matrices P+/- solve a second-kind Volterra system driven by
the t = 0 traces of R; finally

    K(x,t) = R(x,t) + P(x-t) + int_t^x R(x,s) P(s-t) ds.

Everything is discretized on the shared uniform grid.  The solver works in
"diagonal coordinates" (offset m = i-j, position j): the first equation's
integration path then runs along a single diagonal through exact grid
nodes, and the second one's path crosses each diagonal l = 0..m once, at a
fractional position handled by linear interpolation.  That path is the
characteristic t - gamma_k x = const; every node on one characteristic
shares its integrand, so R_jk is a cumulative trapezoid sum along lines
spaced 1/q grid unit apart (alpha_k = p/q with q <= 8, else q = 2 and
nodes interpolate between neighbouring lines).

In these coordinates the system is Volterra in m: diagonal m reads only
earlier diagonals and itself.  The discrete R_jk equation is one for
every alpha_k: the line sums over the diagonals passed, read at the node,
plus the trapezoid's end term at the node itself, where its path ends.
One pass over m = 0..N evaluates it, carrying each line's running sum:
its lines start at floor(q alpha_k m) with one weight w, a node reads its
two lines as strided slices of the line sums, and the lines cross the
diagonal at (i - w)/q, so their integrand is the diagonal's R_kk row
upsampled by q times Q_jk upsampled once.  The march is that pass solving
each diagonal's end-term coupling as a linear recurrence along it (the
characteristic march for Goursat kernel problems, Rundell & Sacks, Math.
Comp. 58, 1992), so it solves the discrete equations.  It marches in the
kernel array itself, diagonal m of a plane being a strided view of it, and
certifies its state on the way: each diagonal's R_kk defect is its
exact-node trapezoid along the diagonal less R_kk, and R_jk, written from
its right-hand side, has none.  The same pass reading R instead of solving
it is the substitution check of any state.  Both cost O(q N^2).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import BoundaryConditions, _delta0_coefficients, delta0, minors
from .gridfn import (
    GridMismatchError,
    IterationLimitError,
    PNorm,
    SampledFunction,
    TriangularKernel,
    _trapezoid_weights,
    lp_norm,
    x_norm,
)
from .ode import DiracSystem

__all__ = [
    "ComboKernels",
    "KernelSet",
    "assemble_K",
    "build_kernels",
    "combos",
    "determinant_evaluator",
    "kernel_deviation_norms",
    "potential_diff_norm",
    "r_equation_residual",
    "read_kernel",
    "reconstruct_e",
    "solve_P",
    "solve_R",
    "write_kernel",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class KernelSet:
    """R, P+/- and K+/- for one system on one grid, with the residuals
    that certify the solves."""

    r: TriangularKernel
    pplus: SampledFunction   # samples shape (N+1, 2): diagonal entries
    pminus: SampledFunction
    kplus: TriangularKernel
    kminus: TriangularKernel
    residuals: dict

    @property
    def n(self) -> int:
        return self.r.n


def _combo(kplus: np.ndarray, kminus: np.ndarray, j: int, l: int, k: int) -> np.ndarray:
    """K_{jl,k} = (K+_{jl} + (-1)^{l+k} K-_{jl}) / 2 on the leading axes of K+/-."""
    return 0.5 * (kplus[..., j - 1, l - 1] + (-1.0) ** (l + k) * kminus[..., j - 1, l - 1])


@dataclass(frozen=True)
class ComboKernels:
    """(K+, K-), whose (N+1, N+1) plane K_{jl,k} is formed when asked for."""

    kplus: TriangularKernel
    kminus: TriangularKernel

    @property
    def n(self) -> int:
        return self.kplus.n

    def get(self, j: int, l: int, k: int) -> np.ndarray:
        return _combo(self.kplus.data, self.kminus.data, j, l, k)


_MAX_LINE_DENOMINATOR = 8  # alpha_k = p/q with q <= 8 puts every node on a line


def _line_spacing(alpha: float) -> tuple[int, float]:
    """Lines of the R_jk update sit 1/q grid unit apart, and a path point
    moves q*alpha line units per diagonal; returns (q, q*alpha).

    A rational alpha = p/q (q <= 8) gives every node an integer line
    number; any other alpha gets half-unit lines, between which the nodes
    interpolate linearly."""
    ratio = Fraction(alpha).limit_denominator(_MAX_LINE_DENOMINATOR)
    if abs(float(ratio) - alpha) <= 1e-13:
        return ratio.denominator, float(ratio.numerator)
    return 2, 2.0 * alpha


def _lerp_clamped(values: np.ndarray, start, top, pos, frac) -> np.ndarray:
    """Linear interpolation of the flat ``values`` at ``start + pos + frac``
    within rows ``start .. start + top``.  The interpolating pair is clamped
    into the row, so points just past either end are extrapolated from the
    end cell."""
    i0 = np.minimum(np.maximum(pos, 0), np.maximum(top - 1, 0))
    t = (pos - i0) + frac
    lower = values[start + i0]
    return lower + t * (values[start + np.minimum(i0 + 1, top)] - lower)


def _upsample(values: np.ndarray, q: int, slots: np.ndarray) -> np.ndarray:
    """The linear interpolant of ``values`` (nodes 0..top) at the ``slots``
    i/q, i = -1 .. q*top + 1, the end slots extrapolated as ``_lerp_clamped`` does."""
    top = values.shape[0] - 1
    first, last = (values[1] - values[0], values[-1] - values[-2]) if top else (0.0, 0.0)
    return np.interp(slots[: q * top + 3], slots[1 : q * top + 2 : q], values,
                     left=values[0] - first / q, right=values[-1] + last / q)


def _read_lines(sums: np.ndarray, base: int, w: float, q: int, top: int) -> np.ndarray:
    """Line values at the nodes l = 0..top of one diagonal: line base + q*l
    and the one above it, weighted (1 - w, w)."""
    lower = sums[base : base + q * top + 1 : q]
    return lower + w * (sums[base + 1 : base + q * top + 2 : q] - lower) if w else lower


def _kernel_diagonal(data: np.ndarray, m: int, a: int, b: int) -> np.ndarray:
    """Diagonal m of plane R_ab in the (N+1, N+1, 2, 2) kernel array ``data``:
    the nodes (m + l, l), l = 0..N-m, as a strided view of its flat storage;
    writes land in ``data`` only if it is C-contiguous."""
    npts = data.shape[0]
    return data.reshape(-1)[4 * m * npts + 2 * (a - 1) + (b - 1) :: 4 * (npts + 1)][: npts - m]


class _RSweeper:
    """The coupled R system in diagonal coordinates, stored in the kernel
    array itself: one pass over its diagonals per k either marches (solves
    the discrete equations) or only reads R, and measures both equations'
    defect on the way."""

    def __init__(self, sys: DiracSystem, n: int):
        self.n = n
        self.h = 1.0 / n
        npts = n + 1
        grid = np.linspace(0.0, 1.0, npts)
        idx = np.arange(npts)
        self.b = {1: sys.b1, 2: sys.b2}
        self.alpha = {1: sys.alpha1, 2: sys.alpha2}
        self.q_nodes = {(1, 2): sys.q12(grid), (2, 1): sys.q21(grid)}
        self.lines = {}
        self.sources = {}
        for k in (1, 2):
            j = 3 - k
            q, step = _line_spacing(self.alpha[k])
            qjk = self.q_nodes[(j, k)]
            slots = np.arange(-1, q * n + 2) / q
            self.lines[k] = (q, step, slots, _upsample(qjk, q, slots))
            # Q_jk(alpha_k x + alpha_j t) on diagonal m: cells floor(alpha_k m) + l, one weight
            shift = self.alpha[k] * idx
            whole = np.floor(shift)
            c0 = 1j * self.b[j] * self.b[k] / (self.b[j] - self.b[k])
            self.sources[k] = (c0, whole.astype(np.intp), shift - whole, qjk[1:] - qjk[:-1])

    def _source_row(self, k: int, m: int) -> np.ndarray:
        """Q_jk(alpha_k x + alpha_j t) at the nodes of diagonal m; the R_jk
        equation's source term is c0 times it."""
        _, cells, fracs, diff = self.sources[k]
        qjk = self.q_nodes[(3 - k, k)]
        top = self.n - m
        if not m:  # diagonal 0 ends on the last node, read from the end cell
            return _lerp_clamped(qjk, 0, self.n, np.arange(top + 1), 0.0)
        cell = cells[m]
        return qjk[cell : cell + top + 1] + fracs[m] * diff[cell : cell + top + 1]

    def _diagonal(self, k: int, m: int) -> tuple[int, float]:
        """Diagonal m's first line and its weight: node l lies between lines
        base + q*l and base + q*l + 1, at w above the lower one."""
        base = math.floor(self.lines[k][1] * m)
        return base, self.lines[k][1] * m - base

    def _line_integrand(self, k: int, m: int, row: np.ndarray, w: float) -> np.ndarray:
        """Integrand Q_jk R_kk of the R_jk update where the lines base + i,
        i = 0..q*top + 1, cross diagonal m, from its R_kk values ``row``
        (nodes 0..top).  Line base + i meets the diagonal at (i - w)/q, so
        both factors are read from interpolants upsampled by q, between the
        slots i - 1 and i."""
        q, _, slots, qup = self.lines[k]
        top = row.shape[0] - 1
        rup = _upsample(row, q, slots)
        qs = qup[q * m : q * (m + top) + 3]
        if w:
            return (qs[1:] + w * (qs[:-1] - qs[1:])) * (rup[1:] + w * (rup[:-1] - rup[1:]))
        return qs[1:] * rup[1:]

    def _pass(self, k: int, data: np.ndarray, solve: bool) -> np.ndarray:
        """One pass over the diagonals m = 0..N of R_kk and R_jk in the
        kernel array ``data``; returns the largest R_kk defect, R_jk defect,
        |R_kk| and |R_jk| over the nodes (the last two for ``solve`` only).

        ``sums`` holds every line's trapezoid sum over the diagonals passed
        (half weight at diagonal 0); a node reads its line, or the two lines
        around it weighted (1 - w, w), as A_l, and
        R_jk[m, l] = c0 Q_jk(alpha_k x + alpha_j t) + coeff A_l
        + coeff/2 Q_jk(m + l) R_kk[m, l]: the trapezoid's end term is taken
        at the node, where its path ends (diagonal 0 has none).

        With ``solve`` (the march) R_kk on diagonal m is solved in place
        first: it reads R_jk on the same diagonal at positions <= l, and the
        trapezoid along the diagonal turns the end-term coupling into the
        recurrence (1 - d(s)) R_kk[m, l] = (1 + d(s-1)) R_kk[m, l-1] + r_l,
        s = m + l, whose factors depend on s alone; R_jk is then written from
        its right-hand side, so its defect is zero.  Otherwise (the check)
        both are read, and R_jk's right-hand side is compared with it.
        Either way the diagonal's R_kk defect is its exact-node trapezoid of
        Q_kj R_jk along the diagonal less R_kk, and the R_kk row's line
        integrand then joins the sums."""
        n = self.n
        j = 3 - k
        q = self.lines[k][0]
        c0 = self.sources[k][0]
        coeff = -1j * self.b[j] * self.alpha[j] * self.h
        end_half = (0.5 * coeff) * self.q_nodes[(j, k)]
        qkj = self.q_nodes[(k, j)]
        if solve:
            # half trapezoid weights along the diagonal, and the recurrence
            diag_half = (-0.5j * self.b[k] * self.h) * qkj
            d = diag_half * end_half
            growth = np.ones(n + 1, dtype=complex)
            growth[1:] = (1.0 + d[:-1]) / (1.0 - d[1:])
            np.cumprod(growth, out=growth)
            scale = 1.0 / ((1.0 - d) * growth)
        sums = np.zeros(q * n + 2, dtype=complex)  # line qN + 1 is read with weight 0 only
        worst = np.zeros((n + 1, 4))  # per diagonal, in the order returned
        for m in range(n + 1):
            top = n - m
            base, w = self._diagonal(k, m)
            a = c0 * self._source_row(k, m) + coeff * _read_lines(sums, base, w, q, top)
            x = _kernel_diagonal(data, m, k, k)
            y = _kernel_diagonal(data, m, j, k)
            if solve:  # x[0] = 0: a path of one point
                pa = diag_half[m:] * a
                if m:
                    x[1:] = growth[m + 1 :] * np.cumsum((pa[:-1] + pa[1:]) * scale[m + 1 :])
                else:
                    x[1:] = np.cumsum(pa[:-1] + pa[1:])
            rjk = a + end_half[m:] * x if m else a
            if solve:
                y[:] = rjk
                worst[m, 2:] = np.abs(x).max(), np.abs(y).max()
            else:
                rjk -= y
                worst[m, 1] = np.abs(rjk).max()
            g = qkj[m:] * y
            update = np.cumsum(g)
            g += g[0]
            g *= 0.5
            update -= g
            update *= -1j * self.b[k] * self.h
            update -= x
            worst[m, 0] = np.abs(update).max()
            if m == n:
                break
            f = self._line_integrand(k, m, x, w)
            sums[base : base + q * top + 2] += f if m else 0.5 * f
        return worst.max(axis=0)

    def sweep(self, data: np.ndarray, solve: bool) -> tuple[float, float]:
        """The pass for every alpha_k: (max-node defect of the discrete
        equations at ``data``, max |R|, or 0.0 without ``solve``)."""
        worst = np.maximum(self._pass(1, data, solve), self._pass(2, data, solve))
        return float(worst[:2].max()), float(worst[2:].max())


def solve_R(sys: DiracSystem, n: int, tol: float = DEFAULT_TOL, return_residual: bool = False):
    """The kernel R on the N-grid: one march along the diagonals of the
    kernel array, which measures its own defect.

    The march solves the discrete equations diagonal by diagonal, for
    every weight ratio, so the defect at its state is roundoff (1e-16 to
    1e-15 of max |R|).  A defect not below ``tol`` max(1, max |R|) raises
    IterationLimitError: no further iteration can certify R below the
    defect's own roundoff.
    """
    if n < 8:
        raise ValueError("grid size N must be >= 8 for the kernel solve")
    # formed before the sweeper's tables: the kernels CLI's peak RSS moves
    # with where glibc's heap places this array (BENCH_15.json has both orders)
    data = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    residual, size = _RSweeper(sys, n).sweep(data, solve=True)
    if not residual < tol * max(1.0, size):
        raise IterationLimitError(
            f"kernel substitution check is not below tol={tol} times max(1, max|R|), max|R| = {size:.3e}", residual)
    kernel = TriangularKernel(data)
    return (kernel, residual) if return_residual else kernel


def r_equation_residual(sys: DiracSystem, r: TriangularKernel) -> float:
    """Max-node defect of both integral equations at the state ``r``
    (substitution check: every update from ``r`` alone, largest change)."""
    return _RSweeper(sys, r.n).sweep(r.data, solve=False)[0]


def _volterra_trapezoid(kern: np.ndarray, f: np.ndarray) -> np.ndarray:
    """int_0^{x_i} K(x_i, s) f(s) ds at every node by the trapezoid rule,
    for kernel samples (N+1, N+1, 2, 2) that vanish above the diagonal and
    f of shape (N+1, 2): the full row sums less half of both end terms."""
    n = kern.shape[0] - 1
    idx = np.arange(n + 1)
    full = sum(kern[:, :, :, b].transpose(0, 2, 1) @ f[:, b] for b in (0, 1))
    ends = kern[:, 0] @ f[0] + (kern[idx, idx] @ f[:, :, None])[:, :, 0]
    out = (full - 0.5 * ends) / n
    out[0] = 0.0
    return out


def solve_P(r: TriangularKernel, sys: DiracSystem, n: int):
    """Diagonal factors P+/- from the second-kind Volterra system driven by
    the t = 0 traces of R; one forward substitution on the triangular grid
    serves both signs, since the right-hand side is linear in the sign.

    Returns (pplus, pminus, residual) where the residual is the max-node
    defect of the discrete system (machine-level by construction).
    """
    if r.n != n:
        raise GridMismatchError(f"kernel grid {r.n} != requested {n}")
    h = 1.0 / n
    a1, a2 = 1.0 / sys.b1, 1.0 / sys.b2
    rmat = r.data  # (N+1, N+1, 2, 2)
    idx = np.arange(n + 1)
    signs = np.array([1.0, -1.0])
    g = np.empty((n + 1, 2, 2), dtype=complex)  # g[i, component, sign]
    g[:, 0] = (-a2 * rmat[:, 0, 0, 1])[:, None] * signs
    g[:, 1] = (-a1 * rmat[:, 0, 1, 0])[:, None]
    # the trapezoid's s = x_i node, moved to the left-hand side
    inv = np.linalg.inv(np.eye(2) + (0.5 * h) * rmat[idx, idx])
    v = np.empty_like(g)
    v[0] = 0.5 * g[0]  # the trapezoid's half weight at s = 0, restored below
    for i in range(1, n + 1):
        acc = rmat[i, :i].transpose(1, 0, 2).reshape(2, 2 * i) @ v[:i].reshape(2 * i, 2)
        v[i] = inv[i] @ (g[i] - h * acc)
    v[0] = g[0]
    out = {}
    residuals = []
    for col, sign in enumerate((+1, -1)):
        vs = v[:, :, col]
        # defect of the discrete equations, all rows in one product
        residuals.append(float(np.abs(vs + _volterra_trapezoid(rmat, vs) - g[:, :, col]).max()))
        out[sign] = SampledFunction(np.stack([sys.b1 * vs[:, 0], sign * sys.b2 * vs[:, 1]], axis=1))
    return out[+1], out[-1], max(residuals)


_K_BLOCK = 64  # rows and columns per block of the triangular products


def _toeplitz_lower(column: np.ndarray) -> np.ndarray:
    """T[i, j] = column[i - j] on and below the diagonal, zero above, as a
    read-only strided view of the reversed column padded with N zeros."""
    n = column.shape[0] - 1
    padded = np.concatenate([column[::-1], np.zeros(n, dtype=column.dtype)])
    return np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1]


def assemble_K(r: TriangularKernel, pplus: SampledFunction, pminus: SampledFunction, n: int):
    """K(x,t) = R(x,t) + P(x-t) + int_t^x R(x,s) P(s-t) ds for both signs.

    Only the lower-triangular blocks of the integral are formed: for each
    block of rows I and block of columns J <= I, one matrix product takes
    R's rows I for both first indices against the Toeplitz rows j0..i1 of
    P_b with P_b(0) halved (the trapezoid weight at s = t), and the s = x
    weight comes off as half of R(x, x) times the Toeplitz row P_b(x - t).
    The halving touches that row only at t = x, where the one-point path
    s = t = x integrates to zero and is set so.  Each block is scaled by h
    and added into K; R and P vanish above the diagonal, so every term does
    too and no mask is applied."""
    if r.n != n or pplus.n != n or pminus.n != n:
        raise GridMismatchError("kernel and P factors must share the grid")
    h = 1.0 / n
    npts = n + 1
    nb = min(_K_BLOCK, npts)
    idx = np.arange(npts)
    rmat = r.data
    rdiag = 0.5 * rmat[idx, idx].transpose(1, 2, 0)  # [a, b, i] = R_ab(x_i, x_i) / 2
    datas = []
    # per b: (data, Toeplitz view T[k, c] = P_b(k - c) with P_b(0) halved);
    # its leading rows hold every block T[j0 + k, j0 + c]
    factors = ([], [])
    for p in (pplus, pminus):
        data = rmat.copy()
        for b in (0, 1):
            col = p.samples[:, b]
            data[:, :, b, b] += _toeplitz_lower(col)
            if col.any():
                half = col.copy()
                half[0] *= 0.5
                factors[b].append((data, _toeplitz_lower(half)))
        datas.append(data)
    for i0 in range(0, npts, nb):
        i1 = min(i0 + nb, npts)
        rows = i1 - i0
        for b in (0, 1):
            if not factors[b]:
                continue
            # R's rows I for both a, stacked: (2 * rows) x i1
            rrows = rmat[i0:i1, :i1, :, b].transpose(2, 0, 1).reshape(2 * rows, i1)
            for data, toep in factors[b]:
                for j0 in range(0, i1, nb):
                    j1 = min(j0 + nb, i1)
                    cols = j1 - j0
                    block = (rrows[:, j0:] @ toep[: i1 - j0, :cols]).reshape(2, rows, cols)
                    block -= rdiag[:, b, i0:i1, None] * toep[i0 - j0 : i1 - j0, :cols]
                    if j0 == i0:
                        block[:, idx[:rows], idx[:rows]] = 0.0
                    block *= h
                    data[i0:i1, j0:j1, :, b] += block.transpose(1, 2, 0)
            del rrows  # freed before the next gather
    return TriangularKernel(datas[0]), TriangularKernel(datas[1])


def build_kernels(sys: DiracSystem, n: int, tol: float = DEFAULT_TOL) -> KernelSet:
    """Full pipeline R -> P+/- -> K+/- with residual bookkeeping."""
    r, r_res = solve_R(sys, n, tol=tol, return_residual=True)
    pplus, pminus, p_res = solve_P(r, sys, n)
    kplus, kminus = assemble_K(r, pplus, pminus, n)
    boundary_defect = _boundary_relation_defect(sys, kplus, kminus)
    residuals = {"R": r_res, "P": p_res, "K_boundary": boundary_defect}
    return KernelSet(r, pplus, pminus, kplus, kminus, residuals)


def _boundary_relation_defect(sys: DiracSystem, kplus: TriangularKernel, kminus: TriangularKernel) -> float:
    """Max node violation of K(x, 0) B^{-1} (1, +/-1)^T = 0."""
    worst = 0.0
    for kern, sign in ((kplus, +1.0), (kminus, -1.0)):
        vec = np.array([1.0 / sys.b1, sign / sys.b2], dtype=complex)
        vals = kern.data[:, 0] @ vec
        worst = max(worst, float(np.abs(vals).max()))
    return worst


def reconstruct_e(kpm: TriangularKernel, sys: DiracSystem, sign: int, lam: complex) -> SampledFunction:
    """e(x, lam) = e0(x, lam) + int_0^x K(x,t) e0(t, lam) dt with
    e0 = (e^{i b1 lam x}, +/- e^{i b2 lam x})^T."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = kpm.n
    x = np.linspace(0.0, 1.0, n + 1)
    e0 = np.stack([np.exp(1j * sys.b1 * lam * x), sign * np.exp(1j * sys.b2 * lam * x)], axis=1)
    integral = _volterra_trapezoid(kpm.data, e0)
    return SampledFunction(e0 + integral)


def combos(kplus: TriangularKernel, kminus: TriangularKernel) -> ComboKernels:
    """Half-sum/half-difference kernels K_{jl,k} feeding the determinant."""
    if kplus.n != kminus.n:
        raise GridMismatchError("kernel grids differ")
    return ComboKernels(kplus, kminus)


def _step_powers(z: np.ndarray, count: int) -> np.ndarray:
    """z^0 .. z^{count-1} for the last axis of z, by one running product
    along the new second-to-last axis: shape z.shape[:-1] + (count, L)."""
    out = np.empty(z.shape[:-1] + (count, z.shape[-1]), dtype=complex)
    out[..., 0, :] = 1.0
    out[..., 1:, :] = z[..., None, :]
    return np.cumprod(out, axis=-2, out=out)


def determinant_evaluator(bc: BoundaryConditions, ck: ComboKernels, b1: float, b2: float):
    """Callable lam -> Delta_Q(lam) built once from the kernel traces:

        Delta_Q = Delta_0 + int_0^1 g_1 e^{i b1 lam t} dt
                          + int_0^1 g_2 e^{i b2 lam t} dt,
        g_l = J32 K_{1l,1}(1,.) + J42 K_{2l,1}(1,.)
              + J13 K_{1l,2}(1,.) + J14 K_{2l,2}(1,.).

    ``delta(lam, slope=True)`` returns (Delta_Q, Delta_Q'); the derivative
    is the same trace integral with the extra factor i b_l t.  On the grid
    t_j = j h each trace sum is a polynomial sum_j c_j z^j in
    z = e^{i b_l lam h}, evaluated by baby and giant steps (Paterson &
    Stockmeyer, SIAM J. Comput. 2, 1973): with B = ceil(sqrt(N+1)) and
    A = ceil((N+1)/B), z^{aB+r} = (z^B)^a z^r, so a (2A, B) coefficient
    matrix per weight meets the B baby powers in one batched product and
    the A giant powers weight its blocks.  Both powers are running products, so
    z^{aB+r} carries about aB+r ulps, as a running product of length N+1.

    The callable's attribute ``slope_bound(y_lo, y_hi)``, vectorised over
    arrays, bounds |Delta_Q'| on the strip y_lo <= Im lam <= y_hi: the
    discrete Delta_Q is an exponential sum, so its slope there is at most
    sum |J beta| max(e^{-beta y_lo}, e^{-beta y_hi}) over Delta_0's three
    exponentials plus sum_l |b_l| sum_j |c_{l,j}| t_j
    max(e^{-b_l t_j y_lo}, e^{-b_l t_j y_hi}), c_{l,j} = h w_j g_l(t_j).
    The zero counts use it to certify every piece of a contour.
    """
    m = minors(bc)
    n = ck.n
    h = 1.0 / n
    t = np.linspace(0.0, 1.0, n + 1)
    w = _trapezoid_weights(n)
    base = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
    blocks = -(-(n + 1) // base)
    # terms[l, j, c]: coefficient of z^j in column c (value, slope) of
    # weight l, zero-padded to A B terms
    terms = np.zeros((2, blocks * base, 2), dtype=complex)
    kp, km = ck.kplus.data[n], ck.kminus.data[n]  # K+/-(1, .) is all Delta_Q reads
    for l, b in ((1, b1), (2, b2)):
        g = (
            m[3, 2] * _combo(kp, km, 1, l, 1)
            + m[4, 2] * _combo(kp, km, 2, l, 1)
            + m[1, 3] * _combo(kp, km, 1, l, 2)
            + m[1, 4] * _combo(kp, km, 2, l, 2)
        )
        wg = h * w * g
        terms[l - 1, : n + 1] = np.stack([wg, 1j * b * t * wg], axis=1)
    # coeffs[l, (a, c), r] = terms[l, aB + r, c], a contiguous copy
    coeffs = terms.reshape(2, blocks, base, 2).transpose(0, 1, 3, 2).reshape(2, 2 * blocks, base)
    steps = np.array([b1 * h, b2 * h])[:, None]
    # Delta_Q is the exponential sum sum_k a_k e^{i beta_k lam}: Delta_0's
    # three terms and the trace terms beta = b_l t_j, a = c_{l,j}
    _, j34, j32, j14 = _delta0_coefficients(m)
    rates = np.concatenate([[b1 + b2, b1, b2], b1 * t, b2 * t])
    slopes = np.abs(np.concatenate([[(b1 + b2) * j34, b1 * j32, b2 * j14], terms[0, : n + 1, 1], terms[1, : n + 1, 1]]))
    up = rates > 0

    def delta(lam, slope=False):
        lam_arr = np.asarray(lam, dtype=complex)
        flat = lam_arr.reshape(-1)
        z = np.exp(1j * steps * flat)  # (2, L): both weights at once
        baby = _step_powers(z, base)
        giant = _step_powers(baby[:, -1] * z, blocks)
        # (2, 2A, B) @ (2, B, L): every block's partial sum for every lam,
        # then each block weighted by its giant power and all added up
        partial = (coeffs @ baby).reshape(2, blocks, 2, flat.size)
        partial *= giant[:, :, None, :]
        sums = partial.sum(axis=(0, 1))
        if slope:
            value, deriv = (np.asarray(delta0(m, b1, b2, flat, slope=True)) + sums).reshape(2, *lam_arr.shape)
            return (complex(value), complex(deriv)) if lam_arr.ndim == 0 else (value, deriv)
        value = (delta0(m, b1, b2, flat) + sums[0]).reshape(lam_arr.shape)
        return complex(value) if lam_arr.ndim == 0 else value

    def slope_bound(y_lo, y_hi):
        # |beta a e^{i beta lam}| = |beta a| e^{-beta Im lam} is largest on
        # the strip's lower edge for beta > 0 and on its upper edge otherwise
        lo, hi = (np.asarray(y, dtype=float)[..., None] for y in (y_lo, y_hi))
        return np.exp(lo * -rates[up]) @ slopes[up] + np.exp(hi * -rates[~up]) @ slopes[~up]

    delta.slope_bound = slope_bound
    return delta


def potential_diff_norm(sys_a: DiracSystem, sys_b: DiracSystem, p, n: int) -> float:
    """Entrywise L^p norm of Q - Q~ resampled on the shared N-grid:
    (||Q12 - Q12~||_p^p + ||Q21 - Q21~||_p^p)^{1/p}."""
    p = PNorm(p)
    x = np.linspace(0.0, 1.0, n + 1)
    d12 = SampledFunction(sys_a.q12(x) - sys_b.q12(x))
    d21 = SampledFunction(sys_a.q21(x) - sys_b.q21(x))
    if p.is_inf:
        return max(lp_norm(d12, p), lp_norm(d21, p))
    return float((lp_norm(d12, p) ** p.p + lp_norm(d21, p) ** p.p) ** (1.0 / p.p))


def kernel_deviation_norms(sys_a: DiracSystem, sys_b: DiracSystem, p, n: int, tol: float = DEFAULT_TOL):
    """Worst-sign deviation of K+/- between two potentials, in both mixed
    norms, together with ||Q - Q~||_p; the ratio dev / ||Q - Q~||_p is the
    monitored Lipschitz quantity (the theory's constant is nonconstructive).
    """
    ka = build_kernels(sys_a, n, tol=tol)
    kb = build_kernels(sys_b, n, tol=tol)
    deviation = _kernel_deviation((ka.kplus, ka.kminus), (kb.kplus, kb.kminus), p)
    return (*deviation, potential_diff_norm(sys_a, sys_b, p, n))


def _kernel_deviation(ka: tuple, kb: tuple, p) -> tuple[float, float]:
    """Worst-sign (infinity, one) mixed-norm deviation between two (K+, K-)
    pairs on the same grid."""
    p = PNorm(p)
    dev_inf = 0.0
    dev_one = 0.0
    for pick_a, pick_b in zip(ka, kb):
        diff = TriangularKernel(pick_a.data - pick_b.data)
        dev_inf = max(dev_inf, x_norm(diff, "infinity", p))
        dev_one = max(dev_one, x_norm(diff, "one", p))
    return dev_inf, dev_one


_KERNEL_MAGIC = struct.Struct("<II")


def write_kernel(kernel: TriangularKernel, path) -> None:
    """Binary dump: little-endian header (N, complex count) followed by the
    triangle's nodes in ``np.tril_indices(N+1)`` (row-major) order, each
    node as four complex doubles, written row by row from the contiguous
    slices ``data[i, :i+1]``."""
    n = kernel.n
    data = kernel.data.astype("<c16", copy=False)
    with open(path, "wb") as fh:
        fh.write(_KERNEL_MAGIC.pack(n, 4 * (n + 1) * (n + 2) // 2))
        for i in range(n + 1):
            fh.write(data[i, : i + 1])


def read_kernel(path) -> TriangularKernel:
    with open(path, "rb") as fh:
        header = fh.read(_KERNEL_MAGIC.size)
        raw = fh.read()
    if len(header) < _KERNEL_MAGIC.size:
        raise ValueError("corrupt kernel dump: truncated header")
    if len(raw) % 16:
        raise ValueError("corrupt kernel dump: payload is not a whole number of complex doubles")
    n, count = _KERNEL_MAGIC.unpack(header)
    payload = np.frombuffer(raw, dtype="<c16")
    if payload.size != count or count != 4 * (n + 1) * (n + 2) // 2:
        raise ValueError("corrupt kernel dump: size mismatch")
    data = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    data[np.tril_indices(n + 1)] = payload.reshape(-1, 2, 2)
    return TriangularKernel(data)
