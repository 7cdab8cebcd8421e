"""Transformation-operator kernels R, P+/-, K+/- and what they rebuild.

The kernel R solves the coupled integral system (a_k = 1/b_k,
gamma_k = b_j/b_k, alpha_k = b_j/(b_j-b_k), j = 3-k):

    R_kk(x,t) = -i b_k  int_{x-t}^{x} Q_kj(s) R_jk(s, s-x+t) ds,
    R_jk(x,t) = i b_j b_k/(b_j-b_k) * Q_jk(alpha_k x + alpha_j t)
                - i b_j int_{alpha_k x + alpha_j t}^{x}
                        Q_jk(s) R_kk(s, gamma_k (s-x) + t) ds,

the diagonal matrices P+/- solve a second-kind Volterra system driven by
the t = 0 traces of R, and

    K(x,t) = R(x,t) + P(x-t) + int_t^x R(x,s) P(s-t) ds.

K+/- solve the same system as R with one boundary value changed: in
place of R_kk(x, 0) = 0, the relation K(x, 0) B^{-1} (1, sigma)^T = 0,
sigma = +/-1, gives K_kk(x, 0) = c_k K_jk(x, 0), c_1 = -sigma b1/b2 and
c_2 = -sigma b2/b1.  So the march below solves them directly, and the
R o P route above is only a test oracle.

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
Comp. 58, 1992), so it solves the discrete equations.  It hands each
solved diagonal to its caller, which writes it into a kernel array or
keeps what it needs of it, and certifies its state on the way: each
diagonal's R_kk defect is its start value plus its exact-node trapezoid
along the diagonal less R_kk, and R_jk, written from its right-hand side,
has none.  The same pass reading R instead of solving it is the
substitution check of any state.  Both cost O(q N^2).

The pass runs over rows (kernel, weight k) at once, a kernel being R, K+
or K- of one potential.  Both weights share q, since alpha_1 + alpha_2 =
1, and kernels on one grid with one pair of weights share every step of
the loop over m, so one pass marches a whole stack: each row gets the
operations of a one-kernel march, and so its bits.  A K row differs only
at position 0 of each diagonal, where the boundary relation couples its
two weights.  ``solve_R`` and ``r_equation_residual`` are the stack of one
R.  ``build_kernels`` marches R, K+ and K- of one potential into dense
(N+1, N+1, 2, 2) arrays, and the ``kernels`` task marches the same three
straight into their binary dumps' packed (T, 2, 2) triangles in
``np.tril_indices`` order.  These are one store with two row-start
tables: row i of the triangle starts at node (N+1) i of a dense array and
at node i (i + 1)/2 of a packed one, and its nodes j = 0..i follow
(``_row_starts``).  So one node index writes a diagonal and the check
reads it back in either layout.  Row i is final once diagonal i, which
holds its node (x_i, 0), is marched, and the march never reads a diagonal
back: so one route (``_FinishedRows``) solves P+/- from R's rows and reads
the boundary relation at the nodes (x, 0) while the march runs, and the
``kernels`` task also hands its dumps' finished rows off and releases
them, never holding three whole triangles (``_march_dumps``).  The
spectra and stability experiments march the K+/- of every potential of a
request together, keeping only each diagonal's last node, which is the
trace K+/-(1, .) that Delta_Q reads, and the row and column sums of the
kernel deviation's mixed norms.  Only ``build_kernels`` and ``solve_R``
form a dense kernel.
"""

from __future__ import annotations

import math
import mmap
import struct
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import BoundaryConditions, _delta0_terms, delta0, minors
from .gridfn import (
    GridMismatchError,
    IterationLimitError,
    PNorm,
    SampledFunction,
    TriangularKernel,
    _COLUMN,
    _PART,
    _MixedSums,
    _trapezoid_weights,
    lp_norm,
)
from .ode import DiracSystem

__all__ = [
    "ComboKernels",
    "KernelSet",
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
    """Linear interpolation of ``values`` along its last axis at
    ``start + pos + frac`` within entries ``start .. start + top``.  The
    interpolating pair is clamped into the row, so points just past either
    end are extrapolated from the end cell."""
    i0 = np.minimum(np.maximum(pos, 0), np.maximum(top - 1, 0))
    t = (pos - i0) + frac
    lower = values[..., start + i0]
    return lower + t * (values[..., start + np.minimum(i0 + 1, top)] - lower)


def _rows_at(table: np.ndarray, starts, shape: tuple, steps: tuple = (1,)) -> np.ndarray:
    """View (S, 2) + ``shape`` of the C-contiguous (S, 2, ...) ``table``
    whose row (s, k) starts at flat entry ``starts[k - 1]`` of table[s, k]
    and steps ``steps`` entries along the trailing axes: the rows of both
    weights in one view, their different offsets folded into its k stride."""
    stack, weight, item = table.strides[0], table.strides[1], table.itemsize
    return np.ndarray(table.shape[:2] + shape, table.dtype, table, starts[0] * item,
                      (stack, weight + (starts[1] - starts[0]) * item) + tuple(item * step for step in steps))


def _previous_slot(table: np.ndarray, start: int, length: int) -> np.ndarray:
    """View (S, 2, 2, length) of the C-contiguous (S, 2, 2, W) table of
    half-unit slots (q = 2) split by parity, entry (r, c) at slot 2 c + r:
    entry (r, c) of the view is the slot before entry (r, start + c), that
    is (1, start + c - 1) for r = 0 and (0, start + c) for r = 1."""
    stack, weight, parity, item = table.strides
    return np.ndarray(table.shape[:2] + (2, length), table.dtype, table, parity + (start - 1) * item,
                      (stack, weight, item - parity, item))


# plane R_ab of a node, at offset 2 (a - 1) + (b - 1), of [R_kk, R_jk] x [k = 1, 2]
_PLANES = np.array([[0, 3], [2, 1]])


def _row_starts(kernel: np.ndarray, n: int) -> np.ndarray:
    """Node index of (x_i, 0), i = 0..N, in ``kernel``'s nodes: row i of a
    dense (N+1, N+1, 2, 2) array starts at (N+1) i, row i of a packed
    (T, 2, 2) triangle in ``np.tril_indices`` order at i (i + 1)/2.  Either
    way its nodes j = 0..i are the next i + 1."""
    i = np.arange(n + 1)
    return (n + 1) * i if kernel.ndim == 4 else i * (i + 1) // 2


def _rows(kernel: np.ndarray, n: int) -> list:
    """The rows (i + 1, 2, 2), i = 0..N, of ``kernel`` in either layout, as views."""
    nodes = kernel.reshape(-1, 2, 2)
    return [nodes[start : start + i + 1] for i, start in enumerate(_row_starts(kernel, n).tolist())]


def _per_weight(f) -> np.ndarray:
    """Column (2, 1) of f(k, j), j = 3 - k, for k = 1, 2: a per-weight
    factor broadcast over the rows (S, 2, L)."""
    return np.array([[f(1, 2)], [f(2, 1)]])


class _RSweeper:
    """The coupled R systems of a stack of kernels on one grid and one pair
    of weights, in diagonal coordinates: entry s of the stack is the R
    (``signs[s]`` = 0) or the K+/- (``signs[s]`` = +/-1) of potential
    ``systems[s]``, the K rows after the R rows.  One pass over the
    diagonals m = 0..N serves every row (kernel s, weight k): it either
    marches (solves the discrete equations) or only reads the state, and
    measures both equations' defect on the way.

    The rows of both weights share the line spacing q (alpha_2 = 1 -
    alpha_1) and differ in their first line and source cell, which per-step
    views with a k-dependent offset read (``_rows_at``).  Each diagonal is
    computed in contiguous (S, 2, L) temporaries, row by row the operations
    of a single-row pass, and traded with the caller (``walk``), or with one
    dense or packed array per kernel (``sweep``).  One kernel is the same
    code with S = 1.

    R_kk and Q_jk are upsampled by q into slots split by their residue r
    mod q, so that the slots of one residue are contiguous: slot q l + r of
    a row is entry (r, l) of its (q, L) table."""

    def __init__(self, systems, n: int, signs=None):
        sys = systems[0]
        if any((other.b1, other.b2) != (sys.b1, sys.b2) for other in systems):
            raise ValueError("a march stacks potentials with the same weights only")
        if n < 8:
            raise ValueError("grid size N must be >= 8 for the kernel solve")
        signs = [0] * len(systems) if signs is None else list(signs)
        # the K rows, sigma = +/-1, follow the R rows (sigma = 0) as one slice
        self.k_rows = slice(sum(1 for sign in signs if not sign), None)
        self.has_k = any(signs)
        if any(not sign for sign in signs[self.k_rows]):
            raise ValueError("a march stacks the R rows before the K rows")
        self.n = n
        self.h = 1.0 / n
        npts = n + 1
        grid = np.linspace(0.0, 1.0, npts)
        self.b = {1: sys.b1, 2: sys.b2}
        self.alpha = {1: sys.alpha1, 2: sys.alpha2}
        spacing = [_line_spacing(self.alpha[k]) for k in (1, 2)]
        if spacing[0][0] != spacing[1][0]:  # only at the 1e-13 edge of a rational alpha
            spacing = [(2, 2.0 * self.alpha[k]) for k in (1, 2)]
        q = self.q = spacing[0][0]
        # offsets[r, 2 l + part]: slot q l + r less node l, as np.interp
        # subtracts them, for the real and the imaginary part
        self.offsets = np.repeat((np.arange(q * n).reshape(n, q) / q - np.arange(n)[:, None]).T, 2, axis=1)
        # row (s, k) holds Q_jk, j = 3 - k; its Q_kj is row (s, 3 - k)
        self.qjk = np.array([[s.q21(grid), s.q12(grid)] for s in systems], dtype=complex)
        # qup[s, k, r, j]: Q_jk at slot q j + r (zero past slot q N + 1)
        self.qup = np.ascontiguousarray(self._upsampled(self.qjk, False)[1])
        self.diff = self.qjk[..., 1:] - self.qjk[..., :-1]
        # diagonal m's first line floor(q alpha_k m) and its weight, per k;
        # a rational alpha_k has integer steps, so only q = 2 has weights
        along = np.arange(npts)[:, None] * np.array([spacing[0][1], spacing[1][1]])
        lines = np.floor(along)
        self.bases = lines.astype(np.intp).tolist()
        self.weights = (along - lines)[:, :, None]
        self.between = (along != lines).any(axis=1).tolist()
        # Q_jk(alpha_k x + alpha_j t) on diagonal m: cells floor(alpha_k m) + l, one weight
        shift = np.arange(npts)[:, None] * np.array([self.alpha[1], self.alpha[2]])
        whole = np.floor(shift)
        self.cells = whole.astype(np.intp).tolist()
        self.fracs = (shift - whole)[:, :, None]
        # per k: the source's c0, the line sums' coeff, the R_kk trapezoid's factor
        b, alpha, h = self.b, self.alpha, self.h
        self.c0 = _per_weight(lambda k, j: 1j * b[j] * b[k] / (b[j] - b[k]))
        self.coeff = _per_weight(lambda k, j: -1j * b[j] * alpha[j] * h)
        self.diag_coeff = _per_weight(lambda k, j: -1j * b[k] * h)
        self.end_half = (0.5 * self.coeff) * self.qjk
        # K(x, 0) B^{-1} (1, sigma)^T = 0: K_kk(x, 0) = c_k K_jk(x, 0) per K row
        sigma = np.array(signs[self.k_rows], dtype=float)[:, None]
        self.couple = sigma * -np.array([b[1] / b[2], b[2] / b[1]])

    def _source_rows(self, m: int) -> np.ndarray:
        """Q_jk(alpha_k x + alpha_j t) at the nodes of diagonal m, every row
        (S, 2, N+1-m); the R_jk equation's source term is c0 times it."""
        top = self.n - m
        if not m:  # diagonal 0 ends on the last node, read from the end cell
            return _lerp_clamped(self.qjk, 0, self.n, np.arange(top + 1), 0.0)
        cells = self.cells[m]
        return _rows_at(self.qjk, cells, (top + 1,)) + self.fracs[m] * _rows_at(self.diff, cells, (top + 1,))

    def _recurrence(self):
        """Per row: the R_kk trapezoid's half weights (its factor times Q_kj)
        and the growth and scale of the recurrence solving its end-term
        coupling along a diagonal."""
        b, h = self.b, self.h
        diag_half = _per_weight(lambda k, j: -0.5j * b[k] * h) * self.qjk[:, ::-1]
        d = diag_half * self.end_half
        growth = np.ones(d.shape, dtype=complex)
        growth[..., 1:] = (1.0 + d[..., :-1]) / (1.0 - d[..., 1:])
        np.cumprod(growth, axis=-1, out=growth)
        return diag_half, growth, 1.0 / ((1.0 - d) * growth)

    def _upsampled(self, x: np.ndarray, between: bool) -> tuple:
        """Rows ``x`` (S, 2, top + 1) at nodes 0..top, a diagonal's R_kk or
        the grid's Q_jk, linearly interpolated at the slots i/q as np.interp
        does it, bit for bit: a table (S, 2, q, top + 2) whose column c
        holds the slots q (c - 1) + r (of column 0 only slot -1, set with
        ``between``; of the last column only slots q top and q top + 1, the
        rest zero), and its columns 1.. as a view.  A slot between nodes l
        and l + 1 is the real and imaginary parts of x[l] plus its offset
        from l times those of x[l + 1] - x[l]; a slot past either end is on
        the end cell's line."""
        q = self.q
        top = x.shape[-1] - 1
        table = np.zeros(x.shape[:2] + (q, top + 2), dtype=complex)
        rup = table[..., 1:]
        rup[..., 0, :] = x
        inner = rup.view(float)[..., 1:, : 2 * top]
        np.multiply((x[..., 1:] - x[..., :-1]).view(float)[..., None, :], self.offsets[1:, : 2 * top], out=inner)
        inner += x.view(float)[..., None, : 2 * top]
        np.add(x[..., top], (x[..., top] - x[..., top - 1]) / q, out=rup[..., 1, top])
        if between:
            np.subtract(x[..., 0], (x[..., 1] - x[..., 0]) / q, out=table[..., q - 1, 0])
        return table, rup

    def _start(self, m: int, a0: np.ndarray) -> np.ndarray:
        """K_kk(x_m, 0) of every K row (S_K, 2) from the right-hand sides
        ``a0`` of R_jk at the node (m, 0): the boundary relation couples the
        weights, x_k = c_k (a_j + e_j x_j), e_j the end-term factor there
        (none on diagonal 0), so x_1 = (c_1 a_2 + e_2 a_1) / (1 - e_1 e_2)
        and x_2 = (c_2 a_1 + e_1 a_2) / (1 - e_1 e_2), as c_1 c_2 = 1."""
        start = self.couple * a0[:, ::-1]
        if m:
            e = self.end_half[self.k_rows, :, m]
            start += e[:, ::-1] * a0
            start /= (1.0 - e[:, 0] * e[:, 1])[:, None]
        return start

    def sweep(self, kernels, solve: bool, finished=None) -> np.ndarray:
        """``walk`` with the C-contiguous arrays ``kernels``, one per kernel
        of the stack, all dense or all packed (``_row_starts``): the march
        writes each diagonal into them, the check reads it from them.  The
        diagonal's node (m + l, l) is node starts[m + l] + l, and its plane
        R_ab entry 2 (a - 1) + (b - 1) of that node.  The march calls
        ``finished(m)``, if given, once diagonal m is written: rows 0..m of
        every kernel are then final, as node (x_i, 0) is on diagonal i."""
        flats = [kernel.reshape(-1) for kernel in kernels]
        starts = _row_starts(kernels[0], self.n)
        ramp = np.arange(self.n + 1)

        def diagonal(m, state):
            nodes = _PLANES[:, :, None] + 4 * (starts[m:] + ramp[: self.n + 1 - m])
            for flat, rows in zip(flats, state):
                if solve:
                    flat[nodes] = rows
                else:
                    np.take(flat, nodes, out=rows)
            if finished is not None:
                finished(m)

        return self.walk(diagonal, solve)

    def walk(self, diagonal, solve: bool) -> np.ndarray:
        """One pass over the diagonals m = 0..N of every row, which trades
        each diagonal with the caller: ``diagonal(m, state)`` gets the state
        (S, 2, 2, N+1-m), indexed [row, (R_kk, R_jk), k, l] for the nodes
        (m + l, l), once the march has solved it, and must fill it in for
        the check.  Returns, per row (S, 2), the largest R_kk defect, R_jk
        defect and |R| (the last for ``solve`` only) over its nodes, as an
        array (3, S, 2).  A K row is the same with K_kk(x, 0) from the
        boundary relation in place of R_kk(x, 0) = 0.

        ``sums`` holds every line's trapezoid sum over the diagonals passed
        (half weight at diagonal 0); a node reads its line, or the two lines
        around it weighted (1 - w, w), as A_l, and
        R_jk[m, l] = c0 Q_jk(alpha_k x + alpha_j t) + coeff A_l
        + coeff/2 Q_jk(m + l) R_kk[m, l]: the trapezoid's end term is taken
        at the node, where its path ends (diagonal 0 has none).

        With ``solve`` (the march) R_kk on diagonal m is solved first: it
        reads R_jk on the same diagonal at positions <= l, and the
        trapezoid along the diagonal turns the end-term coupling into the
        recurrence (1 - d(s)) R_kk[m, l] = (1 + d(s-1)) R_kk[m, l-1] + r_l,
        s = m + l, whose factors depend on s alone; a K row's start value
        K_kk[m, 0] enters as growth[m + l] / growth[m] times it.  R_jk is
        then written from its right-hand side, so its defect is zero.
        Otherwise (the check) both are read, and R_jk's right-hand side is
        compared with it.  Either way the diagonal's R_kk defect is its
        start value plus the exact-node trapezoid of Q_kj R_jk along the
        diagonal less R_kk, and the R_kk row's line integrand then joins
        the sums."""
        n, q = self.n, self.q
        npts = n + 1
        stack = self.qjk.shape[0]
        ks = self.k_rows
        qkj = self.qjk[:, ::-1].copy()
        if solve:
            diag_half, growth, scale = self._recurrence()
        sums = np.zeros((stack, 2, q * n + 2), dtype=complex)  # line qN + 1 is read with weight 0 only
        # per diagonal and row: R_kk defect, R_jk defect, max |R|
        worst = np.zeros((3, npts, stack, 2))
        for m in range(npts):
            top = n - m
            bases, w, between = self.bases[m], self.weights[m], self.between[m]
            lines = _rows_at(sums, bases, (top + 1,), (q,))
            if between:
                lines = lines + w * (_rows_at(sums, [base + 1 for base in bases], (top + 1,), (q,)) - lines)
            a = self.c0 * self._source_rows(m) + self.coeff * lines
            if self.has_k:
                start = self._start(m, a[ks, :, 0])
            state = np.empty((stack, 2, 2, top + 1), dtype=complex)  # [s, (R_kk, R_jk), k, l]
            x, y = state[:, 0], state[:, 1]
            if solve:  # R: x[0] = 0, a path of one point
                pa = diag_half[..., m:] * a
                x[..., 0] = 0.0
                acc = pa[..., :-1] + pa[..., 1:]
                if m:
                    acc *= scale[..., m + 1 :]
                if self.has_k:  # K: x[0] = start, entering the sum as start / growth[m]
                    x[ks, :, 0] = start
                    if top:
                        acc[ks, :, 0] += start / growth[ks, :, m] if m else start
                if m:
                    np.multiply(growth[..., m + 1 :], np.add.accumulate(acc, axis=-1), out=x[..., 1:])
                    np.multiply(self.end_half[..., m:], x, out=y)
                    y += a
                else:
                    np.add.accumulate(acc, axis=-1, out=x[..., 1:])
                    y[...] = a
                diagonal(m, state)
                np.maximum.reduce(np.abs(state), axis=(1, 3), out=worst[2, m])
            else:
                diagonal(m, state)
                rjk = a + self.end_half[..., m:] * x if m else a
                rjk -= y
                np.maximum.reduce(np.abs(rjk), axis=-1, out=worst[1, m])
            g = qkj[..., m:] * y
            update = np.add.accumulate(g, axis=-1)
            g += g[..., :1]
            g *= 0.5
            update -= g
            update *= self.diag_coeff
            update -= x
            if self.has_k:
                update[ks] += start[..., None]
            np.maximum.reduce(np.abs(update), axis=-1, out=worst[0, m])
            if m == n:
                break
            # the lines base + i, i = 0..q*top + 1, cross diagonal m at
            # (i - w)/q: Q_jk and R_kk upsampled by q, between slots i - 1 and i
            table, rup = self._upsampled(x, between)
            qs = self.qup[..., m : m + top + 1]
            if between:  # q = 2
                wr = w[..., None]
                f = qs + wr * (_previous_slot(self.qup, m, top + 1) - qs)
                f *= rup + wr * (_previous_slot(table, 1, top + 1) - rup)
            else:
                f = qs * rup
            if not m:
                f *= 0.5
            # the slots q l + r of the columns l < top, then slots q top and q top + 1
            body = _rows_at(sums, bases, (q, top), (1, q))
            np.add(f[..., :top], body, out=body)
            tail = _rows_at(sums, [base + q * top for base in bases], (2,))
            np.add(f[..., :2, top], tail, out=tail)
        return worst.max(axis=1)


def _certified(worst: np.ndarray, signs, tol: float) -> list:
    """Each row's check from a march's maxima ``worst`` (3, S, 2); raises
    IterationLimitError for the first not below ``tol`` max(1, max |kernel|)."""
    out = []
    for sign, residual, size in zip(signs, worst[:2].max(axis=(0, 2)).tolist(), worst[2].max(axis=1).tolist()):
        if not residual < tol * max(1.0, size):
            name = {0: "R", 1: "K+", -1: "K-"}[sign]
            raise IterationLimitError(
                f"kernel substitution check is not below tol={tol} times max(1, max|{name}|), max|{name}| = {size:.3e}",
                residual)
        out.append(residual)
    return out


def _march(systems, signs, n: int, kernels, tol: float, finished=None) -> list:
    """One march over the rows (systems[s], signs[s]), R for sign 0 and
    K+/- for +/-1, into the arrays ``kernels`` (``sweep``, which calls
    ``finished``); returns each row's check.  The callers form dense
    ``kernels`` before the sweeper's tables: a request's peak RSS moves
    with where glibc's heap places them (BENCH_15.json has both orders).
    ``_march_dumps``' store is a mapping of its own, outside the heap,
    where the order does not matter."""
    return _certified(_RSweeper(systems, n, signs).sweep(kernels, True, finished), signs, tol)


def solve_R(sys: DiracSystem, n: int, tol: float = DEFAULT_TOL, return_residual: bool = False):
    """The kernel R on the N-grid: one march along the diagonals of the
    kernel array, which measures its own defect.

    The march solves the discrete equations diagonal by diagonal, for
    every weight ratio, so the defect at its state is roundoff (1e-16 to
    1e-15 of max |R|).  A defect not below ``tol`` max(1, max |R|) raises
    IterationLimitError: no further iteration can certify R below the
    defect's own roundoff.
    """
    data = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
    [residual] = _march([sys], [0], n, [data], tol)
    kernel = TriangularKernel(data)
    return (kernel, residual) if return_residual else kernel


def r_equation_residual(sys: DiracSystem, r: TriangularKernel) -> float:
    """Max-node defect of both integral equations at the state ``r``
    (substitution check: every update from ``r`` alone, largest change)."""
    return float(_RSweeper([sys], r.n).sweep([r.data], solve=False)[:2].max())


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
    solver = _PSolver(sys, n)
    solver.step(_rows(r.data, n))
    return solver.finish()


class _PSolver:
    """``solve_P``'s forward substitution, fed R's rows in order by
    ``step``, each an (i+1, 2, 2) array of R(x_i, t_j), j = 0..i
    (``_rows``), all at once or a few at a time as a march finishes them,
    each read once: its row sum with the trapezoid's half weight at s = 0
    solves P there, and its full row sum at the solution, with that weight
    restored, is what the defect re-evaluates (the full row sum less half
    of both end terms).  ``finish`` returns (pplus, pminus, residual)."""

    def __init__(self, sys: DiracSystem, n: int):
        self.sys, self.n, self.h = sys, n, 1.0 / n
        self.first = np.empty((n + 1, 2, 2), dtype=complex)  # R(x_i, 0)
        self.diag = np.empty_like(self.first)  # R(x_i, x_i)
        self.g = np.empty_like(self.first)  # g[i, component, sign]
        self.v = np.empty_like(self.first)  # the solution, v[0] halved
        self.u = np.empty_like(self.first)  # the solution
        self.full = np.zeros_like(self.first)
        self.done = 0

    def step(self, rows) -> None:
        """Solve P at the next len(rows) nodes from R's rows there."""
        lo, hi = self.done, self.done + len(rows)
        h, first, diag, g, v, u = self.h, self.first, self.diag, self.g, self.v, self.u
        first[lo:hi] = [row[0] for row in rows]
        diag[lo:hi] = [row[-1] for row in rows]
        a1, a2 = 1.0 / self.sys.b1, 1.0 / self.sys.b2
        g[lo:hi, 0] = (-a2 * first[lo:hi, 0, 1])[:, None] * np.array([1.0, -1.0])
        g[lo:hi, 1] = (-a1 * first[lo:hi, 1, 0])[:, None]
        # the trapezoid's s = x_i node, moved to the left-hand side
        inv = np.linalg.inv(np.eye(2) + (0.5 * h) * diag[lo:hi])
        for i, row, inv_i in zip(range(lo, hi), rows, inv):
            if not i:
                v[0] = 0.5 * g[0]  # the trapezoid's half weight at s = 0
                u[0] = g[0]
                continue
            acc = row[:i].transpose(1, 0, 2).reshape(2, 2 * i) @ v[:i].reshape(2 * i, 2)
            u[i] = v[i] = inv_i @ (g[i] - h * acc)
            np.matmul(row.transpose(1, 0, 2).reshape(2, 2 * i + 2), u[: i + 1].reshape(2 * i + 2, 2), out=self.full[i])
        self.done = hi

    def finish(self):
        sys, first, u = self.sys, self.first, self.u
        integral = (self.full - 0.5 * (first @ u[0] + self.diag @ u)) / self.n
        integral[0] = 0.0
        residual = float(np.abs(u + integral - self.g).max())
        pplus, pminus = (SampledFunction(np.stack([sys.b1 * u[:, 0, col], sign * sys.b2 * u[:, 1, col]], axis=1))
                         for col, sign in enumerate((+1, -1)))
        return pplus, pminus, residual


def build_kernels(sys: DiracSystem, n: int, tol: float = DEFAULT_TOL) -> KernelSet:
    """R, P+/- and K+/- with residual bookkeeping: R, K+ and K- from one
    march as rows of one stack, each certified by its own check, and P+/-
    from R."""
    datas = [np.zeros((n + 1, n + 1, 2, 2), dtype=complex) for _ in range(3)]
    route = _FinishedRows(datas, sys, n)
    checks = _march([sys] * 3, (0, 1, -1), n, datas, tol, route)
    pplus, pminus, residuals = route.residuals()
    r, kplus, kminus = (TriangularKernel(data) for data in datas)
    return KernelSet(r, pplus, pminus, kplus, kminus, {"R": checks[0], **residuals})


# diagonals marched between two takes of the finished rows
_FLUSH = 16


class _FinishedRows:
    """The route to P+/- and the residuals "P" and "K_boundary" of a march
    of (R, K+, K-) into ``kernels``, dense or packed, as its ``finished``:
    after every ``_FLUSH`` diagonals, and after the last, R's newly final
    rows go to P's forward substitution and K+/-(x_i, 0) are copied.  A
    call on diagonal m returns the rows (lo, hi) it took, or None between
    takes; ``residuals`` then returns (pplus, pminus, {"P", "K_boundary"}),
    and ``p_s`` holds the seconds spent on P."""

    def __init__(self, kernels, sys: DiracSystem, n: int):
        self.sys, self.n = sys, n
        self.rows = _rows(kernels[0], n)
        self.starts = _row_starts(kernels[0], n)
        self.nodes = [kernel.reshape(-1, 2, 2) for kernel in kernels[1:]]
        self.columns = np.empty((2, n + 1, 2, 2), dtype=complex)  # K+/-(x_i, 0)
        self.solver = _PSolver(sys, n)
        self.p_s = 0.0

    def __call__(self, m: int):
        if (m + 1) % _FLUSH and m < self.n:
            return None
        lo, hi = self.solver.done, m + 1
        clock = time.perf_counter()
        self.solver.step(self.rows[lo:hi])
        self.p_s += time.perf_counter() - clock
        for column, nodes in zip(self.columns, self.nodes):
            column[lo:hi] = nodes[self.starts[lo:hi]]
        return lo, hi

    def residuals(self):
        clock = time.perf_counter()
        pplus, pminus, p_res = self.solver.finish()
        self.p_s += time.perf_counter() - clock
        return pplus, pminus, {"P": p_res, "K_boundary": _boundary_relation_defect(self.sys, *self.columns)}


def _boundary_relation_defect(sys: DiracSystem, kplus0: np.ndarray, kminus0: np.ndarray) -> float:
    """Max node violation of K(x, 0) B^{-1} (1, +/-1)^T = 0, from the
    (N+1, 2, 2) columns K+/-(x, 0)."""
    worst = 0.0
    for column, sign in ((kplus0, +1.0), (kminus0, -1.0)):
        vec = np.array([1.0 / sys.b1, sign / sys.b2], dtype=complex)
        worst = max(worst, float(np.abs(column @ vec).max()))
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
    along the new second-to-last axis, a row-wise multiply per step (faster
    than ``np.cumprod`` along that axis): shape z.shape[:-1] + (count, L)."""
    out = np.empty(z.shape[:-1] + (count, z.shape[-1]), dtype=complex)
    out[..., 0, :] = 1.0
    if count > 1:
        out[..., 1, :] = z
    for k in range(2, count):
        np.multiply(out[..., k - 1, :], z, out=out[..., k, :])
    return out


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
    return _trace_evaluator(bc, ck.kplus.data[ck.n], ck.kminus.data[ck.n], b1, b2)


def _trace_evaluator(bc: BoundaryConditions, kp: np.ndarray, km: np.ndarray, b1: float, b2: float):
    """``determinant_evaluator``'s callable from the traces K+(1, .) and
    K-(1, .) alone, each of shape (N+1, 2, 2): all that Delta_Q reads."""
    m = minors(bc)
    n = kp.shape[0] - 1
    h = 1.0 / n
    t = np.linspace(0.0, 1.0, n + 1)
    w = _trapezoid_weights(n)
    base = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
    blocks = -(-(n + 1) // base)
    # terms[l, j, c]: coefficient of z^j in column c (value, slope) of
    # weight l, zero-padded to A B terms
    terms = np.zeros((2, blocks * base, 2), dtype=complex)
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
    _, js, betas = _delta0_terms(m, b1, b2)
    rates = np.concatenate([betas, b1 * t, b2 * t])
    slopes = np.abs(np.concatenate([[beta * j for j, beta in zip(js, betas)], terms[0, : n + 1, 1], terms[1, : n + 1, 1]]))
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
    _, deviations = _kernel_traces([sys_a, sys_b], n, p, tol)
    dev_inf, dev_one = deviations[0].tolist()
    return dev_inf, dev_one, potential_diff_norm(sys_a, sys_b, p, n)


def _kernel_traces(systems, n: int, p=None, tol: float = DEFAULT_TOL):
    """K+/-(1, .) of every potential of ``systems`` (one grid, one pair of
    weights), from one march over their K+ and K- rows that keeps each
    diagonal's last node only; with ``p``, also the worst-sign (infinity,
    one) mixed-norm deviation of K+/- within each pair (systems[0],
    systems[1]), (systems[2], systems[3]), ..., summed diagonal by
    diagonal (``_MixedSums``).  No dense kernel is formed.

    Returns (traces, deviations): per potential (K+(1, .), K-(1, .)), each
    of shape (N+1, 2, 2), and an array (pairs, 2) of (dev_inf, dev_one),
    empty without ``p``.  Raises IterationLimitError as ``solve_R`` does."""
    rows = [sys for sys in systems for _ in (1, -1)]
    signs = [1, -1] * len(systems)
    sums = _MixedSums((len(systems) // 2, 2), n, p) if p is not None else None
    ends = np.empty((len(rows), 2, 2, n + 1), dtype=complex)  # [row, (K_kk, K_jk), k, t] at x = 1

    def keep(m, state):
        ends[..., n - m] = state[..., -1]
        if sums is not None:
            pairs = state.reshape((-1, 2, 2) + state.shape[1:])  # [pair, potential, sign, part, k, l]
            diff = pairs[:, 0] - pairs[:, 1]
            sums.add(m, diff)

    worst = _RSweeper(rows, n, signs).walk(keep, solve=True)
    _certified(worst, signs, tol)
    traces = [np.ascontiguousarray(row.transpose(2, 0, 1)) for row in ends[:, _PART, _COLUMN]]
    deviations = np.stack(sums.norms(), axis=-1).max(axis=1) if sums is not None else np.empty((0, 2))
    return list(zip(traces[0::2], traces[1::2])), deviations


_KERNEL_MAGIC = struct.Struct("<II")


def write_kernel(kernel: TriangularKernel, path) -> None:
    """Binary dump: little-endian header (N, complex count) followed by the
    triangle's nodes in ``np.tril_indices(N+1)`` (row-major) order, each
    node as four complex doubles, written row by row from the contiguous
    slices ``data[i, :i+1]``."""
    n = kernel.n
    with open(path, "wb") as fh:
        fh.write(_KERNEL_MAGIC.pack(n, 4 * (n + 1) * (n + 2) // 2))
        for row in _rows(kernel.data.astype("<c16", copy=False), n):
            fh.write(row)


def _anonymous_pages(size: int) -> mmap.mmap:
    """A private anonymous mapping of ``size`` zero bytes.  It must be
    private: MADV_DONTNEED on a shared one takes its pages out of the
    resident set but keeps their contents in shared memory."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mmap.mmap(-1, size)


def _march_dumps(sys: DiracSystem, n: int, tol: float, sink):
    """R, K+ and K- of ``sys`` marched, as ``build_kernels`` marches them,
    straight into their dumps, which go to ``sink`` while the march runs.

    The store is a little-endian complex array (3, 1 + 4 T) on a private
    anonymous mapping whose row s holds the dump of kernel s (R, K+, K-)
    from its byte 8 on: ``write_kernel``'s 8-byte header in the upper half
    of entry 0 and then the T nodes in ``np.tril_indices`` order
    (``_row_starts``).  Each time ``_FinishedRows`` takes the newly final
    rows, each dump's newly final bytes go to ``sink(s, chunk)`` in order,
    a uint8 view valid while the call lasts, and the whole pages of the
    final prefix are released (MADV_DONTNEED, where the platform has it),
    so that the store never holds three whole triangles.  The sink gets
    every byte of the dumps before their checks are done: a caller keeps
    nothing of them until this returns.

    Returns (pplus, pminus, residuals, p_s): P+/- from R, the residuals
    "R", "P" and "K_boundary" as ``build_kernels`` has them, bit for bit,
    and the seconds spent on P."""
    count = 2 * (n + 1) * (n + 2)  # complex entries per dump
    pages = _anonymous_pages(3 * 16 * (1 + count))
    store = np.frombuffer(pages, dtype="<c16").reshape(3, 1 + count)
    store[:, 0] = np.frombuffer(bytes(8) + _KERNEL_MAGIC.pack(n, count), dtype="<c16")
    packed = store[:, 1:].reshape(3, -1, 2, 2)
    dumps = [row[8:] for row in store.view(np.uint8)]  # header and nodes
    route = _FinishedRows(packed, sys, n)
    release = getattr(mmap, "MADV_DONTNEED", None)
    page, row_bytes = mmap.PAGESIZE, store.strides[0]

    def finished(m):
        taken = route(m)
        if taken is None:
            return
        lo, hi = taken
        begin, end = 8 + 32 * lo * (lo + 1) if lo else 0, 8 + 32 * hi * (hi + 1)
        for s, dump in enumerate(dumps):
            sink(s, dump[begin:end])
        if release is not None:
            # the whole pages of row s of the store up to dump byte end,
            # less those an earlier take released
            for s in range(3):
                at = s * row_bytes + 8
                first = max(-(-s * row_bytes // page), (at + begin) // page) * page
                last = (at + end) // page * page
                if last > first:
                    pages.madvise(release, first, last - first)

    check = _march([sys] * 3, (0, 1, -1), n, packed, tol, finished)[0]
    pplus, pminus, residuals = route.residuals()
    return pplus, pminus, {"R": check, **residuals}, route.p_s


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
