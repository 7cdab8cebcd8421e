"""Functions and triangular kernels on uniform grids of [0,1].

Everything downstream (ODE integration, transformation-operator kernels,
determinants) works with two representations:

* ``SampledFunction`` -- complex scalar or vector samples at the N+1 nodes
  x_i = i/N, evaluated off-node by linear interpolation;
* ``TriangularKernel`` -- complex 2x2 matrices at node pairs (x_i, t_j)
  restricted to the triangle ``0 <= t <= x <= 1``.

All quadrature is composite trapezoid, which matches the linear
interpolation order.  Values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "GridMismatchError",
    "InvalidExponentError",
    "IterationLimitError",
    "PNorm",
    "ResolventResult",
    "SampledFunction",
    "TriangularKernel",
    "compose_kernels",
    "lp_norm",
    "resolvent_kernel",
    "x_norm",
]


class InvalidExponentError(ValueError):
    """Raised for Lebesgue exponents outside [1, inf]."""


class GridMismatchError(ValueError):
    """Raised when two grid objects with different N are combined."""


class IterationLimitError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class PNorm:
    """Lebesgue exponent p in [1, inf]; use ``math.inf`` for p = infinity."""

    __slots__ = ("p",)

    def __init__(self, p: "PNorm | float"):
        if isinstance(p, PNorm):
            p = p.p
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise InvalidExponentError(f"exponent must satisfy p >= 1, got {p}")
        self.p = p

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    def conjugate(self) -> "PNorm":
        """Conjugate exponent p' with 1/p + 1/p' = 1."""
        if self.is_inf:
            return PNorm(1.0)
        if self.p == 1.0:
            return PNorm(math.inf)
        return PNorm(self.p / (self.p - 1.0))

    def __eq__(self, other) -> bool:
        return isinstance(other, PNorm) and self.p == other.p

    def __repr__(self) -> str:
        return f"PNorm({self.p})"


@dataclass(frozen=True)
class SampledFunction:
    """Complex function sampled at the N+1 uniform nodes of [0,1].

    ``samples`` has shape (N+1,) for scalar functions or (N+1, k) for
    vector-valued ones.  Off-node evaluation is linear interpolation;
    evaluation at a node returns the stored sample exactly.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.ndim not in (1, 2) or arr.shape[0] < 3:
            raise ValueError("need samples at N+1 >= 3 nodes, shape (N+1,) or (N+1, k)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        """Number of grid intervals N."""
        return self.samples.shape[0] - 1

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @classmethod
    def zero(cls, n: int, width: int | None = None) -> "SampledFunction":
        shape = (n + 1,) if width is None else (n + 1, width)
        return cls(np.zeros(shape, dtype=complex))

    def __call__(self, x):
        """Linear interpolation at points x (scalar or array) in [0,1];
        evaluation at a node returns the stored sample exactly."""
        x = np.asarray(x, dtype=float)
        pos = np.clip(x, 0.0, 1.0) * self.n
        nearest = np.rint(pos).astype(int)
        on_node = np.abs(pos - nearest) < 1e-9
        lo = np.minimum(pos.astype(int), self.n - 1)
        frac = pos - lo
        s = self.samples
        if s.ndim == 1:
            interp = (1.0 - frac) * s[lo] + frac * s[lo + 1]
            return np.where(on_node, s[nearest], interp)
        interp = (1.0 - frac)[..., None] * s[lo] + frac[..., None] * s[lo + 1]
        return np.where(on_node[..., None], s[nearest], interp)

    def scale(self, c: complex) -> "SampledFunction":
        return SampledFunction(c * self.samples)


@dataclass(frozen=True)
class TriangularKernel:
    """2x2 matrix kernel sampled on the triangle ``0 <= t_j <= x_i <= 1``.

    ``data`` has shape (N+1, N+1, 2, 2).  The kernel owns the array it is
    given: a complex, C-contiguous, writeable array that owns its memory is
    adopted, anything else (a view, a kernel's ``data``) is copied; slots
    j > i lie off the triangle and are zeroed, so row and column sums need
    no mask, and the array is made read-only.  :meth:`entry` refuses j > i.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.require(self.data, dtype=complex, requirements="COW")
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2:] != (2, 2):
            raise ValueError("kernel data must have shape (N+1, N+1, 2, 2)")
        if arr.shape[0] < 3:
            raise ValueError("grid size N must be >= 2")
        for i in range(arr.shape[0] - 1):
            arr[i, i + 1 :] = 0.0
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0] - 1

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    def entry(self, i: int, j: int) -> np.ndarray:
        """Stored 2x2 value at (x_i, t_j).  Outside the triangle is a contract
        violation, not zero."""
        if not (0 <= j <= i <= self.n):
            raise IndexError(f"(i={i}, j={j}) outside triangular domain, N={self.n}")
        return self.data[i, j]

    @classmethod
    def zero(cls, n: int) -> "TriangularKernel":
        return cls(np.zeros((n + 1, n + 1, 2, 2), dtype=complex))

    @classmethod
    def from_scalar(cls, f: Callable, n: int, entry: tuple[int, int] = (0, 0)) -> "TriangularKernel":
        """Embed a scalar kernel f(x, t) into one matrix entry."""
        data = np.zeros((n + 1, n + 1, 2, 2), dtype=complex)
        x = np.linspace(0.0, 1.0, n + 1)
        ii, jj = np.meshgrid(x, x, indexing="ij")
        vals = np.asarray(f(ii, jj), dtype=complex)
        data[:, :, entry[0], entry[1]] = vals
        return cls(data)

    def scale(self, c: complex) -> "TriangularKernel":
        return TriangularKernel(c * self.data)

    def add(self, other: "TriangularKernel") -> "TriangularKernel":
        if other.n != self.n:
            raise GridMismatchError(f"grids differ: {self.n} vs {other.n}")
        return TriangularKernel(self.data + other.data)


def _trapezoid_weights(m: int) -> np.ndarray:
    w = np.ones(m + 1)
    w[0] = w[-1] = 0.5
    return w


def lp_norm(f: SampledFunction, p: "PNorm | float") -> float:
    """Trapezoidal L^p norm of f; vector values use the componentwise
    p-th power sum, so ||f||_p^p = integral of sum_j |f_j|^p."""
    absval = np.abs(f.samples)
    return float(_lp_norms(absval if absval.ndim == 2 else absval[:, None], PNorm(p)))


def _lp_norms(absval: np.ndarray, p: PNorm) -> np.ndarray:
    """``lp_norm`` of every function of a batch from the absolute values
    ``absval`` (..., N+1, k) of its samples, k components at each node."""
    if p.is_inf:
        return absval.max(axis=(-2, -1))
    n = absval.shape[-2] - 1
    pointwise = (absval**p.p).sum(axis=-1)
    h = 1.0 / n
    integral = h * (_trapezoid_weights(n) * pointwise).sum(axis=-1)
    return integral ** (1.0 / p.p)


# a 2x2 matrix [a, b] held as the R march holds its state, [(diagonal
# entry, off-diagonal entry), column k], and back: A[a, b] = S[_PART[a, b],
# _COLUMN[a, b]] and S[p, k] = A[_PART[p, k], _COLUMN[p, k]]
_PART = np.array([[0, 1], [1, 0]])
_COLUMN = np.array([[0, 1], [0, 1]])


def _node_powers(diag: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """|K|_{1->p}^p and |K|_{p'->inf}^p, 1/p + 1/p' = 1, of the 2x2
    matrices ``diag`` (2, L, ..., 2) held as the march holds them, [(diagonal
    entry, off-diagonal entry), node, ..., column k] (see ``_PART``): the
    largest column and the largest row l^p sum of the entries' p-th
    powers, each of shape (L, ...).  At p = inf both are the largest entry."""
    a = np.abs(diag)
    if math.isinf(p):
        top = a.max(axis=(0, -1))
        return top, top
    if p != 1.0:
        a **= p
    cols = a[0] + a[1]  # column k: K_kk and K_jk
    rows = a[0] + a[1, ..., ::-1]  # row k: K_kk and K_kj
    return np.maximum(cols[..., 0], cols[..., 1]), np.maximum(rows[..., 0], rows[..., 1])


class _MixedSums:
    """The sums behind ``x_norm``, fed one diagonal of nodes at a time, for
    kernels of leading shape ``shape``: per t-column the trapezoid sum
    along x of |K|_{1->p}^p (the "one" family) and per x-row the trapezoid
    sum along t of |K|_{p'->inf}^p (the "infinity" family); at p = inf the
    largest node norm per column and row.  A kernel streamed diagonal by
    diagonal needs no dense copy of itself for its norms."""

    def __init__(self, shape: tuple, n: int, p: "PNorm | float"):
        self.p = PNorm(p)
        self.n = n
        self.sums = np.zeros((2, n + 1) + shape)  # [one per column, infinity per row]

    def add(self, m: int, diag: np.ndarray) -> None:
        """Add diagonal m: the matrices ``diag`` (2, N+1-m, ..., 2) at the
        nodes (m + l, l), held as ``_node_powers`` takes them, to column l
        of the "one" sums and row m + l of the "infinity" ones."""
        one, inf = _node_powers(diag, self.p.p)
        one_sums, inf_sums = self.sums[0, : self.n + 1 - m], self.sums[1, m:]
        if self.p.is_inf:
            np.maximum(one_sums, one, out=one_sums)
            np.maximum(inf_sums, inf, out=inf_sums)
            return
        # trapezoid weights: along x from t_j to 1, half at i = j and i = N,
        # the t = 1 column a single point; along t from 0 to x_i, half at
        # j = 0 and j = i, the x = 0 row a single point
        if m:
            one[-1] *= 0.5
            inf[0] *= 0.5
        else:
            one *= 0.5
            inf *= 0.5
            one[-1] = 0.0
            inf[0] = 0.0
        one_sums += one
        inf_sums += inf

    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """(infinity family, one family) of every kernel: its largest row
        and column sum, times h, to the power 1/p."""
        if self.p.is_inf:
            return self.sums[1].max(axis=0), self.sums[0].max(axis=0)
        top = ((1.0 / self.n) * self.sums).max(axis=1) ** (1.0 / self.p.p)
        return top[1], top[0]


def x_norm(kernel: TriangularKernel, family: str, p: "PNorm | float") -> float:
    """Mixed sup/integral norm of a triangular kernel.

    ``family='one'``      : max over t-columns of (int_t^1 |K(x,t)|_{1->p}^p dx)^{1/p}
    ``family='infinity'`` : max over x-rows  of (int_0^x |K(x,t)|_{p'->inf}^p dt)^{1/p}

    The essential supremum of the continuous object is modeled by the grid
    maximum; the inner integral is composite trapezoid, summed diagonal by
    diagonal (``_MixedSums``).
    """
    if family not in ("one", "infinity"):
        raise ValueError(f"family must be 'one' or 'infinity', got {family!r}")
    sums = _MixedSums((), kernel.n, p)
    for m in range(kernel.n + 1):
        sums.add(m, np.diagonal(kernel.data, -m)[_PART, _COLUMN].transpose(0, 2, 1))
    inf, one = sums.norms()
    return float(one if family == "one" else inf)


def _block_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_l A[i,l] @ B[l,j] for (M, M, 2, 2) stacks, via one
    (2M x 2M) BLAS matmul."""
    m = a.shape[0]
    x = a.transpose(2, 0, 3, 1).reshape(2 * m, 2 * m)
    y = b.transpose(2, 0, 3, 1).reshape(2 * m, 2 * m)
    z = x @ y
    return z.reshape(2, m, 2, m).transpose(1, 3, 0, 2)


def compose_kernels(n1: TriangularKernel, n2: TriangularKernel) -> TriangularKernel:
    """Kernel product (N1 * N2)(x,t) = int_t^x N1(x,s) N2(s,t) ds by
    node-pair trapezoid."""
    if n1.n != n2.n:
        raise GridMismatchError(f"grids differ: {n1.n} vs {n2.n}")
    n = n1.n
    h = 1.0 / n
    a = n1.data
    b = n2.data
    full = _block_matmul(a, b)
    # trapezoid endpoint correction: half weight at s = t and s = x
    idx = np.arange(n + 1)
    diag_b = b[idx, idx]  # B[j, j]
    diag_a = a[idx, idx]  # A[i, i]
    corr = 0.5 * np.einsum("ijab,jbc->ijac", a, diag_b) + 0.5 * np.einsum("iab,ijbc->ijac", diag_a, b)
    return TriangularKernel(h * (full - corr))


class ResolventResult(NamedTuple):
    kernel: TriangularKernel
    residual: float
    iterations: int


def resolvent_kernel(kernel: TriangularKernel, max_iter: int = 200, tol: float = 1e-10) -> ResolventResult:
    """Kernel S of the inverse Volterra operator: N + S + N*S = 0.

    Computed by the Neumann series S = sum_{k>=1} (-1)^k N^{*k}; terms are
    added until the certified residual ||N + S + N*S|| in the (infinity, 1)
    mixed norm drops below ``tol``.
    """
    s = kernel.scale(-1.0)
    term = s
    residual = math.inf
    for it in range(1, max_iter + 1):
        residual = x_norm(kernel.add(s).add(compose_kernels(kernel, s)), "infinity", 1)
        if residual < tol:
            return ResolventResult(s, residual, it)
        term = compose_kernels(kernel, term).scale(-1.0)
        s = s.add(term)
    raise IterationLimitError(f"resolvent Neumann series did not reach tol={tol} in {max_iter} iterations", residual)
