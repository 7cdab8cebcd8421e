"""Boundary-condition algebra: minors, canonical reduction, regularity.

Two-point conditions U_j(y) = a_j1 y_1(0) + a_j2 y_2(0) + a_j3 y_1(1)
+ a_j4 y_2(1) = 0 are stored as a 2x4 matrix A.  Regular conditions reduce
to the canonical quadruple (a, b, c, d):

    y_1(0) + b y_2(0) + a y_1(1) = 0,
    d y_2(0) + c y_1(1) + y_2(1) = 0,

obtained by multiplying A on the left by the inverse of its (1,4) column
pair.  The strict-regularity classifier dispatches on the arithmetic
structure of b_1/b_2 and the explicit algebraic criteria known for each
case; cases the theory leaves open are reported honestly as unknown.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "BoundaryConditions",
    "Minors",
    "NotCanonicalizableError",
    "RegularityVerdict",
    "canonicalize",
    "classify",
    "delta0",
    "minors",
]

_RATIO_TOL = 1e-12
_DENOMINATOR_CAP = 64
_CLUSTER_RADIUS = 1e-8


class NotCanonicalizableError(ValueError):
    """Raised when J_14 = 0 and the canonical (a,b,c,d) form does not exist."""


@dataclass(frozen=True)
class BoundaryConditions:
    """2x4 coefficient matrix of the boundary forms; rows must be
    linearly independent."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.shape != (2, 4):
            raise ValueError(f"boundary matrix must be 2x4, got {a.shape}")
        if np.linalg.matrix_rank(a) < 2:
            raise ValueError("boundary condition rows are linearly dependent")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @classmethod
    def from_canonical(cls, a: complex, b: complex, c: complex, d: complex) -> "BoundaryConditions":
        return cls(np.array([[1.0, b, a, 0.0], [0.0, d, c, 1.0]], dtype=complex))


@dataclass(frozen=True)
class Minors:
    """All 2x2 minors J_jk = det(columns j,k of A); antisymmetric in (j,k)."""

    table: np.ndarray  # shape (5, 5), 1-based indices

    def __getitem__(self, jk: tuple[int, int]) -> complex:
        j, k = jk
        if not (1 <= j <= 4 and 1 <= k <= 4):
            raise IndexError("minor indices run over 1..4")
        return complex(self.table[j, k])


def minors(bc: BoundaryConditions) -> Minors:
    a = bc.matrix
    table = np.zeros((5, 5), dtype=complex)
    for j in range(1, 5):
        for k in range(1, 5):
            table[j, k] = a[0, j - 1] * a[1, k - 1] - a[0, k - 1] * a[1, j - 1]
    table.flags.writeable = False
    return Minors(table)


def canonicalize(bc: BoundaryConditions) -> tuple[complex, complex, complex, complex]:
    """Reduce to the canonical quadruple (a, b, c, d) by left-multiplying
    with the inverse of the (column 1, column 4) pair.  Requires J_14 != 0."""
    m = minors(bc)
    j14 = m[1, 4]
    scale = float(np.abs(bc.matrix).max())
    if abs(j14) <= 1e-14 * max(scale**2, 1.0):
        raise NotCanonicalizableError("J_14 = 0: boundary conditions have no canonical form")
    a14 = np.array([[bc.matrix[0, 0], bc.matrix[0, 3]], [bc.matrix[1, 0], bc.matrix[1, 3]]], dtype=complex)
    reduced = np.linalg.solve(a14, np.asarray(bc.matrix))
    b = complex(reduced[0, 1])
    a = complex(reduced[0, 2])
    d = complex(reduced[1, 1])
    c = complex(reduced[1, 2])
    return a, b, c, d


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


class _ExpSum:
    """Delta_0, or Delta_Q on the grid, as one exponential sum
    J12 + sum_k a_k e^{i beta_k lam}: Delta_0's terms J34, J32, J14 at the
    rates b1 + b2, b1, b2 (from ``Minors`` or the canonical (a, b, c, d),
    i.e. minors (d, a, ad-bc, 1)) and, given the (2, N+1) ``trace`` weights
    c_{l,j} = h w_j g_l(t_j), the terms c_{l,j} at the rates b_l t_j.  Per
    weight these are a polynomial in z = e^{i b_l lam h}, summed by baby and
    giant steps (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973): with
    B = ceil(sqrt(N+1)), a (2A, B) coefficient matrix meets the baby powers
    z^0..z^{B-1} in one batched product and the giant powers (z^B)^a weight
    its A blocks.  Both are running products, so z^j carries about j ulps."""

    def __init__(self, coeffs, b1: float, b2: float, trace=None):
        if isinstance(coeffs, Minors):
            j12, j34, j32, j14 = coeffs[1, 2], coeffs[3, 4], coeffs[3, 2], coeffs[1, 4]
        else:
            a, b, c, d = coeffs
            j12, j34, j32, j14 = d, a, a * d - b * c, 1.0
        self.j12, self.js, self.betas = j12, (j34, j32, j14), (b1 + b2, b1, b2)
        rates, slopes = [self.betas], [[beta * j for j, beta in zip(self.js, self.betas)]]
        self.trace_coeffs = None
        if trace is not None:
            n = trace.shape[1] - 1
            h = 1.0 / n
            t = np.linspace(0.0, 1.0, n + 1)
            self.base = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
            self.blocks = -(-(n + 1) // self.base)
            # terms[l, c, j]: coefficient of z^j in column c (value, slope) of
            # weight l, zero-padded to A B terms
            terms = np.zeros((2, 2, self.blocks * self.base), dtype=complex)
            terms[:, 0, : n + 1] = trace
            terms[:, 1, : n + 1] = 1j * np.array([[b1], [b2]]) * t * trace
            # trace_coeffs[l, (a, c), r] = terms[l, c, aB + r], a contiguous copy
            self.trace_coeffs = terms.reshape(2, 2, self.blocks, self.base).transpose(0, 2, 1, 3).reshape(2, 2 * self.blocks, self.base)
            self.steps = np.array([b1 * h, b2 * h])[:, None]
            rates += [b1 * t, b2 * t]
            slopes += list(terms[:, 1, : n + 1])
        self.rates = np.concatenate(rates)
        self.slopes = np.abs(np.concatenate(slopes))

    def __call__(self, lam, slope: bool = False):
        """The sum at lam, or with ``slope`` the pair (sum, derivative):
        complex for a scalar lam, arrays of lam's shape otherwise.  A scalar
        lam takes Delta_0's exponentials from ``cmath.exp`` (bitwise equal to
        ``np.exp``), which raises OverflowError where ``np.exp`` gives inf."""
        lam_arr = np.asarray(lam, dtype=complex)
        flat = lam_arr.reshape(-1)
        (b12, b1, b2), (j34, j32, j14) = self.betas, self.js
        exp = np.exp if lam_arr.ndim else lambda z: np.array([cmath.exp(z[0])])
        e12, e1, e2 = exp(1j * b12 * flat), exp(1j * b1 * flat), exp(1j * b2 * flat)
        out = [self.j12 + j34 * e12 + j32 * e1 + j14 * e2]
        if slope:
            out.append(1j * (b12 * j34 * e12 + b1 * j32 * e1 + b2 * j14 * e2))
        if self.trace_coeffs is not None:
            z = np.exp(1j * self.steps * flat)  # (2, L): both weights at once
            baby = _step_powers(z, self.base)
            giant = _step_powers(baby[:, -1] * z, self.blocks)
            # (2, 2A, B) @ (2, B, L): every block's partial sum for every lam,
            # then each block weighted by its giant power and all added up
            partial = (self.trace_coeffs @ baby).reshape(2, self.blocks, 2, flat.size)
            partial *= giant[:, :, None, :]
            out = [part + sums for part, sums in zip(out, partial.sum(axis=(0, 1)))]
        out = [complex(part[0]) if lam_arr.ndim == 0 else part.reshape(lam_arr.shape) for part in out]
        return tuple(out) if slope else out[0]

    def slope_bound(self, y_lo, y_hi):
        """A bound on the derivative over the strip y_lo <= Im lam <= y_hi,
        vectorised: sum_k |beta_k a_k| max(e^{-beta_k y_lo}, e^{-beta_k y_hi})."""
        lo, hi = (np.asarray(y, dtype=float)[..., None] for y in (y_lo, y_hi))
        up = self.rates > 0
        return np.exp(lo * -self.rates[up]) @ self.slopes[up] + np.exp(hi * -self.rates[~up]) @ self.slopes[~up]

    def strip(self) -> tuple:
        """(y_lo, y_hi): above y_hi Delta_0's J32 term (rate b1) is more than
        three times each other term, |J| e^{-beta y} at Im lam = y, and below
        y_lo its J14 term (rate b2) is, so no zero lies outside.  A lead never
        dominates a term at its own rate: weights at which b1 + b2 rounds to
        b1 or b2 are refused."""
        terms = [(abs(self.j12), 0.0), *((abs(j), beta) for j, beta in zip(self.js, self.betas))]

        def height(terms, lead: int) -> float:
            j_lead, rate = terms[lead]
            others = [(j, beta) for k, (j, beta) in enumerate(terms) if k != lead]
            if any(beta == rate for _, beta in others):
                raise ValueError(f"b1 + b2 rounds to b{lead - 1} (b1 = {self.betas[1]!r}, b2 = {self.betas[2]!r}): "
                                 "Delta_0 has two terms at one rate, and no strip is known to hold its zeros")
            return max([0.0] + [math.log(3.0 * j / j_lead) / (beta - rate) for j, beta in others if j])

        return -height([(j, -beta) for j, beta in terms], 3), height(terms, 2)


def delta0(coeffs, b1: float, b2: float, lam, slope: bool = False):
    """Unperturbed characteristic determinant J12 + J34 e^{i(b1+b2) lam}
    + J32 e^{i b1 lam} + J14 e^{i b2 lam}, vectorised over lam, from
    ``Minors`` or the canonical (a, b, c, d); with ``slope`` the pair
    (Delta_0, Delta_0') from the same three exponentials (``_ExpSum``)."""
    return _ExpSum(coeffs, b1, b2)(lam, slope)


@dataclass(frozen=True)
class RegularityVerdict:
    kind: str  # nonregular | regular | strictly_regular | regular_unknown_strictness
    reason: str
    ratio: tuple[int, int] | None = None  # (n1, n2) with |b1|/b2 = n1/n2 when rational path taken

    def __post_init__(self):
        allowed = {"nonregular", "regular", "strictly_regular", "regular_unknown_strictness"}
        if self.kind not in allowed:
            raise ValueError(f"unknown verdict kind {self.kind!r}")

    @property
    def is_regular(self) -> bool:
        return self.kind != "nonregular"

    @property
    def is_strictly_regular(self) -> bool:
        return self.kind == "strictly_regular"


def _detect_rational(b1: float, b2: float) -> tuple[int, int] | None:
    """Return coprime (n1, n2) with b1 = -n1*beta, b2 = n2*beta, or None.

    The ratio |b1|/b2 is taken from the weights alone: a continued-fraction
    approximation with denominators capped at 64 is accepted only if it
    reproduces the ratio to 1e-12.
    """
    ratio = abs(b1) / b2
    frac = Fraction(ratio).limit_denominator(_DENOMINATOR_CAP)
    if frac.numerator == 0:
        return None
    if abs(ratio - float(frac)) <= _RATIO_TOL * max(1.0, ratio):
        return frac.numerator, frac.denominator
    return None


def _has_multiple_roots(coeffs: np.ndarray) -> bool:
    """Companion-matrix roots of the polynomial (highest degree first),
    clustered at radius 1e-8."""
    roots = np.roots(coeffs)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < _CLUSTER_RADIUS:
                return True
    return False


def _delta0_polynomial(a: complex, b: complex, c: complex, d: complex, n1: int, n2: int) -> np.ndarray:
    """Coefficients (highest first) of P(z) = z^{n1+n2} + a z^{n2} + d z^{n1}
    + (ad - bc): z^{n1} Delta_0 in z = e^{i beta lam}, with b1 = -n1 beta and
    b2 = n2 beta, so its roots carry the zeros of Delta_0."""
    delta0 = _ExpSum((a, b, c, d), -n1, n2)
    coeffs = np.zeros(n1 + n2 + 1, dtype=complex)
    # J at z^{n1 + beta}; J12 and J34 share a power when n1 = n2, and add up
    np.add.at(coeffs, [n2 - beta for beta in (0, *delta0.betas)], [delta0.j12, *delta0.js])
    return coeffs


def classify(bc: BoundaryConditions, b1: float, b2: float) -> RegularityVerdict:
    """Regularity / strict-regularity classifier.

    Dispatch: J_14 J_32 = 0 -> nonregular; Dirac weights -> discriminant;
    separated -> strictly regular; bc = 0 -> log/argument criterion;
    rational weight ratio (detected from b1 and b2 themselves) ->
    multiple-root test of the determinant polynomial; a = 0 with real data
    -> explicit threshold; anything else is honestly
    regular_unknown_strictness.
    """
    if not (b1 < 0 < b2):
        raise ValueError("weights must satisfy b1 < 0 < b2")
    m = minors(bc)
    scale = float(np.abs(bc.matrix).max()) ** 2
    if abs(m[1, 4] * m[3, 2]) <= 1e-14 * max(scale**2, 1.0):
        return RegularityVerdict("nonregular", "j14_j32_zero")
    a, b, c, d = canonicalize(bc)

    if abs(b1 + b2) <= 1e-14 * b2:
        # Dirac weights: strictly regular iff (a-d)^2 != -4bc
        if abs((a - d) ** 2 + 4 * b * c) > 1e-12:
            return RegularityVerdict("strictly_regular", "dirac_discriminant_nonzero", (1, 1))
        return RegularityVerdict("regular", "dirac_discriminant_zero", (1, 1))

    if abs(a) < 1e-14 and abs(d) < 1e-14:
        # regularity already established, so bc != 0 here
        return RegularityVerdict("strictly_regular", "separated_bc")

    rational = _detect_rational(b1, b2)

    if abs(b * c) < 1e-14:
        # bc = 0, ad != 0: two exponential factors; explicit criterion
        log_test = b1 * math.log(abs(d)) + b2 * math.log(abs(a))
        if abs(log_test) > 1e-12:
            return RegularityVerdict("strictly_regular", "bc_zero_log_criterion", rational)
        if rational is not None:
            n1, n2 = rational
            arg_test = n1 * cmath.phase(-d) - n2 * cmath.phase(-a)
            if abs(arg_test / (2 * math.pi) - round(arg_test / (2 * math.pi))) > 1e-12:
                return RegularityVerdict("strictly_regular", "bc_zero_arg_criterion", rational)
            return RegularityVerdict("regular", "bc_zero_progressions_collide", rational)
        return RegularityVerdict("regular", "bc_zero_log_criterion_fails_irrational")

    if rational is not None:
        n1, n2 = rational
        coeffs = _delta0_polynomial(a, b, c, d, n1, n2)
        if _has_multiple_roots(coeffs):
            return RegularityVerdict("regular", "rational_polynomial_multiple_root", rational)
        return RegularityVerdict("strictly_regular", "rational_polynomial_simple_roots", rational)

    if abs(a) < 1e-14 and abs((b * c).imag) < 1e-14 and abs(d.imag) < 1e-14 and abs(d.real) > 1e-14:
        # a = 0, real bc-product and d, irrational ratio: explicit threshold
        alpha = -b1 / b2
        threshold = -(alpha + 1.0) * (abs(b * c) * alpha ** (-alpha)) ** (1.0 / (alpha + 1.0))
        if abs(d.real - threshold) > 1e-12:
            return RegularityVerdict("strictly_regular", "a_zero_real_threshold")
        return RegularityVerdict("regular", "a_zero_real_threshold_hit")

    return RegularityVerdict("regular_unknown_strictness", "irrational_ratio_generic_coefficients")
