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


def _delta0_coefficients(coeffs) -> tuple:
    """(J12, J34, J32, J14) from ``Minors`` or from the canonical (a, b, c, d),
    i.e. minors (d, a, ad-bc, 1)."""
    if isinstance(coeffs, Minors):
        return coeffs[1, 2], coeffs[3, 4], coeffs[3, 2], coeffs[1, 4]
    a, b, c, d = coeffs
    return d, a, a * d - b * c, 1.0


def delta0(coeffs, b1: float, b2: float, lam, slope: bool = False):
    """Unperturbed characteristic determinant, vectorised over lam:
    J12 + J34 e^{i(b1+b2) lam} + J32 e^{i b1 lam} + J14 e^{i b2 lam}, from
    ``Minors`` or from the canonical (a, b, c, d), i.e. minors (d, a, ad-bc, 1).
    With ``slope`` the pair (Delta_0, Delta_0') from the same three
    exponentials: Delta_0' = i(b1+b2) J34 e^{i(b1+b2) lam} + i b1 J32 e^{i b1 lam}
    + i b2 J14 e^{i b2 lam}.  Scalars use ``cmath.exp``: bitwise equal to
    ``np.exp``, faster per call."""
    j12, j34, j32, j14 = _delta0_coefficients(coeffs)
    exp = np.exp if isinstance(lam, np.ndarray) else cmath.exp
    e12, e1, e2 = exp(1j * (b1 + b2) * lam), exp(1j * b1 * lam), exp(1j * b2 * lam)
    value = j12 + j34 * e12 + j32 * e1 + j14 * e2
    if not slope:
        return value
    return value, 1j * ((b1 + b2) * j34 * e12 + b1 * j32 * e1 + b2 * j14 * e2)


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
    + (ad - bc), whose roots z = e^{i beta lam} carry the zeros of Delta_0."""
    deg = n1 + n2
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[0] = 1.0
    coeffs[deg - n2] += a
    coeffs[deg - n1] += d
    coeffs[deg] += a * d - b * c
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
