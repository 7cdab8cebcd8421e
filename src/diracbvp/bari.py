"""Bari-basis criterion for the unperturbed operator.

For strictly regular canonical conditions the normalized root vectors form
a Bari basis iff three explicit conditions hold:  the algebraic gate
b1|c| + b2|b| = 0 and the convergence of sum |Im lam_n^0|^2 and of
sum (|z_n| - Re z_n), with z_n = (1 + d e^{-i b2 lam_n^0})
conj(1 + a e^{i b1 lam_n^0}).  A finite window can only classify the tails
heuristically; the thresholds used are fixed and recorded in the verdict.

The per-term quantities alpha_n = ||f_n||^2 ||g_n||^2 / |(f_n, g_n)|^2 - 1
come from the closed forms of the eigenvector pairs; no quadrature is
needed (a quadrature oracle lives in the test suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryConditions, canonicalize
from .spectrum import zeros_delta0

__all__ = [
    "BariReport",
    "DegeneratePairingError",
    "bari_criterion",
    "bari_terms",
    "ej_quantities",
    "selfadjoint_check",
]

GATE_TOL = 1e-12
CAUCHY_REL = 1e-6
CAUCHY_ABS = 1e-10
LINEAR_REL = 0.20


class DegeneratePairingError(ArithmeticError):
    """(f_n, g_n) = 0: the eigenvector pair cannot be normalized."""


def _expm1_ratio(y: float) -> float:
    """(e^y - 1)/y, continuous through y = 0."""
    if abs(y) < 1e-8:
        return 1.0 + 0.5 * y + y * y / 6.0
    return math.expm1(y) / y


def ej_quantities(b1: float, b2: float, lam: complex):
    """Exponential values e_j = e^{i b_j lam} and the moment integrals
    E_j^{+/-} = int_0^1 e^{-/+ 2 b_j Im lam x} dx in closed form.

    Returns (e1, e2, E1p, E1m, E2p, E2m).
    """
    e1 = cmath.exp(1j * b1 * lam)
    e2 = cmath.exp(1j * b2 * lam)
    y = lam.imag
    e1p = _expm1_ratio(-2.0 * b1 * y)
    e1m = _expm1_ratio(2.0 * b1 * y)
    e2p = _expm1_ratio(-2.0 * b2 * y)
    e2m = _expm1_ratio(2.0 * b2 * y)
    return e1, e2, e1p, e1m, e2p, e2m


def bari_terms(canonical, b1: float, b2: float, lam_list, on_degenerate: str = "raise") -> np.ndarray:
    """alpha_n for the generic |b| > 0 branch, from the closed-form norms

        ||f_n||^2 = |b|^2 E1+ + |1 + a e1|^2 E2+,
        ||g_n||^2 = |1 + d/e2|^2 E1- + k^2 |b|^2 E2-,
        (f_n,g_n) = b ((1 + d/e2) + k (1 + a e1)),  k = -b2/b1.
    """
    a, b, c, d = canonical
    if abs(b) < 1e-14:
        raise ValueError("closed-form alpha_n requires b != 0; use the bc-product-zero branch formulas")
    k = -b2 / b1
    out = np.empty(len(lam_list))
    for i, lam in enumerate(lam_list):
        lam = complex(lam)
        e1, e2, e1p, e1m, e2p, e2m = ej_quantities(b1, b2, lam)
        f2 = abs(b) ** 2 * e1p + abs(1.0 + a * e1) ** 2 * e2p
        g2 = abs(1.0 + d / e2) ** 2 * e1m + k**2 * abs(b) ** 2 * e2m
        fg = b * ((1.0 + d / e2) + k * (1.0 + a * e1))
        if abs(fg) ** 2 <= 1e-14 * f2 * g2:
            if on_degenerate == "raise":
                raise DegeneratePairingError(f"(f_n, g_n) = 0 at lam = {lam}")
            out[i] = math.nan
            continue
        out[i] = f2 * g2 / abs(fg) ** 2 - 1.0
    return out


def _alpha_bc_product_zero(a, d, b1, b2, lam: complex) -> float:
    """alpha_n when b = c = 0: the eigenvector pair is diagonal and
    alpha reduces to E+ E- - 1 on the component the eigenvalue excites."""
    e1, e2, e1p, e1m, e2p, e2m = ej_quantities(b1, b2, lam)
    branch1 = abs(d + e2) <= abs(1.0 + a * e1)
    return (e2p * e2m - 1.0) if branch1 else (e1p * e1m - 1.0)


@dataclass(frozen=True)
class BariReport:
    rows: tuple  # (n, lam0, im_lam0, z_n, alpha_n)
    gate_value: float
    sum_im2: float
    sum_z: float
    sum_alpha: float
    verdict: str  # bari | not_bari | inconclusive
    detail: dict = field(default_factory=dict)


def _tail_class(values_by_absn: list[tuple[int, float]]) -> str:
    """'cauchy' / 'linear' / 'ambiguous' from the last-quarter share of a
    partial sum over the window."""
    if not values_by_absn:
        return "cauchy"
    top = max(absn for absn, _ in values_by_absn)
    total = sum(v for _, v in values_by_absn)
    last_quarter = sum(v for absn, v in values_by_absn if absn > 0.75 * top)
    if last_quarter < CAUCHY_ABS or (total > 0 and last_quarter < CAUCHY_REL * total):
        return "cauchy"
    if total > 0 and last_quarter > LINEAR_REL * total:
        return "linear"
    return "ambiguous"


def bari_criterion(bc: BoundaryConditions, b1: float, b2: float, n_max: int) -> BariReport:
    """Evaluate the three-part criterion over the window |n| <= n_max.

    bari        : gate holds and both partial-sum tails are Cauchy;
    not_bari    : gate fails, or a tail grows linearly;
    inconclusive: anything in between.
    """
    a, b, c, d = canonicalize(bc)
    gate = b1 * abs(c) + b2 * abs(b)
    window = zeros_delta0(bc, b1, b2, n_max)
    lam0s = [lam for _, lam, _ in window]

    if abs(b) >= 1e-14:
        alphas = bari_terms((a, b, c, d), b1, b2, lam0s, on_degenerate="nan")
    elif abs(c) < 1e-14:
        alphas = np.array([_alpha_bc_product_zero(a, d, b1, b2, lam) for lam in lam0s])
    else:
        # b = 0, c != 0: the gate already fails; alpha rows are not defined
        # by the b != 0 closed forms
        alphas = np.full(len(lam0s), math.nan)

    rows = []
    im2_terms, z_terms, alpha_terms = [], [], []
    degenerate = []
    for (n, lam0, _), alpha in zip(window, alphas):
        e1 = cmath.exp(1j * b1 * lam0)
        e2 = cmath.exp(1j * b2 * lam0)
        z = (1.0 + d / e2) * (1.0 + a * e1).conjugate()
        rows.append((n, lam0, lam0.imag, z, float(alpha)))
        im2_terms.append((abs(n), lam0.imag**2))
        z_terms.append((abs(n), abs(z) - z.real))
        if math.isnan(alpha):
            degenerate.append(n)
        else:
            alpha_terms.append((abs(n), float(alpha)))

    sum_im2 = sum(v for _, v in im2_terms)
    sum_z = sum(v for _, v in z_terms)
    sum_alpha = sum(v for _, v in alpha_terms)
    tail_im2 = _tail_class(im2_terms)
    tail_z = _tail_class(z_terms)

    gate_ok = abs(gate) <= GATE_TOL
    if not gate_ok or tail_im2 == "linear" or tail_z == "linear":
        verdict = "not_bari"
    elif gate_ok and tail_im2 == "cauchy" and tail_z == "cauchy":
        verdict = "bari"
    else:
        verdict = "inconclusive"

    detail = {
        "tail_im2": tail_im2,
        "tail_z": tail_z,
        "degenerate_indices": degenerate,
        "thresholds": {"gate": GATE_TOL, "cauchy_rel": CAUCHY_REL, "cauchy_abs": CAUCHY_ABS, "linear_rel": LINEAR_REL},
    }
    return BariReport(tuple(rows), float(gate), sum_im2, sum_z, sum_alpha, verdict, detail)


def selfadjoint_check(bc: BoundaryConditions, b1: float, b2: float, tol: float = 1e-12) -> bool:
    """Self-adjointness of the unperturbed operator: the matrix
    [[a, mu b], [c/mu, d]] with mu = sqrt(-b2/b1) must be unitary."""
    a, b, c, d = canonicalize(bc)
    mu = math.sqrt(-b2 / b1)
    m = np.array([[a, mu * b], [c / mu, d]], dtype=complex)
    return bool(np.abs(m @ m.conj().T - np.eye(2)).max() <= tol)
