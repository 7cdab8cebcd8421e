"""Ordinary and maximal Fourier transforms of grid functions, and the
weighted Bessel-type sums over eigenvalue-like sequences.

The maximal transform sup_{x in [0,1]} |int_0^x g(t) e^{i lam t} dt| shares
one cumulative-trapezoid pass across all x for a fixed lam, so a Bessel sum
over hundreds of sequence points costs O(N) each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import InvalidExponentError, PNorm, SampledFunction, lp_norm

__all__ = ["BesselReport", "bessel_sum", "fourier", "maximal_fourier"]


def _phase_samples(g: SampledFunction, lam: complex) -> np.ndarray:
    t = g.grid
    return g.samples * np.exp(1j * lam * t)


def fourier(g: SampledFunction, lam: complex) -> complex:
    """Trapezoidal F[g](lam) = int_0^1 g(t) e^{i lam t} dt."""
    vals = _phase_samples(g, lam)
    h = 1.0 / g.n
    return complex(h * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


def _cumulative_trapezoid(vals: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(vals)
    out[0] = 0.0
    np.cumsum(0.5 * h * (vals[1:] + vals[:-1]), out=out[1:])
    return out


def maximal_fourier(g: SampledFunction, lam: complex) -> float:
    """Maximal transform: max over grid nodes x of |int_0^x g e^{i lam t} dt|."""
    vals = _phase_samples(g, lam)
    h = 1.0 / g.n
    return float(np.abs(_cumulative_trapezoid(vals, h)).max())


@dataclass(frozen=True)
class BesselReport:
    """One evaluated Bessel-type sum and its reference power of ||g||_p."""

    total: float
    norm_ref: float
    ratio: float
    weighted: bool
    p: float

    def __post_init__(self):
        if self.norm_ref > 0:
            assert abs(self.ratio - self.total / self.norm_ref) < 1e-9 * max(1.0, self.ratio)


def bessel_sum(
    g: SampledFunction,
    seq,
    p,
    weighted: bool = False,
    use_maximal: bool = True,
    indices=None,
) -> BesselReport:
    """Sum of transform powers over a sequence of complex frequencies.

    Unweighted: sum_n T[g](mu_n)^{p'} against ||g||_p^{p'};
    weighted:   sum_n (1+|n|)^{p-2} T[g](mu_n)^p against ||g||_p^p,
    where T is the maximal transform (or |F| when use_maximal=False) and
    the index n of each term is the sequence's own canonical index
    (defaults to a centered range when not supplied).
    """
    p = PNorm(p)
    if p.is_inf or not (1.0 < p.p <= 2.0):
        raise InvalidExponentError(f"Bessel sums require p in (1, 2], got {p.p}")
    seq = list(seq)
    if indices is None:
        indices = [k - len(seq) // 2 for k in range(len(seq))]
    indices = list(indices)
    if len(indices) != len(seq):
        raise ValueError("indices must match the sequence length")
    pc = p.conjugate().p
    transform = maximal_fourier if use_maximal else (lambda gg, lam: abs(fourier(gg, lam)))
    total = 0.0
    for n_idx, mu in zip(indices, seq):
        t = transform(g, mu)
        if weighted:
            total += (1.0 + abs(n_idx)) ** (p.p - 2.0) * t**p.p
        else:
            total += t**pc
    norm = lp_norm(g, p)
    norm_ref = norm**p.p if weighted else norm**pc
    ratio = total / norm_ref if norm_ref > 0 else math.inf if total > 0 else 0.0
    return BesselReport(total, norm_ref, ratio, weighted, p.p)
