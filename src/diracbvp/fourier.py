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


def _deviation_sums(pairs, p: float, pc: float) -> tuple:
    """(sum d^{p'}, sum (1+|n|)^{p-2} d^p) over the (n, d) ``pairs``, each
    added in order; at p' = inf (p = 1), where the bound is on sup_n d,
    the first is max d (0 for none), which is also its own p'-th root."""
    lp = wt = 0.0
    for n, d in pairs:
        lp = max(lp, d) if math.isinf(pc) else lp + d**pc
        wt += (1 + abs(n)) ** (p - 2.0) * d**p
    return lp, wt


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
    terms = [(n, transform(g, mu)) for n, mu in zip(indices, seq)]
    norm = lp_norm(g, p)
    power = p.p if weighted else pc

    def summed(scale: float) -> float:
        # the weighted sum takes the other sum at p' = inf, a max, so no t^{p'} can overflow
        lp, wt = _deviation_sums(((n, t / scale) for n, t in terms), p.p, math.inf if weighted else pc)
        return wt if weighted else lp

    try:
        # the ratio from the terms (T/||g||_p)^{p'}, which stay in range where
        # T^{p'} and ||g||_p^{p'} do not (p near 1 makes p' large)
        total, norm_ref = summed(1.0), norm**power
        ratio = summed(norm) if norm > 0 else math.inf if total > 0 else 0.0
    except OverflowError:
        total = norm_ref = ratio = math.inf
    if ratio > 0 and not (0.0 < total < math.inf and 0.0 < norm_ref < math.inf):
        raise ArithmeticError(
            f"Bessel sum at p = {p.p!r} (p' = {pc!r}) is out of floating-point range: ||g||_p = {norm!r}, "
            f"so the sum and ||g||_p^{power!r} come out as {total!r} and {norm_ref!r}")
    return BesselReport(total, norm_ref, ratio, weighted, p.p)
