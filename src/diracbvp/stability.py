"""Experiment harness measuring deviation sums over potential pairs.

The stability estimates being exercised carry nonconstructive constants,
so every experiment reports *ratios* (deviation aggregates against
||Q - Q~||_p) whose empirical spread across samples is the monitored
quantity.  Head indices where the winding-verified pairing is unavailable
are excluded from the tail aggregates and reported, mirroring the
theory's "for |n| > N" clauses without inventing an N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryConditions, canonicalize
from .gridfn import PNorm, SampledFunction, lp_norm
from .ode import DiracSystem, fundamental_matrix
from .spectrum import _pair_zeros, _window0
from .transformop import (
    _kernel_traces,
    _trace_evaluator,
    build_kernels,  # noqa: F401  kept bound here: perfbench's tracer wraps every module's binding
    potential_diff_norm,
)

__all__ = [
    "DeviationReport",
    "PotentialBallSampler",
    "eigen_deviation",
    "eigenfunction_deviation",
    "run_ball_experiment",
    "two_sided_check",
]


@dataclass(frozen=True)
class DeviationReport:
    """Per-index deviation rows plus the aggregates the theory bounds.

    Each row is (n, deviation, flag); the deviation is |lam_n - lam~_n| for
    eigenvalue reports and the sup-norm eigenfunction distance otherwise.
    Aggregates cover the full window and the winding-verified tail.
    """

    rows: tuple
    p: float
    reference: float  # ||Q - Q~||_p
    head: int
    lp_sum: float          # sum dev^{p'} over the window (max dev at p = 1)
    weighted_sum: float    # sum (1+|n|)^{p-2} dev^p
    sup: float
    tail_lp_sum: float
    tail_weighted_sum: float
    detail: dict = field(default_factory=dict)


def _lp_sum(devs, pc: float) -> float:
    """sum d^{p'} over ``devs``; at p' = inf (p = 1), where the bound is on
    sup_n |lam_n - lam~_n|, max d, which is also its own p'-th root."""
    return max(devs, default=0.0) if math.isinf(pc) else sum(d**pc for d in devs)


def _report(rows, p: float, ref: float, wa, wb, detail=None) -> DeviationReport:
    """Aggregates of the "ok" rows over the window and over the tail beyond
    both windows' unverified head."""
    head = max(wa.head_estimate, wb.head_estimate)
    pc = PNorm(p).conjugate().p
    ok = [(n, d) for n, d, flag in rows if flag == "ok"]
    lp = _lp_sum([d for _, d in ok], pc)
    wt = sum((1 + abs(n)) ** (p - 2.0) * d**p for n, d in ok)
    sup = max((d for _, d in ok), default=0.0)
    tail = [(n, d) for n, d in ok if abs(n) > head]
    tail_lp = _lp_sum([d for _, d in tail], pc)
    tail_wt = sum((1 + abs(n)) ** (p - 2.0) * d**p for n, d in tail)
    return DeviationReport(tuple(rows), p, ref, head, lp, wt, sup, tail_lp, tail_wt, detail or {})


def _pair_spectra(sys_a, sys_b, bc, n_max, n_grid, traces=None, window0=None):
    """Both paired spectra and the Delta~ evaluator.  ``traces`` holds
    (K+(1, .), K-(1, .)) of sys_a and of sys_b (by default from one march
    over the two), and ``window0`` the Delta_0 window both pair against
    (by default made here)."""
    if traces is None:
        traces, _ = _kernel_traces([sys_a, sys_b], n_grid)
    if window0 is None:
        window0 = _window0(bc, sys_a.b1, sys_a.b2, n_max)
    delta_a, delta_b = (_trace_evaluator(bc, *trace, sys_a.b1, sys_a.b2) for trace in traces)
    return _pair_zeros(delta_a, window0, n_max), _pair_zeros(delta_b, window0, n_max), delta_b


def _eigen_report(wa, wb, p: float, ref: float) -> DeviationReport:
    rows = []
    for ea, eb in zip(wa.entries, wb.entries):
        assert ea.n == eb.n
        flag = "ok" if (ea.verified and eb.verified) else "unverified"
        rows.append((ea.n, abs(ea.lam - eb.lam), flag))
    return _report(rows, p, ref, wa, wb)


def eigen_deviation(
    sys_a: DiracSystem,
    sys_b: DiracSystem,
    bc: BoundaryConditions,
    n_max: int,
    p,
    n_grid: int = 256,
) -> DeviationReport:
    """|lam_n - lam~_n| rows from the canonical pairings of both spectra
    against the shared unperturbed sequence."""
    p = PNorm(p).p
    wa, wb, _ = _pair_spectra(sys_a, sys_b, bc, n_max, n_grid)
    return _eigen_report(wa, wb, p, potential_diff_norm(sys_a, sys_b, p, n_grid))


def two_sided_check(
    sys_a: DiracSystem,
    sys_b: DiracSystem,
    bc: BoundaryConditions,
    n_max: int,
    n_grid: int = 256,
    n_head: int | None = None,
):
    """Per-index ratios |lam_n - lam~_n| / |Delta~(lam_n)|.

    Exact coincidences (0/0) are excluded.  Returns (rows, summary) where
    rows are (n, ratio | None) and the summary holds min/max over the tail
    |n| > n_head.
    """
    wa, wb, delta_b = _pair_spectra(sys_a, sys_b, bc, n_max, n_grid)
    if n_head is None:
        n_head = max(wa.head_estimate, wb.head_estimate)
    rows = []
    scale = max(abs(e.lam) for e in wa.entries) + 1.0
    for ea, eb in zip(wa.entries, wb.entries):
        diff = abs(ea.lam - eb.lam)
        if diff < 1e-14 * scale:
            rows.append((ea.n, None))
            continue
        rows.append((ea.n, diff / abs(delta_b(ea.lam))))
    tail = [r for n, r in rows if r is not None and abs(n) > n_head]
    summary = {
        "n_head": n_head,
        "tail_min": min(tail) if tail else math.nan,
        "tail_max": max(tail) if tail else math.nan,
        "excluded_exact": sum(1 for _, r in rows if r is None),
    }
    return rows, summary


def _eigenfunctions(sys: DiracSystem, canonical, window, n_grid: int) -> np.ndarray:
    """Samples (L, N+1, 2) of the window's eigenfunctions, from one batched
    fundamental matrix over all its eigenvalues:

    generic (|b|+|c| > 0):  F = (b + a phi_12) Phi_1 - (1 + a phi_11) Phi_2;
    b = c = 0, second branch: G = (d + phi_22) Phi_1 - phi_21 Phi_2,
    the branch picked by whichever determinant factor vanishes at lam0.
    """
    a, b, c, d = canonical
    lam0 = window.lam0_array()
    phi = fundamental_matrix(sys, window.lam_array(), n_grid)
    at1 = phi.at_one()
    if abs(b) + abs(c) > 1e-14:
        use_g = np.zeros(lam0.shape, dtype=bool)
    else:
        f1 = np.abs(d + np.exp(1j * sys.b2 * lam0))
        f2 = np.abs(1.0 + a * np.exp(1j * sys.b1 * lam0))
        use_g = f2 <= f1  # lam0 kills the (1 + a e1) factor: second branch
    coeff1 = np.where(use_g, d + at1[:, 1, 1], b + a * at1[:, 0, 1])
    coeff2 = np.where(use_g, -at1[:, 1, 0], -(1.0 + a * at1[:, 0, 0]))
    return coeff1[:, None, None] * phi.values[..., 0] + coeff2[:, None, None] * phi.values[..., 1]


def _eigenfunction_report(sys_a, sys_b, bc, wa, wb, p: float, s_norm, n_grid: int, ref: float) -> DeviationReport:
    canonical = canonicalize(bc)
    rows = []
    skipped = []
    funcs_a = _eigenfunctions(sys_a, canonical, wa, n_grid)
    funcs_b = _eigenfunctions(sys_b, canonical, wb, n_grid)
    for ea, eb, fa, fb in zip(wa.entries, wb.entries, funcs_a, funcs_b):
        norm_a = lp_norm(SampledFunction(fa), s_norm)
        norm_b = lp_norm(SampledFunction(fb), s_norm)
        scale = float(max(np.abs(fa).max(), np.abs(fb).max(), 1e-30))
        if norm_a < 1e-8 * scale or norm_b < 1e-8 * scale:
            rows.append((ea.n, math.nan, "vanishing_norm"))
            skipped.append(ea.n)
            continue
        dev = float(np.abs(fa / norm_a - fb / norm_b).max())
        flag = "ok" if (ea.verified and eb.verified) else "unverified"
        rows.append((ea.n, dev, flag))
    return _report(rows, p, ref, wa, wb, {"skipped": skipped, "s_norm": s_norm})


def eigenfunction_deviation(
    sys_a: DiracSystem,
    sys_b: DiracSystem,
    bc: BoundaryConditions,
    n_max: int,
    p,
    s_norm=math.inf,
    n_grid: int = 256,
) -> DeviationReport:
    """Sup-norm eigenfunction deviation rows ||f_n - f~_n||_inf with
    L^{s_norm} normalization (default sup-norm).  Vanishing-norm entries
    (the head region where the formula may degenerate) are skipped and
    flagged."""
    p = PNorm(p).p
    wa, wb, _ = _pair_spectra(sys_a, sys_b, bc, n_max, n_grid)
    ref = potential_diff_norm(sys_a, sys_b, p, n_grid)
    return _eigenfunction_report(sys_a, sys_b, bc, wa, wb, p, s_norm, n_grid, ref)


class PotentialBallSampler:
    """Deterministic sampler of off-diagonal potentials in the L^p ball of
    radius r; families: trig polynomials, step functions, random (linear)
    splines.  Identical seeds give identical samples."""

    FAMILIES = ("trig", "step", "spline")

    def __init__(self, p, r: float, seed: int, family: str = "trig"):
        if family not in self.FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.p = PNorm(p)
        self.r = float(r)
        self.seed = int(seed)
        self.family = family

    def _entry(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = np.linspace(0.0, 1.0, n + 1)
        if self.family == "trig":
            vals = np.zeros(n + 1, dtype=complex)
            for m in range(-3, 4):
                cm = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + abs(m)) ** 2
                vals += cm * np.exp(2j * np.pi * m * x)
            return vals
        if self.family == "step":
            k = rng.integers(3, 8)
            breaks = np.sort(rng.uniform(0.05, 0.95, size=k))
            levels = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            return levels[np.searchsorted(breaks, x)]
        knots = np.linspace(0.0, 1.0, 9)
        vals = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        return np.interp(x, knots, vals.real) + 1j * np.interp(x, knots, vals.imag)

    def sample(self, b1: float, b2: float, n: int, rng: np.random.Generator | None = None) -> DiracSystem:
        if rng is None:
            rng = np.random.default_rng(self.seed)
        q12 = SampledFunction(self._entry(rng, n))
        q21 = SampledFunction(self._entry(rng, n))
        sys = DiracSystem(b1, b2, q12, q21)
        norm = potential_diff_norm(sys, DiracSystem.zero(b1, b2, n), self.p, n)
        target = self.r * rng.uniform(0.3, 1.0)
        scale = target / norm if norm > 0 else 0.0
        return DiracSystem(b1, b2, q12.scale(scale), q21.scale(scale))

    def pairs(self, count: int, b1: float, b2: float, n: int):
        root = np.random.SeedSequence(self.seed)
        for child in root.spawn(count):
            rng = np.random.default_rng(child)
            yield self.sample(b1, b2, n, rng), self.sample(b1, b2, n, rng)


def run_ball_experiment(
    sampler: PotentialBallSampler,
    bc: BoundaryConditions,
    pairs: int,
    n_max: int,
    p,
    n_grid: int = 128,
    b1: float = -1.0,
    b2: float = 1.0,
):
    """Kernel / eigenvalue / eigenfunction deviation ratios over sampled
    pairs.  Returns (rows, summary); summary holds the max observed ratio
    per estimate type and the max/min spreads."""
    p = PNorm(p).p
    pc = PNorm(p).conjugate().p
    rows = []
    sampled = list(sampler.pairs(pairs, b1, b2, n_grid))
    if sampled:
        # one Delta_0 window, and one march over every potential keeping
        # only the traces and the kernel deviation sums
        window0 = _window0(bc, b1, b2, n_max)
        traces, deviations = _kernel_traces([sys for pair in sampled for sys in pair], n_grid, p)
    for k, (qa, qb) in enumerate(sampled):
        dq = potential_diff_norm(qa, qb, p, n_grid)
        wa, wb, _ = _pair_spectra(qa, qb, bc, n_max, n_grid, traces[2 * k : 2 * k + 2], window0)
        ev = _eigen_report(wa, wb, p, dq)
        ef = _eigenfunction_report(qa, qb, bc, wa, wb, p, math.inf, n_grid, dq)
        dev_inf, dev_one = deviations[k].tolist()
        kernel_dev = dev_inf + dev_one
        eigen_dev, ef_dev = (r.tail_lp_sum if math.isinf(pc) else r.tail_lp_sum ** (1.0 / pc) for r in (ev, ef))
        rows.append(
            {
                "pair": k,
                "dq_norm": dq,
                "kernel_dev": kernel_dev,
                "eigen_dev": eigen_dev,
                "eigenfunction_dev": ef_dev,
                "kernel_ratio": kernel_dev / dq if dq > 0 else math.nan,
                "eigen_ratio": eigen_dev / dq if dq > 0 else math.nan,
                "eigenfunction_ratio": ef_dev / dq if dq > 0 else math.nan,
                "eigen_rows": [[n, d, flag] for n, d, flag in ev.rows],
                "eigenfunction_rows": [[n, d, flag] for n, d, flag in ef.rows],
                "head": max(ev.head, ef.head),
            }
        )
    summary = {}
    for key in ("kernel_ratio", "eigen_ratio", "eigenfunction_ratio"):
        vals = [r[key] for r in rows if not math.isnan(r[key])]
        summary[key] = {
            "max": max(vals) if vals else math.nan,
            "min": min(vals) if vals else math.nan,
            "spread": (max(vals) / min(vals)) if vals and min(vals) > 0 else math.nan,
        }
    return rows, summary
