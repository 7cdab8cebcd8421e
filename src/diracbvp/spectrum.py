"""Zero location for the characteristic determinants and canonical pairing.

``zeros_delta0`` produces the unperturbed sequence by the fastest exact
route available (explicit progressions when the bc-product vanishes,
polynomial roots for rational weight ratios, an argument-principle box
sweep otherwise).  ``zeros_deltaQ`` Newton-polishes each perturbed zero
from its unperturbed partner and certifies the pairing by winding counts
over a shrinking ladder of disk radii -- a finite surrogate for the
component-tracking construction that defines the canonical ordering.

Every determinant callable, Delta_0 included, takes a 1-d array of lam and
returns values of the same length; one that offers ``slope=True`` returns
the pair (Delta, Delta'), which Newton uses in place of differences.
Newton runs batched over its starts, and each zero count walks a list of
contours (disks or rectangles) in one ``_winding`` call.
"""

from __future__ import annotations

import cmath
import inspect
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .boundary import BoundaryConditions, _delta0_polynomial, _delta0_terms, _detect_rational, canonicalize, classify, delta0
from .ode import DiracSystem, char_det_direct
from .transformop import _kernel_traces, _trace_evaluator, build_kernels  # noqa: F401  build_kernels: perfbench's tracer wraps every module's binding

__all__ = [
    "ContourTooCloseError",
    "NonIntegerWindingError",
    "NonRegularError",
    "SpectrumEntry",
    "SpectrumWindow",
    "count_zeros_disk",
    "csv_table",
    "zeros_delta0",
    "zeros_deltaQ",
]

EPS_LADDER_DEFAULT = (0.4, 0.2, 0.1, 0.05)
_BISECTION_ROUNDS = 12  # the pi/2 rule's rounds
_CERTIFIED_ROUNDS = 24  # the slope bound's rounds: pieces down to 2^-24 of their start
_MAX_CONTOUR_NODES = 1 << 16
_EVAL_CHUNK = 2048  # points per determinant call, bounding its memory
_CERTIFIED_NODES, _PLAIN_NODES = 16, 256  # zeros_deltaQ's starting nodes per disk, with and without a slope bound


class NonRegularError(ValueError):
    """Zero asymptotics are undefined for non-regular boundary conditions."""


class ContourTooCloseError(RuntimeError):
    """A zero sits (numerically) on the counting contour."""


class NonIntegerWindingError(RuntimeError):
    """The argument walk kept a jump too large to count as a winding."""


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    lam0: complex
    lam: complex
    multiplicity: int
    ladder_eps: float
    verified: bool


@dataclass(frozen=True)
class SpectrumWindow:
    """Canonically indexed eigenvalues lam_n paired with lam_n^0,
    |n| <= n_max, counting multiplicity."""

    entries: tuple
    strip_height: float
    n_max: int
    head_estimate: int = 0

    def lam0_array(self) -> np.ndarray:
        return np.array([e.lam0 for e in self.entries])

    def lam_array(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries])

    def indices(self) -> np.ndarray:
        return np.array([e.n for e in self.entries])

    def entry(self, n: int) -> SpectrumEntry:
        for e in self.entries:
            if e.n == n:
                return e
        raise KeyError(f"index {n} not in window")


def _cluster(points: list[complex], radius: float) -> list[tuple[complex, int]]:
    """Greedy clustering; returns (representative, count) sorted by
    (Re, Im)."""
    pts = sorted(points, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in pts:
        if clusters and abs(z - clusters[-1][0]) < radius:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    out = []
    for group in clusters:
        rep = sum(group) / len(group)
        out.append((rep, len(group)))
    return out


def _index_symmetrically(values: list[tuple[complex, int]], n_max: int):
    """Expand clusters (counting multiplicity), sort by real part and index
    so that n = 0 lands on the first entry nearest the origin.  Real parts
    within 1e-9 (1 + |Re|) of their neighbour's tie, and ties go by
    imaginary part, so float noise orders no two zeros."""
    seq: list[tuple[complex, int]] = []
    for rep, count in values:
        seq.extend([(rep, count)] * count)
    if not seq:
        raise ValueError("no zeros found in the requested window")
    seq.sort(key=lambda zc: zc[0].real)
    z = np.array([rep for rep, _ in seq])
    tie_class = np.cumsum(np.diff(z.real, prepend=z[0].real) > 1e-9 * (1.0 + np.abs(z.real)))
    seq = [seq[i] for i in np.lexsort((z.imag, tie_class))]
    best = min(abs(z) for z, _ in seq)
    center = next(i for i, (z, _) in enumerate(seq) if abs(z) <= best + 1e-9 * (1.0 + best))
    out = []
    for pos, (rep, count) in enumerate(seq):
        n = pos - center
        if -n_max <= n <= n_max:
            out.append((n, rep, count))
    return out


def zeros_delta0(bc: BoundaryConditions, b1: float, b2: float, n_max: int, method: str = "auto"):
    """Zeros of Delta_0 for |n| <= n_max, canonically ordered by real part
    and counting multiplicity.  Returns a list of (n, lam0, multiplicity).

    ``classify`` only gates regularity; the route follows from Delta_0's
    own data.  ``method='auto'`` takes two explicit progressions when the
    bc-product vanishes, the roots of the determinant polynomial when the
    weight ratio b1/b2 is rational (``_detect_rational``, from the weights
    alone), and the argument-principle box sweep otherwise;
    ``method='sweep'`` forces the sweep, an independent oracle.
    """
    if not classify(bc, b1, b2).is_regular:
        raise NonRegularError("boundary conditions are not regular")
    a, b, c, d = canonicalize(bc)
    margin = n_max + 4
    ratio = _detect_rational(b1, b2)

    if method == "sweep":
        clusters = _sweep_zeros(a, b, c, d, b1, b2, margin)
    elif method != "auto":
        raise ValueError("method must be 'auto' or 'sweep'")
    elif abs(b * c) < 1e-14:
        # Delta_0 = e^{i b2 lam} (1 + d e^{-i b2 lam}) (1 + a e^{i b1 lam}):
        # two explicit arithmetic progressions
        pts: list[complex] = []
        span = int(margin * max(1.0, (b2 - b1) / (2 * math.pi) * 4)) + 4
        for m in range(-span, span + 1):
            pts.append((cmath.phase(-d) + 2 * math.pi * m) / b2 - 1j * math.log(abs(d)) / b2)
            pts.append((cmath.phase(-1.0 / a) + 2 * math.pi * m) / b1 + 1j * math.log(abs(a)) / b1)
        clusters = _cluster(pts, 1e-9)
    elif ratio is not None:
        n1, n2 = ratio
        beta = b2 / n2
        deg = n1 + n2
        roots = np.roots(_delta0_polynomial(a, b, c, d, n1, n2))
        pts = []
        span = margin // deg + 2
        for z in roots:
            lam_base = (cmath.phase(z) - 1j * math.log(abs(z))) / beta
            for m in range(-span, span + 1):
                pts.append(lam_base + 2 * math.pi * m / beta)
        clusters = _cluster(pts, 1e-6)
    else:
        clusters = _sweep_zeros(a, b, c, d, b1, b2, margin)

    # keep a symmetric window around the origin
    window = _index_symmetrically(clusters, n_max)
    if len(window) < 2 * n_max + 1:
        raise ValueError("zero search window too small; increase margins")
    return window


def _box_counts(f, boxes) -> list:
    """Zero counts of f inside the rectangles (x0, x1, y0, y1) of ``boxes``,
    all in one ``_winding`` call along their boundaries, each walked from at
    least 32 points per side and per unit of length, counterclockwise from
    (x0, y0); raises the first refusal in box order."""
    corners = np.array([[complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)] for x0, x1, y0, y1 in boxes])
    side = (np.roll(corners, -1, axis=1) - corners).ravel()
    seg = np.maximum(32, (32 * np.abs(side)).astype(int))  # points per side, side after side
    k = np.arange(seg.sum()) - np.repeat(np.cumsum(seg) - seg, seg)  # each point's place on its side
    nodes = np.repeat(corners.ravel(), seg) + np.repeat(side, seg) * k / np.repeat(seg, seg)
    contour = np.repeat(np.arange(len(boxes)), seg.reshape(-1, 4).sum(axis=1))
    return [_counted(count) for count in _winding(f, nodes, contour)]


def _counted(result):
    """A count from ``_winding``'s list, or the error that refused it, raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _winding(f, nodes: np.ndarray, contour: np.ndarray, circles=None) -> list:
    """Winding numbers of f around many closed contours at once: a list with
    one entry per contour, its count or the error that refused it.

    ``nodes`` holds the starting nodes of every contour in one flat array,
    contour after contour, each counterclockwise with its first node not
    repeated, and ``contour`` the index (0, 1, ...) of the contour of each.
    A polygon gives its nodes as points, and a piece is bisected at its
    chord midpoint.  Circles, ``circles=(centers, radii)``, give theirs as
    angles, and a piece is bisected at its arc midpoint, so each count is
    its disk's own.  The count is the sum of the argument increments
    arg(f[k+1] / f[k]) over the accepted pieces; each round bisects the
    others, the midpoints of every contour in one batched evaluation.

    When f has ``slope_bound(y_lo, y_hi)`` (a bound on |f'| over the strip
    y_lo <= Im lam <= y_hi, vectorised), a piece of length s (arc length on
    a circle) is accepted when L s < max |f| at its two ends, L the bound
    over the piece's Im range (its chord's, widened by the sagitta on a
    circle).  f then has no zero on the piece and turns by less than pi/2
    along it, so the count is certified up to rounding (Ying & Katz,
    Numer. Math. 53, 1988).  A contour with a piece left after
    _CERTIFIED_ROUNDS rounds, or grown past _MAX_CONTOUR_NODES nodes, is
    refused by ContourTooCloseError.  Without a bound a piece is accepted
    when its increment is at most pi/2, and an increment still above pi/2
    after _BISECTION_ROUNDS rounds is refused by NonIntegerWindingError.
    Either way, min |f| < 1e-12 max(max |f|, 1) on a contour is refused by
    ContourTooCloseError."""
    contour = np.asarray(contour, dtype=np.intp)
    if circles is None:
        z = np.asarray(nodes, dtype=complex)
    else:
        centers, radii = np.asarray(circles[0], dtype=complex), np.asarray(circles[1], dtype=float)
        theta = np.asarray(nodes, dtype=float)
        z = centers[contour] + radii[contour] * np.exp(1j * theta)
    bound = getattr(f, "slope_bound", None)
    rounds = _BISECTION_ROUNDS if bound is None else _CERTIFIED_ROUNDS
    values = _eval_many(f, z)
    coarse = np.ones(z.size, dtype=bool)  # piece k, node k to the next, not accepted yet
    out: list = [None] * (int(contour[-1]) + 1)
    for r in range(rounds + 1):
        first = np.flatnonzero(np.diff(contour, prepend=-1))
        ends = np.append(first[1:], contour.size)
        nxt = np.arange(1, contour.size + 1)
        nxt[ends - 1] = first  # each contour's last piece closes it
        if circles is not None:
            arc = theta[nxt] - theta
            arc[ends - 1] += 2 * math.pi
        size = np.abs(values)
        # a contour with a zero sample is refused as close below; its
        # quotients there are left at 1 rather than divided by zero
        steps = np.angle(np.divide(values[nxt], values, out=np.ones_like(values), where=size > 0))
        test = np.flatnonzero(coarse)
        if bound is None:
            coarse[test] = np.abs(steps[test]) > math.pi / 2
        else:
            end = nxt[test]
            if circles is None:
                length, sag = np.abs(z[end] - z[test]), 0.0
            else:
                length = radii[contour[test]] * arc[test]
                sag = radii[contour[test]] * (1.0 - np.cos(0.5 * arc[test]))
            y_lo = np.minimum(z[test].imag, z[end].imag) - sag
            y_hi = np.maximum(z[test].imag, z[end].imag) + sag
            coarse[test] = ~(bound(y_lo, y_hi) * length < np.maximum(size[test], size[end]))
        close = np.minimum.reduceat(size, first) < 1e-12 * np.maximum(np.maximum.reduceat(size, first), 1.0)
        left = np.add.reduceat(coarse, first)
        turns = np.add.reduceat(steps, first) / (2 * math.pi)
        for k, c in enumerate(contour[first]):
            if close[k]:
                out[c] = ContourTooCloseError("f vanishes on the counting contour")
            elif not left[k]:
                out[c] = int(round(turns[k]))
            elif bound is None and r == rounds:
                out[c] = NonIntegerWindingError(f"{left[k]} argument jumps above pi/2 left after {rounds} bisections")
            elif bound is not None and (r == rounds or ends[k] - first[k] + left[k] > _MAX_CONTOUR_NODES):
                out[c] = ContourTooCloseError(f"{left[k]} pieces not certified by the slope bound after {r} bisections")
        live = np.array([res is None for res in out])
        if not live.any():
            break
        # bisect the coarse pieces of the contours still open, drop the others
        at = np.flatnonzero(coarse & live[contour])
        if circles is None:
            mid = 0.5 * (z[at] + z[nxt[at]])
        else:
            mid_theta = theta[at] + 0.5 * arc[at]
            theta = np.insert(theta, at + 1, mid_theta)
            mid = centers[contour[at]] + radii[contour[at]] * np.exp(1j * mid_theta)
        z = np.insert(z, at + 1, mid)
        values = np.insert(values, at + 1, _eval_many(f, mid))
        coarse = np.insert(coarse, at + 1, True)
        contour = np.insert(contour, at + 1, contour[at])
        keep = live[contour]
        z, values, coarse, contour = z[keep], values[keep], coarse[keep], contour[keep]
        if circles is not None:
            theta = theta[keep]
    return out


def _value_and_slope(f):
    """z -> (f(z), f'(z)) for Newton, built once per search: one
    ``f(z, slope=True)`` call when f offers its exact derivative, central
    differences with step 1e-6 (1 + |z|) otherwise."""
    try:
        if "slope" in inspect.signature(f).parameters:
            return lambda z: f(z, slope=True)
    except (TypeError, ValueError):
        pass

    def value_and_slope(z):
        step_h = 1e-6 * (1.0 + abs(z))
        return f(z), (f(z + step_h) - f(z - step_h)) / (2 * step_h)

    return value_and_slope


def _newton(value_and_slope, z0: np.ndarray, tol: float = 1e-13, max_iter: int = 60) -> list:
    """Newton's method on (f, f') = value_and_slope(z) from each start of the
    1-d array z0: a list with, per start, the root, or None when f or f' is
    not finite or f' vanishes at a step, or max_iter steps do not meet
    |dz| < tol (1 + |z|).  Each iteration makes one batched call over the
    starts still running, which must return an array per component (see
    ``_eval_many``), and each start keeps its own stopping test."""
    z = np.array(z0, dtype=complex)
    roots: list[complex | None] = [None] * z.size
    live = np.arange(z.size)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing start leaves below
        for _ in range(max_iter):
            if not live.size:
                break
            value, d = _eval_many(value_and_slope, z[live])
            ok = np.isfinite(value) & np.isfinite(d) & (d != 0)
            live, value, d = live[ok], value[ok], d[ok]
            dz = value / d
            z[live] -= dz
            done = np.abs(dz) < tol * (1.0 + np.abs(z[live]))
            for k in live[done]:
                roots[k] = complex(z[k])
            live = live[~done]
    return roots


def _sweep_zeros(a, b, c, d, b1, b2, margin: int):
    """Argument-principle sweep of Delta_0 = J12 + J34 e^{i(b1+b2) lam}
    + J32 e^{i b1 lam} + J14 e^{i b2 lam} in unit-width boxes over the strip
    y_lo - 1 <= Im lam <= y_hi + 1: above y_hi the J32 term is more than
    three times each other term and below y_lo the J14 term is, so no zero
    lies outside.  All boxes are counted in one call and zeros located per
    box, deduplicated, and all survivors' multiplicities counted in one."""

    f = partial(delta0, (a, b, c, d), b1, b2)
    newton_f = _value_and_slope(f)
    j12, js, rates = _delta0_terms((a, b, c, d), b1, b2)
    terms = [(abs(j12), 0.0), *((abs(j), beta) for j, beta in zip(js, rates))]
    y_hi = _dominance_height(terms, b1) + 1.0
    y_lo = -_dominance_height([(j, -beta) for j, beta in terms], -b2) - 1.0
    density = (b2 - b1) / (2 * math.pi)
    width = (margin * 2 + 8) / density / 2 + 2
    edges = -width + 0.0137 + np.arange(int(2 * width) + 2)
    boxes = [(t0, t1, y_lo, y_hi) for t0, t1 in zip(edges[:-1], edges[1:])]
    found = [z for box, count in zip(boxes, _box_counts(f, boxes)) for z in _locate_in_box(f, newton_f, *box, count)]
    # of roots closer than 3e-5 the one with the least |Delta_0| stands for
    # all, so no winding box (half-width sep / 3) takes in another one
    reps: list[complex] = []
    for i in np.argsort(np.abs(_eval_many(f, np.array(found, dtype=complex))), kind="stable"):
        z = found[i]
        if all(abs(z - rep) >= 3e-5 for rep in reps):
            reps.append(z)
    radii = [min(0.05, float(sep) / 3.0) for sep in _separation_to_others(reps)]
    mults = _box_counts(f, [(z.real - r, z.real + r, z.imag - r, z.imag + r) for z, r in zip(reps, radii)])
    out: list[tuple[complex, int]] = []
    for rep, r, mult in zip(reps, radii, mults):
        if mult > 1:
            # Newton places a multiple zero to about sqrt(rounding); the zeros'
            # mean (1 / 2 pi i mult) \oint (z - rep) f'/f dz is good to rounding
            w = r * np.exp(2j * math.pi * np.arange(32) / 32)
            value, slope = _eval_many(newton_f, rep + w)
            rep += complex(np.mean(w * w * slope / value)) / mult
        if mult > 0:
            out.append((rep, mult))
    return out


def _dominance_height(terms, lead: float) -> float:
    """The least y >= 0 from which the term of rate ``lead`` is more than three
    times each other (|J|, beta) of ``terms``, |J| e^{-beta y} at Im lam = y."""
    j_lead = next(j for j, beta in terms if beta == lead)
    return max([0.0] + [math.log(3.0 * j / j_lead) / (beta - lead) for j, beta in terms if j and beta != lead])


def _in_box(z: complex, x0, x1, y0, y1, pad: float) -> bool:
    return (x0 - pad) <= z.real <= (x1 + pad) and (y0 - pad) <= z.imag <= (y1 + pad)


def _argmin_scan(f, x0, x1, y0, y1) -> complex:
    xs = np.linspace(x0, x1, 25)
    ysc = np.linspace(y0, y1, 25)
    zz = (xs[None, :] + 1j * ysc[:, None]).ravel()
    return complex(zz[np.argmin(np.abs(_eval_many(f, zz)))])


def _locate_in_box(f, newton_f, x0, x1, y0, y1, count, depth=0) -> list[complex]:
    """Zeros of f inside a rectangle known to contain ``count`` of them;
    ``newton_f`` maps z to (f(z), f'(z)).  Newton results that escape
    the rectangle are rejected and the box is bisected instead, in Re and
    Im by turns so that zeros sharing a real part get separated too.  Both
    halves are winding-counted and must add up to ``count``, so every zero
    is reported by exactly one box.  A root is in the rectangle when it is
    within 1e-9 of it: any wider margin takes in a neighbour's zero."""
    if count == 0:
        return []
    pad = 1e-9
    if count == 1:
        z = _newton(newton_f, np.array([complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))]))[0]
        if z is None or not _in_box(z, x0, x1, y0, y1, pad):
            z = _newton(newton_f, np.array([_argmin_scan(f, x0, x1, y0, y1)]))[0]
        if z is not None and _in_box(z, x0, x1, y0, y1, pad):
            return [z]
    if depth >= 30 or max(x1 - x0, y1 - y0) < 1e-8:
        # coincident zeros (or a stubborn cluster): report the best point
        z = _argmin_scan(f, x0, x1, y0, y1)
        return [_newton(newton_f, np.array([z]))[0] or z] * count
    split_re = depth % 2 == 0
    lo, hi = (x0, x1) if split_re else (y0, y1)
    for k in range(1, 9):
        # off the midpoint from the first cut: the sweep's strip is centred
        # on Delta_0's zero pattern, so its midpoint can run through zeros
        cut = 0.5 * (lo + hi) + (hi - lo) * 0.013 * k
        halves = ((x0, cut, y0, y1), (cut, x1, y0, y1)) if split_re else ((x0, x1, y0, cut), (x0, x1, cut, y1))
        try:
            counts = _box_counts(f, halves)
        except (ContourTooCloseError, NonIntegerWindingError):
            continue
        if sum(counts) == count:
            break
    else:
        z = _argmin_scan(f, x0, x1, y0, y1)
        return [z] * count
    return [z for box, k in zip(halves, counts) for z in _locate_in_box(f, newton_f, *box, k, depth + 1)]


def _eval_many(f, z: np.ndarray) -> np.ndarray:
    """f on a 1-d array of points, one call per _EVAL_CHUNK of them.  A
    callable returning a pair, such as (value, slope), gives an array of
    shape (2, z.size).  A callable that does not map the array to values of
    its length raises TypeError: every determinant here takes arrays."""
    parts = []
    for lo in range(0, max(z.size, 1), _EVAL_CHUNK):
        chunk = z[lo : lo + _EVAL_CHUNK]
        out = np.asarray(f(chunk), dtype=complex)
        if out.shape[-1:] != chunk.shape:
            raise TypeError(f"callable mapped {chunk.size} points to shape {out.shape}; it must take 1-d arrays of lam")
        parts.append(out)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _disk_counts(f, centers, radii, nodes: int) -> list:
    """``_winding`` around the circles |lam - centers[k]| = radii[k], each
    walked from ``nodes`` equally spaced starting points."""
    theta = np.linspace(0.0, 2 * math.pi, nodes, endpoint=False)
    return _winding(f, np.tile(theta, len(centers)), np.repeat(np.arange(len(centers)), nodes), circles=(centers, radii))


def count_zeros_disk(delta, center: complex, radius: float, quad_nodes: int = 256) -> int:
    """Zero count inside a disk by the argument principle: the winding of
    Delta around the circle, walked from ``quad_nodes`` equally spaced
    points (the starting number; pieces are bisected at their arc
    midpoints).  The count is certified when ``delta`` carries a
    ``slope_bound``, as ``determinant_evaluator``'s callable does, and
    follows the pi/2 rule otherwise (see ``_winding``); a refused count
    raises ContourTooCloseError or NonIntegerWindingError.  ``delta`` maps
    a 1-d array of lam to values of its length (TypeError otherwise)."""
    return _counted(_disk_counts(delta, [center], [radius], quad_nodes)[0])


def _separation_to_others(reps: list[complex]) -> np.ndarray:
    """For each representative, the distance to the nearest other one
    (inf when it is alone).  np.hypot is libm's hypot, as abs() of a
    Python complex; np.abs of a complex array rounds differently."""
    z = np.array(reps, dtype=complex)
    diff = z[:, None] - z[None, :]
    gaps = np.hypot(diff.real, diff.imag)
    np.fill_diagonal(gaps, math.inf)
    return gaps.min(axis=1)


def zeros_deltaQ(
    sys: DiracSystem,
    bc: BoundaryConditions,
    n_max: int,
    eps_ladder=EPS_LADDER_DEFAULT,
    n_grid: int = 256,
    determinant="kernels",
    allow_nonstrict: bool = False,
    tol: float = 1e-10,
) -> SpectrumWindow:
    """Perturbed zeros paired with the unperturbed ones.

    Each distinct lam_n^0 of the window, counted with its multiplicity
    there, seeds a Newton iteration on Delta_Q (one batched run over the
    representatives); the pairing is accepted at the smallest ladder radius
    eps at which the disk around lam_n^0 separates from the other
    unperturbed zeros, holds the Newton root, and winds as often as the
    sought multiplicity.  Unresolved clusters are reported with their
    winding multiplicity rather than split; a representative whose Newton
    fails is located by a subdivision search in its separating box and
    reported unverified.  The ladder is walked in rounds: each round counts
    the next radius of every representative still unresolved, all disks in
    one ``_winding`` call, from 16 nodes each when Delta_Q carries a
    ``slope_bound`` (certified counts) and from 256 under the pi/2 rule
    otherwise.  ``determinant`` is "kernels" (kernel traces, certified),
    "direct" (RK4, batched over the contour points) or a prebuilt callable
    that maps a 1-d array of lam to Delta_Q there (TypeError otherwise),
    e.g. ``determinant_evaluator``'s, whose ``slope=True`` also gives
    Delta_Q' exactly.
    """
    try:
        window0 = _window0(bc, sys.b1, sys.b2, n_max, allow_nonstrict)
    except NonRegularError as err:
        raise NonRegularError(f"{err}; pass allow_nonstrict=True to pair against a non-strict Delta_0") from None
    if callable(determinant):
        delta = determinant
    elif determinant == "kernels":
        [traces], _ = _kernel_traces([sys], n_grid, tol=tol)
        delta = _trace_evaluator(bc, *traces, sys.b1, sys.b2)
    elif determinant == "direct":
        delta = lambda lam: char_det_direct(sys, bc, lam, n_grid)  # noqa: E731
    else:
        raise ValueError("determinant must be 'kernels', 'direct' or a callable")
    return _pair_zeros(delta, window0, n_max, eps_ladder)


def _window0(bc: BoundaryConditions, b1: float, b2: float, n_max: int, allow_nonstrict: bool = False) -> list:
    """The Delta_0 window that ``zeros_deltaQ`` pairs against, after its
    strict-regularity gate; one window serves every potential with these
    weights and bc."""
    verdict = classify(bc, b1, b2)
    if not verdict.is_strictly_regular and not allow_nonstrict:
        raise NonRegularError(
            f"boundary conditions are {verdict.kind} ({verdict.reason}); "
            "zeros are paired against Delta_0's only under strictly regular ones"
        )
    return zeros_delta0(bc, b1, b2, n_max)


def _pair_zeros(delta, window0: list, n_max: int, eps_ladder=EPS_LADDER_DEFAULT) -> SpectrumWindow:
    """``zeros_deltaQ`` from its Delta_0 window ``window0`` and the
    determinant callable ``delta``."""
    newton_f = _value_and_slope(delta)

    # one representative per cluster, with its multiplicity in the window
    mults = Counter(lam0 for _, lam0, _ in window0)
    reps = list(mults)
    ladder = sorted(eps_ladder)
    seps = _separation_to_others(reps)
    roots = _newton(newton_f, np.array(reps))
    usable = [[eps for eps in ladder if 2 * eps < sep] for sep in seps]
    # per representative, the usable radii that hold its Newton root, in
    # ladder order; each round counts every representative's next one
    todo = [[eps for eps in radii if lam is None or not abs(lam - rep) >= eps] for rep, lam, radii in zip(reps, roots, usable)]
    counts = [mults[rep] for rep in reps]
    eps_used = [math.nan] * len(reps)
    verified = [False] * len(reps)
    nodes = _CERTIFIED_NODES if hasattr(delta, "slope_bound") else _PLAIN_NODES
    pending = [i for i in range(len(reps)) if todo[i]]
    while pending:
        radii = [todo[i].pop(0) for i in pending]
        results = _disk_counts(delta, [reps[i] for i in pending], radii, nodes)
        still = []
        for i, eps, count in zip(pending, radii, results):
            if not isinstance(count, Exception):
                counts[i] = count
                if count > 0:
                    # any count but the sought multiplicity is a cluster or a
                    # shifted zero: report what the winding shows, unverified
                    eps_used[i] = eps
                    verified[i] = roots[i] is not None and count == mults[reps[i]]
                    continue
            if todo[i]:
                still.append(i)
        pending = still
    paired = {}
    for i, rep in enumerate(reps):
        lam = roots[i]
        if lam is None:
            # fallback: subdivision search in the separating box
            eps0 = usable[i][0] if usable[i] else ladder[0] / 2
            try:
                lam = _locate_in_box(delta, newton_f, rep.real - eps0, rep.real + eps0, rep.imag - eps0, rep.imag + eps0, max(counts[i], 1))[0]
            except (ContourTooCloseError, NonIntegerWindingError):
                lam = rep
        paired[rep] = (lam, counts[i], eps_used[i], verified[i])

    entries = []
    for n, lam0, mult0 in window0:
        lam, count, eps_used, verified = paired[lam0]
        entries.append(SpectrumEntry(n, lam0, lam, max(count, mult0), eps_used, verified))

    strip = max(abs(e.lam.imag) for e in entries) + max(abs(e.lam0.imag) for e in entries) + 0.5
    unverified = [abs(e.n) for e in entries if not e.verified]
    head = (max(unverified) + 1) if unverified else 0
    return SpectrumWindow(tuple(entries), strip, n_max, head)


def csv_table(window: SpectrumWindow) -> tuple[list, list]:
    """Header and rows (n, Re lam0, Im lam0, Re lam, Im lam, multiplicity,
    eps), floats written by repr so they reload bit-exactly."""
    header = ["n", "re_lam0", "im_lam0", "re_lam", "im_lam", "multiplicity", "ladder_eps"]
    rows = [
        [e.n, *(repr(float(v)) for v in (e.lam0.real, e.lam0.imag, e.lam.real, e.lam.imag)),
         e.multiplicity, repr(float(e.ladder_eps))]
        for e in window.entries
    ]
    return header, rows
