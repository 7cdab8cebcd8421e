import cmath
import functools
import inspect
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from diracbvp.boundary import BoundaryConditions, _ExpSum, classify, delta0
from diracbvp.gridfn import SampledFunction
from diracbvp import spectrum
from diracbvp.ode import DiracSystem, char_det_direct
from diracbvp.spectrum import (
    EPS_LADDER_DEFAULT,
    ContourTooCloseError,
    NonIntegerWindingError,
    NonRegularError,
    _box_counts,
    _newton,
    _separation_to_others,
    _value_and_slope,
    _winding,
    count_zeros_disk,
    zeros_delta0,
    zeros_deltaQ,
)
from diracbvp.transformop import build_kernels, combos, determinant_evaluator

from conftest import smooth_potential


def scalar_newton(value_and_slope, z0, tol=1e-13, max_iter=60):
    """Reference Newton loop from one start z0, one scalar call per step:
    the root, or None when f' vanishes, f overflows or max_iter steps do
    not meet |dz| < tol (1 + |z|)."""
    z = z0
    for _ in range(max_iter):
        try:
            value, d = value_and_slope(z)
        except OverflowError:
            return None
        if d == 0:
            return None
        dz = value / d
        z = z - dz
        if abs(dz) < tol * (1.0 + abs(z)):
            return z
    return None


def assert_window_holds_every_zero(quad, b1, b2, window, y0=-4.0, y1=6.0):
    """Between the midpoints of the window's two lowest and two highest
    distinct real parts, the certified box count of Delta_0 over
    y0 < Im lam < y1 equals the window's multiplicities there."""
    re = sorted({round(lam.real, 9) for _, lam, _ in window})
    x0, x1 = 0.5 * (re[0] + re[1]), 0.5 * (re[-2] + re[-1])
    inside = sum(m for _, lam, m in window if x0 < lam.real < x1)
    # Delta_0 as an _ExpSum carries its slope bound, so the count is certified
    assert _box_counts(_ExpSum(quad, b1, b2), [(x0, x1, y0, y1)]) == [inside]
    assert all(y0 < lam.imag < y1 for _, lam, _ in window)


class TestZerosDelta0:
    def test_dirac_antiperiodic_double_zeros(self):
        bc = BoundaryConditions.from_canonical(1, 0, 0, 1)
        window = zeros_delta0(bc, -1.0, 1.0, 6)
        assert len(window) == 13
        for _, lam, mult in window:
            assert mult == 2
            # zeros of 2 + 2cos(lam): odd multiples of pi
            assert abs(cmath.cos(lam) + 1.0) < 1e-12

    def test_bc_zero_progressions(self):
        # a=2, d=1, b=c=0, Dirac weights: branch from d real, branch from a
        # on the line Im = ln|a|/b1 = -ln 2
        bc = BoundaryConditions.from_canonical(2, 0, 0, 1)
        window = zeros_delta0(bc, -1.0, 1.0, 10)
        real_branch = [lam for _, lam, _ in window if abs(lam.imag) < 1e-12]
        shifted_branch = [lam for _, lam, _ in window if abs(lam.imag + math.log(2)) < 1e-12]
        assert len(real_branch) + len(shifted_branch) == len(window)
        for lam in real_branch:
            assert abs((lam.real - math.pi) % (2 * math.pi)) < 1e-9 or abs(
                (lam.real - math.pi) % (2 * math.pi) - 2 * math.pi
            ) < 1e-9

    def test_separated_pi_n(self):
        # a=d=0, bc=1, b2 - b1 = 2: zeros at pi n
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        window = zeros_delta0(bc, -1.0, 1.0, 8)
        for n, lam, mult in window:
            assert mult == 1
            assert abs(lam - math.pi * round(lam.real / math.pi)) < 1e-12

    def test_rational_polynomial_route_against_delta0(self):
        # ratios 1/2 and 1/3; for (0.5, 1, 1, 0.5) at b = (-1, 3) the
        # roots of the ratio-(1, 2) polynomial sit at |Delta_0| ~ 2, so a
        # misdetected ratio shows here
        for quad, b2 in (((0.3, 0.4, 0.5, 1.2), 2.0), ((0.3, 0.4, 0.5, 1.2), 3.0), ((0.5, 1, 1, 0.5), 3.0)):
            bc = BoundaryConditions.from_canonical(*quad)
            window = zeros_delta0(bc, -1.0, b2, 10)
            assert len(window) == 21
            for _, lam, _ in window:
                assert abs(delta0(quad, -1.0, b2, lam)) < 1e-8

    def test_sweep_route_matches_exact(self):
        quad = (0.3, 0.4, 0.5, 1.2)
        bc = BoundaryConditions.from_canonical(*quad)
        exact = zeros_delta0(bc, -1.0, 2.0, 6)
        swept = zeros_delta0(bc, -1.0, 2.0, 6, method="sweep")
        for (n1, l1, m1), (n2, l2, m2) in zip(exact, swept):
            assert n1 == n2 and m1 == m2
            assert abs(l1 - l2) < 1e-8

    @pytest.mark.parametrize(
        "quad, b2, n_max, method",
        [
            ((1.6625604592847125, -1.2567603063741148, -1.9640853626142944, 1.5603063411640932), 1.0, 5, "sweep"),
            ((1, 1, 0.97, 1), math.sqrt(2.0), 8, "auto"),
        ],
        ids=["dirac-small-j32", "sqrt2-small-j32"],
    )
    def test_sweep_strip_holds_every_zero_family(self, quad, b2, n_max, method):
        # a small J32 = ad - bc lifts a whole zero family (Im ~ 3.2 and
        # 3.3-3.7 here) above log(4 max(1, |a|, |d|, |ad - bc|)) + 1; the
        # strip from Delta_0's own terms keeps it
        window = zeros_delta0(BoundaryConditions.from_canonical(*quad), -1.0, b2, n_max, method=method)
        assert [n for n, _, _ in window] == list(range(-n_max, n_max + 1))
        assert max(lam.imag for _, lam, _ in window) > 3.0
        assert_window_holds_every_zero(quad, -1.0, b2, window)

    @pytest.mark.parametrize(
        "quad, b2",
        [((0, 1, 1e-5, 0), 2.0), ((0, 1, 1e-5, 0), math.sqrt(2.0)), ((1, 0.5, 0.03125, 0), math.sqrt(2.0))],
    )
    def test_small_bc_product_returns_a_full_window(self, quad, b2):
        # separated (a = d = 0) or small bc: the zeros sit near
        # Im = ln(1 / |ad - bc|) / b2, far above the weights' unit scale;
        # rational weights take the polynomial route whatever classify's branch
        window = zeros_delta0(BoundaryConditions.from_canonical(*quad), -1.0, b2, 6)
        assert [n for n, _, _ in window] == list(range(-6, 7))
        assert max(abs(delta0(quad, -1.0, b2, lam)) for _, lam, _ in window) < 1e-12

    def test_real_part_ties_do_not_depend_on_the_route(self):
        # two zeros on Re = 5 pi whose real parts differ by rounding only:
        # the tie goes by Im, so both routes give n = 10 the lower one
        bc = BoundaryConditions.from_canonical(1.195757963852536, -1.0579341707753143, -0.7208613827268548, 1.1995181042198135)
        exact = zeros_delta0(bc, -1.0, 3.0, 12)
        swept = zeros_delta0(bc, -1.0, 3.0, 12, method="sweep")
        assert [(n, m) for n, _, m in exact] == [(n, m) for n, _, m in swept]
        assert max(abs(l1 - l2) for (_, l1, _), (_, l2, _) in zip(exact, swept)) < 1e-8
        tie = [lam for n, lam, _ in exact if n in (10, 11)]
        assert abs(tie[0].real - 5 * math.pi) < 1e-9 and abs(tie[1].real - 5 * math.pi) < 1e-9
        assert tie[0].imag < tie[1].imag

    @settings(max_examples=30, deadline=None)
    @given(quad=st.tuples(*(st.floats(-2.0, 2.0) for _ in range(4))), b2=st.sampled_from([1.0, 2.0, 3.0]))
    def test_sweep_equals_the_polynomial_route(self, quad, b2):
        a, b, c, d = quad
        assume(abs(a * d - b * c) >= 1e-3)
        bc = BoundaryConditions.from_canonical(*quad)
        # simple zeros only: np.roots places a multiple zero only to about
        # the square root of the rounding, 1e-8 or worse
        assume(classify(bc, -1.0, b2).is_strictly_regular)
        exact = zeros_delta0(bc, -1.0, b2, 8)
        # zeros at least 0.05 apart: the sweep reports zeros closer than
        # 3e-5 as one cluster (see the next test), and its pi/2 rule starts
        # from 32 nodes per unit length, so a closer pair can fall inside
        # one step and be miscounted (CHANGES.md, FOUND on the pi/2 rule)
        distinct = _separation_to_others(list({lam for _, lam, _ in exact}))
        assume(distinct.min() >= 0.05)
        swept = zeros_delta0(bc, -1.0, b2, 8, method="sweep")
        assert [(n, m) for n, _, m in exact] == [(n, m) for n, _, m in swept]
        assert max(abs(l1 - l2) for (_, l1, _), (_, l2, _) in zip(exact, swept)) < 1e-8

    def test_sweep_counts_a_close_pair_once(self):
        # Dirac weights, P(z) = z^2 + 2z + 1 - 1e-12: zeros 2e-6 apart at
        # odd multiples of pi.  The sweep reports each pair as one cluster
        # of multiplicity 2, never each of its two Newton roots with the
        # pair's count
        bc = BoundaryConditions.from_canonical(1, 1, 1e-12, 1)
        swept = zeros_delta0(bc, -1.0, 1.0, 6, method="sweep")
        assert [n for n, _, _ in swept] == list(range(-6, 7))
        mults = Counter(lam for _, lam, _ in swept)
        assert all(m == 2 for _, _, m in swept)
        assert all(count == 2 for lam, count in mults.items() if abs(lam.real) < 10)
        assert all(abs(cmath.cos(lam) + 1.0) < 1e-9 for lam in mults)

    def test_nonregular_rejected(self):
        bc = BoundaryConditions.from_canonical(1, 1, 1, 1)  # ad - bc = 0
        with pytest.raises(NonRegularError):
            zeros_delta0(bc, -1.0, 1.0, 5)

    def test_window_size_and_ordering(self):
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        window = zeros_delta0(bc, -1.0, 1.0, 12)
        ns = [n for n, _, _ in window]
        assert ns == list(range(-12, 13))
        res = [lam.real for _, lam, _ in window]
        assert all(a <= b + 1e-12 for a, b in zip(res, res[1:]))

    def test_sweep_keeps_zeros_that_share_a_real_part(self):
        # Dirac weights: Delta_0 = e^{-i lam} (z^2 + (a+d) z + (ad-bc)),
        # z = e^{i lam}.  Both roots are negative reals here, so the two
        # zero families sit on the same lines Re lam = pi + 2 pi k.
        a, b, c, d = 0.4, 0.3, -0.2, 1.2
        window = zeros_delta0(BoundaryConditions.from_canonical(a, b, c, d), -1.0, 1.0, 10, method="sweep")
        assert [n for n, _, _ in window] == list(range(-10, 11))
        assert all(mult == 1 for _, _, mult in window)
        roots = np.roots([1.0, a + d, a * d - b * c])
        expected = sorted(
            (complex(cmath.phase(z) + 2 * math.pi * k, -math.log(abs(z))) for z in roots for k in range(-8, 8)),
            key=lambda lam: (lam.real, lam.imag),
        )
        got = np.array([lam for _, lam, _ in window])
        start = int(np.argmin(np.abs(np.array(expected) - got[0])))
        assert np.abs(got - np.array(expected[start : start + 21])).max() < 1e-9

    @pytest.mark.parametrize("quad, mult, tol", [((0.4, 0.3, -0.2, 1.2), 1, 1e-12), ((2, 1, -1, 0), 2, 1e-6)])
    def test_dirac_weights_take_the_polynomial_route(self, quad, mult, tol, monkeypatch):
        # Dirac weights have ratio (1, 1): Delta_0 = e^{-i lam} P(e^{i lam})
        # with P quadratic, so no box sweep runs; (2, 1, -1, 0) has
        # (a - d)^2 + 4bc = 0 and a double root
        bc = BoundaryConditions.from_canonical(*quad)
        swept = zeros_delta0(bc, -1.0, 1.0, 10, method="sweep")

        def no_sweep(*args):
            raise AssertionError("box sweep ran")

        monkeypatch.setattr(spectrum, "_sweep_zeros", no_sweep)
        exact = zeros_delta0(bc, -1.0, 1.0, 10)
        assert [(n, m) for n, _, m in exact] == [(n, m) for n, _, m in swept]
        assert all(m == mult for _, _, m in exact)
        assert max(abs(l1 - l2) for (_, l1, _), (_, l2, _) in zip(exact, swept)) <= tol

    @settings(max_examples=25, deadline=None)
    @given(
        quad=st.tuples(*(st.floats(-2.0, 2.0) for _ in range(4))),
        b2=st.sampled_from([1.0, 2.0, math.sqrt(2.0), 3.0, math.pi]),
        corners=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-3.0, 0.0), st.floats(0.0, 3.0)),
    )
    def test_rectangle_counts_match_the_window(self, quad, b2, corners):
        # a rectangle inside the window's real span, 0.05 from every zero:
        # the certified winding of Delta_0 along its boundary is the sum of
        # the window's multiplicities inside it, whichever route found them
        bc = BoundaryConditions.from_canonical(*quad)
        assume(classify(bc, -1.0, b2).is_regular)
        try:
            window = zeros_delta0(bc, -1.0, b2, 6)
        except (NonIntegerWindingError, ContourTooCloseError):
            # the box sweep's pi/2 rule refused a box, or a box whose
            # |Delta_0| spans many orders met a zero near its side: loud,
            # no zero lost
            reject()
        zeros = {lam: mult for _, lam, mult in window}
        lo, hi = window[0][1].real, window[-1][1].real
        u0, u1, y0, y1 = corners
        x0, x1 = lo + (hi - lo) * min(u0, u1), lo + (hi - lo) * max(u0, u1)
        assume(x1 - x0 > 0.1)
        assume(all(min(abs(z.real - x0), abs(z.real - x1), abs(z.imag - y0), abs(z.imag - y1)) >= 0.05 for z in zeros))
        inside = sum(m for z, m in zeros.items() if x0 < z.real < x1 and y0 < z.imag < y1)
        assert _box_counts(_ExpSum(quad, -1.0, b2), [(x0, x1, y0, y1)]) == [inside]

    def test_sweep_newton_step_evaluates_delta0_once(self, monkeypatch):
        # the sweep's Newton takes Delta_0' from its closed form, so each
        # step makes one batched Delta_0 call, with slope=True; contour
        # walks call it without slope and are not counted
        steps = 0
        slope_calls = 0
        real_call, real_newton = _ExpSum.__call__, spectrum._newton

        def counting_call(self, lam, slope=False):
            nonlocal slope_calls
            slope_calls += slope
            assert isinstance(lam, np.ndarray)
            return real_call(self, lam, slope=slope)

        def counting_newton(value_and_slope, z0, *args, **kwargs):
            def step(z):
                nonlocal steps
                steps += 1
                return value_and_slope(z)

            return real_newton(step, z0, *args, **kwargs)

        monkeypatch.setattr(_ExpSum, "__call__", counting_call)
        monkeypatch.setattr(spectrum, "_newton", counting_newton)
        window = zeros_delta0(BoundaryConditions.from_canonical(0, 1, 1, 0), -1.0, 1.0, 20, method="sweep")
        assert len(window) == 41
        assert steps > 0
        assert slope_calls == steps

    @pytest.mark.parametrize("b2", [math.sqrt(2.0), math.pi])
    def test_sweep_counts_by_the_pi_half_rule(self, monkeypatch, b2):
        # Delta_0 carries a slope bound, but the sweep hands _winding a
        # callable without one: certified boxes cost criterion 05 about 15x
        seen = []
        real_winding = spectrum._winding

        def recording_winding(f, *args, **kwargs):
            seen.append(hasattr(f, "slope_bound"))
            return real_winding(f, *args, **kwargs)

        monkeypatch.setattr(spectrum, "_winding", recording_winding)
        window = zeros_delta0(BoundaryConditions.from_canonical(0.5, 1, 1, 0.5), -1.0, b2, 6, method="sweep")
        assert len(window) == 13
        assert seen and not any(seen)
        assert hasattr(_ExpSum((0.5, 1, 1, 0.5), -1.0, b2), "slope_bound")

    @pytest.mark.parametrize("b1, b2", [(-1e-300, 1.0), (-1e-16, 2.0)])
    def test_coincident_rates_are_refused(self, b1, b2):
        # b1 + b2 rounds to b2: the J34 and J14 terms share a rate, so the
        # J14 lead never dominates and no strip holds the zeros; the strip
        # refuses, naming the weights, where it divided by zero
        for quad in ((0, 1, 1, 0), (0.5, 1, 1, 0.5), (0, 1, 1, 0.5)):
            with pytest.raises(ValueError, match=rf"b1 \+ b2 rounds to b2 \(b1 = {b1!r}, b2 = {b2!r}\)"):
                zeros_delta0(BoundaryConditions.from_canonical(*quad), b1, b2, 3, method="sweep")
        with pytest.raises(ValueError, match=r"rounds to b1 \(b1 = -1\.0, b2 = 1e-17\)"):
            _ExpSum((0.5, 1, 1, 0.5), -1.0, 1e-17).strip()


class TestCountZeros:
    def delta_antiperiodic(self, lam):
        return delta0((1, 0, 0, 1), -1.0, 1.0, lam)

    def test_double_zero(self):
        assert count_zeros_disk(self.delta_antiperiodic, math.pi, 0.5) == 2

    def test_empty_disk(self):
        assert count_zeros_disk(self.delta_antiperiodic, 1.0, 0.5) == 0

    def test_simple_zero_of_identity(self):
        assert count_zeros_disk(lambda z: z, 0.0, 1.0) == 1

    def test_zero_on_contour_rejected(self):
        with pytest.raises(ContourTooCloseError):
            count_zeros_disk(lambda z: z - 1.0, 0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_sample_refused_before_dividing(self):
        # the node at angle 0 is the zero itself: the argument increments
        # divided by it and warned before the contour was refused
        with pytest.raises(ContourTooCloseError):
            count_zeros_disk(lambda z: z - 1.0, 0.0, 1.0)
        nodes = np.array([1.0, 1j, -1.0, -1j])
        assert _winding(lambda z: z - 1.0, np.concatenate([nodes, 2 * nodes]), np.repeat([0, 1], 4))[1] == 1

    def test_one_evaluation_per_contour_with_or_without_slope(self):
        # the count needs no derivative: every callable, with or without
        # slope=True, gets one batched call of quad_nodes points when no
        # step needs bisecting
        calls = []

        def delta(lam, slope=False):
            calls.append((np.size(lam), slope))
            value = self.delta_antiperiodic(lam)
            if not slope:
                return value
            return value, 1j * (np.exp(1j * lam) - np.exp(-1j * lam))

        assert count_zeros_disk(delta, math.pi, 0.5) == 2
        assert calls == [(256, False)]
        plain = []
        assert count_zeros_disk(lambda lam: plain.append(np.size(lam)) or self.delta_antiperiodic(lam), math.pi, 0.5) == 2
        assert plain == [256]

    def test_scalar_only_callable_is_refused(self):
        # contours are evaluated in one batched call; a callable that does
        # not map a 1-d array to values of its length is a TypeError
        with pytest.raises(TypeError):
            count_zeros_disk(lambda z: cmath.exp(z) - 1.0, 0.0, 1.0)
        with pytest.raises(TypeError):
            count_zeros_disk(lambda z: 1.0, 0.0, 1.0)

    def test_unresolved_argument_jump_is_refused(self):
        # a sign flip across Re z = 1/2 is an argument jump of pi that no
        # bisection resolves; counting it as a winding would be silent
        def f(z):
            return np.where(np.real(z) < 0.5, 1.0, -1.0) + 0j

        with pytest.raises(NonIntegerWindingError):
            _box_counts(f, [(0.0, 1.0, -1.0, 1.0)])
        with pytest.raises(NonIntegerWindingError):
            count_zeros_disk(f, 0.5, 0.3)

    def test_box_list_counts_each_box_in_one_call(self, monkeypatch):
        # one _winding call for the whole list gives every box the count it
        # gets alone; with refusals, the first in box order is raised
        roots = np.array([0.3 + 0.2j, -0.7 + 0.5j, 0.3 + 0.25j, 1.5 - 0.4j])

        def poly(z):
            return np.prod(z[:, None] - roots, axis=-1)

        boxes = [(-1.0, 1.0, -1.0, 1.0), (0.0, 0.5, 0.0, 0.4), (1.0, 2.0, -1.0, 0.0), (-2.0, -1.5, 0.0, 1.0),
                 (0.2, 0.4, 0.1, 0.22)]
        alone = [_box_counts(poly, [box])[0] for box in boxes]
        real_winding, calls = spectrum._winding, []
        monkeypatch.setattr(spectrum, "_winding", lambda *args: calls.append(args) or real_winding(*args))
        assert _box_counts(poly, boxes) == alone == [3, 2, 1, 0, 1]
        assert len(calls) == 1

        def f(z):
            return np.where(np.real(z) < 0.5, 1.0, -1.0) * (z - 3.0)

        # the sign flip at Re z = 1/2 is never resolved; z = 3 is a node
        flip, close, fine = (0.0, 1.0, -1.0, 1.0), (2.5, 3.0, -1.0, 1.0), (2.5, 3.5, -0.5, 0.5)
        assert _box_counts(f, [fine]) == [1]
        with pytest.raises(NonIntegerWindingError):
            _box_counts(f, [fine, flip, close])
        with pytest.raises(ContourTooCloseError):
            _box_counts(f, [fine, close, flip])

    def test_rectangle_nodes_match_the_side_loop(self, monkeypatch):
        # the counter places its nodes with array operations; a loop over
        # the sides, one np.arange per side, is the reference, bit for bit
        captured = {}

        def capturing_winding(f, nodes, contour):
            captured.update(nodes=nodes, contour=contour)
            return [0] * (contour[-1] + 1)

        monkeypatch.setattr(spectrum, "_winding", capturing_winding)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x0, y0 = rng.uniform(-50.0, 50.0, (2, 4))
            w, h = rng.exponential(2.0, (2, 4))
            boxes = list(zip(x0, x0 + w, y0, y0 + h))
            assert _box_counts(lambda z: z, boxes) == [0] * 4
            nodes, contour = [], []
            for k, (x0_, x1_, y0_, y1_) in enumerate(boxes):
                corners = [complex(x0_, y0_), complex(x1_, y0_), complex(x1_, y1_), complex(x0_, y1_)]
                for za, zb in zip(corners, corners[1:] + corners[:1]):
                    seg = max(32, int(32 * abs(zb - za)))
                    nodes.append(za + (zb - za) * np.arange(seg) / seg)
                    contour.append(np.full(seg, k))
            assert captured["nodes"].tobytes() == np.concatenate(nodes).tobytes()
            assert captured["contour"].tolist() == np.concatenate(contour).tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        roots=st.lists(
            st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)).map(lambda xy: complex(*xy)),
            min_size=1,
            max_size=6,
        )
    )
    def test_polynomial_counts_match_roots_inside(self, roots):
        # disk |z - 0.1i| < 1 and rectangle [-1, 0.8] x [-0.7, 0.9]
        center, radius = 0.1j, 1.0
        box = (-1.0, 0.8, -0.7, 0.9)
        # 0.05 from the circle and from the four lines through the edges
        assume(all(abs(abs(z - center) - radius) >= 0.05 for z in roots))
        assume(all(min(abs(z.real - box[0]), abs(z.real - box[1])) >= 0.05 for z in roots))
        assume(all(min(abs(z.imag - box[2]), abs(z.imag - box[3])) >= 0.05 for z in roots))

        def poly(z):
            z = np.asarray(z, dtype=complex)
            return np.prod(z[..., None] - np.array(roots), axis=-1)

        in_disk = sum(abs(z - center) < radius for z in roots)
        in_box = sum(box[0] < z.real < box[1] and box[2] < z.imag < box[3] for z in roots)
        assert count_zeros_disk(poly, center, radius) == in_disk
        assert _box_counts(poly, [box]) == [in_box]

    def test_two_zeros_in_one_gap_are_both_counted(self):
        # both zeros 1e-4 inside the radius-0.1 circle, in one gap between
        # two of 256 equally spaced nodes: that step's argument increment is
        # near 2 pi, which the pi/2 rule reads as near 0.  The slope bound
        # |f'| = |2z - z1 - z2| <= 0.4 on the disk certifies the count 2
        # (about 17 rounds from 16 nodes)
        gap = 2 * math.pi / 256
        z1, z2 = (0.0999 * cmath.exp(1j * frac * gap) for frac in (0.3, 0.7))

        def poly(z):
            return (z - z1) * (z - z2)

        poly.slope_bound = lambda y_lo, y_hi: np.full(np.shape(y_lo), 0.4)
        assert count_zeros_disk(poly, 0.0, 0.1) == 2
        assert spectrum._disk_counts(poly, [0.0], [0.1], 16) == [2]

    def test_certified_counts_are_per_contour(self):
        # one batch: a disk around a zero, an empty one, and one whose circle
        # passes through a zero, which alone is refused
        def f(z):
            return z * (z - 3.0)

        f.slope_bound = lambda y_lo, y_hi: np.full(np.shape(y_lo), 20.0)  # |2z - 3| on |z| <= 8
        counts = spectrum._disk_counts(f, [0.0, 1.5, 3.5], [1.0, 0.5, 0.5], 16)
        assert counts[:2] == [1, 0]
        assert isinstance(counts[2], ContourTooCloseError)
        with pytest.raises(ContourTooCloseError):
            count_zeros_disk(f, 3.5, 0.5)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        b2=st.sampled_from([1.0, 2.0, math.sqrt(2.0)]),
        l1_norm=st.floats(0.05, 3.0),
        quad=st.sampled_from([(0.0, 1.0, 1.0, 0.0), (0.5, 1.0, 1.0, 0.5), (0.3, 0.4, 0.5, 1.2)]),
        disk=st.tuples(st.floats(-30.0, 30.0), st.floats(-3.0, 3.0), st.floats(0.01, 2.0)),
    )
    def test_slope_bound_holds(self, seed, b2, l1_norm, quad, disk):
        # |Delta_Q'| and |Delta_0'| (the sum with no trace terms) from
        # slope=True never exceed their bounds, over a drawn disk's strip
        # and at each sampled point's own Im (up to rounding)
        n = 32
        sys = smooth_potential(seed, n, b1=-1.0, b2=b2, l1_norm=l1_norm)
        ks = build_kernels(sys, n)
        delta = determinant_evaluator(BoundaryConditions.from_canonical(*quad), combos(ks.kplus, ks.kminus), -1.0, b2)
        x, y, radius = disk
        u, phi = np.random.default_rng(seed).random((2, 64))
        lam = complex(x, y) + radius * np.sqrt(u) * np.exp(2j * math.pi * phi)
        for f in (delta, _ExpSum(quad, -1.0, b2)):
            slope = np.abs(f(lam, slope=True)[1])
            assert slope.max() <= f.slope_bound(y - radius, y + radius) * (1 + 1e-12)
            assert np.all(slope <= f.slope_bound(lam.imag, lam.imag) * (1 + 1e-12))

    def test_slope_bound_survives_a_traced_wrapper(self):
        # determinant_evaluator returns a plain function with slope_bound as
        # an attribute, which functools.wraps copies onto a wrapper such as
        # the benchmark tracer's; the counts through it stay certified
        n = 32
        sys = smooth_potential(5, n, b1=-1.0, b2=2.0, l1_norm=0.8)
        ks = build_kernels(sys, n)
        bc = BoundaryConditions.from_canonical(0.5, 1, 1, 0.5)
        delta = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), -1.0, 2.0)
        assert inspect.isfunction(delta)

        @functools.wraps(delta)
        def traced(*args, **kwargs):
            return delta(*args, **kwargs)

        assert traced.slope_bound is delta.slope_bound
        for radius in (0.5, 1.5, 3.0):
            assert count_zeros_disk(traced, 0.3j, radius, 16) == count_zeros_disk(delta, 0.3j, radius, 16)
        assert count_zeros_disk(traced, 0.3j, 3.0, 16) > 0

    def test_one_signature_check_per_search(self, monkeypatch):
        # whether the determinant offers slope=True is asked once per
        # zeros_deltaQ call, not once per Newton step
        calls = []
        signature = spectrum.inspect.signature
        monkeypatch.setattr(spectrum.inspect, "signature", lambda f: calls.append(f) or signature(f))
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        sys = DiracSystem.zero(-1.0, 1.0, 32)
        zeros_deltaQ(sys, bc, 4, n_grid=32)
        assert len(calls) <= 1


class TestZerosDeltaQ:
    def test_free_potential_reproduces_lam0(self):
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        sys = DiracSystem.zero(-1.0, 1.0, 64)
        window = zeros_deltaQ(sys, bc, 8, n_grid=64)
        assert np.abs(window.lam_array() - window.lam0_array()).max() < 1e-10
        assert all(e.verified for e in window.entries)

    def test_q12_zero_b_zero_invariance(self):
        n = 128
        x = np.linspace(0, 1, n + 1)
        bc = BoundaryConditions.from_canonical(1.0, 0.0, 0.3, 1.0)
        for scale in (0.5, 2.0):
            q21 = SampledFunction(scale * np.exp(2j * np.pi * x))
            sys = DiracSystem(-1.0, 2.0, SampledFunction.zero(n), q21)
            window = zeros_deltaQ(sys, bc, 10, n_grid=n)
            assert np.abs(window.lam_array() - window.lam0_array()).max() < 1e-8

    def test_small_potential_decay(self):
        n = 256
        sys = smooth_potential(61, n, l1_norm=0.1)
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        window = zeros_deltaQ(sys, bc, 20, n_grid=n)
        dev = np.abs(window.lam_array() - window.lam0_array())
        ns = np.abs(window.indices())
        assert dev[ns > 10].max() <= dev.max()
        assert dev[ns > 10].max() < 0.05

    def test_direct_determinant_route(self):
        n = 128
        sys = smooth_potential(64, n, l1_norm=0.2)
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        w_kern = zeros_deltaQ(sys, bc, 5, n_grid=n)
        w_dir = zeros_deltaQ(sys, bc, 5, n_grid=n, determinant="direct")
        assert np.abs(w_kern.lam_array() - w_dir.lam_array()).max() < 1e-4

    @pytest.fixture(scope="class")
    def pairing_case(self):
        """A small potential whose plain pairing verifies every entry at
        the smallest radius, with its evaluator and that window."""
        n = 64
        sys = smooth_potential(61, n, l1_norm=0.2)
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        ks = build_kernels(sys, n)
        delta = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)
        window = zeros_deltaQ(sys, bc, 4, determinant=delta)
        assert all(e.verified and e.ladder_eps == min(EPS_LADDER_DEFAULT) for e in window.entries)
        return sys, bc, delta, window

    def test_failed_newton_falls_back_to_the_box_search(self, pairing_case, monkeypatch):
        # the representatives are pi apart, so every radius is usable; the
        # entry whose Newton fails is located by the subdivision search in
        # the box of the smallest one and reported unverified
        sys, bc, delta, plain = pairing_case
        target = plain.entry(2).lam0
        real_newton = spectrum._newton

        def failing_newton(value_and_slope, z0, *args, **kwargs):
            roots = real_newton(value_and_slope, z0, *args, **kwargs)
            return [None if start == target else root for start, root in zip(z0, roots)]

        monkeypatch.setattr(spectrum, "_newton", failing_newton)
        window = zeros_deltaQ(sys, bc, 4, determinant=delta)
        entry = window.entry(2)
        eps = min(EPS_LADDER_DEFAULT)
        assert not entry.verified and entry.ladder_eps == eps and entry.multiplicity == 1
        assert abs((entry.lam - target).real) <= eps and abs((entry.lam - target).imag) <= eps
        assert abs(delta(entry.lam)) < 1e-10
        assert abs(entry.lam - plain.entry(2).lam) < 1e-9
        assert window.head_estimate == 3
        assert [e for e in window.entries if e.n != 2] == [e for e in plain.entries if e.n != 2]

    def test_contour_too_close_moves_to_the_next_radius(self, pairing_case, monkeypatch):
        sys, bc, delta, plain = pairing_case
        real_winding = spectrum._winding
        smallest, following = sorted(EPS_LADDER_DEFAULT)[:2]

        def flaky_winding(f, nodes, contour, circles=None):
            # every disk of the smallest radius in a batch is refused
            counts = real_winding(f, nodes, contour, circles)
            if circles is None:
                return counts
            return [ContourTooCloseError("forced") if r == smallest else c for c, r in zip(counts, circles[1])]

        monkeypatch.setattr(spectrum, "_winding", flaky_winding)
        window = zeros_deltaQ(sys, bc, 4, determinant=delta)
        assert all(e.verified and e.ladder_eps == following for e in window.entries)
        assert window.lam_array().tolist() == plain.lam_array().tolist()
        assert window.head_estimate == 0

    def test_one_counting_call_per_ladder_round(self, pairing_case, monkeypatch):
        # every entry verifies at the smallest radius, so the whole window is
        # counted in one batched call, 16 starting nodes per disk
        sys, bc, delta, plain = pairing_case
        real_winding = spectrum._winding
        calls = []

        def recording_winding(f, nodes, contour, circles=None):
            calls.append((np.bincount(contour).tolist(), list(circles[1])))
            return real_winding(f, nodes, contour, circles)

        monkeypatch.setattr(spectrum, "_winding", recording_winding)
        window = zeros_deltaQ(sys, bc, 4, determinant=delta)
        disks = len(set(plain.lam0_array().tolist()))
        assert calls == [([16] * disks, [min(EPS_LADDER_DEFAULT)] * disks)]
        assert [(e.n, e.lam, e.multiplicity, e.ladder_eps, e.verified) for e in window.entries] == [
            (e.n, e.lam, e.multiplicity, e.ladder_eps, e.verified) for e in plain.entries
        ]

    def test_nonstrict_requires_override(self):
        bc = BoundaryConditions.from_canonical(1, 0, 0, 1)  # Dirac antiperiodic
        sys = DiracSystem.zero(-1.0, 1.0, 64)
        with pytest.raises(NonRegularError):
            zeros_deltaQ(sys, bc, 4, n_grid=64)
        window = zeros_deltaQ(sys, bc, 4, n_grid=64, allow_nonstrict=True)
        assert all(e.multiplicity == 2 for e in window.entries)

    def test_pairing_is_bijective_on_window(self):
        n = 128
        sys = smooth_potential(62, n, l1_norm=0.3)
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        window = zeros_deltaQ(sys, bc, 10, n_grid=n)
        ns = window.indices()
        assert len(set(ns.tolist())) == len(ns) == 21

    def test_sum_rule(self):
        # total winding over a disk containing part of the window equals the
        # multiplicity-weighted entry count
        n = 128
        sys = smooth_potential(63, n, l1_norm=0.4)
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        window = zeros_deltaQ(sys, bc, 8, n_grid=n)
        ks = build_kernels(sys, n)
        delta = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)
        radius = (abs(window.entry(5).lam0) + abs(window.entry(6).lam0)) / 2
        count = count_zeros_disk(delta, 0.0, radius, quad_nodes=1024)
        inside = sum(1 for e in window.entries if abs(e.lam) < radius)
        assert count == inside
        # a prebuilt evaluator gives the "kernels" route's window exactly
        prebuilt = zeros_deltaQ(sys, bc, 8, n_grid=n, determinant=delta)
        as_rows = lambda w: [(e.n, e.lam0, e.lam, e.multiplicity, repr(e.ladder_eps), e.verified) for e in w.entries]  # noqa: E731
        assert as_rows(prebuilt) == as_rows(window)
        assert (prebuilt.strip_height, prebuilt.head_estimate) == (window.strip_height, window.head_estimate)

    def test_conjugation_symmetric_instance(self):
        # conjugation symmetry of the zero set needs real Q with
        # Q(1-x) = Q(x) and conditions invariant under the x -> 1-x
        # reflection (antiperiodic with ad - bc = 1 qualifies); it fails
        # for generic real data
        n = 256
        x = np.linspace(0, 1, n + 1)
        q12 = SampledFunction((0.3 * np.cos(2 * np.pi * x)).astype(complex))
        q21 = SampledFunction((0.2 * np.cos(2 * np.pi * x) + 0.1).astype(complex))
        sys = DiracSystem(-1.0, 2.0, q12, q21)
        bc = BoundaryConditions.from_canonical(1.0, 0.0, 0.0, 1.0)  # antiperiodic, ad-bc=1
        window = zeros_deltaQ(sys, bc, 8, n_grid=n)
        lams = window.lam_array()
        for lam in lams:
            assert np.abs(lams - lam.conjugate()).min() < 1e-6


    @settings(max_examples=8, deadline=None)
    @given(
        c=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        quad=st.sampled_from([(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)]),
    )
    def test_drawn_symmetric_instances_are_closed_under_conjugation(self, c, quad):
        # the family above, drawn: real Q12, Q21 in cos(2 pi m x), m <= 2,
        # so Q(1-x) = Q(x); both conditions are reflection-invariant.  The
        # discrete zeros are symmetric to O(h^2): at most 1.5e-5 at N = 256
        # over the corners c = +-1, about 6x that at N = 128
        n = 256
        x = np.linspace(0, 1, n + 1)
        waves = np.stack([np.ones_like(x), np.cos(2 * np.pi * x), np.cos(4 * np.pi * x)], axis=1) * [0.2, 0.2, 0.1]
        q12, q21 = (SampledFunction((waves @ np.array(part)).astype(complex)) for part in (c[:3], c[3:]))
        window = zeros_deltaQ(DiracSystem(-1.0, 2.0, q12, q21), BoundaryConditions.from_canonical(*quad), 6, n_grid=n)
        lams = window.lam_array()
        assert max(np.abs(lams - lam.conjugate()).min() for lam in lams) < 1e-4

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        l1_norm=st.floats(0.05, 0.8),
        corners=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-3.0, 0.0), st.floats(0.0, 3.0)),
    )
    def test_window_matches_an_independent_count(self, seed, l1_norm, corners):
        # a rectangle inside the window's real span, 0.05 from every zero:
        # the multiplicities of the entries inside it add up to the
        # winding count along its boundary
        n = 128
        sys = smooth_potential(seed, n, b1=-1.0, b2=2.0, l1_norm=l1_norm)
        ks = build_kernels(sys, n)
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        delta = determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2)
        window = zeros_deltaQ(sys, bc, 6, n_grid=n, determinant=delta)
        lo, hi = window.entry(-6).lam.real, window.entry(6).lam.real
        u0, u1, y0, y1 = corners
        x0, x1 = lo + (hi - lo) * min(u0, u1), lo + (hi - lo) * max(u0, u1)
        assume(x1 - x0 > 0.1)
        zeros = {e.lam: e.multiplicity for e in window.entries}
        assume(all(min(abs(z.real - x0), abs(z.real - x1), abs(z.imag - y0), abs(z.imag - y1)) >= 0.05 for z in zeros))
        inside = sum(m for z, m in zeros.items() if x0 < z.real < x1 and y0 < z.imag < y1)
        assert _box_counts(delta, [(x0, x1, y0, y1)]) == [inside]


class TestDeterminantCallables:
    """Every determinant the searches use maps a 1-d array of L points to
    L values, and its Newton pair to two arrays of L values."""

    def test_array_in_array_out(self):
        n = 32
        quad = (0.5, 1, 1, 0.5)
        bc = BoundaryConditions.from_canonical(*quad)
        sys = smooth_potential(3, n, b1=-1.0, b2=2.0, l1_norm=0.5)
        ks = build_kernels(sys, n)
        lam = np.linspace(-6.0, 6.0, 7) + 0.3j
        for f in (
            determinant_evaluator(bc, combos(ks.kplus, ks.kminus), sys.b1, sys.b2),
            lambda z: char_det_direct(sys, bc, z, n),
            partial(delta0, quad, sys.b1, sys.b2),
        ):
            assert np.shape(f(lam)) == (7,)
            value, slope = _value_and_slope(f)(lam)
            assert np.shape(value) == np.shape(slope) == (7,)
            assert value.tolist() == f(lam).tolist()

    def test_delta0_slope(self):
        # the slope comes from the same three exponentials as the value,
        # which it leaves bitwise unchanged; scalars give complex pairs
        quad = (0.3, 0.4, 0.5, 1.2)
        lam = np.linspace(-6.0, 6.0, 7) + 0.3j
        value, slope = delta0(quad, -1.0, 2.0, lam, slope=True)
        assert value.tolist() == delta0(quad, -1.0, 2.0, lam).tolist()
        step = 1e-6
        diff = (delta0(quad, -1.0, 2.0, lam + step) - delta0(quad, -1.0, 2.0, lam - step)) / (2 * step)
        assert np.abs(slope - diff).max() < 1e-8
        pair = delta0(quad, -1.0, 2.0, complex(lam[2]), slope=True)
        assert [type(v) for v in pair] == [complex, complex]
        assert [pair[0], pair[1]] == [value[2], slope[2]]


class TestNewton:
    @staticmethod
    def quadratic(z, slope=False):
        # z^2 + 1: f'(0) = 0 exactly, and real starts stay real, so they
        # never converge
        value = z * z + 1.0
        return (value, 2.0 * z) if slope else value

    STARTS = [0.8 + 0.5j, -1.5 - 0.3j, 0.0, 0.7, 3.0 + 2.0j, 1e-9 + 1j]

    @pytest.mark.parametrize("max_iter", [3, 60])
    def test_array_starts_match_scalar_starts(self, max_iter):
        # one start hits f' = 0, one never converges, and max_iter = 3
        # stops all but the start next to i: each gives None in both forms,
        # and the rest converge to the same roots
        newton_f = _value_and_slope(self.quadratic)
        got = _newton(newton_f, np.array(self.STARTS), max_iter=max_iter)
        want = [scalar_newton(newton_f, z0, max_iter=max_iter) for z0 in self.STARTS]
        assert [z is None for z in got] == [z is None for z in want]
        assert sum(z is not None for z in want) == (4 if max_iter == 60 else 1)
        assert want[2] is None and want[3] is None
        for z, ref in zip(got, want):
            if ref is not None:
                assert abs(z - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_one_batched_call_per_iteration(self):
        # the starts still running share one call, so the start at f' = 0
        # leaves after the first; a callable that rejects arrays is refused
        sizes = []

        def batched(z):
            sizes.append(np.size(z))
            return self.quadratic(z, slope=True)

        def scalar_only(z):
            return self.quadratic(complex(z), slope=True)

        starts = np.array(self.STARTS)
        got = _newton(batched, starts)
        assert sizes[:2] == [6, 5] and all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) == 60
        with pytest.raises(TypeError):
            _newton(scalar_only, starts)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_start_returns_none_without_a_warning(self):
        # Delta_0's e^{2i lam} overflows at lam = -400i: that start leaves the
        # run at once, as the reference loop's OverflowError does, and the
        # start next to a zero still converges
        quad = (0.5, 1, 1, 0.5)
        newton_f = _value_and_slope(partial(delta0, quad, -1.0, 2.0))
        zero = zeros_delta0(BoundaryConditions.from_canonical(*quad), -1.0, 2.0, 1)[1][1]
        far, near = _newton(newton_f, np.array([-400j, zero + 0.01]))
        assert far is None and scalar_newton(newton_f, -400j) is None
        assert abs(near - zero) < 1e-12

    def test_kernel_representatives(self, kernel_route_case):
        sys, ck, bc, window = kernel_route_case
        newton_f = _value_and_slope(determinant_evaluator(bc, ck, sys.b1, sys.b2))
        starts = np.array([e.lam0 for e in window])
        got = _newton(newton_f, starts)
        for z, z0 in zip(got, starts):
            ref = scalar_newton(newton_f, complex(z0))
            assert abs(z - ref) <= 1e-13 * (1.0 + abs(ref))


def test_separation_to_others_matches_the_loop():
    def loop(reps, k):
        best = math.inf
        for i, z in enumerate(reps):
            if i != k:
                best = min(best, abs(z - reps[k]))
        return best

    rng = np.random.default_rng(8)
    for reps in ([2.5 - 1j], [0.0, 1.0 + 1j], [complex(v) for v in rng.standard_normal(40) * 20 + 1j * rng.standard_normal(40)]):
        got = _separation_to_others(reps)
        assert got.tolist() == [loop(reps, k) for k in range(len(reps))]
    assert _separation_to_others([2.5 - 1j]).tolist() == [math.inf]


_T_ENTRY = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _kernel_route_window(sys, ck, bc):
    delta = determinant_evaluator(bc, ck, sys.b1, sys.b2)
    return zeros_deltaQ(sys, bc, 4, n_grid=ck.n, determinant=delta).entries


@pytest.fixture(scope="module")
def kernel_route_case():
    """One N = 64 kernel build, and its window, shared by every drawn row
    operation."""
    n = 64
    sys = smooth_potential(5, n, b1=-1.0, b2=2.0, l1_norm=0.5)
    ks = build_kernels(sys, n)
    ck = combos(ks.kplus, ks.kminus)
    bc = BoundaryConditions.from_canonical(0.5, 1, 1, 0.5)
    return sys, ck, bc, _kernel_route_window(sys, ck, bc)


class TestRowOperations:
    """The conditions T A and A have the same solutions for invertible T,
    so the spectra must not change."""

    @staticmethod
    def _row_op(t):
        t = np.array(t).reshape(2, 2)
        assume(abs(np.linalg.det(t)) >= 0.2)
        return t

    @settings(max_examples=10, deadline=None)
    @given(t=st.tuples(_T_ENTRY, _T_ENTRY, _T_ENTRY, _T_ENTRY))
    @pytest.mark.parametrize(
        "canonical, b2",
        [((1.5 + 0.5j, 0, 0, 0.7), 1.0), ((0.3, 0.4, 0.5, 1.2), 2.0)],
        ids=["progressions", "polynomial"],
    )
    def test_delta0_zeros(self, canonical, b2, t):
        bc = BoundaryConditions.from_canonical(*canonical)
        ref = zeros_delta0(bc, -1.0, b2, 10)
        got = zeros_delta0(BoundaryConditions(self._row_op(t) @ bc.matrix), -1.0, b2, 10)
        assert [(n, m) for n, _, m in got] == [(n, m) for n, _, m in ref]
        for (_, lam, _), (_, lam_ref, _) in zip(got, ref):
            assert abs(lam - lam_ref) <= 1e-12 * abs(lam_ref)

    @settings(max_examples=10, deadline=None)
    @given(t=st.tuples(_T_ENTRY, _T_ENTRY, _T_ENTRY, _T_ENTRY))
    def test_deltaQ_zeros(self, kernel_route_case, t):
        sys, ck, bc, ref = kernel_route_case
        got = _kernel_route_window(sys, ck, BoundaryConditions(self._row_op(t) @ bc.matrix))
        assert [(e.n, e.multiplicity, e.verified) for e in got] == [(e.n, e.multiplicity, e.verified) for e in ref]
        for e, e_ref in zip(got, ref):
            assert abs(e.lam - e_ref.lam) <= 1e-10 * abs(e_ref.lam)
