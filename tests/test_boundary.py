import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbvp.boundary import (
    BoundaryConditions,
    NotCanonicalizableError,
    canonicalize,
    classify,
    delta0,
    minors,
)

finite_complex = st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False)


class TestMinors:
    def test_identity_block(self):
        bc = BoundaryConditions(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex))
        m = minors(bc)
        assert m[1, 2] == 1
        for j in (1, 2):
            for k in (3, 4):
                assert m[j, k] == 0
                assert m[k, j] == 0
        assert m[3, 4] == 0

    def test_canonical_separated(self):
        # (a,b,c,d) = (0,1,1,0): A = [[1,1,0,0],[0,0,1,1]]
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        m = minors(bc)
        assert m[1, 4] == 1
        # J_32 = ad - bc = -1 for the canonical embedding
        assert m[3, 2] == -1

    @settings(max_examples=25, deadline=None)
    @given(entries=st.lists(finite_complex, min_size=8, max_size=8))
    def test_antisymmetry(self, entries):
        a = np.array(entries, dtype=complex).reshape(2, 4)
        if np.linalg.matrix_rank(a) < 2:
            return
        m = minors(BoundaryConditions(a))
        for j in range(1, 5):
            for k in range(1, 5):
                assert abs(m[j, k] + m[k, j]) < 1e-12


class TestCanonicalize:
    def test_already_canonical(self):
        quad = (0.5 + 0.1j, -0.2, 1.5j, 2.0)
        bc = BoundaryConditions.from_canonical(*quad)
        out = canonicalize(bc)
        assert np.allclose(out, quad)

    def test_row_scaling_invariance(self):
        quad = (1.0, 0.3j, -0.7, 2.0 - 1.0j)
        base = BoundaryConditions.from_canonical(*quad).matrix
        scaled = BoundaryConditions(np.diag([2.0, -1.0]) @ base)
        assert np.allclose(canonicalize(scaled), quad)

    def test_reembedding_row_equivalence(self, rng):
        for _ in range(5):
            a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            bc = BoundaryConditions(a)
            m = minors(bc)
            if abs(m[1, 4]) < 1e-6:
                continue
            quad = canonicalize(bc)
            re_embedded = BoundaryConditions.from_canonical(*quad).matrix
            a14 = np.array([[a[0, 0], a[0, 3]], [a[1, 0], a[1, 3]]])
            assert np.allclose(a14 @ re_embedded, a)
            # ad - bc equals J_32 / J_14 of the input
            av, bv, cv, dv = quad
            assert abs((av * dv - bv * cv) - m[3, 2] / m[1, 4]) < 1e-10

    def test_j14_zero_rejected(self):
        bc = BoundaryConditions(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex))
        with pytest.raises(NotCanonicalizableError):
            canonicalize(bc)


class TestClassify:
    def test_dirac_antiperiodic_regular_not_strict(self):
        bc = BoundaryConditions.from_canonical(1, 0, 0, 1)
        v = classify(bc, -1.0, 1.0)
        assert v.kind == "regular"
        assert v.reason == "dirac_discriminant_zero"
        assert v.ratio == (1, 1)

    def test_dirac_strictly_regular_when_discriminant_nonzero(self):
        bc = BoundaryConditions.from_canonical(2, 0, 0, 1)
        v = classify(bc, -1.0, 1.0)
        assert v.kind == "strictly_regular"
        assert v.ratio == (1, 1)

    def test_antiperiodic_unequal_weights(self):
        # n1 = 1, n2 = 2: n1 - n2 odd -> strictly regular
        bc = BoundaryConditions.from_canonical(1, 0, 0, 1)
        assert classify(bc, -1.0, 2.0).kind == "strictly_regular"
        # n1 = 1, n2 = 3: n1 - n2 even -> progressions collide
        assert classify(bc, -1.0, 3.0).kind == "regular"

    def test_separated_always_strict(self):
        bc = BoundaryConditions.from_canonical(0, 1, 1, 0)
        assert classify(bc, -1.0, 1.0).kind == "strictly_regular"
        assert classify(bc, -1.0, math.sqrt(2)).kind == "strictly_regular"

    def test_nonregular(self):
        # J_32 = ad - bc = 0
        bc = BoundaryConditions.from_canonical(1, 1, 1, 1)
        assert classify(bc, -1.0, 1.0).kind == "nonregular"

    def test_bc_zero_log_criterion(self):
        # |a| = 3, |d| = 1, irrational ratio: b1 ln|d| + b2 ln|a| != 0
        bc = BoundaryConditions.from_canonical(3, 0, 0, 1)
        v = classify(bc, -1.0, math.pi / 2)
        assert v.kind == "strictly_regular"
        assert v.reason == "bc_zero_log_criterion"

    def test_irrational_generic_unknown(self):
        bc = BoundaryConditions.from_canonical(1.0, 0.5, 0.5, 2.0)
        v = classify(bc, -1.0, math.sqrt(2))
        assert v.kind == "regular_unknown_strictness"

    def test_rational_polynomial_route(self):
        bc = BoundaryConditions.from_canonical(0.3, 0.4, 0.5, 1.2)
        v = classify(bc, -1.0, 2.0)
        assert v.ratio == (1, 2)
        assert v.kind in ("regular", "strictly_regular")

    def test_row_operation_invariance(self, rng):
        for _ in range(5):
            quad = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            base = BoundaryConditions.from_canonical(*quad)
            t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(t)) < 0.1:
                continue
            mixed = BoundaryConditions(t @ base.matrix)
            assert classify(base, -1.0, 2.0).kind == classify(mixed, -1.0, 2.0).kind


class TestDelta0:
    def test_antiperiodic_values(self):
        # Delta_0 = 2 + 2cos(lam) for Dirac antiperiodic bc
        assert abs(delta0((1, 0, 0, 1), -1, 1, 0.0) - 4.0) < 1e-14
        assert abs(delta0((1, 0, 0, 1), -1, 1, math.pi)) < 1e-13

    def test_separated_zero_at_origin(self):
        assert abs(delta0((0, 1, 1, 0), -1, 1, 0.0)) < 1e-14

    def test_periodicity_rational_ratio(self, rng):
        b1, b2 = -1.0, 2.0
        beta = 1.0  # gcd structure: b1 = -1*beta, b2 = 2*beta
        quad = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for _ in range(10):
            lam = complex(rng.uniform(-20, 20), rng.uniform(-2, 2))
            v1 = delta0(quad, b1, b2, lam)
            v2 = delta0(quad, b1, b2, lam + 2 * math.pi / beta)
            assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))
