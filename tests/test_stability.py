import math
import tracemalloc

import numpy as np
import pytest

from diracbvp.boundary import BoundaryConditions
from diracbvp.gridfn import SampledFunction
from diracbvp.ode import DiracSystem
from diracbvp.spectrum import zeros_deltaQ
from diracbvp.stability import (
    PotentialBallSampler,
    _eigenfunctions,
    eigen_deviation,
    eigenfunction_deviation,
    run_ball_experiment,
    two_sided_check,
)

from conftest import smooth_potential

SEP_BC = BoundaryConditions.from_canonical(0, 1, 1, 0)


class TestEigenDeviation:
    def test_identical_potentials(self):
        n = 96
        sys = smooth_potential(71, n, l1_norm=0.4)
        report = eigen_deviation(sys, sys, SEP_BC, 8, 2, n_grid=n)
        assert report.sup == 0.0
        assert report.lp_sum == 0.0
        assert report.reference == 0.0

    def test_q12_zero_b_zero_invariance(self):
        # eigenvalues do not move at all when Q12 = 0 and b = 0, for any Q21
        n = 96
        x = np.linspace(0, 1, n + 1)
        bc = BoundaryConditions.from_canonical(1.0, 0.0, 0.2, 1.0)
        qa = DiracSystem(-1.0, 2.0, SampledFunction.zero(n), SampledFunction(np.exp(2j * np.pi * x)))
        qb = DiracSystem(-1.0, 2.0, SampledFunction.zero(n), SampledFunction((np.cos(np.pi * x) * 1.5).astype(complex)))
        report = eigen_deviation(qa, qb, bc, 8, 2, n_grid=n)
        assert report.sup < 1e-8
        assert report.reference > 0.1

    def test_scaling_family_lipschitz_ratio(self):
        n = 128
        base = smooth_potential(72, n, l1_norm=0.6)
        zero = DiracSystem.zero(base.b1, base.b2, n)
        ratios = []
        for s in (0.25, 0.5, 1.0):
            scaled = DiracSystem(base.b1, base.b2, base.q12.scale(s), base.q21.scale(s))
            rep = eigen_deviation(scaled, zero, SEP_BC, 10, 2, n_grid=n)
            ratios.append(math.sqrt(rep.lp_sum) / rep.reference)
        assert max(ratios) / min(ratios) < 3.0

    def test_aggregates_recomputable(self):
        n = 96
        sys = smooth_potential(73, n, l1_norm=0.4)
        zero = DiracSystem.zero(sys.b1, sys.b2, n)
        rep = eigen_deviation(sys, zero, SEP_BC, 8, 1.5, n_grid=n)
        pc = rep.p / (rep.p - 1.0)
        ok = [(nn, d) for nn, d, flag in rep.rows if flag == "ok"]
        lp = sum(d**pc for _, d in ok)
        wt = sum((1 + abs(nn)) ** (rep.p - 2.0) * d**rep.p for nn, d in ok)
        sup = max((d for _, d in ok), default=0.0)
        assert lp == pytest.approx(rep.lp_sum)
        assert wt == pytest.approx(rep.weighted_sum)
        assert sup == pytest.approx(rep.sup)

    def test_triangle_consistency(self):
        n = 96
        qa = smooth_potential(74, n, l1_norm=0.3)
        qb = smooth_potential(75, n, l1_norm=0.3, b1=qa.b1, b2=qa.b2)
        zero = DiracSystem.zero(qa.b1, qa.b2, n)
        d_ab = eigen_deviation(qa, qb, SEP_BC, 8, 2, n_grid=n).sup
        d_a0 = eigen_deviation(qa, zero, SEP_BC, 8, 2, n_grid=n).sup
        d_0b = eigen_deviation(zero, qb, SEP_BC, 8, 2, n_grid=n).sup
        assert d_ab <= (d_a0 + d_0b) * 1.1

    def test_weighted_vs_unweighted_row_comparison(self):
        # row-level comparison of the two aggregate summands: the weighted
        # term (1+|n|)^{p-2} d^p stays below the unweighted d^{p'} exactly
        # when d >= (1+|n|)^{-1/p'} (and above it otherwise)
        n = 96
        p = 1.5
        sys = smooth_potential(76, n, l1_norm=0.2)
        zero = DiracSystem.zero(sys.b1, sys.b2, n)
        rep = eigen_deviation(sys, zero, SEP_BC, 10, p, n_grid=n)
        pc = p / (p - 1)
        for nn, d, flag in rep.rows:
            if flag != "ok" or d == 0.0:
                continue
            weighted_term = (1 + abs(nn)) ** (p - 2) * d**p
            unweighted_term = d**pc
            threshold = (1 + abs(nn)) ** (-1.0 / pc)
            if d >= threshold * (1 + 1e-12):
                assert weighted_term <= unweighted_term * (1 + 1e-9)
            elif d <= threshold * (1 - 1e-12):
                assert weighted_term >= unweighted_term * (1 - 1e-9)


class TestTwoSided:
    def test_identical_potentials_all_excluded(self):
        n = 96
        sys = smooth_potential(81, n, l1_norm=0.4)
        rows, summary = two_sided_check(sys, sys, SEP_BC, 6, n_grid=n)
        assert summary["excluded_exact"] == len(rows)

    def test_tail_ratios_bounded(self):
        n = 128
        sys = smooth_potential(82, n, l1_norm=0.3)
        zero = DiracSystem.zero(sys.b1, sys.b2, n)
        rows, summary = two_sided_check(sys, zero, SEP_BC, 12, n_grid=n)
        assert summary["tail_max"] / summary["tail_min"] <= 100

    def test_role_swap_bounded_factor(self):
        n = 96
        qa = smooth_potential(83, n, l1_norm=0.3)
        qb = smooth_potential(84, n, l1_norm=0.3, b1=qa.b1, b2=qa.b2)
        _, fwd = two_sided_check(qa, qb, SEP_BC, 8, n_grid=n)
        _, bwd = two_sided_check(qb, qa, SEP_BC, 8, n_grid=n)
        assert fwd["tail_max"] / bwd["tail_max"] < 100
        assert bwd["tail_max"] / fwd["tail_max"] < 100


class TestEigenfunctionDeviation:
    def test_identical_potentials(self):
        n = 96
        sys = smooth_potential(91, n, l1_norm=0.4)
        rep = eigenfunction_deviation(sys, sys, SEP_BC, 6, 2, n_grid=n)
        assert rep.sup == 0.0

    def test_q12_zero_second_branch_zero_deviation(self):
        # separated-type (b = 0) conditions with Q12 = 0: the branch whose
        # eigenfunctions are (0, e^{i b2 lam x}) does not feel Q21 at all
        n = 96
        x = np.linspace(0, 1, n + 1)
        bc = BoundaryConditions.from_canonical(1.0, 0.0, 0.2, 1.0)
        qa = DiracSystem(-1.0, 2.0, SampledFunction.zero(n), SampledFunction(np.exp(2j * np.pi * x)))
        qb = DiracSystem(-1.0, 2.0, SampledFunction.zero(n), SampledFunction((0.7 * np.sin(np.pi * x)).astype(complex)))
        rep = eigenfunction_deviation(qa, qb, bc, 8, 2, n_grid=n)
        # rows on the d + e^{i b2 lam} = 0 branch
        branch2 = [
            (nn, dev)
            for (nn, dev, flag) in rep.rows
            if flag == "ok" and abs(1.0 + np.exp(2j * rep_lam0(rep, nn))) < 1e-6
        ]
        assert branch2
        for _, dev in branch2:
            assert dev < 1e-7

    @pytest.mark.parametrize("l1_norm", [0.0, 0.2])
    def test_b_c_zero_eigenfunctions_satisfy_the_boundary_forms(self, l1_norm):
        # b = c = 0: Delta_0 = (d + e^{i lam}) (1 + a e^{-i lam}); lam0 on
        # the (1 + a e^{-i lam}) family takes the G branch (6 rows here),
        # the others F (7 rows), and the wrong branch vanishes there
        n = 128
        quad = (0.5, 0, 0, 2)
        bc = BoundaryConditions.from_canonical(*quad)
        sys = smooth_potential(17, n, l1_norm=l1_norm) if l1_norm else DiracSystem.zero(-1.0, 1.0, n)
        window = zeros_deltaQ(sys, bc, 6, n_grid=n)
        funcs = _eigenfunctions(sys, quad, window, n)
        assert funcs.shape == (13, n + 1, 2)
        a, b, c, d = quad
        for f in funcs:
            size = np.abs(f).max()
            assert size > 0.1
            u1 = f[0, 0] + b * f[0, 1] + a * f[-1, 0]
            u2 = d * f[0, 1] + c * f[-1, 0] + f[-1, 1]
            assert max(abs(u1), abs(u2)) <= 1e-3 * size

    def test_partial_sums_tail_decay(self):
        n = 256
        sys = smooth_potential(92, n, l1_norm=0.4)
        zero = DiracSystem.zero(sys.b1, sys.b2, n)
        rep = eigenfunction_deviation(sys, zero, SEP_BC, 20, 2, n_grid=n)
        devs = {nn: d for nn, d, flag in rep.rows if flag == "ok"}
        head = sum(d**2 for nn, d in devs.items() if abs(nn) <= 10)
        tail = sum(d**2 for nn, d in devs.items() if abs(nn) > 10)
        assert math.isfinite(rep.lp_sum)
        assert tail < head


def rep_lam0(rep, nn):
    # helper: second-branch detection needs lam0; recover from detail-free
    # rows by the separated-structure of the test bc (b2 = 2)
    # zeros of d + e^{2 i lam} = 1 + e^{2 i lam}
    # stored rows don't carry lam0, so recompute from the bc used above
    from diracbvp.spectrum import zeros_delta0

    window = zeros_delta0(BoundaryConditions.from_canonical(1.0, 0.0, 0.2, 1.0), -1.0, 2.0, 8)
    table = {n_: lam for n_, lam, _ in window}
    return table[nn]


class TestSampler:
    def test_norm_constraint(self):
        for family in ("trig", "step", "spline"):
            sampler = PotentialBallSampler(2, 0.8, seed=5, family=family)
            for qa, qb in sampler.pairs(3, -1.0, 1.0, 64):
                from diracbvp.transformop import potential_diff_norm

                for q in (qa, qb):
                    norm = potential_diff_norm(q, DiracSystem.zero(-1.0, 1.0, 64), 2, 64)
                    assert norm <= 0.8 + 1e-12

    def test_determinism(self):
        s1 = PotentialBallSampler(2, 1.0, seed=42, family="trig")
        s2 = PotentialBallSampler(2, 1.0, seed=42, family="trig")
        for (a1, b1), (a2, b2) in zip(s1.pairs(2, -1.0, 1.0, 32), s2.pairs(2, -1.0, 1.0, 32)):
            assert np.array_equal(a1.q12.samples, a2.q12.samples)
            assert np.array_equal(b1.q21.samples, b2.q21.samples)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            PotentialBallSampler(2, 1.0, seed=0, family="wavelets")


class TestBallExperiment:
    def test_empty(self):
        sampler = PotentialBallSampler(2, 1.0, seed=1)
        rows, summary = run_ball_experiment(sampler, SEP_BC, 0, 6, 2, n_grid=64)
        assert rows == []

    def test_zero_sampler_gives_zero_table(self):
        sampler = PotentialBallSampler(2, 0.0, seed=1)
        rows, _ = run_ball_experiment(sampler, SEP_BC, 2, 5, 2, n_grid=64)
        for row in rows:
            assert row["dq_norm"] == 0.0
            assert row["kernel_dev"] == 0.0
            assert row["eigen_dev"] == 0.0

    def test_one_kernel_build_and_window_per_potential(self, monkeypatch):
        # the pairs' potentials share one march of their K+/- rows, each
        # pair pairs the spectrum and integrates the ODE once per
        # potential, and its rows equal the public functions called one by one
        from diracbvp import spectrum, stability, transformop
        from diracbvp.transformop import kernel_deviation_norms

        calls = {"build_kernels": 0, "_pair_zeros": 0, "fundamental_matrix": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (transformop, spectrum, stability):
            counted(module, "build_kernels")
        counted(stability, "_pair_zeros")
        counted(stability, "fundamental_matrix")
        marches = []  # rows per march
        walk = transformop._RSweeper.walk
        monkeypatch.setattr(transformop._RSweeper, "walk",
                            lambda self, diagonal, solve: marches.append(len(self.qjk)) or walk(self, diagonal, solve))
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        n, n_max, p = 64, 5, 2.0
        rows, _ = run_ball_experiment(PotentialBallSampler(p, 1.0, seed=11), bc, 2, n_max, p, n_grid=n, b1=-1.0, b2=2.0)
        # one march over both pairs' four potentials, K+ and K- of each,
        # and one batched RK4 per potential gives all of its eigenfunctions
        assert marches == [8]
        assert calls == {"build_kernels": 0, "_pair_zeros": 4, "fundamental_matrix": 4}
        pairs = list(PotentialBallSampler(p, 1.0, seed=11).pairs(2, -1.0, 2.0, n))
        marches.clear()
        two_sided_check(*pairs[0], bc, n_max, n_grid=n)
        assert marches == [4]
        monkeypatch.undo()

        exact = lambda report_rows: [(nn, repr(float(d)), flag) for nn, d, flag in report_rows]  # noqa: E731
        for row, (qa, qb) in zip(rows, pairs):
            dev_inf, dev_one, dq = kernel_deviation_norms(qa, qb, p, n)
            ev = eigen_deviation(qa, qb, bc, n_max, p, n_grid=n)
            ef = eigenfunction_deviation(qa, qb, bc, n_max, p, n_grid=n)
            assert row["dq_norm"] == dq == ev.reference == ef.reference
            assert row["kernel_dev"] == dev_inf + dev_one
            assert row["eigen_dev"] == ev.tail_lp_sum ** 0.5
            assert row["eigenfunction_dev"] == ef.tail_lp_sum ** 0.5
            assert exact(row["eigen_rows"]) == exact(ev.rows)
            assert exact(row["eigenfunction_rows"]) == exact(ef.rows)

    def test_one_delta0_window_per_request(self, monkeypatch):
        # every pair pairs against the same Delta_0 window: one zeros_delta0
        # call per experiment, and classify twice (the strict-regularity
        # gate and zeros_delta0's own); the four zeros_deltaQ calls made
        # four windows and eight classify calls
        from diracbvp import spectrum

        calls = []
        for name in ("zeros_delta0", "classify"):
            real = getattr(spectrum, name)
            monkeypatch.setattr(spectrum, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        run_ball_experiment(PotentialBallSampler(2.0, 1.0, seed=11), bc, 2, 5, 2.0, n_grid=64, b1=-1.0, b2=2.0)
        assert sorted(calls) == ["classify", "classify", "zeros_delta0"]

    def test_peak_allocation(self):
        # both pairs' R's come from one march, and each R is dropped once its
        # K+/- exist: the traced peak is the parent's 6.3 MiB (one pair at a
        # time) plus the second pair's two R's; a flow that assembled all
        # four K+/- pairs first peaked at 11 MiB
        n = 128
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        sampler = PotentialBallSampler(2.0, 1.0, seed=11)
        list(sampler.pairs(2, -1.0, 2.0, n))  # numpy loads numpy.random on first use, outside the trace
        tracemalloc.start()
        try:
            run_ball_experiment(sampler, bc, 2, 12, 2.0, n_grid=n, b1=-1.0, b2=2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.3 * 2**20 + 2 * 64 * (n + 1) ** 2

    def test_p_one_reports_the_largest_tail_row(self):
        # at p = 1 the conjugate exponent is inf: sum d^inf read 0 and
        # 0 ** (1/inf) = 1, so every pair reported eigen_dev =
        # eigenfunction_dev = 1.0; the p = 1 bound is on the sup of the rows
        bc = BoundaryConditions.from_canonical(0.5, 1.0, 1.0, 0.5)
        rows, _ = run_ball_experiment(PotentialBallSampler(1, 1.0, seed=11), bc, 2, 5, 1, n_grid=64, b1=-1.0, b2=2.0)
        for row in rows:
            for key in ("eigen", "eigenfunction"):
                tail = [d for n, d, flag in row[f"{key}_rows"] if flag == "ok" and abs(n) > row["head"]]
                assert row[f"{key}_dev"] == max(tail)

    def test_deterministic_rerun(self):
        sampler1 = PotentialBallSampler(2, 0.5, seed=7)
        sampler2 = PotentialBallSampler(2, 0.5, seed=7)
        rows1, _ = run_ball_experiment(sampler1, SEP_BC, 2, 5, 2, n_grid=64)
        rows2, _ = run_ball_experiment(sampler2, SEP_BC, 2, 5, 2, n_grid=64)
        assert rows1 == rows2
