"""Tests for the Gaussian two-antenna DPC inner bounds.

Every closed-form rate is checked against an independent covariance-matrix
oracle: jointly Gaussian variables are written down explicitly and mutual
informations evaluated through determinants, never through the formula under
test.
"""

import math

import numpy as np
import pytest

from compound_bc.miso import (
    CORRELATION_BREAKPOINT,
    DpcScheme,
    GaussRatePoint,
    MisoChannel,
    _minimax_two_vec,
    beam_from_angle,
    cd_closed_form,
    cd_region,
    dpc_coefficients,
    dpc_common_rate,
    dpc_private_optimal,
    is_symmetric_geometry,
    md_correlated_optimal,
    md_correlated_point,
    md_uncorrelated_point,
    p_of_eta,
    private_link_rate,
    region_boundary,
    special_beams,
    special_geometry,
    split_coefficients,
    strictness_uncorrelated_check,
    unit_beam,
)

from gaussian_oracle import gaussian_mutual_information

SEED = 20259


def golden_max(fun, lo, hi, iters=200):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fun(d)
    mid = (a + b) / 2.0
    return mid, fun(mid)


def minimax_parabolas_grid(parabolas, num=10001):
    """Grid + golden-section oracle for t -> max_j A_j (t - v_j)^2 + c_j."""
    paras = [(float(a), float(v), float(c)) for a, v, c in parabolas]

    def env(t):
        return max(a * (t - v) ** 2 + c for a, v, c in paras)

    vs = [v for _, v, _ in paras]
    lo, hi = min(vs) - 2.0, max(vs) + 2.0
    grid = np.linspace(lo, hi, num)
    vals = np.max([a * (grid - v) ** 2 + c for a, v, c in paras], axis=0)
    k = int(np.argmin(vals))
    t, neg = golden_max(lambda s: -env(s), grid[max(k - 1, 0)],
                        grid[min(k + 1, num - 1)])
    return t, -neg


def random_channel(rng):
    while True:
        h1 = rng.uniform(-2, 2, 2)
        h2 = rng.uniform(-2, 2, 2)
        g = rng.uniform(-2, 2, 2)
        try:
            return MisoChannel(h1, h2, g, rng.uniform(4, 20),
                               rng.uniform(0.3, 2.0))
        except ValueError:
            continue


def random_scheme(rng, channel, with_x=False):
    p_u = rng.uniform(0.5, 0.7 * channel.P)
    p_v = rng.uniform(0.0, channel.P - p_u)
    x = rng.uniform(0.0, 0.9 * p_u) if with_x else 0.0
    return DpcScheme(beam_from_angle(rng.uniform(0, math.pi)),
                     beam_from_angle(rng.uniform(0, math.pi)),
                     p_u, p_v, x=x, alpha=rng.uniform(-1.5, 1.5),
                     t=rng.uniform(0, 1))


def stream_cov(h_u, h_v, p_u, p_v, n, alpha):
    """Covariance of (U0, Y, V): U0 = X_u + alpha X_v, Y = h_u X_u + h_v X_v + Z."""
    return np.array([
        [p_u + alpha ** 2 * p_v, h_u * p_u + alpha * h_v * p_v, alpha * p_v],
        [h_u * p_u + alpha * h_v * p_v,
         h_u ** 2 * p_u + h_v ** 2 * p_v + n, h_v * p_v],
        [alpha * p_v, h_v * p_v, p_v],
    ])


def split_cov(h_u, h_v, p_u, p_v, x, n, alpha, alpha1):
    """Covariance of (U0, U1, Y, V) with the first-user power split as
    X_u = X_c + X_p, var(X_c) = p_u - x, var(X_p) = x, and
    U0 = X_c + alpha X_v, U1 = X_p + alpha1 X_v."""
    cov = np.zeros((4, 4))
    cov[0, 0] = (p_u - x) + alpha ** 2 * p_v
    cov[1, 1] = x + alpha1 ** 2 * p_v
    cov[0, 1] = cov[1, 0] = alpha * alpha1 * p_v
    cov[2, 2] = h_u ** 2 * p_u + h_v ** 2 * p_v + n
    cov[0, 2] = cov[2, 0] = h_u * (p_u - x) + alpha * h_v * p_v
    cov[1, 2] = cov[2, 1] = h_u * x + alpha1 * h_v * p_v
    cov[3, 3] = p_v
    cov[0, 3] = cov[3, 0] = alpha * p_v
    cov[1, 3] = cov[3, 1] = alpha1 * p_v
    cov[2, 3] = cov[3, 2] = h_v * p_v
    return cov


def oracle_common_rate(channel, j, scheme):
    h = channel.receiver(j)
    h_u = float(h @ scheme.b_u)
    h_v = float(h @ scheme.b_v)
    cov = stream_cov(h_u, h_v, scheme.p_u, scheme.p_v, channel.N,
                     scheme.alpha)
    return (gaussian_mutual_information(cov, [0], [1])
            - gaussian_mutual_information(cov, [0], [2]))


def oracle_split_rate(channel, j, scheme, alpha1):
    h = channel.receiver(j)
    h_u = float(h @ scheme.b_u)
    h_v = float(h @ scheme.b_v)
    cov = split_cov(h_u, h_v, scheme.p_u, scheme.p_v, scheme.x, channel.N,
                    scheme.alpha, alpha1)
    return (gaussian_mutual_information(cov, [0, 1], [2])
            - gaussian_mutual_information(cov, [0, 1], [3]))


class TestGaussianMiOracle:
    def test_independent_blocks_zero(self):
        cov = np.diag([1.0, 2.0, 3.0])
        assert gaussian_mutual_information(cov, [0], [2]) == pytest.approx(0.0)

    def test_scalar_awgn(self):
        s, n = 3.0, 0.5
        cov = np.array([[s, s], [s, s + n]])
        expect = 0.5 * math.log2(1 + s / n)
        assert gaussian_mutual_information(cov, [0], [1]) == pytest.approx(
            expect, abs=1e-12)

    def test_rejects_non_psd(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="semidefinite"):
            gaussian_mutual_information(cov, [0], [1])

    def test_rejects_asymmetric(self):
        cov = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            gaussian_mutual_information(cov, [0], [1])

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="disjoint"):
            gaussian_mutual_information(np.eye(2), [0], [0, 1])


class TestCommonRate:
    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            channel = random_channel(rng)
            scheme = random_scheme(rng, channel)
            for j in (1, 2):
                got = dpc_common_rate(channel, j, scheme)
                want = oracle_common_rate(channel, j, scheme)
                assert got == pytest.approx(want, abs=1e-9)

    def test_alpha_at_beta_removes_interference(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.3)
        base = DpcScheme(b_u, b_v, 6.0, 4.0, alpha=0.0)
        beta, _ = dpc_coefficients(channel, 1, base)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, alpha=beta)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2((h_u ** 2 * 6.0 + 1.0) / 1.0)
        assert dpc_common_rate(channel, 1, scheme) == pytest.approx(
            expect, abs=1e-12)

    def test_pv_zero_is_alpha_independent(self):
        channel = special_geometry()
        b_u, b_v = special_beams(-0.2)
        vals = set()
        for alpha in (-1.0, 0.0, 2.0):
            scheme = DpcScheme(b_u, b_v, 5.0, 0.0, alpha=alpha)
            vals.add(round(dpc_common_rate(channel, 2, scheme), 14))
        h_u = float(channel.h2 @ b_u)
        expect = 0.5 * math.log2(h_u ** 2 * 5.0 + 1.0)
        assert vals == {round(expect, 14)}

    def test_zero_pu_signals_zero_rate(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 0.0, 4.0, alpha=0.1)
        assert dpc_common_rate(channel, 1, scheme) == 0.0

    def test_coefficients_require_positive_pu(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 0.0, 4.0, alpha=0.1)
        with pytest.raises(ValueError, match="p_u > 0"):
            dpc_coefficients(channel, 1, scheme)

    def test_alpha_required(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 5.0, 5.0)
        with pytest.raises(ValueError, match="alpha"):
            dpc_common_rate(channel, 1, scheme)


class TestPrivateOptimal:
    def test_x_zero_reduces_to_common_rate(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10):
            channel = random_channel(rng)
            scheme = random_scheme(rng, channel)
            for j in (1, 2):
                assert dpc_private_optimal(channel, j, scheme) == \
                    dpc_common_rate(channel, j, scheme)

    def test_alpha_at_shifted_beta_removes_interference(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.4)
        probe = DpcScheme(b_u, b_v, 6.0, 4.0, x=1.0, alpha=0.0)
        beta_x, _ = split_coefficients(channel, 1, probe)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=1.0, alpha=beta_x)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2(h_u ** 2 * 6.0 + 1.0)
        assert dpc_private_optimal(channel, 1, scheme) == pytest.approx(
            expect, abs=1e-12)

    def test_matches_oracle_maximum_over_inner_parameter(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(15):
            channel = random_channel(rng)
            scheme = random_scheme(rng, channel, with_x=True)
            if scheme.p_v == 0:
                continue
            for j in (1, 2):
                closed = dpc_private_optimal(channel, j, scheme)
                _, best = golden_max(
                    lambda a1: oracle_split_rate(channel, j, scheme, a1),
                    -8.0, 8.0)
                assert closed == pytest.approx(best, abs=1e-6)

    def test_x_equal_pu_limit(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.2)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=6.0, alpha=0.0)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2(h_u ** 2 * 6.0 + 1.0)
        assert dpc_private_optimal(channel, 1, scheme) == pytest.approx(expect)
        off = DpcScheme(b_u, b_v, 6.0, 4.0, x=6.0, alpha=0.3)
        assert dpc_private_optimal(channel, 1, off) == -math.inf

    def test_private_link_rate(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=2.0, alpha=0.0)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2((h_u ** 2 * 2.0 + 1.0) / 1.0)
        assert private_link_rate(channel, 1, scheme) == pytest.approx(expect)


class TestMinimaxParabolas:
    """The two-parabola envelope kernel behind every max-min over alpha."""

    def test_single_parabola_vertex(self):
        t, v = _minimax_two_vec(2.0, 1.5, 0.25, 2.0, 1.5, 0.25)
        assert t == pytest.approx(1.5)
        assert v == pytest.approx(0.25)

    def test_two_parabolas_cross_at_symmetric_point(self):
        t, v = _minimax_two_vec(1.0, -1.0, 0.0, 1.0, 1.0, 0.0)
        assert t == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_oracle(self):
        # one batched call, as the boundary sweeps make it
        rng = np.random.default_rng(SEED + 3)
        a = rng.uniform(0, 4, (2, 60))
        v = rng.uniform(-3, 3, (2, 60))
        c = rng.uniform(0.01, 2, (2, 60))
        _, values = _minimax_two_vec(a[0], v[0], c[0], a[1], v[1], c[1])
        for k, got in enumerate(values):
            _, want = minimax_parabolas_grid(
                [(a[j, k], v[j, k], c[j, k]) for j in (0, 1)])
            assert got == pytest.approx(want, abs=1e-9)
            assert got <= want + 1e-12  # analytic candidates are exact

    def test_constant_parabolas(self):
        t, v = _minimax_two_vec(0.0, 0.0, 0.7, 0.0, 3.0, 0.4)
        assert v == pytest.approx(0.7)


class TestCdRegion:
    def test_pv_zero_corner(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 8.0, 0.0)
        corners = cd_region(channel, scheme)
        assert corners.corner1.r2 == 0.0
        expect = min(
            0.5 * math.log2(float(channel.h1 @ b_u) ** 2 * 8.0 + 1.0),
            0.5 * math.log2(float(channel.h2 @ b_u) ** 2 * 8.0 + 1.0))
        assert corners.corner1.r1 == pytest.approx(expect, abs=1e-12)

    def test_matches_closed_form_in_symmetric_geometry(self):
        channel = special_geometry()
        for theta in np.linspace(-np.pi / 4, np.pi / 4, 17):
            eta = math.sin(2 * theta)
            scheme = DpcScheme(beam_from_angle(math.pi / 4),
                               beam_from_angle(theta), 6.0, 4.0)
            corners = cd_region(channel, scheme)
            closed = cd_closed_form(eta, 6.0, 4.0, 1.0)
            assert corners.corner1.r1 == pytest.approx(closed.r1, abs=1e-9)
            assert corners.corner1.r2 == pytest.approx(closed.r2, abs=1e-9)

    def test_maxmin_agrees_with_dense_alpha_grid(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(10):
            channel = random_channel(rng)
            scheme = random_scheme(rng, channel)
            if scheme.p_u <= 0:
                continue
            corners = cd_region(channel, scheme)

            def worst_rate(alpha):
                probe = DpcScheme(scheme.b_u, scheme.b_v, scheme.p_u,
                                  scheme.p_v, alpha=alpha)
                return min(dpc_common_rate(channel, j, probe) for j in (1, 2))

            grid = np.linspace(-6, 6, 4001)
            k = int(np.argmax([worst_rate(a) for a in grid]))
            _, best = golden_max(worst_rate, grid[max(k - 1, 0)],
                                 grid[min(k + 1, 4000)])
            assert corners.corner1.r1 == pytest.approx(
                max(best, 0.0), abs=1e-6)

    def test_second_corner_values(self):
        channel = special_geometry()
        b_u, b_v = special_beams(-0.5)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0)
        corners = cd_region(channel, scheme)
        g_v = float(channel.g @ b_v)
        assert corners.corner2.r2 == pytest.approx(
            0.5 * math.log2(g_v ** 2 * 4.0 + 1.0), abs=1e-12)
        vals = []
        for h in (channel.h1, channel.h2):
            h_u, h_v = float(h @ b_u), float(h @ b_v)
            vals.append(0.5 * math.log2(
                (h_u ** 2 * 6.0 + h_v ** 2 * 4.0 + 1.0)
                / (h_v ** 2 * 4.0 + 1.0)))
        assert corners.corner2.r1 == pytest.approx(min(vals), abs=1e-12)

    def test_second_corner_dominated_in_symmetric_geometry(self):
        channel = special_geometry()
        for theta in np.linspace(-np.pi / 4, np.pi / 4, 9):
            for split in np.linspace(0.05, 0.95, 7):
                scheme = DpcScheme(beam_from_angle(math.pi / 4),
                                   beam_from_angle(theta),
                                   10.0 * split, 10.0 * (1 - split))
                corners = cd_region(channel, scheme)
                # same R2 on both corners here, so corner2 adds nothing
                assert corners.corner2.r2 == pytest.approx(
                    corners.corner1.r2, abs=1e-12)
                assert corners.corner2.r1 <= corners.corner1.r1 + 1e-12


class TestCdClosedForm:
    def test_eta_one_kills_interference_term(self):
        pt = cd_closed_form(1.0, 6.0, 4.0, 1.0)
        assert pt.r1 == pytest.approx(0.5 * math.log2(8.0 / 2.0), abs=1e-12)
        assert pt.r2 == 0.0

    def test_eta_minus_one_radical_collapses(self):
        p_u, p_v, n = 6.0, 4.0, 1.0
        expect = p_u * p_v / (p_u + p_v + 2 * n)
        assert p_of_eta(-1.0, p_u, p_v, n) == pytest.approx(expect, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="eta"):
            cd_closed_form(1.5, 6.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            p_of_eta(0.0, 6.0, 4.0, 0.0)


class TestMdUncorrelated:
    def test_x_zero_collapses_to_first_corner(self):
        rng = np.random.default_rng(SEED + 5)
        channel = special_geometry()
        for _ in range(8):
            b_u, b_v = special_beams(rng.uniform(-1, 1))
            p_u = rng.uniform(1, 9)
            scheme = DpcScheme(b_u, b_v, p_u, 10.0 - p_u, x=0.0,
                               t=rng.uniform(0, 1))
            corners = cd_region(channel, scheme)
            point = md_uncorrelated_point(channel, scheme)
            assert point.r1 == pytest.approx(corners.corner1.r1, abs=1e-12)
            assert point.r2 == pytest.approx(corners.corner1.r2, abs=1e-12)

    def test_equal_share_matches_symmetric_closed_form(self):
        channel = special_geometry()
        p_u, p_v, n = 6.0, 4.0, 1.0
        for eta in (-0.7, -0.2, 0.4):
            residual = p_of_eta(eta, p_u, p_v, n)
            b_u, b_v = special_beams(eta)
            for x in (0.05, 0.4, 1.5):
                scheme = DpcScheme(b_u, b_v, p_u, p_v, x=x, t=0.5)
                point = md_uncorrelated_point(channel, scheme)
                denom = ((p_u - x) / math.sqrt(x + 2 * n)
                         * math.sqrt(2 * n) / p_u * residual
                         + math.sqrt(2 * n) * math.sqrt(x + 2 * n))
                expect = 0.5 * math.log2((p_u + 2 * n) / denom)
                assert point.r1 == pytest.approx(expect, abs=1e-9)

    def test_alpha_maximum_agrees_with_dense_grid(self):
        rng = np.random.default_rng(SEED + 6)
        channel = special_geometry()
        for _ in range(6):
            b_u = beam_from_angle(rng.uniform(0, math.pi))
            b_v = beam_from_angle(rng.uniform(0, math.pi))
            p_u = rng.uniform(2, 8)
            scheme = DpcScheme(b_u, b_v, p_u, 10.0 - p_u,
                               x=rng.uniform(0.01, 0.8 * p_u),
                               t=rng.uniform(0, 1))
            point = md_uncorrelated_point(channel, scheme)

            def objective(alpha):
                vals = []
                for j, share in ((1, scheme.t), (2, 1.0 - scheme.t)):
                    h = channel.receiver(j)
                    h_u = float(h @ b_u)
                    probe = DpcScheme(b_u, b_v, p_u, scheme.p_v,
                                      x=scheme.x, alpha=alpha)
                    beta_x, i_x = split_coefficients(channel, j, probe)
                    s = h_u ** 2 * p_u + 1.0
                    link = 0.5 * math.log2(h_u ** 2 * scheme.x + 1.0)
                    vals.append(share * link + 0.5 * math.log2(
                        s / (i_x * (alpha - beta_x) ** 2 + 1.0
                             + h_u ** 2 * scheme.x)))
                return min(vals)

            grid = np.linspace(-6, 6, 4001)
            k = int(np.argmax([objective(a) for a in grid]))
            _, best = golden_max(objective, grid[max(k - 1, 0)],
                                 grid[min(k + 1, 4000)])
            assert point.r1 == pytest.approx(max(best, 0.0), abs=1e-6)

    def test_all_private_limit(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.1)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=6.0, t=0.3)
        point = md_uncorrelated_point(channel, scheme)
        h_u = float(channel.h1 @ b_u)
        per_receiver = [0.3 * 0.5 * math.log2(h_u ** 2 * 6.0 + 1.0),
                        0.7 * 0.5 * math.log2(h_u ** 2 * 6.0 + 1.0)]
        assert point.r1 == pytest.approx(min(per_receiver), abs=1e-12)


class TestMdCorrelated:
    def test_degenerate_geometry_equalizes_branches(self):
        channel = special_geometry()
        b_u, b_v = special_beams(1.0)  # both receivers see identical gains
        x = 0.05
        probe = DpcScheme(b_u, b_v, 6.0, 4.0, x=x, alpha=0.0)
        beta_x, _ = split_coefficients(channel, 1, probe)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=x, alpha=beta_x)
        point, sum_active = md_correlated_point(channel, scheme)
        h_u = float(channel.h1 @ b_u)
        assert point.r1 == pytest.approx(
            0.5 * math.log2(h_u ** 2 * 6.0 + 1.0), abs=1e-12)
        assert not sum_active  # x below the penalty breakpoint

    def test_rejects_nonpositive_and_full_slice(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        with pytest.raises(ValueError, match="x > 0"):
            md_correlated_point(channel, DpcScheme(b_u, b_v, 6.0, 4.0,
                                                   x=0.0, alpha=0.1))
        with pytest.raises(ValueError, match="x < p_u"):
            md_correlated_point(channel, DpcScheme(b_u, b_v, 6.0, 4.0,
                                                   x=6.0, alpha=0.1))

    def test_strict_gain_below_breakpoint(self):
        channel = special_geometry()
        for eta in (-0.8, -0.5, 0.0, 0.6):
            b_u, b_v = special_beams(eta)
            closed = cd_closed_form(eta, 6.0, 4.0, 1.0)
            for x in (1e-3, CORRELATION_BREAKPOINT):
                scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=x)
                point, _, active = md_correlated_optimal(channel, scheme)
                assert point.r1 > closed.r1 + 1e-9
                assert point.r2 == pytest.approx(closed.r2, abs=1e-12)
                assert not active

    def test_no_gain_when_interference_absent(self):
        channel = special_geometry()
        b_u, b_v = special_beams(1.0)
        closed = cd_closed_form(1.0, 6.0, 4.0, 1.0)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=0.05)
        point, _, _ = md_correlated_optimal(channel, scheme)
        assert point.r1 == pytest.approx(closed.r1, abs=1e-12)
        b_u, b_v = special_beams(-0.5)
        lone = DpcScheme(b_u, b_v, 6.0, 0.0, x=0.05)
        point, _, _ = md_correlated_optimal(channel, lone)
        assert point.r1 == pytest.approx(
            cd_region(channel, lone).corner1.r1, abs=1e-12)

    def test_continuity_at_vanishing_slice(self):
        channel = special_geometry()
        b_u, b_v = special_beams(-0.3)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=1e-9)
        point, _, _ = md_correlated_optimal(channel, scheme)
        closed = cd_closed_form(-0.3, 6.0, 4.0, 1.0)
        assert point.r1 == pytest.approx(closed.r1, abs=1e-6)

    def test_matches_symmetric_closed_form(self):
        channel = special_geometry()
        p_u, p_v, n = 6.0, 4.0, 1.0
        for eta in (-0.7, 0.0, 0.5):
            residual = p_of_eta(eta, p_u, p_v, n)
            b_u, b_v = special_beams(eta)
            for x in (0.01, CORRELATION_BREAKPOINT):
                scheme = DpcScheme(b_u, b_v, p_u, p_v, x=x)
                point, _, _ = md_correlated_optimal(channel, scheme)
                expect = 0.5 * math.log2(
                    (p_u + 2 * n)
                    / ((p_u - x) / (x + 2 * n) * (2 * n / p_u) * residual
                       + 2 * n))
                assert point.r1 == pytest.approx(expect, abs=1e-9)

    def test_sum_constraint_binds_for_large_slice(self):
        channel = special_geometry()
        b_u, b_v = special_beams(-0.5)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=3.0, alpha=0.2)
        point, sum_active = md_correlated_point(channel, scheme)
        assert sum_active
        assert point.r1 >= 0.0


class TestStrictness:
    def test_aligned_interference_fails_condition(self):
        report = strictness_uncorrelated_check(6.0, 4.0, 1.0, 1.0)
        assert not report
        assert report.best_gain == pytest.approx(0.0, abs=1e-12)

    def test_dominant_private_power_meets_condition(self):
        report = strictness_uncorrelated_check(2.0, 8.0, 0.25, -0.9)
        assert report
        assert report.best_gain > 1e-9
        assert report.best_x > 0

    def test_condition_implies_numeric_gain(self):
        rng = np.random.default_rng(SEED + 7)
        hits = 0
        for _ in range(200):
            p_u = rng.uniform(0.5, 6.0)
            p_v = rng.uniform(0.5, 12.0)
            n = rng.uniform(0.1, 1.5)
            eta = rng.uniform(-1.0, 1.0)
            report = strictness_uncorrelated_check(p_u, p_v, n, eta,
                                                   x_steps=801)
            if report.condition_holds:
                hits += 1
                assert report.best_gain > 0.0
        assert hits > 5  # the sampled family must actually hit the condition


class TestGeometryAndTypes:
    def test_special_geometry_shape(self):
        channel = special_geometry(scale=2.0)
        assert np.linalg.norm(channel.h1) == pytest.approx(2.0)
        assert np.linalg.norm(channel.h2) == pytest.approx(2.0)
        assert np.linalg.norm(channel.g) == pytest.approx(2.0)
        assert float(channel.g @ (channel.h1 + channel.h2)) == pytest.approx(
            0.0, abs=1e-12)
        assert is_symmetric_geometry(channel)

    def test_channel_rejects_dependent_vectors(self):
        with pytest.raises(ValueError, match="independent"):
            MisoChannel([1, 0], [2, 0], [0, 1], 10.0, 1.0)
        with pytest.raises(ValueError, match="P must be positive"):
            MisoChannel([1, 0], [0, 1], [1, -1], 0.0, 1.0)
        with pytest.raises(ValueError, match="noise"):
            MisoChannel([1, 0], [0, 1], [1, -1], 10.0, 0.0)

    def test_receiver_index(self):
        channel = special_geometry()
        assert np.allclose(channel.receiver(1), channel.h1)
        assert np.allclose(channel.receiver(2), channel.h2)
        with pytest.raises(ValueError, match="index"):
            channel.receiver(3)

    def test_beam_validation(self):
        assert np.allclose(unit_beam([0.6, 0.8]), [0.6, 0.8])
        with pytest.raises(ValueError, match="unit norm"):
            unit_beam([1.0, 1.0])
        b = beam_from_angle(0.3)
        assert np.hypot(*b) == pytest.approx(1.0, abs=1e-15)

    def test_scheme_validation(self):
        b_u, b_v = special_beams(0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            DpcScheme(b_u, b_v, -1.0, 4.0)
        with pytest.raises(ValueError, match="x must lie"):
            DpcScheme(b_u, b_v, 2.0, 4.0, x=3.0)
        with pytest.raises(ValueError, match="time share"):
            DpcScheme(b_u, b_v, 2.0, 4.0, t=1.5)
        with pytest.raises(ValueError, match="finite"):
            DpcScheme(b_u, b_v, 2.0, 4.0, alpha=math.nan)

    def test_power_budget_enforced_in_ops(self):
        channel = special_geometry(total_power=5.0)
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 4.0, 4.0, alpha=0.0)
        with pytest.raises(ValueError, match="budget"):
            dpc_common_rate(channel, 1, scheme)

    def test_rate_point_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GaussRatePoint(-0.1, 0.2)


class TestRegionBoundary:
    def test_zero_power_collapses_to_origin(self):
        curve = region_boundary("cd", special_geometry(), power=0.0)
        assert np.allclose(curve.points, [[0.0, 0.0]])

    def test_contains_closed_form_samples(self):
        channel = special_geometry()
        curve = region_boundary("cd", channel, eta_steps=41, split_steps=21)
        # eta = -0.5 and the 60/40 split lie on the sweep grid
        pt = cd_closed_form(-0.5, 6.0, 4.0, 1.0)
        assert curve.contains_point(pt.r1, pt.r2, tol=1e-9)

    def test_meta_records_achieving_scheme(self):
        channel = special_geometry()
        curve = region_boundary("cd", channel, eta_steps=21, split_steps=11)
        assert len(curve.meta) == len(curve.points)
        row = curve.meta[len(curve.meta) // 2]
        assert {"p_u", "p_v", "order"} <= set(row)
        if row["order"] == "user2-encoded-first":
            assert {"x", "t", "alpha"} <= set(row)

    def test_inner_bounds_nest(self):
        channel = special_geometry(scale=2.0)
        kw = dict(eta_steps=61, split_steps=31, x_steps=31)
        cd = region_boundary("cd", channel, **kw)
        md_u = region_boundary("md-uncorr", channel, **kw)
        md_c = region_boundary("md-corr", channel, **kw)
        assert md_u.contains(cd, tol=1e-9).contained
        assert md_c.contains(cd, tol=1e-9).contained

    def test_hull_dominates_staircase(self):
        channel = special_geometry(scale=2.0)
        curve = region_boundary("cd", channel, eta_steps=41, split_steps=21)
        hull = region_boundary("cd", channel, eta_steps=41, split_steps=21,
                               time_sharing=True)
        grid = np.linspace(0, curve.r1_max, 200)
        assert np.all(hull.r2_at(grid) >= curve.r2_at(grid) - 1e-12)

    def test_general_channel_sweep(self):
        channel = MisoChannel([1.8, 0.4], [-0.3, 1.2], [0.9, -1.1],
                              8.0, 1.0)
        assert not is_symmetric_geometry(channel)
        kw = dict(beam_steps=(9, 17), split_steps=15, x_steps=9)
        cd = region_boundary("cd", channel, **kw)
        md_c = region_boundary("md-corr", channel, **kw)
        assert cd.points[:, 0].max() > 0
        assert np.all(np.diff(cd.points[:, 0]) > 0)
        assert md_c.contains(cd, tol=1e-9).contained
        row = cd.meta[0]
        assert {"theta_u", "theta_v"} <= set(row)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            region_boundary("mystery", special_geometry())

    def test_sweep_is_deterministic(self):
        channel = special_geometry(scale=2.0)
        a = region_boundary("md-corr", channel, eta_steps=21,
                            split_steps=11, x_steps=11)
        b = region_boundary("md-corr", channel, eta_steps=21,
                            split_steps=11, x_steps=11)
        assert np.array_equal(a.points, b.points)
