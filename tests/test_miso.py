"""Tests for the Gaussian two-antenna DPC inner bounds.

Every closed-form rate is checked against an independent covariance-matrix
oracle: jointly Gaussian variables are written down explicitly and mutual
informations evaluated through determinants, never through the formula under
test.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc import miso
from compound_bc.miso import (
    CORRELATION_BREAKPOINT,
    TIME_SHARES,
    DpcScheme,
    GaussRatePoint,
    MisoChannel,
    StrictnessReport,
    _minimax_two_vec,
    _point,
    _terms,
    _uncorr_sweep,
    beam_from_angle,
    cd_closed_form,
    corr_optimal,
    corr_parabolas,
    corr_rate,
    envelope_rate,
    is_symmetric_geometry,
    md_correlated_optimal,
    p_of_eta,
    parabola_rate,
    region_boundary,
    scheme_terms,
    special_beams,
    special_geometry,
    split_terms,
    strictness_uncorrelated_check,
    uncorr_parabolas,
    unit_beam,
)

from gaussian_oracle import gaussian_mutual_information

SEED = 20259
# a channel whose sweep runs over both beam angles
GENERAL_CHANNEL = MisoChannel([1.8, 0.4], [-0.3, 1.2], [0.9, -1.1], 8.0, 1.0)


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
    """(scheme, DPC parameter alpha, time share t), drawn in that order."""
    p_u = rng.uniform(0.5, 0.7 * channel.P)
    p_v = rng.uniform(0.0, channel.P - p_u)
    x = rng.uniform(0.0, 0.9 * p_u) if with_x else 0.0
    scheme = DpcScheme(beam_from_angle(rng.uniform(0, math.pi)),
                       beam_from_angle(rng.uniform(0, math.pi)), p_u, p_v, x=x)
    return scheme, rng.uniform(-1.5, 1.5), rng.uniform(0, 1)


def stream_rate(channel, j, scheme, alpha, x=0.0):
    """Receiver j's user-1 stream rate at DPC parameter alpha, slice x
    private."""
    a, v, c = corr_parabolas(_terms(channel, scheme), x)[3 * j - 3:3 * j]
    return float(parabola_rate(a, v, c, alpha))


def split_at(channel, j, scheme, x=0.0):
    """(beta_j^x, I_j^x) of receiver j."""
    beta, weight = split_terms(_terms(channel, scheme).receivers[j - 1],
                               scheme.p_u, scheme.p_v, x)
    return float(beta), float(weight)


def cd_corner(channel, scheme):
    """Max-min R1 and R2 with the user-2 stream encoded first."""
    terms = _terms(channel, scheme)
    _, r1 = envelope_rate(corr_parabolas(terms, 0.0))
    return max(float(r1), 0.0), float(terms.r2_first)


def uncorr_r1(channel, scheme, t):
    """Max-min R1 with private descriptions time-shared t : 1 - t."""
    [paras] = uncorr_parabolas(_terms(channel, scheme), scheme.x, [t])
    return max(float(envelope_rate(paras)[1]), 0.0)


def corr_at_alpha(channel, scheme, alpha):
    """Correlated-description R1 at alpha, sum constraint active?"""
    r1, _, active = corr_rate(corr_parabolas(_terms(channel, scheme), scheme.x),
                              scheme.x, [alpha])
    return float(r1), bool(active)


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


def oracle_common_rate(channel, j, scheme, alpha):
    h = channel.receiver(j)
    h_u = float(h @ scheme.b_u)
    h_v = float(h @ scheme.b_v)
    cov = stream_cov(h_u, h_v, scheme.p_u, scheme.p_v, channel.N, alpha)
    return (gaussian_mutual_information(cov, [0], [1])
            - gaussian_mutual_information(cov, [0], [2]))


def oracle_split_rate(channel, j, scheme, alpha, alpha1):
    h = channel.receiver(j)
    h_u = float(h @ scheme.b_u)
    h_v = float(h @ scheme.b_v)
    cov = split_cov(h_u, h_v, scheme.p_u, scheme.p_v, scheme.x, channel.N,
                    alpha, alpha1)
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
            scheme, alpha, _ = random_scheme(rng, channel)
            for j in (1, 2):
                got = stream_rate(channel, j, scheme, alpha)
                want = oracle_common_rate(channel, j, scheme, alpha)
                assert got == pytest.approx(want, abs=1e-9)

    def test_alpha_at_beta_removes_interference(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.3)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0)
        beta, _ = split_at(channel, 1, scheme)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2((h_u ** 2 * 6.0 + 1.0) / 1.0)
        assert stream_rate(channel, 1, scheme, beta) == pytest.approx(
            expect, abs=1e-12)

    def test_pv_zero_is_alpha_independent(self):
        channel = special_geometry()
        b_u, b_v = special_beams(-0.2)
        scheme = DpcScheme(b_u, b_v, 5.0, 0.0)
        vals = set()
        for alpha in (-1.0, 0.0, 2.0):
            vals.add(round(stream_rate(channel, 2, scheme, alpha), 14))
        h_u = float(channel.h2 @ b_u)
        expect = 0.5 * math.log2(h_u ** 2 * 5.0 + 1.0)
        assert vals == {round(expect, 14)}

    def test_zero_pu_signals_zero_rate(self):
        # one power split: everything on the user-2 stream
        curve = region_boundary("md-uncorr", special_geometry(), eta_steps=5,
                                split_steps=1, x_steps=3)
        assert curve.r1_max == 0.0


class TestPrivateOptimal:
    def test_x_zero_reduces_to_common_rate(self):
        # without a slice the time-shared parabolas are the common ones
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10):
            channel = random_channel(rng)
            scheme, alpha, t = random_scheme(rng, channel)
            [paras] = uncorr_parabolas(_terms(channel, scheme), 0.0, [t])
            for j in (1, 2):
                got = parabola_rate(*paras[3 * j - 3:3 * j], alpha)
                assert got == pytest.approx(
                    stream_rate(channel, j, scheme, alpha), abs=1e-12)

    def test_alpha_at_shifted_beta_removes_interference(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.4)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=1.0)
        beta_x, _ = split_at(channel, 1, scheme, 1.0)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2(h_u ** 2 * 6.0 + 1.0)
        assert stream_rate(channel, 1, scheme, beta_x, 1.0) == pytest.approx(
            expect, abs=1e-12)

    def test_matches_oracle_maximum_over_inner_parameter(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(15):
            channel = random_channel(rng)
            scheme, alpha, _ = random_scheme(rng, channel, with_x=True)
            if scheme.p_v == 0:
                continue
            for j in (1, 2):
                closed = stream_rate(channel, j, scheme, alpha, scheme.x)
                _, best = golden_max(
                    lambda a1: oracle_split_rate(channel, j, scheme, alpha,
                                                 a1),
                    -8.0, 8.0)
                assert closed == pytest.approx(best, abs=1e-6)

    def test_private_link_rate(self):
        # receiver 1's full time share adds its private link to its rate
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=2.0)
        h_u = float(channel.h1 @ b_u)
        expect = 0.5 * math.log2((h_u ** 2 * 2.0 + 1.0) / 1.0)
        full, idle = (parabola_rate(*paras[:3], 0.0) for paras in
                      uncorr_parabolas(_terms(channel, scheme), 2.0,
                                       (1.0, 0.0)))
        assert full - idle == pytest.approx(expect)


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
        r1, r2 = cd_corner(channel, scheme)
        assert r2 == 0.0
        expect = min(
            0.5 * math.log2(float(channel.h1 @ b_u) ** 2 * 8.0 + 1.0),
            0.5 * math.log2(float(channel.h2 @ b_u) ** 2 * 8.0 + 1.0))
        assert r1 == pytest.approx(expect, abs=1e-12)

    def test_matches_closed_form_in_symmetric_geometry(self):
        channel = special_geometry()
        for theta in np.linspace(-np.pi / 4, np.pi / 4, 17):
            eta = math.sin(2 * theta)
            scheme = DpcScheme(beam_from_angle(math.pi / 4),
                               beam_from_angle(theta), 6.0, 4.0)
            r1, r2 = cd_corner(channel, scheme)
            closed = cd_closed_form(eta, 6.0, 4.0, 1.0)
            assert r1 == pytest.approx(closed.r1, abs=1e-9)
            assert r2 == pytest.approx(closed.r2, abs=1e-9)

    def test_maxmin_agrees_with_dense_alpha_grid(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(10):
            channel = random_channel(rng)
            scheme, _, _ = random_scheme(rng, channel)
            if scheme.p_u <= 0:
                continue
            r1, _ = cd_corner(channel, scheme)

            def worst_rate(alpha):
                return min(stream_rate(channel, j, scheme, alpha)
                           for j in (1, 2))

            grid = np.linspace(-6, 6, 4001)
            k = int(np.argmax([worst_rate(a) for a in grid]))
            _, best = golden_max(worst_rate, grid[max(k - 1, 0)],
                                 grid[min(k + 1, 4000)])
            assert r1 == pytest.approx(max(best, 0.0), abs=1e-6)

    def test_second_corner_values(self):
        channel = special_geometry()
        b_u, b_v = special_beams(-0.5)
        terms = _terms(channel, DpcScheme(b_u, b_v, 6.0, 4.0))
        g_v = float(channel.g @ b_v)
        assert float(terms.r2_second) == pytest.approx(
            0.5 * math.log2(g_v ** 2 * 4.0 + 1.0), abs=1e-12)
        vals = []
        for h in (channel.h1, channel.h2):
            h_u, h_v = float(h @ b_u), float(h @ b_v)
            vals.append(0.5 * math.log2(
                (h_u ** 2 * 6.0 + h_v ** 2 * 4.0 + 1.0)
                / (h_v ** 2 * 4.0 + 1.0)))
        assert float(terms.r1_second) == pytest.approx(min(vals), abs=1e-12)

    def test_second_corner_dominated_in_symmetric_geometry(self):
        channel = special_geometry()
        for theta in np.linspace(-np.pi / 4, np.pi / 4, 9):
            for split in np.linspace(0.05, 0.95, 7):
                scheme = DpcScheme(beam_from_angle(math.pi / 4),
                                   beam_from_angle(theta),
                                   10.0 * split, 10.0 * (1 - split))
                r1, r2 = cd_corner(channel, scheme)
                terms = _terms(channel, scheme)
                # same R2 on both corners here, so corner2 adds nothing
                assert terms.r2_second == pytest.approx(r2, abs=1e-12)
                assert terms.r1_second <= r1 + 1e-12


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
        # NaN powers and noise fail the checks instead of reaching the rates
        nan = math.nan
        for args in ((nan, 4.0, 1.0), (6.0, nan, 1.0), (6.0, 4.0, nan)):
            with pytest.raises(ValueError, match="noise positive"):
                p_of_eta(0.2, *args)
        with pytest.raises(ValueError, match="noise positive"):
            cd_closed_form(0.2, 1.0, nan, 1.0)
        with pytest.raises(ValueError, match="noise positive"):
            strictness_uncorrelated_check(nan, 1.0, 1.0, 0.2)
        # the clamp keeps a NaN rate, which GaussRatePoint rejects
        with pytest.raises(ValueError, match="nonnegative"):
            _point(nan, 0.0)
        assert _point(-1e-17, -0.0) == GaussRatePoint(0.0, 0.0)


class TestMdUncorrelated:
    def test_x_zero_collapses_to_first_corner(self):
        rng = np.random.default_rng(SEED + 5)
        channel = special_geometry()
        for _ in range(8):
            b_u, b_v = special_beams(rng.uniform(-1, 1))
            p_u = rng.uniform(1, 9)
            scheme = DpcScheme(b_u, b_v, p_u, 10.0 - p_u, x=0.0)
            t = rng.uniform(0, 1)
            assert uncorr_r1(channel, scheme, t) == pytest.approx(
                cd_corner(channel, scheme)[0], abs=1e-12)

    def test_equal_share_matches_symmetric_closed_form(self):
        channel = special_geometry()
        p_u, p_v, n = 6.0, 4.0, 1.0
        for eta in (-0.7, -0.2, 0.4):
            residual = p_of_eta(eta, p_u, p_v, n)
            b_u, b_v = special_beams(eta)
            for x in (0.05, 0.4, 1.5):
                scheme = DpcScheme(b_u, b_v, p_u, p_v, x=x)
                denom = ((p_u - x) / math.sqrt(x + 2 * n)
                         * math.sqrt(2 * n) / p_u * residual
                         + math.sqrt(2 * n) * math.sqrt(x + 2 * n))
                expect = 0.5 * math.log2((p_u + 2 * n) / denom)
                assert uncorr_r1(channel, scheme, 0.5) == pytest.approx(
                    expect, abs=1e-9)

    def test_alpha_maximum_agrees_with_dense_grid(self):
        rng = np.random.default_rng(SEED + 6)
        channel = special_geometry()
        for _ in range(6):
            b_u = beam_from_angle(rng.uniform(0, math.pi))
            b_v = beam_from_angle(rng.uniform(0, math.pi))
            p_u = rng.uniform(2, 8)
            scheme = DpcScheme(b_u, b_v, p_u, 10.0 - p_u,
                               x=rng.uniform(0.01, 0.8 * p_u))
            t = rng.uniform(0, 1)
            def objective(alpha):
                vals = []
                for j, share in ((1, t), (2, 1.0 - t)):
                    h = channel.receiver(j)
                    h_u = float(h @ b_u)
                    beta_x, i_x = split_at(channel, j, scheme, scheme.x)
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
            assert uncorr_r1(channel, scheme, t) == pytest.approx(
                max(best, 0.0), abs=1e-6)


class TestMdCorrelated:
    def test_degenerate_geometry_equalizes_branches(self):
        channel = special_geometry()
        b_u, b_v = special_beams(1.0)  # both receivers see identical gains
        x = 0.05
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=x)
        beta_x, _ = split_at(channel, 1, scheme, x)
        r1, sum_active = corr_at_alpha(channel, scheme, beta_x)
        h_u = float(channel.h1 @ b_u)
        assert r1 == pytest.approx(
            0.5 * math.log2(h_u ** 2 * 6.0 + 1.0), abs=1e-12)
        assert not sum_active  # x below the penalty breakpoint

    def test_rejects_nonpositive_and_full_slice(self):
        channel = special_geometry()
        b_u, b_v = special_beams(0.0)
        for x in (0.0, 6.0):
            with pytest.raises(ValueError, match="0 < x < p_u"):
                md_correlated_optimal(channel,
                                      DpcScheme(b_u, b_v, 6.0, 4.0, x=x))

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
            cd_corner(channel, lone)[0], abs=1e-12)

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
        scheme = DpcScheme(b_u, b_v, 6.0, 4.0, x=3.0)
        _, sum_active = corr_at_alpha(channel, scheme, 0.2)
        assert sum_active


class TestStrictness:
    def test_validates_before_the_zero_power_report(self):
        with pytest.raises(ValueError, match="eta"):
            strictness_uncorrelated_check(-1.0, 1.0, -5.0, 7.0)
        for args in ((-1.0, 1.0, 1.0, 0.2), (0.0, math.nan, 1.0, 0.2)):
            with pytest.raises(ValueError, match="noise positive"):
                strictness_uncorrelated_check(*args)
        report = strictness_uncorrelated_check(0.0, 1.0, 1.0, 0.2)
        assert report == StrictnessReport(False, 0.0, 0.0)

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

    @pytest.mark.parametrize("power, noise, message", [
        (math.inf, 1.0, "total power P"), (math.nan, 1.0, "total power P"),
        (10.0, math.inf, "noise variance N"),
        (10.0, math.nan, "noise variance N")])
    def test_channel_rejects_non_finite_power_and_noise(self, power, noise,
                                                         message):
        with pytest.raises(ValueError, match=message):
            MisoChannel([1, 0], [0, 1], [1, -1], power, noise)

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
        for p_u, p_v in ((math.nan, 4.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                DpcScheme(b_u, b_v, p_u, p_v)
        # md_correlated_optimal once read a NaN power as a zero rate pair
        with pytest.raises(ValueError, match="nonnegative"):
            md_correlated_optimal(special_geometry(2, 10, 1), DpcScheme(
                [1, 0], [0, 1], 1.0, math.nan, 0.5))

    def test_power_budget_enforced_in_ops(self):
        channel = special_geometry(total_power=5.0)
        b_u, b_v = special_beams(0.0)
        scheme = DpcScheme(b_u, b_v, 4.0, 4.0, x=1.0)
        with pytest.raises(ValueError, match="budget"):
            md_correlated_optimal(channel, scheme)

    def test_rate_point_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GaussRatePoint(-0.1, 0.2)


class TestRegionBoundary:
    def test_contains_closed_form_samples(self):
        channel = special_geometry()
        curve = region_boundary("cd", channel, eta_steps=41, split_steps=21)
        # eta = -0.5 and the 60/40 split lie on the sweep grid
        pt = cd_closed_form(-0.5, 6.0, 4.0, 1.0)
        assert curve.contains(np.array([[pt.r1, pt.r2]]), tol=1e-9).contained

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
        hull = curve.hull()
        grid = np.linspace(0, curve.r1_max, 200)
        assert np.all(hull.r2_at(grid) >= curve.r2_at(grid) - 1e-12)

    def test_general_channel_sweep(self):
        channel = GENERAL_CHANNEL
        assert not is_symmetric_geometry(channel)
        kw = dict(beam_steps=(9, 17), split_steps=15, x_steps=9)
        cd = region_boundary("cd", channel, **kw)
        md_c = region_boundary("md-corr", channel, **kw)
        assert cd.points[:, 0].max() > 0
        assert np.all(np.diff(cd.points[:, 0]) > 0)
        assert md_c.contains(cd, tol=1e-9).contained
        row = cd.meta[0]
        assert {"theta_u", "theta_v"} <= set(row)

    @pytest.mark.parametrize("key, value", [
        ("eta_steps", 0), ("split_steps", -3), ("x_steps", 2),
        ("beam_steps", (9, 0))])
    def test_rejects_bad_grid_counts(self, key, value):
        # beam_steps sets only a general channel's sweep
        channel = GENERAL_CHANNEL if key == "beam_steps" else special_geometry()
        with pytest.raises(ValueError, match=f"{key} must be at least"):
            region_boundary("cd", channel, **{key: value})

    @pytest.mark.parametrize("channel, key, value", [
        (special_geometry(), "beam_steps", (9, 17)),
        (GENERAL_CHANNEL, "eta_steps", 21)])
    def test_rejects_the_grid_key_the_channel_ignores(self, channel, key,
                                                      value):
        with pytest.raises(ValueError, match=f"{key!r} has no effect"):
            region_boundary("cd", channel, **{key: value})

    def test_rejects_unknown_kind(self):
        # kinds are matched exactly: no case or underscore folding
        for kind in ("mystery", "md_corr", "CD"):
            with pytest.raises(ValueError, match="kind"):
                region_boundary(kind, special_geometry())

    def test_sweep_is_deterministic(self):
        channel = special_geometry(scale=2.0)
        a = region_boundary("md-corr", channel, eta_steps=21,
                            split_steps=11, x_steps=11)
        b = region_boundary("md-corr", channel, eta_steps=21,
                            split_steps=11, x_steps=11)
        assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# Bit-exact reference oracles: the stacked kernel bodies and the share-major
# md-uncorr loop the sweeps ran before they scored candidates one at a time.


def minimax_stacked(a1, v1, c1, a2, v2, c2):
    a1, v1, c1, a2, v2, c2 = np.broadcast_arrays(a1, v1, c1, a2, v2, c2)
    qa = a1 - a2
    qb = -2.0 * (a1 * v1 - a2 * v2)
    qc = (a1 * v1 ** 2 + c1) - (a2 * v2 ** 2 + c2)
    quad = np.abs(qa) > 1e-13 * (a1 + a2 + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = qb * qb - 4.0 * qa * qc
        root = np.sqrt(np.where(disc >= 0, disc, np.nan))
        r_plus = np.where(quad, (-qb + root) / (2.0 * qa), np.nan)
        r_minus = np.where(quad, (-qb - root) / (2.0 * qa), np.nan)
        linear = np.where(~quad & (np.abs(qb) > 1e-300), -qc / qb, np.nan)
    cands = np.stack([v1, v2, r_plus, r_minus, linear], axis=-1)
    cands = np.where(np.isfinite(cands), cands, v1[..., None])
    q1 = a1[..., None] * (cands - v1[..., None]) ** 2 + c1[..., None]
    q2 = a2[..., None] * (cands - v2[..., None]) ** 2 + c2[..., None]
    env = np.maximum(q1, q2)
    k = np.argmin(env, axis=-1)
    t_star = np.take_along_axis(cands, k[..., None], axis=-1)[..., 0]
    value = np.take_along_axis(env, k[..., None], axis=-1)[..., 0]
    return t_star, value


def corr_rate_stacked(paras, x, alphas):
    """alphas holds the candidates on a trailing axis."""
    a1, v1, c1, a2, v2, c2 = (np.asarray(p)[..., None] for p in paras)
    f1 = parabola_rate(a1, v1, c1, alphas)
    f2 = parabola_rate(a2, v2, c2, alphas)
    pen = np.where(x > 0,
                   0.5 * np.log2(2.0 * math.pi * math.e
                                 * np.maximum(x, 1e-300)),
                   -np.inf)
    min_branch = np.minimum(f1, f2)
    sum_branch = 0.5 * (f1 + f2 - pen[..., None])
    r1 = np.minimum(min_branch, sum_branch)
    k = np.argmax(r1, axis=-1)[..., None]

    def pick(arr):
        return np.take_along_axis(arr, k, axis=-1)[..., 0]

    return pick(r1), pick(alphas), pick(sum_branch < min_branch)


def uncorr_parabolas_one(terms, x, share1):
    out = []
    for rx, share in zip(terms.receivers, (share1, 1.0 - share1)):
        hu, _, s, _ = rx
        beta_x, i_x = split_terms(rx, terms.p_u, terms.p_v, x)
        w = ((hu * hu * x + terms.n) / terms.n) ** (-share)
        out += [w * i_x / s, beta_x, w * (terms.n + hu * hu * x) / s]
    return out


def stand_in_parabolas(terms, x, shares):
    """Stand-in md-uncorr parabolas (a_1, v_1, c_1, a_2, v_2, c_2) for
    stand_in_envelope_rate: a_j carries x, and both floors are
    4**-floor(x), so the floor bound -1/2 log2 max(c_1, c_2) is floor(x),
    the stand-in R1 itself."""
    c = np.exp2(-2.0 * np.floor(x))
    return ([x, 0.0, c, x, 0.0, c] for _ in shares)


def stand_in_envelope_rate(paras):
    """(alpha, R1) = (-x, floor(x)) for the x that stand_in_parabolas
    carries."""
    return -paras[0], np.floor(paras[0])


def share_major_uncorr(terms, x_slices):
    shape = terms.r1_second.shape
    r1_main = np.full(shape, -np.inf)
    alpha_main = np.zeros(shape)
    x_main = np.zeros(shape)
    t_main = np.zeros(shape)
    for share1 in TIME_SHARES:
        for x in x_slices:
            alph, env = minimax_stacked(*uncorr_parabolas_one(terms, x, share1))
            r1 = -0.5 * np.log2(env)
            upd = r1 > r1_main
            r1_main = np.where(upd, r1, r1_main)
            alpha_main = np.where(upd, alph, alpha_main)
            x_main = np.where(upd, x, x_main)
            t_main = np.where(upd, share1, t_main)
    return r1_main, alpha_main, x_main, t_main


def full_ladder_shapes(monkeypatch):
    """Wrap miso._rescan; the returned list collects (cells rescanned,) of
    every call."""
    shapes = []
    rescan = miso._rescan

    def spy(score, terms, x_slices, cells, best):
        shapes.append((np.count_nonzero(cells),))
        return rescan(score, terms, x_slices, cells, best)

    monkeypatch.setattr(miso, "_rescan", spy)
    return shapes


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    # array_equal lets -0.0 match 0.0; a NaN's sign bit depends on the numpy
    # loop that made it and carries no value
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


# parabola coefficients with many exact ties, zeros and non-finite values
EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-300, 1e300,
                     math.inf, -math.inf, math.nan]),
    st.integers(-3, 3).map(float),
    st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def broadcast_parabolas(draw, count=6):
    """`count` arrays whose shapes broadcast to (m, n): each is (), (m, 1),
    (1, n) or (m, n)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    shapes = [(), (m, 1), (1, n), (m, n)]
    return [draw(hnp.arrays(np.float64, draw(st.sampled_from(shapes)),
                            elements=EDGE_VALUES))
            for _ in range(count)]


def special_parabolas():
    """(a1, v1, c1, a2, v2, c2) rows for the cases the candidate set has to
    handle: equal vertices, equal and zero leading coefficients (the linear
    root), a zero discriminant, and infinite or NaN entries."""
    rows = [
        (2.0, 1.5, 0.25, 2.0, 1.5, 0.25),       # identical parabolas
        (1.0, 0.5, 0.2, 3.0, 0.5, 0.7),         # v1 == v2
        (1.0, -1.0, 0.0, 1.0, 1.0, 0.0),        # a1 == a2: linear root
        (2.5, 0.3, 1.0, 2.5, -0.7, 0.4),        # a1 == a2, c1 != c2
        (0.0, 0.0, 0.7, 0.0, 3.0, 0.4),         # a1 == a2 == 0
        (0.0, 1.0, 0.5, 0.0, 2.0, 0.5),         # flat and equal
        (1.0, 1.0, 0.0, 2.0, 1.0, 0.0),         # zero discriminant
        (2.0, 0.0, 0.0, 1.0, 0.0, 0.0),         # zero discriminant at 0
        (1.0, 0.0, 1.0, 1.0 + 1e-14, 0.0, 1.0),  # below the quad threshold
        (math.inf, 0.0, 1.0, 1.0, 2.0, 0.5),
        (1.0, math.inf, 1.0, 1.0, 2.0, 0.5),
        (1.0, 0.0, math.nan, 1.0, 2.0, 0.5),
        (1.0, 0.0, 1.0, 1.0, math.nan, 0.5),
        (1e300, 1e300, 0.0, 1e-300, -1e300, 1.0),
        (-1.0, 0.0, 1.0, 2.0, 1.0, 0.0),        # a downward parabola
        (0.0, -0.0, -0.0, 0.0, 0.0, -0.0),       # signed zeros
    ]
    return [np.array(col) for col in zip(*rows)]


class TestStackedOracles:
    """The unstacked kernels and the coarse-to-fine md-uncorr sweep
    reproduce their stacked, share-major predecessors bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_minimax_matches_stacked_on_special_cases(self):
        paras = special_parabolas()
        for got, want in zip(_minimax_two_vec(*paras),
                             minimax_stacked(*paras)):
            assert_bitwise(got, want)
        # the rows one at a time, as 0-d calls
        for row in zip(*paras):
            for got, want in zip(_minimax_two_vec(*row),
                                 minimax_stacked(*row)):
                assert_bitwise(got, want)

    def test_minimax_matches_stacked_on_broadcast_shapes(self):
        rng = np.random.default_rng(SEED + 11)
        a1 = rng.uniform(0, 3, (4, 1))
        v1 = rng.uniform(-2, 2, (1, 6))
        a2 = a1.copy()  # linear roots throughout
        v2 = rng.uniform(-2, 2, (4, 6))
        for a2_, v2_ in ((a2, v2), (rng.uniform(0, 3, (1, 6)), v1)):
            paras = (a1, v1, 0.3, a2_, v2_, rng.uniform(0, 1, (4, 1)))
            for got, want in zip(_minimax_two_vec(*paras),
                                 minimax_stacked(*paras)):
                assert got.shape == (4, 6)
                assert_bitwise(got, want)

    @settings(max_examples=150, deadline=None)
    @given(paras=broadcast_parabolas())
    def test_minimax_is_bitwise_the_stacked_argmin(self, paras):
        with np.errstate(all="ignore"):
            for got, want in zip(_minimax_two_vec(*paras),
                                 minimax_stacked(*paras)):
                assert_bitwise(got, want)

    @settings(max_examples=150, deadline=None)
    @given(paras=broadcast_parabolas(count=9),
           x=st.sampled_from([0.0, 1e-7, 0.05, 2.0, math.inf]))
    def test_corr_rate_is_bitwise_the_stacked_argmax(self, paras, x):
        # the stacked oracle needs candidates of the full broadcast shape
        paras, alphas = paras[:6], np.broadcast_arrays(*paras)[6:]
        # repeat a candidate so exact ties occur
        alphas = list(alphas) + [alphas[0]]
        with np.errstate(all="ignore"):
            want = corr_rate_stacked(paras, x, np.stack(alphas, axis=-1))
            got = corr_rate(paras, x, alphas)
        for g, w in zip(got, want):
            assert_bitwise(np.broadcast_to(g, np.shape(w)), w)

    def test_uncorr_sweep_matches_share_major_loop(self):
        rng = np.random.default_rng(SEED + 12)
        cells, splits = 30, 9
        gains = {k: rng.normal(size=(cells, 1))
                 for k in ("h1u", "h1v", "h2u", "h2v", "gu", "gv")}
        # equal receivers make the two parabolas tie; zero gains flatten them
        gains["h2u"][:5], gains["h2v"][:5] = gains["h1u"][:5], gains["h1v"][:5]
        gains["h1u"][5:8] = 0.0
        p_u = 8.0 * np.linspace(0.0, 1.0, splits)[None, :]
        with np.errstate(all="ignore"):
            terms = scheme_terms(gains, p_u, 8.0 - p_u, 1.0)
            x_slices = [f * p_u for f in (0.0, 1e-7, 0.01, 0.3, 1 - 1e-9)]
            got = _uncorr_sweep(terms, x_slices)
            want = share_major_uncorr(terms, x_slices)
        for g, w in zip(got, want):
            assert_bitwise(g, w)

    @pytest.mark.parametrize("x_steps", [31, 61])
    def test_coarse_to_fine_ladder_matches_share_major_loop(self, monkeypatch,
                                                            x_steps):
        rng = np.random.default_rng(SEED + 13)
        cells, splits = 16, 7
        gains = {k: rng.normal(size=(cells, 1))
                 for k in ("h1u", "h1v", "h2u", "h2v", "gu", "gv")}
        p_u = 8.0 * np.linspace(0.0, 1.0, splits)[None, :]
        fracs = np.geomspace(1e-7, 1.0, x_steps - 2) * (1.0 - 1e-9)
        ladder = fracs[:, None, None] * np.broadcast_to(p_u, (cells, splits))
        n, half = len(fracs), len(fracs) // 2
        # split 0 is a p_u = 0 column, left at x = 0; cells 12-15 keep the
        # plain ladder.  Cells 0-3: the ladder stops rising a third of the
        # way up, a plateau
        ladder[:, 0:4, 1:] = np.minimum(ladder[:, 0:4, 1:],
                                        ladder[n // 3, 0:4, 1:])
        # cells 4-7: a NaN slice on a coarse sample and one between two
        ladder[miso.LADDER_STRIDE, 4:8, 1:] = np.nan
        ladder[half + 3, 4:8, 1:] = np.nan
        # cells 8-11: the ladder climbs, starts over and climbs again
        ladder[half:, 8:12, 1:] = ladder[:n - half, 8:12, 1:]
        x_slices = [0.0 * p_u, *ladder,
                    np.minimum(CORRELATION_BREAKPOINT, p_u * (1.0 - 1e-9))]
        shapes = full_ladder_shapes(monkeypatch)
        with np.errstate(all="ignore"):
            terms = scheme_terms(gains, p_u, 8.0 - p_u, 1.0)
            got = _uncorr_sweep(terms, x_slices)
            want = share_major_uncorr(terms, x_slices)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        # the full ladder ran, on gathered subsets of the grid only
        gathered = [n for n, in shapes]
        assert 0 < max(gathered) < cells * splits

    def test_coarse_to_fine_finds_the_first_maximum(self, monkeypatch):
        # stand-in kernels give every share R1 = floor(x) and alpha = -x, so
        # each cell's ladder is a designed integer R1 sequence whose slice
        # index rides in the fraction of x
        monkeypatch.setattr(miso, "uncorr_parabolas", stand_in_parabolas)
        monkeypatch.setattr(miso, "envelope_rate", stand_in_envelope_rate)
        i = np.arange(59.0)
        designs = {
            "rise": i,
            "peak 7 above the coarse argmax": np.where(i <= 15, i, -100 - i),
            "peak 7 below the coarse argmax": np.where(i < 9, i - 1000,
                                                       1000 - i),
            "two peaks": np.select([i <= 11, i <= 16, i <= 40],
                                   [10 * i, 330 - 20 * i, 3 * i - 38],
                                   202 - 3 * i),
            "a spike tying a later plateau": np.where(
                i == 2, 50, np.where(i < 16, i, 50)),
            "plateau": np.full(59, 7.0),
            "NaN on a coarse sample": np.where(
                i == 16, np.nan, np.where(i <= 17, 83 + i, 270 - 10 * i)),
            "all NaN": np.full(59, np.nan),
            "p_u = 0": np.zeros(59),
        }
        p_u = np.array([0.0 if name == "p_u = 0" else 1.0
                        for name in designs])
        ladder = np.column_stack(list(designs.values())) + i[:, None] / 1000
        ladder[:, p_u == 0] = 0.0
        low = np.where(p_u > 0, -1e6, 0.0)
        x_slices = [low, *ladder, low]
        zeros = np.zeros(len(designs))
        terms = miso.SchemeTerms(((zeros,) * 4,) * 2, p_u, 1.0 - p_u, 1.0,
                                 zeros, zeros, zeros)
        shapes = full_ladder_shapes(monkeypatch)
        # the stand-in floors overflow at the x = -1e6 slices
        with np.errstate(all="ignore"):
            got = _uncorr_sweep(terms, x_slices)

        r1, alpha, x = np.full(len(designs), -np.inf), zeros.copy(), zeros.copy()
        for xs in x_slices:
            upd = np.floor(xs) > r1
            r1[upd], alpha[upd], x[upd] = np.floor(xs)[upd], -xs[upd], xs[upd]
        for g, w in zip(got, (r1, alpha, x, zeros)):
            assert_bitwise(g, w)
        # per share, the full ladder ran on the five cells the coarse pass
        # flags: two peaks, the tie, the plateau and both NaN designs
        assert shapes == [(5,)] * len(TIME_SHARES)

    def test_md_uncorr_long_ladder_matches_share_major_loop(self,
                                                           monkeypatch):
        # shares 0 and 1 tie along the ladder in many cells of this channel
        grid = dict(beam_steps=(7, 13), split_steps=15, x_steps=61)
        got = region_boundary("md-uncorr", GENERAL_CHANNEL, **grid)
        monkeypatch.setattr(miso, "_uncorr_sweep", share_major_uncorr)
        want = region_boundary("md-uncorr", GENERAL_CHANNEL, **grid)
        assert got.points.tobytes() == want.points.tobytes()
        assert repr(got.meta) == repr(want.meta)

    @pytest.mark.parametrize("kind", ["cd", "md-uncorr", "md-corr"])
    @pytest.mark.parametrize("geometry", ["special", "general"])
    def test_region_boundary_matches_stacked_oracles(self, monkeypatch,
                                                     kind, geometry):
        if geometry == "special":
            channel = special_geometry(scale=2.0)
            grid = dict(eta_steps=41, split_steps=21, x_steps=15)
        else:
            channel = MisoChannel([1.8, 0.4], [-0.3, 1.2], [0.9, -1.1],
                                  8.0, 1.0)
            grid = dict(beam_steps=(7, 13), split_steps=15, x_steps=11)
        got = region_boundary(kind, channel, **grid)
        monkeypatch.setattr(miso, "_minimax_two_vec", minimax_stacked)
        monkeypatch.setattr(
            miso, "corr_rate", lambda paras, x, alphas: corr_rate_stacked(
                paras, x, np.stack(alphas, axis=-1)))
        monkeypatch.setattr(miso, "_uncorr_sweep", share_major_uncorr)
        want = region_boundary(kind, channel, **grid)
        assert got.points.tobytes() == want.points.tobytes()
        assert repr(got.meta) == repr(want.meta)


# ---------------------------------------------------------------------------
# The sweeps skip work that a bound shows cannot win; the full scans they
# replaced are kept as bit-exact oracles.


def scan_corr(terms, x_slices):
    """md-corr scoring every slice of x_slices on every cell, in order."""
    shape = terms.r1_second.shape
    best = (np.full(shape, -np.inf), np.zeros(shape), np.zeros(shape),
            np.zeros(shape, dtype=bool))
    for x in x_slices:
        r1, alpha, active = corr_optimal(corr_parabolas(terms, x), x)
        upd = r1 > best[0]
        for arr, new in zip(best, (r1, alpha, x, active)):
            np.copyto(arr, new, where=upd)
    return best


def full_scan_corr(terms, x_slices):
    """The md-corr full scan in the sweep's order: x = 0, the breakpoint,
    then the ladder."""
    return scan_corr(terms, [x_slices[0], x_slices[-1], *x_slices[1:-1]])


def full_ladder(terms, x_slices, shares):
    """The md-uncorr scan before the coarse-to-fine search: running best
    (r1, alpha, x) per time share over every slice, in order."""
    shape = terms.r1_second.shape
    bests = [(np.full(shape, -np.inf), np.zeros(shape), np.zeros(shape))
             for _ in shares]
    for x in x_slices:
        for best, paras in zip(bests, uncorr_parabolas(terms, x, shares)):
            alpha, r1 = envelope_rate(paras)
            upd = r1 > best[0]
            for arr, new in zip(best, (r1, alpha, x)):
                np.copyto(arr, new, where=upd)
    return bests


def full_ladder_uncorr(terms, x_slices):
    """md-uncorr from full_ladder over every slice and time share, merged
    in TIME_SHARES order."""
    shape = terms.r1_second.shape
    merged = (np.full(shape, -np.inf), np.zeros(shape), np.zeros(shape),
              np.zeros(shape))
    for share1, best in zip(TIME_SHARES,
                            full_ladder(terms, x_slices, TIME_SHARES)):
        upd = best[0] > merged[0]
        for arr, new in zip(merged, best + (share1,)):
            np.copyto(arr, new, where=upd)
    return merged


def sweep_call(name, kind, channel, **grid):
    """(terms, x_slices, result) of the call region_boundary makes to the
    sweep miso.<name>."""
    seen = []
    sweep = getattr(miso, name)

    def spy(terms, x_slices):
        seen.append((terms, x_slices, sweep(terms, x_slices)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(miso, name, spy)
        region_boundary(kind, channel, **grid)
    return seen[0]


@st.composite
def general_channels(draw):
    rows = [draw(hnp.arrays(np.float64, 2, elements=st.floats(-2.0, 2.0)))
            for _ in range(3)]
    power = draw(st.one_of(st.floats(0.1, 1e4),
                           st.sampled_from([0.1, 1.0, 8.0, 1e4])))
    noise = draw(st.sampled_from([1.0, 0.5, 2.0]))
    try:
        channel = MisoChannel(*rows, power, noise)
    except ValueError:
        assume(False)
    assume(not is_symmetric_geometry(channel))
    return channel


# small random general grids, each swept in blocks of a random size
BLOCKED_GRIDS = dict(
    channel=general_channels(),
    beams=st.tuples(st.integers(1, 5), st.integers(1, 7)),
    split_steps=st.integers(1, 12), x_steps=st.integers(3, 25),
    block=st.sampled_from([16, 64, miso.SWEEP_BLOCK]))


def assert_blocked_sweep_is_the_oracle(name, kind, oracle, channel, beams,
                                       split_steps, x_steps, block):
    """miso.<name>, scored in blocks of `block` cells, is bitwise oracle's
    full scan of the same terms and slices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(miso, "SWEEP_BLOCK", block)
        terms, x_slices, got = sweep_call(
            name, kind, channel, beam_steps=beams, split_steps=split_steps,
            x_steps=x_steps)
    with np.errstate(all="ignore"):
        want = oracle(terms, x_slices)
    for g, w in zip(got, want):
        assert_bitwise(g, w)
    return terms, x_slices, got


class TestSkippedSlices:
    @settings(max_examples=100, deadline=None)
    @given(**BLOCKED_GRIDS)
    # ladder slice x = 0.00116, below the breakpoint, ties the breakpoint
    # slice at R1 = 1.6017e-15, under the cap of 1.7619e-15
    @example(channel=MisoChannel([1e-7, 0.0], [1e-7, 1.0], [0.0, 1.0], 0.75,
                                 1.0),
             beams=(1, 2), split_steps=4, x_steps=6, block=16)
    def test_md_corr_tail_sweep_is_bitwise_the_full_scan(self, **grid):
        terms, x_slices, got = assert_blocked_sweep_is_the_oracle(
            "_corr_sweep", "md-corr", full_scan_corr, **grid)
        # the same slices in x_slices' own order reach the same maximum
        with np.errstate(all="ignore"):
            assert_bitwise(got[0], scan_corr(terms, x_slices)[0])

    @settings(max_examples=40, deadline=None)
    @given(**BLOCKED_GRIDS)
    def test_md_uncorr_blocked_sweep_is_bitwise_the_full_ladder(self, **grid):
        assert_blocked_sweep_is_the_oracle("_uncorr_sweep", "md-uncorr",
                                           full_ladder_uncorr, **grid)

    def test_md_corr_ties_below_the_breakpoint_go_to_the_breakpoint_slice(
            self):
        terms, x_slices, got = sweep_call(
            "_corr_sweep", "md-corr", GENERAL_CHANNEL, beam_steps=(49, 97),
            split_steps=9, x_steps=21)
        with np.errstate(all="ignore"):
            want = full_scan_corr(terms, x_slices)
            first = scan_corr(terms, x_slices)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        assert_bitwise(got[0], first[0])
        # in hundreds of cells the first slice at the maximum in x_slices'
        # own order lies below the breakpoint slice, which reaches the same
        # R1 and is reported instead
        x_break = np.broadcast_to(x_slices[-1], got[2].shape)
        tied = (first[2] > 0) & (first[2] < x_break)
        assert np.count_nonzero(tied) > 500
        assert np.array_equal(got[2][tied], x_break[tied])

    def test_floor_bound_never_changes_md_uncorr(self, monkeypatch):
        # the floor bound and the rescans score gathered, 1-d subsets of
        # the cells; the sweep's other calls score 2-d grid blocks
        gathered = []
        parabolas = miso.uncorr_parabolas

        def spy(terms, x, shares):
            if np.ndim(x) == 1:
                gathered.append(np.size(x))
            return parabolas(terms, x, shares)

        monkeypatch.setattr(miso, "uncorr_parabolas", spy)
        shapes = full_ladder_shapes(monkeypatch)
        terms, x_slices, got = sweep_call(
            "_uncorr_sweep", "md-uncorr", GENERAL_CHANNEL,
            beam_steps=(7, 13), split_steps=15, x_steps=61)
        with np.errstate(all="ignore"):
            want = full_ladder_uncorr(terms, x_slices)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        # the bound spared most of the flagged cells the full ladder; the
        # bound and the rescans each score every slice of a share on their
        # cells of that share
        fallback = sum(n for n, in shapes)
        flagged = sum(gathered) / len(x_slices) - fallback
        assert 0 < fallback < flagged / 2

    def test_floor_bound_spares_only_a_winning_x_zero_slice(self,
                                                           monkeypatch):
        # stand-in kernels as in test_coarse_to_fine_finds_the_first_maximum,
        # whose floor bound R1 = floor(x) is tight
        monkeypatch.setattr(miso, "uncorr_parabolas", stand_in_parabolas)
        monkeypatch.setattr(miso, "envelope_rate", stand_in_envelope_rate)
        i = np.arange(59.0)
        # every design ties along its coarse samples, so all are flagged;
        # only where the x = 0 slice is the first maximum may the bound
        # spare the full ladder
        spike = np.where(i == 2, 50, np.where(i < 16, i, 50))
        ladder = np.column_stack([spike, np.full(59, 7.0), np.full(59, 7.0)])
        ladder += i[:, None] / 1000
        x_zero = np.array([-1e6, 100.5, 7.5])
        x_slices = [x_zero, *ladder, np.full(3, -1e6)]
        zeros = np.zeros(3)
        terms = miso.SchemeTerms(((zeros,) * 4,) * 2, np.ones(3), zeros, 1.0,
                                 zeros, zeros, zeros)
        shapes = full_ladder_shapes(monkeypatch)
        # the stand-in floors overflow at the x = -1e6 slices
        with np.errstate(over="ignore"):
            got = _uncorr_sweep(terms, x_slices)

        r1, alpha, x = np.full(3, -np.inf), zeros.copy(), zeros.copy()
        for xs in x_slices:
            upd = np.floor(xs) > r1
            r1[upd], alpha[upd], x[upd] = np.floor(xs)[upd], -xs[upd], xs[upd]
        for g, w in zip(got, (r1, alpha, x, zeros)):
            assert_bitwise(g, w)
        assert shapes == [(1,)] * len(TIME_SHARES)

    def test_md_corr_scores_at_most_30_percent_of_the_slices(self, monkeypatch):
        scored = []
        score = miso.corr_optimal

        def spy(paras, x):
            out = score(paras, x)
            scored.append(out[0].size)
            return out

        monkeypatch.setattr(miso, "corr_optimal", spy)
        # the CLI's default channel and grid
        region_boundary("md-corr", special_geometry(2.0, 10.0, 1.0))
        assert sum(scored) <= 0.30 * 401 * 201 * 201

    def test_md_uncorr_fallback_stays_small_on_a_general_grid(self,
                                                              monkeypatch):
        shapes = full_ladder_shapes(monkeypatch)
        region_boundary("md-uncorr", GENERAL_CHANNEL, beam_steps=(49, 97),
                        split_steps=61, x_steps=61)
        # cell-shares that ran the full ladder on a gathered subset
        assert sum(n for n, in shapes) <= 25_000
