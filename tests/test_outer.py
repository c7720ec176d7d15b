"""Tests for the compound broadcast outer bounds.

Every constituent rate expression is checked against an independent
covariance-matrix oracle: the jointly Gaussian transmit and output variables
are written down explicitly and mutual informations evaluated through
determinants, never through the formula under test.
"""

import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc.miso import (
    MisoChannel,
    region_boundary,
    special_geometry,
)
from compound_bc.outer import (
    OUTER_FAMILIES,
    DofEstimate,
    _beacon_directions,
    _congruence,
    _family_samples,
    _split_fractions,
    _validated_stacks,
    beacon_cov_pairs,
    constituent_curves,
    dof_slopes,
    matched_cov_pairs,
    outer_region,
    random_cov_pairs,
    sample_cov_pairs,
)
from compound_bc.polyhedra import RateCurve2D

from gaussian_oracle import gaussian_mutual_information

SEED = 20259


def fig_channel(total_power=10.0):
    return special_geometry(scale=2.0, total_power=total_power, noise=1.0)


def skew_channel(total_power=10.0):
    return MisoChannel(h1=np.array([1.8, 0.4]), h2=np.array([-0.3, 1.5]),
                       g=np.array([0.9, -1.1]), P=total_power, N=1.0)


def sampled_outer(channel, **sample):
    """The outer region over the pairs of sample_cov_pairs(channel, **sample)."""
    return outer_region(constituent_curves(
        channel, *sample_cov_pairs(channel, **sample)))


def grid_outer_region(curves):
    """outer_region as it sampled before: the constituent breakpoints up to
    the smallest r1_max, joined by a uniform 401-point R1 grid."""
    r1_cap = min(curve.r1_max for curve in curves.values())
    breaks = np.concatenate([curve.points[:, 0] for curve in curves.values()])
    grid = np.union1d(np.linspace(0.0, r1_cap, 401),
                      breaks[breaks <= r1_cap])
    r2 = np.min(np.vstack([curve.r2_at(grid) for curve in curves.values()]),
                axis=0)
    return RateCurve2D.from_samples(np.column_stack([grid, r2]))


def beacon_pairs_loop(channel):
    """beacon_cov_pairs as the split-major triple loop it replaced."""
    bases = [np.outer(d, d) for d in _beacon_directions(channel)]
    bases.append(0.5 * np.eye(2))
    splits = channel.P * _split_fractions()
    ku, kv = [], []
    for s in splits:
        for base_u in bases:
            for base_v in bases:
                ku.append(s * base_u)
                kv.append((channel.P - s) * base_v)
    return np.array(ku), np.array(kv)


def matched_pairs_loop(curve):
    """matched_cov_pairs as the per-row loop it replaced."""
    ku = [row["p_u"] * np.outer(row["b_u"], row["b_u"]) for row in curve.meta]
    kv = [row["p_v"] * np.outer(row["b_v"], row["b_v"]) for row in curve.meta]
    return np.array(ku), np.array(kv)


def assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def random_full_rank_cov(rng, trace):
    # diagonal bounded away from zero keeps the oracle's marginals invertible
    low = np.array([[rng.uniform(0.3, 1.0), 0.0],
                    [rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.0)]])
    k = low @ low.T
    return k * (trace / np.trace(k))


def random_pair(rng, channel):
    frac = rng.uniform(0.1, 0.9)
    k_u = random_full_rank_cov(rng, frac * channel.P)
    k_v = random_full_rank_cov(rng, (1.0 - frac) * channel.P)
    return k_u, k_v


def family_rates(channel, k_u, k_v):
    """Constituent rate rows of one covariance pair, from the sampling kernel.

    c1 and c2 hold two rows (user-2 signal encoded last, then first); c12 and
    cz hold one.
    """
    return _family_samples(channel, np.asarray(k_u, dtype=float)[None],
                           np.asarray(k_v, dtype=float)[None])


def mi_vector_observation(k_signal, rows, noise_cov):
    """I(X; rows^t X + Z) from the explicit joint covariance of (X, W)."""
    k = rows.shape[1]
    cross = k_signal @ rows
    w_cov = rows.T @ k_signal @ rows + noise_cov
    joint = np.block([[k_signal, cross], [cross.T, w_cov]])
    return gaussian_mutual_information(joint, [0, 1], [2 + i for i in range(k)])


class TestCovPair:
    """Validation of (K_u, K_v) stacks where they enter the outer bound."""

    def test_valid_pair_and_trace(self):
        # a pair inside the budget passes unchanged: pairs are never scaled up
        ch = fig_channel()
        ku, kv = _validated_stacks(ch, np.eye(2), 2.0 * np.eye(2))
        assert np.array_equal(ku, np.eye(2)[None])
        assert np.array_equal(kv, 2.0 * np.eye(2)[None])
        assert np.trace(ku[0]) + np.trace(kv[0]) == pytest.approx(6.0)

    def test_shape_rejected(self):
        with pytest.raises(ValueError, match="matching shapes"):
            constituent_curves(fig_channel(), np.zeros((2, 2, 2)),
                               np.zeros((1, 2, 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            constituent_curves(fig_channel(),
                               np.array([[[1.0, 0.5], [0.0, 1.0]]]),
                               np.eye(2)[None])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="K_v must be positive semi"):
            constituent_curves(fig_channel(), np.zeros((1, 2, 2)),
                               np.array([[[1.0, 2.0], [2.0, 1.0]]]))

    def test_tiny_negative_eigenvalue_tolerated(self):
        eps = 1e-14
        ku, _ = _validated_stacks(fig_channel(), np.diag([1.0, -eps]),
                                  np.zeros((2, 2)))
        assert np.trace(ku[0]) == pytest.approx(1.0 - eps)

    def test_nonfinite_rejected(self):
        ch = fig_channel()
        for bad in (np.inf, np.nan):
            k = np.array([[[bad, 0.0], [0.0, 1.0]]])
            with pytest.raises(ValueError, match="K_u must be finite"):
                constituent_curves(ch, k, np.eye(2)[None])
            with pytest.raises(ValueError, match="K_v must be finite"):
                constituent_curves(ch, np.eye(2)[None], k)


class TestPerReceiverRegion:
    def test_zero_covariances_sit_at_origin(self):
        ch = fig_channel()
        rates = family_rates(ch, np.zeros((2, 2)), np.zeros((2, 2)))
        assert set(rates) == set(OUTER_FAMILIES)
        for pts in rates.values():
            assert np.array_equal(pts, np.zeros_like(pts))

    def test_point_to_point_rate(self):
        ch = MisoChannel(h1=np.array([1.0, 0.0]), h2=np.array([0.0, 1.0]),
                         g=np.array([1.0, 1.0]) / math.sqrt(2.0), P=10.0, N=1.0)
        k_u = ch.P * np.outer([1.0, 0.0], [1.0, 0.0])
        first, second = family_rates(ch, k_u, np.zeros((2, 2)))["c1"]
        assert first[0] == pytest.approx(0.5 * math.log2((ch.P + ch.N) / ch.N),
                                         abs=1e-12)
        assert first[1] == 0.0
        # swapped encoding order: user 1 pays for nothing, user 2 sends nothing
        assert second[0] == pytest.approx(first[0], abs=1e-12)
        assert second[1] == 0.0

    def test_branches_match_information_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            ch = skew_channel()
            k_u, k_v = random_pair(rng, ch)
            rates = family_rates(ch, k_u, k_v)
            for j in (1, 2):
                h = ch.receiver(j)
                first, second = rates[f"c{j}"]
                # first branch: user 1 clean, user 2 sees user 1 as noise
                want_r1 = mi_vector_observation(k_u, h[:, None],
                                                np.array([[ch.N]]))
                noisy = np.array([[float(ch.g @ k_u @ ch.g) + ch.N]])
                want_r2 = mi_vector_observation(k_v, ch.g[:, None], noisy)
                assert first[0] == pytest.approx(want_r1, abs=1e-9)
                assert first[1] == pytest.approx(want_r2, abs=1e-9)
                # second branch: the roles swap
                noisy = np.array([[float(h @ k_v @ h) + ch.N]])
                want_r1 = mi_vector_observation(k_u, h[:, None], noisy)
                want_r2 = mi_vector_observation(
                    k_v, ch.g[:, None], np.array([[ch.N]]))
                assert second[0] == pytest.approx(want_r1, abs=1e-9)
                assert second[1] == pytest.approx(want_r2, abs=1e-9)


class TestEnhancedRegions:
    def test_no_second_user_power_kills_c12_rate(self):
        ch = fig_channel()
        rates = family_rates(ch, ch.P * 0.5 * np.eye(2), np.zeros((2, 2)))
        r1, r2 = rates["c12"][0]
        assert r2 == 0.0
        assert r1 > 0.0

    def test_no_first_user_power_kills_rates(self):
        ch = fig_channel()
        rates = family_rates(ch, np.zeros((2, 2)), ch.P * 0.5 * np.eye(2))
        assert rates["c12"][0, 0] == 0.0
        assert rates["cz"][0, 0] == 0.0

    def test_c12_rank_one_determinant(self):
        # the 3x3 determinant collapses to 1 + trace for rank-1 K_v
        ch = skew_channel()
        ghat = ch.g / np.linalg.norm(ch.g)
        t = 3.0
        k_v = t * np.outer(ghat, ghat)
        stack = np.column_stack([ch.g, ch.h1, ch.h2])
        w = stack.T @ ghat
        want = 0.5 * math.log2(1.0 + t * float(w @ w) / ch.N)
        got = family_rates(ch, np.zeros((2, 2)), k_v)["c12"][0, 1]
        assert got == pytest.approx(want, abs=1e-12)

    def test_c12_matches_information_oracle(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(25):
            ch = skew_channel()
            k_u, k_v = random_pair(rng, ch)
            r1, r2 = family_rates(ch, k_u, k_v)["c12"][0]
            stack = np.column_stack([ch.g, ch.h1, ch.h2])
            want_r2 = mi_vector_observation(k_v, stack, ch.N * np.eye(3))
            want_r1 = min(
                mi_vector_observation(
                    k_u, ch.receiver(j)[:, None],
                    np.array([[float(ch.receiver(j) @ k_v
                                     @ ch.receiver(j)) + ch.N]]))
                for j in (1, 2))
            assert r2 == pytest.approx(want_r2, abs=1e-9)
            assert r1 == pytest.approx(want_r1, abs=1e-9)

    def test_cz_matches_information_oracle(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            ch = skew_channel()
            k_u, k_v = random_pair(rng, ch)
            r1, r2 = family_rates(ch, k_u, k_v)["cz"][0]
            want_r1 = min(
                mi_vector_observation(
                    k_u, np.column_stack([ch.receiver(j), ch.g]),
                    ch.N * np.eye(2))
                for j in (1, 2))
            noisy = np.array([[float(ch.g @ k_u @ ch.g) + ch.N]])
            want_r2 = mi_vector_observation(k_v, ch.g[:, None], noisy)
            assert r1 == pytest.approx(want_r1, abs=1e-9)
            assert r2 == pytest.approx(want_r2, abs=1e-9)

    def test_cz_clean_second_user_when_k_u_avoids_g(self):
        ch = fig_channel()
        gperp = np.array([-ch.g[1], ch.g[0]])
        gperp /= np.linalg.norm(gperp)
        k_v = 4.0 * np.outer(ch.g, ch.g) / float(ch.g @ ch.g)
        got = family_rates(ch, 5.0 * np.outer(gperp, gperp), k_v)["cz"][0, 1]
        want = 0.5 * math.log2((float(ch.g @ k_v @ ch.g) + ch.N) / ch.N)
        assert got == pytest.approx(want, abs=1e-12)


class TestSampling:
    def test_every_pair_spends_the_budget(self):
        ch = fig_channel()
        ku, kv = sample_cov_pairs(ch, num_random=500, seed=SEED)
        total = np.einsum("nii->n", ku) + np.einsum("nii->n", kv)
        assert np.all(total <= ch.P * (1.0 + 1e-12))
        assert np.max(np.abs(total - ch.P)) <= 1e-9 * ch.P

    def test_all_pairs_are_psd(self):
        ch = fig_channel()
        ku, kv = sample_cov_pairs(ch, num_random=500, seed=SEED)
        for stack in (ku, kv):
            eigs = np.linalg.eigvalsh(stack)[:, 0]
            assert eigs.min() >= -1e-12 * max(1.0, np.abs(stack).max())

    def test_deterministic_given_seed(self):
        ch = fig_channel()
        a = sample_cov_pairs(ch, num_random=200, seed=SEED)
        b = sample_cov_pairs(ch, num_random=200, seed=SEED)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_cov_pairs(ch, num_random=200, seed=SEED + 1)
        assert not np.array_equal(a[0], c[0])

    def test_random_draws_extend_as_a_prefix(self):
        ch = fig_channel()
        small = random_cov_pairs(ch, 50, seed=SEED)
        big = random_cov_pairs(ch, 200, seed=SEED)
        assert np.array_equal(small[0], big[0][:50])
        assert np.array_equal(small[1], big[1][:50])

    def test_interference_free_beacon_present(self):
        # the rank-1 full-power matrix on g-perp drives the high-power corner
        ch = fig_channel()
        gperp = np.array([-ch.g[1], ch.g[0]])
        gperp /= np.linalg.norm(gperp)
        want = ch.P * np.outer(gperp, gperp)
        ku, kv = beacon_cov_pairs(ch)
        hit = np.abs(ku - want).reshape(len(ku), -1).max(axis=1) < 1e-9
        assert np.any(hit & (np.abs(kv[:, 0, 0]) + np.abs(kv[:, 1, 1]) < 1e-12))

    @pytest.mark.parametrize("channel", [fig_channel(), skew_channel(),
                                         fig_channel(total_power=1e4)])
    def test_beacon_pairs_are_bitwise_the_loop(self, channel):
        assert_same_bytes(beacon_cov_pairs(channel),
                          beacon_pairs_loop(channel))

    @pytest.mark.parametrize("kind", ["cd", "md-uncorr", "md-corr"])
    @pytest.mark.parametrize("channel, grid", [
        (fig_channel(), dict(eta_steps=41, split_steps=21, x_steps=11)),
        (skew_channel(), dict(beam_steps=(7, 13), split_steps=15,
                              x_steps=11))])
    def test_matched_pairs_are_bitwise_the_loop(self, kind, channel, grid):
        inner = region_boundary(kind, channel, **grid)
        assert_same_bytes(matched_cov_pairs(inner), matched_pairs_loop(inner))

    def test_matched_pairs_mirror_the_inner_schemes(self):
        ch = fig_channel()
        inner = region_boundary("cd", ch, eta_steps=21, split_steps=11)
        ku, kv = matched_cov_pairs(inner)
        assert len(ku) == len(inner.points)
        total = np.einsum("nii->n", ku) + np.einsum("nii->n", kv)
        assert np.all(total <= ch.P * (1.0 + 1e-9))
        # rank-1 by construction
        dets = np.linalg.det(ku)
        assert np.max(np.abs(dets)) <= 1e-9 * ch.P ** 2

    def test_matched_pairs_need_meta(self):
        bare = RateCurve2D(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="meta"):
            matched_cov_pairs(bare)

    @pytest.mark.parametrize("kind", ["cd", "md-uncorr", "md-corr"])
    def test_matched_pairs_use_the_swept_beams_bitwise(self, kind):
        # the beams of the eta sweep, computed the way the sweep does: numpy's
        # arcsin/cos/sin differ from math's scalar functions in the last bit
        # in 30 of these 401 cells, so only the swept beams themselves pass
        ch = special_geometry(2.0, 10.0, 1.0)
        etas = np.linspace(-1.0, 1.0, 401)
        thetas = 0.5 * np.arcsin(etas)
        e1 = ch.h1 / float(np.linalg.norm(ch.h1))
        e2 = ch.h2 / float(np.linalg.norm(ch.h1))
        b_u = (e1 + e2) / math.sqrt(2.0)
        b_vs = np.outer(np.cos(thetas), e1) + np.outer(np.sin(thetas), e2)
        inner = region_boundary(kind, ch, eta_steps=401, split_steps=21,
                                x_steps=11)
        ku, kv = matched_cov_pairs(inner)
        for row, k_u, k_v in zip(inner.meta, ku, kv):
            b_v = b_vs[etas.tolist().index(row["eta"])]
            assert np.array_equal(k_u, row["p_u"] * np.outer(b_u, b_u))
            assert np.array_equal(k_v, row["p_v"] * np.outer(b_v, b_v))


class TestConstituentCurves:
    def test_families_and_monotone_frontiers(self):
        ch = fig_channel()
        ku, kv = sample_cov_pairs(ch, num_random=1000, seed=SEED)
        curves = constituent_curves(ch, ku, kv)
        assert set(curves) == set(OUTER_FAMILIES)
        for curve in curves.values():
            assert np.all(np.diff(curve.points[:, 0]) > 0)
            assert np.all(np.diff(curve.points[:, 1]) < 0)

    def test_enlarging_the_sample_never_shrinks_a_region(self):
        ch = fig_channel()
        ku, kv = sample_cov_pairs(ch, num_random=2000, seed=SEED)
        small = constituent_curves(ch, ku[:500], kv[:500])
        big = constituent_curves(ch, ku, kv)
        for name in OUTER_FAMILIES:
            report = big[name].contains(small[name], tol=1e-12)
            assert report.contained, f"{name}: {report}"

    def test_over_budget_pairs_are_scaled_down(self):
        ch = fig_channel()
        direction = ch.h1 / np.linalg.norm(ch.h1)
        heavy = 4.0 * ch.P * np.outer(direction, direction)
        curves = constituent_curves(ch, heavy[None], np.zeros((1, 2, 2)))
        want = 0.5 * math.log2(
            (ch.P * float(np.linalg.norm(ch.h1)) ** 2 + ch.N) / ch.N)
        assert curves["c1"].r1_max == pytest.approx(want, abs=1e-12)

    def test_indefinite_stack_rejected(self):
        ch = fig_channel()
        bad = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(ValueError, match="semidefinite"):
            constituent_curves(ch, bad, np.zeros((1, 2, 2)))


class TestOuterRegion:
    def test_corner_values_hit_the_beacon_rates(self):
        ch = fig_channel()
        outer = sampled_outer(ch, num_random=2000, seed=SEED)
        # R1 cap: full power on the bisector, seen by both candidate rows
        assert outer.r1_max == pytest.approx(0.5 * math.log2(1 + 2 * ch.P),
                                             abs=1e-9)
        # R2 cap: full power straight at the second user
        assert outer.r2_max == pytest.approx(0.5 * math.log2(1 + 4 * ch.P),
                                             abs=1e-9)

    @pytest.mark.parametrize("power", [1.0, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("geometry", ["symmetric", "general"])
    def test_breakpoints_alone_give_the_grid_intersection(self, geometry,
                                                          power):
        if geometry == "symmetric":
            ch = special_geometry(2.0, power, 1.0)
        else:
            ch = MisoChannel([1.8, 0.4], [-0.3, 1.2], [0.9, -1.1], power, 1.0)
        curves = constituent_curves(
            ch, *sample_cov_pairs(ch, num_random=2000, seed=SEED))
        got, want = outer_region(curves), grid_outer_region(curves)
        assert np.array_equal(got.points, want.points)

    def test_intersection_sits_inside_every_family(self):
        ch = fig_channel()
        ku, kv = sample_cov_pairs(ch, num_random=2000, seed=SEED)
        curves = constituent_curves(ch, ku, kv)
        outer = outer_region(curves)
        for name, curve in curves.items():
            assert curve.violation(outer.points).max() <= 1e-12, name

    def test_inner_bounds_contained_in_symmetric_geometry(self):
        for snr_db in (0.0, 10.0, 20.0):
            ch = fig_channel(total_power=10.0 ** (snr_db / 10.0))
            outer = sampled_outer(ch, seed=SEED)
            for kind in ("cd", "md-uncorr", "md-corr"):
                inner = region_boundary(kind, ch, eta_steps=81,
                                        split_steps=51, x_steps=31)
                worst = outer.violation(inner.points).max()
                assert worst <= 1e-6, f"{kind} at {snr_db} dB: {worst}"

    def test_inner_bounds_contained_in_skew_geometry(self):
        ch = skew_channel()
        inners = [region_boundary(kind, ch, beam_steps=(25, 49),
                                  split_steps=101, x_steps=31)
                  for kind in ("cd", "md-corr")]
        pairs = [matched_cov_pairs(inner) for inner in inners]
        extra = (np.concatenate([p[0] for p in pairs]),
                 np.concatenate([p[1] for p in pairs]))
        outer = sampled_outer(ch, seed=SEED, extra_pairs=extra)
        for kind, inner in zip(("cd", "md-corr"), inners):
            worst = outer.violation(inner.points).max()
            assert worst <= 1e-6, f"{kind}: {worst}"

    def test_deterministic(self):
        ch = fig_channel()
        a = sampled_outer(ch, num_random=1000, seed=SEED)
        b = sampled_outer(ch, num_random=1000, seed=SEED)
        assert np.array_equal(a.points, b.points)

    def test_time_sharing_hull_dominates_staircase(self):
        ch = fig_channel()
        stair = sampled_outer(ch, num_random=1000, seed=SEED)
        hull = stair.hull()
        assert hull.interp == "linear"
        grid = np.linspace(0.0, stair.r1_max, 200)
        assert np.all(hull.r2_at(grid) >= stair.r2_at(grid) - 1e-12)


class TestDofSlopes:
    def build(self, rates):
        return [RateCurve2D(np.array([[0.0, r2], [r1, 0.0]]), interp="linear")
                for r1, r2 in rates]

    def test_exact_linear_growth_recovered(self):
        snr = np.array([20.0, 30.0, 40.0])
        x = 0.5 * np.log2(10.0 ** (snr / 10.0))
        curves = self.build([(1.0 * xi, 0.5 * xi + 0.2) for xi in x])
        est = dof_slopes(snr, curves)
        assert est.d1 == pytest.approx(1.0, abs=1e-9)
        assert est.d2 == pytest.approx(0.5, abs=1e-9)
        assert est.weighted_slope == pytest.approx(2.0, abs=1e-9)

    def test_requires_three_points_spanning_20db(self):
        curves = self.build([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError, match="3 SNR"):
            dof_slopes([10.0, 30.0], curves)
        curves = self.build([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        with pytest.raises(ValueError, match="20 dB"):
            dof_slopes([10.0, 15.0, 25.0], curves)
        with pytest.raises(ValueError, match="one curve"):
            dof_slopes([10.0, 20.0, 30.0], curves[:2])
        # a non-finite SNR is rejected before it reaches the fit
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                dof_slopes([10.0, 20.0, bad], curves)

    def test_time_sharing_inner_has_unit_sum_slope(self):
        snrs = [20.0, 30.0, 40.0]
        rates = []
        for s in snrs:
            p = 10.0 ** (s / 10.0)
            rates.append((0.5 * math.log2(1 + 2 * p),
                          0.5 * math.log2(1 + 4 * p)))
        est = dof_slopes(snrs, self.build(rates))
        assert est.sum_slope == pytest.approx(1.0, abs=0.05)

    def test_outer_region_degrees_of_freedom(self):
        snrs = [20.0, 30.0, 40.0]
        curves = [sampled_outer(fig_channel(total_power=10.0 ** (s / 10.0)),
                                num_random=4000, seed=SEED)
                  for s in snrs]
        est = dof_slopes(snrs, curves)
        assert isinstance(est, DofEstimate)
        assert 0.9 <= est.d1 <= 1.1
        assert 0.9 <= est.d2 <= 1.1
        assert 1.85 <= est.weighted_slope <= 2.15
        # the balanced corner sits at (1/2, 1), giving 3/2 per power octave
        assert est.sum_slope == pytest.approx(1.5, abs=0.1)


CONGRUENCE_EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, -1e300]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(2, 3), n=st.integers(1, 12))
def test_congruence_is_bitwise_the_unoptimized_einsum(data, k, n):
    # the gain matrices have k = 2 ([Y_j Z]) or k = 3 ([Z Y1 Y2]) columns;
    # einsum sums a lone 1x1 product (k = n = 1) in another order.  Inputs
    # are finite, as `_validated_stacks` admits; a product may still
    # overflow, and the sign of a NaN is not compared
    def arrays(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from(CONGRUENCE_EDGES), st.floats(-10.0, 10.0),
            st.floats(allow_nan=False, allow_infinity=False))))

    s, stack = arrays((2, k)), arrays((n, 2, 2))
    with np.errstate(all="ignore"):
        got = _congruence(s, stack)
        want = np.einsum("ia,nij,jb->nab", s, stack, s)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    signed = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


def test_congruence_is_bitwise_the_einsum_on_sampled_stacks():
    for channel in (special_geometry(2.0, 10.0, 1.0),
                    MisoChannel([1.8, 0.4], [-0.3, 1.2], [0.9, -1.1], 8, 1)):
        ku, kv = _validated_stacks(channel, *sample_cov_pairs(channel,
                                                              seed=SEED))
        for s in (np.column_stack([channel.g, channel.h1, channel.h2]),
                  np.column_stack([channel.h1, channel.g])):
            for stack in (ku, kv):
                got = _congruence(s, stack)
                want = np.einsum("ia,nij,jb->nab", s, stack, s)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_gaussian_demo_writes_its_curves(tmp_path, monkeypatch):
    demo = Path(__file__).parents[1] / "demos" / "gaussian_miso_tour.py"
    monkeypatch.setattr(sys, "argv", [str(demo), "--out", str(tmp_path)])
    runpy.run_path(str(demo), run_name="__main__")
    for name in ("cd", "md_uncorr", "md_corr", "outer"):
        table = np.genfromtxt(tmp_path / f"{name}.csv", delimiter=",",
                              names=True)
        assert table.dtype.names == ("R1", "R2") and len(table) > 1
        assert np.all(np.isfinite(table["R1"]) & np.isfinite(table["R2"]))
