"""End-to-end checks of the command line front end.

Every test invokes cli.main() in process with a temporary output directory,
then verifies exit codes, file shapes, and selected values against the
library routines the files are supposed to serialize.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from compound_bc import becbsc, cli
from compound_bc.becbsc import BecBscParams, capacity_c1, mrs_gerber_lower
from compound_bc.idregions import (
    example_valuations,
    reduced_target_region,
    regions_match,
    split_rate_example_system,
)
from compound_bc.polyhedra import RegionSystem


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def column(rows, header, name):
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


def write_params(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


MISO_SMALL = {"eta_steps": 81, "split_steps": 51, "x_steps": 31,
              "num_random": 2000}

# SHA-256 of every file five runs write: becbsc-regions, becbsc-da and fme at
# their defaults, miso --outer --time-sharing --seed 7 on the MISO_SMALL grid,
# and, as "miso-defaults", miso --time-sharing on its full default grid (eta
# 401 x split 201 x x 201), which has no outer bound and so no seed.
# A change that moves these bytes on purpose records the changed file, the
# reason and the largest numeric difference, then updates the digest here.
GOLDEN = {
    "becbsc-regions": {
        "c1.csv":
            "5953ce6259d7e1a4afd45e1ce2d7cc1f0869ed64cff8c535933c3ed62bb30c63",
        "c2.csv":
            "844c7753a2b634aeb4768b92b849b02a95b2634511b3b2760a30f974b0c83e79",
        "id.csv":
            "5953ce6259d7e1a4afd45e1ce2d7cc1f0869ed64cff8c535933c3ed62bb30c63",
        "mrs_gerber.csv":
            "4b921190a2a2e7df3f341b18548c87b6081b60faa5f58af2d7eea7481f4e1165",
    },
    "becbsc-da": {
        "da.csv":
            "fa34f50c5edacfacf860a83a3536242be26ae0a59f4f8eaaed71c387ff8bfa9a",
        "t_curves.csv":
            "c843c99750c7b6cc5d20985694b9a10cb6d4532ac13032178b4203dec0fff2bf",
    },
    "fme": {
        "fme_projected.json":
            "15346521e68fe035f60c0f0e601ca614a8591a26443550d124c61f18ea35d572",
    },
    "miso": {
        "cd.csv":
            "b46d4015b08fc4a5e9946e6eb413cfb8a367093615d1e30054b8668c37b0bac1",
        "cd_hull.csv":
            "0eee703bd44df088c67391e2d2e3c899ee30a6ecbfb4a1d43a21baa4e6d32c97",
        "md_corr.csv":
            "8eed7dccd6c79e87ee389be7c0517d109782055a1c217e90eb448b653f4cd380",
        "md_corr_hull.csv":
            "e197cb7cf451ae101eacfe98be018cff35786404efce175ef6e3528789407e2a",
        "md_uncorr.csv":
            "da34999a3409711410c868b9029da9a1bdb3f85a648e8df88c8a9310d1e66cfc",
        "md_uncorr_hull.csv":
            "d2ef6ae37dd07f0fbedc1cb006d8b0a47d6e207f53164cabd2f8ee41408ad4c6",
        "outer.csv":
            "5aa8e644de07465ea4968ba8513862db6f519aa37ec17bb325807aad90f89138",
        "outer_c1.csv":
            "730e097ff1f04aeed3260ac1f420241ff3f476358c9dc9fb85e425edf1973607",
        "outer_c12.csv":
            "bcea0741c30dad60ce74e66e14794642db9538f3ddfa930eb070c19a6f295c27",
        "outer_c2.csv":
            "730e097ff1f04aeed3260ac1f420241ff3f476358c9dc9fb85e425edf1973607",
        "outer_cz.csv":
            "3b437366e4fdf9162a48c6f011e1fb342911ccec2b112d085fd72b64bf886a80",
    },
    "miso-defaults": {
        "cd.csv":
            "16fe081f3336e6a01bc6af52304861e5877d147aab0542b69eecf9db279b4296",
        "cd_hull.csv":
            "3ef9d3bc9fda0c17cc5038b9e76da3c5333fac7ab0d6723a99205ebd9e4b8f68",
        "md_corr.csv":
            "192564a728cdf345e784ffe564597e7002293c265aae15e8bb8fdeb81e2b27fe",
        "md_corr_hull.csv":
            "c4db03632238777ad52c5edbc3dbc458d78d0b520e8e2655639d4f627b78c47f",
        "md_uncorr.csv":
            "a0473801f714b7c9feaa74e769fe76193064f1dbf78444f0b846ce282a018e93",
        "md_uncorr_hull.csv":
            "946b0c9b7ccc69bed29c51152b7c7ed2cd883dd03371c35260e5b0644f955627",
    },
}


class TestBecbscRegions:
    def test_default_grid_writes_four_curves(self, tmp_path):
        assert cli.main(["becbsc-regions", "--out", str(tmp_path)]) == 0
        for name in ("c1", "c2", "id", "mrs_gerber"):
            header, rows = read_csv(tmp_path / f"{name}.csv")
            assert header == ["alpha", "R1", "R2"]
            assert len(rows) >= 100

    def test_alpha_steps_sets_row_count(self, tmp_path):
        assert cli.main(["becbsc-regions", "--out", str(tmp_path),
                         "--alpha-steps", "10"]) == 0
        for name in ("c1", "c2", "id", "mrs_gerber"):
            _, rows = read_csv(tmp_path / f"{name}.csv")
            assert len(rows) == 10

    def test_c1_rows_match_library(self, tmp_path):
        assert cli.main(["becbsc-regions", "--out", str(tmp_path),
                         "--alpha-steps", "41"]) == 0
        header, rows = read_csv(tmp_path / "c1.csv")
        alphas = column(rows, header, "alpha")
        params = BecBscParams(0.1, 0.13, 0.46)
        for k in (0, 10, 20, 40):
            r1, r2 = capacity_c1(params, alphas[k])
            assert float(rows[k][1]) == pytest.approx(max(r1, 0.0), abs=1e-11)
            assert float(rows[k][2]) == pytest.approx(max(r2, 0.0), abs=1e-11)

    def test_mrs_gerber_columns_are_rate_ordered(self, tmp_path):
        assert cli.main(["becbsc-regions", "--out", str(tmp_path),
                         "--alpha-steps", "21"]) == 0
        header, rows = read_csv(tmp_path / "mrs_gerber.csv")
        params = BecBscParams(0.1, 0.13, 0.46)
        # library returns (R2, R1); the file stores R1 before R2
        r2, r1 = mrs_gerber_lower(params, float(rows[10][0]))
        assert float(rows[10][1]) == pytest.approx(r1, abs=1e-11)
        assert float(rows[10][2]) == pytest.approx(r2, abs=1e-11)

    def test_id_curve_coincides_with_first_pair_capacity(self, tmp_path):
        # the interference-decoding union equals the first pair's capacity
        # region, so the two corner traces must agree
        assert cli.main(["becbsc-regions", "--out", str(tmp_path),
                         "--alpha-steps", "51"]) == 0
        assert (tmp_path / "id.csv").read_bytes() == \
            (tmp_path / "c1.csv").read_bytes()

    def test_unordered_flip_probabilities_rejected(self, tmp_path, capsys):
        params = write_params(tmp_path, "bad.json",
                              {"p": 0.2, "p1": 0.13, "e2": 0.46})
        assert cli.main(["becbsc-regions", "--params", params,
                         "--out", str(tmp_path)]) == 2
        assert "0 < p < p1" in capsys.readouterr().err

    def test_repeat_runs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert cli.main(["becbsc-regions", "--out", str(tmp_path / sub),
                             "--alpha-steps", "25"]) == 0
        for name in ("c1", "c2", "id", "mrs_gerber"):
            assert (tmp_path / "a" / f"{name}.csv").read_bytes() == \
                (tmp_path / "b" / f"{name}.csv").read_bytes()

    def test_closed_form_calls_do_not_grow_with_the_grid(self, tmp_path,
                                                         monkeypatch):
        # one call per curve on the whole alpha grid, not one per alpha
        calls = []
        check = becbsc._check_alpha
        monkeypatch.setattr(becbsc, "_check_alpha",
                            lambda alpha: calls.append(1) or check(alpha))
        counts = []
        for steps in ("2", "201"):
            calls.clear()
            assert cli.main(["becbsc-regions", "--out", str(tmp_path / steps),
                             "--alpha-steps", steps]) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] == 4


class TestBecbscDa:
    def test_weight_one_gap_is_identically_zero(self, tmp_path, capsys):
        params = write_params(tmp_path, "p.json",
                              {"a": 1.0, "rate_points": 5, "x_points": 3})
        assert cli.main(["becbsc-da", "--params", params,
                         "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "da.csv")
        assert header == ["R1", "d_a"]
        assert np.all(column(rows, header, "d_a") == 0.0)
        assert "min(d_a) = 0" in capsys.readouterr().out

    def test_t_curve_columns(self, tmp_path):
        params = write_params(tmp_path, "p.json",
                              {"a": 1.0, "rate_points": 3, "x_points": 5})
        assert cli.main(["becbsc-da", "--params", params,
                         "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "t_curves.csv")
        assert header == ["x", "t_a", "t_1", "t_0"]
        assert len(rows) == 5
        # at a = 1 the hull's vertices lie on the closed form
        gap = column(rows, header, "t_1") - column(rows, header, "t_a")
        assert np.all(np.abs(gap) <= 1e-7)

    def test_repeat_runs_byte_identical(self, tmp_path):
        params = write_params(tmp_path, "p.json",
                              {"a": 0.92, "rate_points": 3, "x_points": 3})
        for sub in ("a", "b"):
            assert cli.main(["becbsc-da", "--params", params,
                             "--out", str(tmp_path / sub)]) == 0
        for name in ("da.csv", "t_curves.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_one_alpha0_bisection_per_run(self, tmp_path, monkeypatch):
        # the rate grid and d_a_curve's domain check read one params.alpha0
        calls = []
        real = becbsc.alpha0_solve
        monkeypatch.setattr(becbsc, "alpha0_solve",
                            lambda params: calls.append(params) or real(params))
        params = write_params(tmp_path, "p.json",
                              {"a": 0.92, "rate_points": 3, "x_points": 3})
        assert cli.main(["becbsc-da", "--params", params,
                         "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_alpha0_is_solved_once_per_params_object(self, monkeypatch):
        monkeypatch.setattr(becbsc, "ALPHA0_TOL", 1e-3)
        coarse = BecBscParams()
        assert coarse.alpha0 == becbsc.alpha0_solve(coarse)
        monkeypatch.undo()
        fresh = BecBscParams()
        assert fresh.alpha0 == becbsc.alpha0_solve(fresh) != coarse.alpha0
        assert coarse.alpha0 != becbsc.alpha0_solve(coarse)  # kept per object

    @pytest.mark.parametrize("flag", ["--seed", "--budget"])
    def test_search_flags_rejected(self, tmp_path, capsys, flag):
        # becbsc-da runs no search, so it has no seed and no budget
        assert cli.main(["becbsc-da", flag, "7", "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @staticmethod
    def overflow(*args, **kwargs):
        raise FloatingPointError("overflow")

    @pytest.mark.parametrize("stage, name", [
        ("budget-gap curve", "d_a_curve"),
        ("supporting-line study", "sample_t_a")])
    def test_numeric_failure_names_the_stage(self, tmp_path, capsys,
                                             monkeypatch, stage, name):
        monkeypatch.setattr(cli, name, self.overflow)
        assert cli.main(["becbsc-da", "--out", str(tmp_path)]) == 3
        assert stage in capsys.readouterr().err
        assert not (tmp_path / "da.csv").exists()

    def test_failing_run_leaves_no_out_directory(self, tmp_path, capsys,
                                                 monkeypatch):
        # the last stage fails, after the gap curve is computed
        monkeypatch.setattr(cli, "t0_closed", self.overflow)
        out = tmp_path / "da_out"
        assert cli.main(["becbsc-da", "--out", str(out)]) == 3
        capsys.readouterr()
        assert not out.exists()

    def test_weight_outside_unit_interval_rejected(self, tmp_path):
        params = write_params(tmp_path, "p.json", {"a": 1.5})
        assert cli.main(["becbsc-da", "--params", params,
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("seed", float("inf")), ("seed", 2.7), ("seed", float("nan")),
        ("budget", float("inf")), ("budget", 1.5),
        ("rate_points", 2.5), ("x_points", 2.9),
        ("seed", True), ("budget", True), ("a", True),
        ("a", "1"), ("rate_points", "3"), ("seed", "7")])
    def test_non_integer_count_rejected_before_any_output(
            self, tmp_path, capsys, key, value):
        cfg = {"a": 1.0, "rate_points": 3, "x_points": 3}
        cfg[key] = value
        params = write_params(tmp_path, "p.json", cfg)
        out = tmp_path / "da_out"
        assert cli.main(["becbsc-da", "--params", params,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if key in cli.SETTINGS["becbsc-da"]:
            cast = "float" if key == "a" else "int"
            assert f"parameter {key!r} must be {cast}" in err
        else:  # seed and budget are no keys: any value of theirs is unknown
            assert f"unknown key(s) {key!r}" in err
        assert not out.exists()


class TestMiso:
    def test_boundary_files_record_achieving_parameters(self, tmp_path):
        params = write_params(tmp_path, "p.json", MISO_SMALL)
        assert cli.main(["miso", "--params", params,
                         "--out", str(tmp_path)]) == 0
        for name in ("cd", "md_uncorr", "md_corr"):
            header, rows = read_csv(tmp_path / f"{name}.csv")
            assert header[:2] == ["R1", "R2"]
            for key in ("eta", "p_u", "p_v", "order"):
                assert key in header
            assert len(rows) > 100
            r1 = column(rows, header, "R1")
            assert np.all(np.diff(r1) > 0)
        header, _ = read_csv(tmp_path / "md_corr.csv")
        for key in ("x", "t", "alpha"):
            assert key in header

    def test_containment_report_printed(self, tmp_path, capsys):
        params = write_params(tmp_path, "p.json", MISO_SMALL)
        assert cli.main(["miso", "--params", params,
                         "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cd inside md-uncorr: yes" in out
        assert "cd inside md-corr: yes" in out

    def test_time_sharing_writes_hulls(self, tmp_path):
        params = write_params(tmp_path, "p.json", MISO_SMALL)
        assert cli.main(["miso", "--params", params, "--time-sharing",
                         "--out", str(tmp_path)]) == 0
        for name in ("cd", "md_uncorr", "md_corr"):
            header, raw = read_csv(tmp_path / f"{name}.csv")
            hh, hull = read_csv(tmp_path / f"{name}_hull.csv")
            assert hh == header
            assert 2 <= len(hull) <= len(raw)

    def test_outer_files_and_containment(self, tmp_path, capsys):
        params = write_params(tmp_path, "p.json", MISO_SMALL)
        assert cli.main(["miso", "--params", params, "--outer",
                         "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for kind in ("cd", "md-uncorr", "md-corr"):
            assert f"{kind} inside outer: yes" in out
        oh, orows = read_csv(tmp_path / "outer.csv")
        assert oh == ["R1", "R2"]
        outer_r2_axis = float(orows[0][1])
        for name in ("outer_c1", "outer_c2", "outer_c12", "outer_cz"):
            fh, frows = read_csv(tmp_path / f"{name}.csv")
            assert fh == ["R1", "R2"]
            # the intersection cannot exceed any constituent family
            assert outer_r2_axis <= float(frows[0][1]) + 1e-12
        _, inner = read_csv(tmp_path / "md_corr.csv")
        assert float(inner[0][1]) <= outer_r2_axis + 1e-6

    def test_snr_flag_sets_power(self, tmp_path, capsys):
        params = write_params(tmp_path, "p.json", MISO_SMALL)
        assert cli.main(["miso", "--params", params, "--snr-db", "0",
                         "--out", str(tmp_path)]) == 0
        assert "P=1 N=1" in capsys.readouterr().out

    def test_dependent_channel_rows_rejected(self, tmp_path, capsys):
        params = write_params(tmp_path, "p.json",
                              {"h1": [1, 0], "h2": [2, 0], "g": [0, 1]})
        assert cli.main(["miso", "--params", params,
                         "--out", str(tmp_path)]) == 2
        assert "linearly independent" in capsys.readouterr().err

    def test_partial_channel_config_rejected(self, tmp_path):
        params = write_params(tmp_path, "p.json", {"h1": [1, 0]})
        assert cli.main(["miso", "--params", params,
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("num_random", [-1, 2.5, float("inf")])
    def test_bad_sample_count_rejected_before_any_output(self, tmp_path,
                                                         capsys, num_random):
        params = write_params(tmp_path, "p.json",
                              {"eta_steps": 21, "split_steps": 11,
                               "x_steps": 11, "num_random": num_random})
        out = tmp_path / "miso_out"
        assert cli.main(["miso", "--outer", "--params", params,
                         "--out", str(out)]) == 2
        assert "num_random" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("eta_steps", 21.5), ("split_steps", float("inf")), ("x_steps", 11.2),
        ("beam_steps", [9, 4.5]), ("seed", float("nan")),
        ("eta_steps", True), ("beam_steps", [9, True]), ("N", True),
        ("split_steps", "3"), ("N", "1"), ("h1", [2, True])])
    def test_non_integer_grid_key_rejected_before_any_output(
            self, tmp_path, capsys, key, value):
        cfg = {"eta_steps": 21, "split_steps": 11, "x_steps": 11,
               "num_random": 10}
        cfg[key] = value
        params = write_params(tmp_path, "p.json", cfg)
        out = tmp_path / "miso_out"
        assert cli.main(["miso", "--outer", "--params", params,
                         "--out", str(out)]) == 2
        cast = "float" if key in ("N", "h1") else "int"
        assert f"parameter {key!r} must be {cast}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("N", -1, "noise variance N"),
        ("split_steps", 0, "split_steps must be at least 1")])
    def test_out_of_range_value_rejected_before_any_output(
            self, tmp_path, capsys, key, value, message):
        params = write_params(tmp_path, "p.json", {key: value})
        out = tmp_path / "miso_out"
        assert cli.main(["miso", "--params", params, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg, flags, message", [
        ({"P": float("inf")}, [], "total power P"),
        ({"N": float("inf")}, [], "noise variance N"),
        ({}, ["--snr-db", "inf"], "total power P")])
    def test_non_finite_power_or_noise_rejected_before_any_output(
            self, tmp_path, capsys, cfg, flags, message):
        params = write_params(tmp_path, "p.json", cfg)
        out = tmp_path / "miso_out"
        assert cli.main(["miso", "--params", params, "--out", str(out)]
                        + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", ["4000", "1e308", "-4000", "nan",
                                        "-inf"])
    def test_unusable_snr_rejected_before_any_output(self, tmp_path, capsys,
                                                     snr_db):
        out = tmp_path / "miso_out"
        assert cli.main(["miso", f"--snr-db={snr_db}", "--out", str(out)]) == 2
        assert "--snr-db must give a positive, finite total power P" \
            in capsys.readouterr().err
        assert not out.exists()

    GENERAL = {"h1": [1.8, 0.4], "h2": [-0.3, 1.2], "g": [0.9, -1.1]}

    @pytest.mark.parametrize("cfg, key", [
        ({"beam_steps": [5, 9]}, "beam_steps"),
        ({"h1": [0.0, 3.0], "h2": [3.0, 0.0], "g": [1.0, -1.0],
          "beam_steps": [5, 9]}, "beam_steps"),
        (dict(GENERAL, eta_steps=21), "eta_steps")])
    def test_grid_key_the_geometry_ignores_rejected_before_any_output(
            self, tmp_path, capsys, cfg, key):
        params = write_params(tmp_path, "p.json",
                              dict(cfg, split_steps=5, x_steps=5))
        out = tmp_path / "miso_out"
        assert cli.main(["miso", "--params", params, "--out", str(out)]) == 2
        assert f"parameter {key!r} has no effect" in capsys.readouterr().err
        assert not out.exists()

    def test_general_channel_takes_beam_steps(self, tmp_path):
        params = write_params(tmp_path, "p.json",
                              dict(self.GENERAL, beam_steps=[5, 9],
                                   split_steps=5, x_steps=5))
        assert cli.main(["miso", "--params", params,
                         "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "cd.csv")
        assert {"theta_u", "theta_v"} <= set(header)
        assert "eta" not in header

    def test_failing_sweep_leaves_no_out_directory(self, tmp_path, capsys,
                                                   monkeypatch):
        sweep = cli.region_boundary

        def failing(kind, channel, **grid):
            if kind == "md-corr":
                raise FloatingPointError("overflow in the md-corr sweep")
            return sweep(kind, channel, **grid)

        monkeypatch.setattr(cli, "region_boundary", failing)
        params = write_params(tmp_path, "p.json",
                              {"eta_steps": 21, "split_steps": 11,
                               "x_steps": 11})
        out = tmp_path / "miso_out"
        assert cli.main(["miso", "--params", params, "--time-sharing",
                         "--out", str(out)]) == 3
        assert "md-corr boundary sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_outer_runs_byte_identical(self, tmp_path):
        params = write_params(tmp_path, "p.json", MISO_SMALL)
        for sub in ("a", "b"):
            assert cli.main(["miso", "--params", params, "--outer",
                             "--seed", "11", "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "outer.csv").read_bytes() == \
            (tmp_path / "b" / "outer.csv").read_bytes()


class TestFme:
    def test_bundled_example_projects_to_four_rows(self, tmp_path, capsys):
        assert cli.main(["fme", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "13 before elimination, 15 after, 4 after pruning" in out
        projected = RegionSystem.load(tmp_path / "fme_projected.json")
        assert projected.rate_vars == ["R1", "R2"]
        assert len(projected.ineqs) == 4

    def test_projection_matches_hand_reduction(self, tmp_path):
        assert cli.main(["fme", "--out", str(tmp_path)]) == 0
        projected = RegionSystem.load(tmp_path / "fme_projected.json")
        target = reduced_target_region()
        atoms = sorted(set(projected.atoms()) | set(target.atoms()))
        for values in example_valuations(atoms, 20, 555):
            assert regions_match(projected, target, values)

    def test_empty_eliminate_list_is_identity(self, tmp_path):
        source = tmp_path / "system.json"
        split_rate_example_system().save(source)
        assert cli.main(["fme", str(source), "--out", str(tmp_path)]) == 0
        back = RegionSystem.load(tmp_path / "fme_projected.json")
        assert back.to_json() == split_rate_example_system().to_json()

    def test_unknown_variable_rejected(self, tmp_path, capsys):
        assert cli.main(["fme", "--eliminate", "R9",
                         "--out", str(tmp_path)]) == 2
        assert "unknown rate variable" in capsys.readouterr().err

    def test_eliminating_all_rate_vars_reports_constant(self, tmp_path, capsys):
        assert cli.main(["fme", "--eliminate", "R1,R2,S01,S02",
                         "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "feasibility is a constant" in out
        projected = RegionSystem.load(tmp_path / "fme_projected.json")
        assert projected.rate_vars == []

    def test_zero_atom_coefficients_are_dropped(self, tmp_path):
        # to_json writes coefficients as strings, so a zero arrives as "0";
        # on a rate-free row it used to reach normalized() as a divisor
        def rows(zero):
            extra = {"H(A)": "0"} if zero else {}
            return [
                {"lhs": {"R1": "1", "S": "1"}, "rel": "<=",
                 "rhs": {"I(X;Y)": "1", **extra}},
                {"lhs": {"S": "-1"}, "rel": "<=", "rhs": {}},
                {"lhs": {}, "rel": "<=", "rhs": {"H(X)": "1", **extra}},
            ]

        written = {}
        for zero in (False, True):
            source = tmp_path / f"system_{zero}.json"
            source.write_text(json.dumps({"rate_vars": ["R1", "S"],
                                          "ineqs": rows(zero)}))
            out = tmp_path / f"out_{zero}"
            assert cli.main(["fme", str(source), "--eliminate", "S",
                             "--out", str(out)]) == 0
            written[zero] = (out / "fme_projected.json").read_bytes()
        assert written[True] == written[False]

    def test_missing_input_file_rejected(self, tmp_path, capsys):
        row = {"lhs": {"R1": "1"}, "rel": "<=", "rhs": {"I(X;Y)": "1"}}
        bad = {"array.json": [], "no_rate_vars.json": {"ineqs": [row]},
               "no_ineqs.json": {"rate_vars": ["R1"]},
               "list_lhs.json": {"rate_vars": ["R1"],
                                 "ineqs": [dict(row, lhs=["R1"])]},
               "list_rhs.json": {"rate_vars": ["R1"],
                                 "ineqs": [dict(row, rhs=["I(X;Y)"])]},
               "list_rate_var.json": {"rate_vars": [["R1"]], "ineqs": []},
               "no_rel.json": {"rate_vars": ["R1"],
                               "ineqs": [{"lhs": {"R1": "1"}}]}}
        # the message names the offending entry and field
        named = {"list_rate_var.json": "rate variable ['R1'] in 'rate_vars'",
                 "no_rel.json": "{'lhs': {'R1': '1'}} needs a 'rel' field"}
        for name, obj in bad.items():
            (tmp_path / name).write_text(json.dumps(obj))
        (tmp_path / "a_directory").mkdir()
        out = tmp_path / "out"
        for name in ["missing.json", "a_directory", *bad]:
            assert cli.main(["fme", str(tmp_path / name),
                             "--out", str(out)]) == 2, name
            err = capsys.readouterr().err
            assert "error:" in err
            assert named.get(name, "") in err, (name, err)
        assert not out.exists()


class TestParams:
    @pytest.mark.parametrize("command, cfg, key", [
        ("becbsc-regions", {"p": 0.1, "seed": 3}, "seed"),
        ("becbsc-da", {"a": 1.0, "x_point": 3}, "x_point"),
        ("miso", {"eta_step": 5}, "eta_step"),
        ("becbsc-da", {"a": 1.0, "seed": 7}, "seed"),
        ("becbsc-da", {"a": 1.0, "budget": 64}, "budget")])
    def test_unknown_key_rejected_before_any_output(self, tmp_path, capsys,
                                                    command, cfg, key):
        params = write_params(tmp_path, "p.json", cfg)
        out = tmp_path / "out"
        assert cli.main([command, "--params", params, "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_readme_lists_each_table_s_keys(self):
        # README's "accepted keys" bullets, one per subcommand taking --params
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("The accepted keys are:\n\n", 1)[1].split("\n\n")[0]
        listed = {}
        for bullet in block.replace("\n  ", " ").splitlines():
            command, keys = re.fullmatch(r"- `([\w-]+)`: (.*)", bullet).groups()
            listed[command] = re.findall(r"`(\w+)`", keys)
        tables = {command: cli.param_keys(table)
                  for command, table in cli.SETTINGS.items()
                  if cli.param_keys(table)}
        assert listed == tables


class TestHarness:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    # small runs that would finish, and then fail on their first write
    SMALL_RUNS = {
        "becbsc-regions": (["--alpha-steps", "3"], None),
        "becbsc-da": ([], {"a": 1.0, "rate_points": 3, "x_points": 3}),
        "miso": ([], {"eta_steps": 5, "split_steps": 5, "x_steps": 5}),
        "fme": ([], None)}

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_out_under_a_file_rejected_before_any_stage(self, tmp_path,
                                                       capsys, command):
        flags, cfg = self.SMALL_RUNS[command]
        argv = [command] + flags
        if cfg is not None:
            argv += ["--params", write_params(tmp_path, "p.json", cfg)]
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        for out in (afile, afile / "sub"):
            assert cli.main(argv + ["--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert "is not a directory" in captured.err
            assert "wrote" not in captured.out
        assert afile.read_text() == "keep\n"


class TestGoldenDigests:
    @staticmethod
    def argv(name, tmp_path):
        if name == "miso":
            params = write_params(tmp_path, "p.json", MISO_SMALL)
            return ["miso", "--params", params, "--outer", "--time-sharing",
                    "--seed", "7"]
        if name == "miso-defaults":
            return ["miso", "--time-sharing"]
        return [name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_golden_digests(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(self.argv(name, tmp_path) + ["--out", str(out)]) == 0
        capsys.readouterr()
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        assert digests == GOLDEN[name]
