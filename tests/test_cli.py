"""End-to-end command-line behavior: reports, formats, exit codes."""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from bellbound import chsh_functional, source_operator_from_json
from bellbound.cli import main
from bellbound.coherent import MAX_CURVE_STEPS
from bellbound.serialize import functional_to_json, state_from_json
from helpers import separable_functional

GOLDEN = Path(__file__).parent / "golden"
ROOT2 = math.sqrt(2)
INV_ROOT2 = 1 / ROOT2


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({
        "type": "dense", "d1": 2, "d2": 2,
        "re": [[INV_ROOT2, 0.0], [0.0, INV_ROOT2]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }))
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.json"
    path.write_text(json.dumps({
        "type": "dense", "d1": 2, "d2": 2,
        "re": [[1.0, 0.0], [0.0, 0.0]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }))
    return str(path)


@pytest.fixture
def separable_12_file(tmp_path):
    # binary 12 x 12: 16.7M strategy pairs, 4096 strategies enumerated
    g, h, f = separable_functional(np.random.default_rng(57), 12, 12)
    path = tmp_path / "separable_12.json"
    path.write_text(json.dumps(functional_to_json(f)))
    return str(path), 12 * g.max(axis=1).sum() + 12 * h.max(axis=1).sum()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchmidtCommand:
    def test_bell_report(self, capsys, bell_file):
        code, out, err = run(capsys, ["schmidt", "--input", bell_file])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["rank"] == 2
        assert report["coefficients"] == pytest.approx([INV_ROOT2] * 2, abs=1e-11)
        assert report["sum_squared"] == pytest.approx(2.0, abs=1e-11)
        assert (report["d1"], report["d2"]) == (2, 2)
        assert "seed" in report and "truncation_tol" in report

    def test_overflowing_norm_exits_2_without_warning(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "schmidt", "coefficients": [1e200, 1e200]}))
        code, out, err = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: state is not normalized") and "Warning" not in err

    def test_twelve_digit_format(self, capsys, bell_file):
        _, out, _ = run(capsys, ["schmidt", "--input", bell_file])
        assert "0.707106781187" in out

    def test_output_file(self, capsys, tmp_path, bell_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["schmidt", "--input", bell_file, "--output", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["rank"] == 2


def test_state_extents_are_ints_or_infinite():
    dense = {"type": "dense", "d1": 2.0, "d2": 1, "re": [[1], [0]], "im": [[0], [0]]}
    extents = [state_from_json(obj)[1:] for obj in (
        dense, {"type": "schmidt", "coefficients": [0.6, 0.8, 0.0]},
        {"type": "coherent", "family": 2, "alpha": 0.5})]
    assert extents == [(2, 1), (3, 3), (math.inf, math.inf)]
    assert [type(e) for pair in extents for e in pair] == [int] * 4 + [float] * 2


class TestBoundCommand:
    def test_bell_scenario(self, capsys, bell_file):
        code, out, _ = run(capsys, ["bound", "--input", bell_file, "--s1", "2", "--s2", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["schmidt_settings_bound"] == pytest.approx(3.0)
        assert report["schmidt_sum_bound"] == pytest.approx(3.0)
        assert report["dimension_settings_bound"] == pytest.approx(3.0)
        assert report["applicable_min"] == pytest.approx(3.0)
        assert report["schmidt_rank"] == 2
        assert "projective_bound" not in report

    def test_projective_flag(self, capsys, bell_file):
        _, out, _ = run(capsys, [
            "bound", "--input", bell_file, "--s1", "2", "--s2", "2", "--projective",
        ])
        report = json.loads(out)
        assert report["projective_bound"] == pytest.approx(ROOT2, abs=1e-11)
        assert report["applicable_min"] == pytest.approx(ROOT2, abs=1e-11)
        assert "1.41421356237" in out

    def test_schmidt_form_state(self, capsys, tmp_path):
        path = tmp_path / "skew.json"
        path.write_text(json.dumps({"type": "schmidt", "coefficients": [0.8, 0.6]}))
        _, out, _ = run(capsys, ["bound", "--input", str(path), "--s1", "3", "--s2", "3"])
        report = json.loads(out)
        assert report["schmidt_sum_bound"] == pytest.approx(2.92)
        assert report["schmidt_settings_bound"] == pytest.approx(2.92)

    def test_coherent_state_reports_infinite_dims(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"type": "coherent", "family": 3, "alpha": 0.8}))
        code, out, _ = run(capsys, ["bound", "--input", str(path), "--s1", "2", "--s2", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["d1"] == "infinite" and report["d2"] == "infinite"
        # with infinite dimensions the setting counts carry the bound
        assert report["dimension_settings_bound"] == pytest.approx(3.0)
        assert report["schmidt_settings_bound"] == pytest.approx(3.0)

    @pytest.mark.parametrize("projective", [False, True])
    def test_huge_setting_counts(self, capsys, tmp_path, projective):
        # counts are compared exactly: 10^400 never becomes a float
        path = tmp_path / "schmidt_3.json"
        path.write_text(json.dumps({"type": "schmidt", "coefficients": [0.64, 0.6, 0.48]}))
        huge = str(10**400)
        argv = ["bound", "--input", str(path), "--s1", huge, "--s2", huge if projective else "2"]
        code, out, err = run(capsys, argv + ["--projective"] * projective)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["s1"] == 10**400 and (report["d1"], report["d2"]) == (3, 3)
        assert report["dimension_settings_bound"] == (5.0 if projective else 3.0)
        if projective:
            assert report["projective_bound"] == 5.0

    def test_projective_needs_equal_settings(self, capsys, bell_file):
        code, _, err = run(capsys, [
            "bound", "--input", bell_file, "--s1", "2", "--s2", "3", "--projective",
        ])
        assert code == 2
        assert "equal setting counts" in err


class TestSourceOpCommand:
    def test_check_and_export(self, capsys, tmp_path, bell_file):
        export = tmp_path / "op.json"
        code, out, _ = run(capsys, [
            "source-op", "--input", bell_file, "--s2", "2",
            "--check", "--export", str(export),
        ])
        assert code == 0
        report = json.loads(out)
        assert (report["s1"], report["s2"]) == (1, 2)
        assert report["trace_norm"] == pytest.approx(math.sqrt(3), abs=1e-9)
        assert report["schmidt_sum_bound"] == pytest.approx(3.0)
        assert report["bound_slack"] > 0
        assert report["dilation_residual"] < 1e-9
        assert "samples" not in report
        op = source_operator_from_json(json.loads(export.read_text()))
        assert op.matrix.shape == (8, 8)
        assert np.trace(op.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_golden_state_check(self, capsys):
        code, out, err = run(capsys, [
            "source-op", "--input", str(GOLDEN / "phi_plus.json"), "--s2", "2", "--check",
        ])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["dilation_residual"] <= 1e-13
        assert "samples" not in report

    def test_check_ignores_seed(self, capsys):
        reports = []
        for seed in ("0", "7"):
            code, out, _ = run(capsys, [
                "source-op", "--input", str(GOLDEN / "dense_3x3.json"), "--s1", "2",
                "--check", "--seed", seed,
            ])
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0]["dilation_residual"] == reports[1]["dilation_residual"]
        assert [r.pop("seed") for r in reports] == [0, 7]
        assert reports[0] == reports[1]

    def test_samples_flag_is_unknown(self, capsys, bell_file):
        code, out, err = run(capsys, [
            "source-op", "--input", bell_file, "--s2", "2", "--check", "--samples", "2",
        ])
        assert code == 1 and out == ""
        assert "--samples" in err

    def test_site1_copies(self, capsys, bell_file):
        _, out, _ = run(capsys, ["source-op", "--input", bell_file, "--s1", "3"])
        report = json.loads(out)
        assert (report["s1"], report["s2"]) == (3, 1)

    def test_requires_exactly_one_side(self, capsys, bell_file):
        code, _, _ = run(capsys, ["source-op", "--input", bell_file])
        assert code == 1
        code, _, _ = run(capsys, [
            "source-op", "--input", bell_file, "--s1", "2", "--s2", "2",
        ])
        assert code == 1

    def test_capacity_exit(self, capsys, bell_file):
        code, _, err = run(capsys, ["source-op", "--input", bell_file, "--s2", "12"])
        assert code == 3
        assert "size guard" in err

    @pytest.mark.parametrize("s2", ["2000", "100000", "10000000"])
    def test_size_guard_forms_no_power(self, capsys, tmp_path, s2):
        # 3^s2 has up to 4.8 million digits: the guard decides by bit lengths
        path = tmp_path / "rank3.json"
        path.write_text(json.dumps({"type": "schmidt", "coefficients": [0.8, 0.48, 0.36]}))
        start = time.perf_counter()
        code, out, err = run(capsys, ["source-op", "--input", str(path), "--s2", s2])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "size guard" in err and f"3^{s2}" in err
        assert max(len(digits) for digits in re.findall(r"\d+", err)) <= 20


class TestCoherentCommands:
    def test_family_report(self, capsys):
        code, out, _ = run(capsys, ["coherent", "--family", "1", "--alpha", "0.5"])
        assert code == 0
        report = json.loads(out)
        x = math.exp(-0.5)
        assert report["overlap_x"] == pytest.approx(x, abs=1e-11)
        assert report["eigenvalues"][0] == pytest.approx(0.943410, abs=1e-6)
        assert report["bound"] == pytest.approx((3 - x * x) / (1 + x * x), abs=1e-9)
        assert report["cutoff"] == 16
        assert report["tail_bound"] < 1e-14

    def test_tiny_alpha_eigenvalue(self, capsys):
        # 1 - exp(-2 alpha^2) would print 1.00000016568e-20
        code, out, _ = run(capsys, ["coherent", "--family", "1", "--alpha", "1e-5"])
        assert code == 0
        assert json.loads(out)["eigenvalues"][1] == pytest.approx(1e-20, rel=1e-11, abs=0.0)

    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, [
            "coherent-curve", "--family", "1",
            "--alpha-min", "0.01", "--alpha-max", "3.0", "--steps", "300",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,bound"
        assert len(lines) == 301
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
        assert abs(values[0] - 1.0) < 1e-3
        assert abs(values[-1] - 3.0) < 1e-6

    def test_curve_constant_for_minus_family(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, [
            "coherent-curve", "--family", "4", "--steps", "10", "--output", str(target),
        ])
        assert code == 0 and out == ""
        lines = target.read_text().strip().split("\n")
        assert len(lines) == 11
        assert all(float(line.split(",")[1]) == 3.0 for line in lines[1:])

    def test_curve_steps_capped(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, [
            "coherent-curve", "--family", "1", "--steps", str(MAX_CURVE_STEPS + 1),
        ])
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_curve_alpha_max_must_be_finite(self, capsys):
        code, out, err = run(capsys, ["coherent-curve", "--family", "1", "--alpha-max", "inf"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "alpha_max" in err and "Warning" not in err

    def test_large_alpha_capacity_exit(self, capsys):
        code, out, err = run(capsys, ["coherent", "--family", "1", "--alpha", "30"])
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["1e155", "1.7976931348623157e308"])
    def test_alpha_squared_overflow_is_capacity_exit(self, capsys, alpha):
        # alpha^2 is infinite: every Poisson(alpha^2) mass lies above any cutoff
        code, out, err = run(capsys, ["coherent", "--family", "1", "--alpha", alpha])
        assert code == 3 and out == ""
        assert "above 1024" in err and "Traceback" not in err
        code, out, _ = run(capsys, ["coherent-curve", "--family", "1", "--alpha-max", "1e300",
                                    "--steps", "3"])
        assert code == 0
        assert out.splitlines()[-1] == "1e+300,3"

    @pytest.mark.parametrize("family, bound", [(2, 1.0), (4, 3.0)])
    def test_alpha_squared_underflow(self, capsys, family, bound):
        # alpha^2 is 0: no mass above the smallest automatic cutoff, and the
        # bounds are those of alpha = 1e-160, where alpha^2 is still positive
        reports = []
        for alpha in ("1e-300", "5e-324", "1e-160"):
            code, out, _ = run(capsys, ["coherent", "--family", str(family), "--alpha", alpha])
            assert code == 0
            reports.append(json.loads(out))
        for report in reports:
            assert report["bound"] == bound
            assert (report["cutoff"], report["tail_bound"]) == (16, 0.0)

    def test_rejects_bad_family(self, capsys):
        code, _, _ = run(capsys, ["coherent", "--family", "7", "--alpha", "0.5"])
        assert code == 1


class TestLhvCommand:
    def test_builtin_chsh(self, capsys):
        code, out, _ = run(capsys, ["lhv", "--functional", "chsh"])
        assert code == 0
        report = json.loads(out)
        assert (report["b_sup"], report["b_inf"], report["b_lhv"]) == (2.0, -2.0, 2.0)
        assert len(report["argmax_strategy"]["site1"]) == 2
        assert len(report["argmax_strategy"]["site2"]) == 2

    def test_functional_from_file(self, capsys, tmp_path):
        path = tmp_path / "func.json"
        path.write_text(json.dumps(functional_to_json(chsh_functional())))
        _, out, _ = run(capsys, ["lhv", "--functional", str(path)])
        assert json.loads(out)["b_lhv"] == 2.0

    def test_twelve_binary_settings_enumerated(self, capsys, separable_12_file):
        path, b_sup = separable_12_file
        code, out, _ = run(capsys, ["lhv", "--functional", path])
        assert code == 0
        assert json.loads(out)["b_sup"] == b_sup


class TestViolateCommand:
    def test_seesaw_search(self, capsys, bell_file):
        code, out, _ = run(capsys, [
            "violate", "--functional", "chsh", "--input", bell_file, "--seed", "0",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["quantum_value"] == pytest.approx(2 * ROOT2, abs=1e-6)
        assert report["ratio"] == pytest.approx(ROOT2, abs=1e-6)
        assert report["certified"] is True
        assert report["value_in_band"] is True
        assert report["band"] == pytest.approx([-6.0, 6.0])
        assert report["seesaw"] is True
        assert "2.82842712475" in out

    def test_supplied_value_skips_search(self, capsys, bell_file):
        code, out, _ = run(capsys, [
            "violate", "--functional", "chsh", "--input", bell_file, "--value", "2.0",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["quantum_value"] == 2.0
        assert report["seesaw"] is False
        assert report["restarts"] == 0

    def test_fabricated_value_fails_certification(self, capsys, bell_file):
        # "-1e3" as a separate token is a value, not an option
        for value, ratio in (("10", 5.0), ("-1e3", 500.0)):
            code, out, _ = run(capsys, [
                "violate", "--functional", "chsh", "--input", bell_file, "--value", value,
            ])
            assert code == 4
            report = json.loads(out)
            assert report["certified"] is False
            assert report["quantum_value"] == float(value)
            assert report["ratio"] == pytest.approx(ratio)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_refused(self, capsys, bell_file, value):
        # joined or as a separate token, "-inf" included
        for spelling in ([f"--value={value}"], ["--value", value]):
            code, out, err = run(capsys, [
                "violate", "--functional", "chsh", "--input", bell_file, *spelling,
            ])
            assert code == 2
            assert out == ""
            assert err == f"error: claimed quantum value must be finite, got {float(value)!r}\n"

    def test_product_state_certifies_trivially(self, capsys, product_file):
        code, out, _ = run(capsys, [
            "violate", "--functional", "chsh", "--input", product_file,
            "--restarts", "3",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["quantum_value"] == pytest.approx(2.0, abs=1e-9)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_dense_1x3_product_state(self, capsys, tmp_path):
        # its one Schmidt coefficient squared rounds to 0.9999999999999991
        path = tmp_path / "product_1x3.json"
        path.write_text(json.dumps({
            "type": "dense", "d1": 1, "d2": 3,
            "re": [[0.213821062365626, 0.5415341579503739, -0.06676701947407294]],
            "im": [[0.7098092070315012, -0.3455351007829286, 0.18259205325699712]],
        }))
        code, out, err = run(capsys, [
            "violate", "--functional", "chsh", "--input", str(path), "--restarts", "2",
        ])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["bound_schmidt_settings"] == 1.0
        assert report["band"] == [-2.0, 2.0]
        assert report["value_in_band"] is True

    def test_scaled_functional_searches_without_traceback(self, capsys, tmp_path, bell_file):
        f = chsh_functional()
        path = tmp_path / "chsh_1e9.json"
        scaled = functional_to_json(f)
        scaled["phi"] = (1e9 * f.phi).tolist()
        path.write_text(json.dumps(scaled))
        code, out, err = run(capsys, [
            "violate", "--functional", str(path), "--input", bell_file, "--restarts", "3",
        ])
        assert code in (0, 4) and "Traceback" not in err
        assert json.loads(out)["ratio"] == pytest.approx(ROOT2, rel=1e-9)

    def test_twelve_binary_settings(self, capsys, bell_file, separable_12_file):
        code, out, _ = run(capsys, [
            "violate", "--functional", separable_12_file[0], "--input", bell_file,
            "--restarts", "1", "--iters", "5",
        ])
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_sweep_budget_capped(self, capsys, bell_file):
        start = time.perf_counter()
        code, out, err = run(capsys, ["violate", "--functional", "chsh", "--input", bell_file,
                                      "--restarts", "100000", "--iters", "100000"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and "cap of" in err

    def test_byte_identical_reruns(self, capsys, bell_file):
        argv = ["violate", "--functional", "chsh", "--input", bell_file, "--seed", "7"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert "error" in err

    def test_missing_required_flag(self, capsys, bell_file):
        code, _, _ = run(capsys, ["bound", "--input", bell_file, "--s1", "2"])
        assert code == 1
        # so is a flag given no value
        code, _, err = run(capsys, ["violate", "--functional", "chsh", "--input", bell_file,
                                    "--value"])
        assert code == 1
        assert "--value: expected one argument" in err

    def test_no_command(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_unnormalized_state(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "type": "dense", "d1": 2, "d2": 2,
            "re": [[1.0, 0.0], [0.0, 1.0]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }))
        code, _, err = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["schmidt", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in err

    def test_unwritable_output_is_validation_exit(self, capsys, tmp_path, bell_file):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["schmidt", "--input", bell_file, "--output", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("cutoff", ["auto", 2000])
    def test_large_alpha_state_file(self, capsys, tmp_path, cutoff):
        path = tmp_path / "coherent.json"
        path.write_text(json.dumps(
            {"type": "coherent", "family": 1, "alpha": 40, "cutoff": cutoff}))
        code, out, err = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["schmidt"], ["bound", "--s1", "2", "--s2", "2"]])
    def test_large_alpha_state_file_is_a_state(self, capsys, tmp_path, argv):
        # cutoff 840 leaves tail mass 8.9e-15, below 1e-14; 1/||v|| - 1 reads 1.8e-14
        # from the rounding of the running product alone, and no longer judges the cutoff
        path = tmp_path / "coherent.json"
        path.write_text(json.dumps({"type": "coherent", "family": 1, "alpha": 25.249637203638695}))
        code, out, err = run(capsys, [argv[0], "--input", str(path), *argv[1:]])
        assert code == 0 and err == ""
        report = json.loads(out)
        if argv[0] == "schmidt":
            assert report["d1"] == 841
            assert report["coefficients"] == pytest.approx([INV_ROOT2, INV_ROOT2], abs=1e-12)
        else:
            assert report["schmidt_sum_bound"] == pytest.approx(3.0, abs=1e-12)

    def test_huge_explicit_cutoff_refused_fast(self, capsys, tmp_path):
        # the amplitude matrix would need tens of GB; the guard must fire first
        path = tmp_path / "coherent.json"
        path.write_text(json.dumps(
            {"type": "coherent", "family": 1, "alpha": 1, "cutoff": 20000}))
        start = time.perf_counter()
        code, out, err = run(capsys, ["schmidt", "--input", str(path)])
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert "cutoff 20000" in err

    def test_cutoff_refused_before_the_tail(self, capsys, tmp_path):
        # below alpha^2 the Poisson tail sums cutoff + 1 terms: seconds at 10^7
        path = tmp_path / "coherent.json"
        path.write_text(json.dumps(
            {"type": "coherent", "family": 1, "alpha": 1e6, "cutoff": 10_000_000}))
        start = time.perf_counter()
        code, out, err = run(capsys, ["schmidt", "--input", str(path)])
        assert time.perf_counter() - start < 0.3
        assert code == 3 and out == ""
        assert err.startswith("error:") and "cutoff 10000000" in err

    @pytest.mark.parametrize("alpha", [1e-6, 1e-9, 1e-300, 5e-324])
    @pytest.mark.parametrize("family", [3, 4])
    def test_small_alpha_minus_family_is_a_state(self, capsys, tmp_path, family, alpha):
        # 1 - x^2 keeps few digits or none, but the parity basis never divides by it
        path = tmp_path / "coherent.json"
        path.write_text(json.dumps({"type": "coherent", "family": family, "alpha": alpha}))
        code, out, err = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 0 and err == ""
        assert json.loads(out)["coefficients"] == [0.707106781187, 0.707106781187]

    def test_unknown_state_type(self, capsys, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"type": "weird"}))
        code, _, err = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 2
        assert "unknown state type" in err

    @pytest.mark.parametrize("command, text", [
        ("schmidt", '{"type": "coherent", "family": 1, "alpha": 1, "cutoff": Infinity}'),
        ("schmidt", '{"type": "dense", "d1": null, "d2": 1, "re": [[1]], "im": [[0]]}'),
        ("schmidt", '{"type": "dense", "d1": 1e400, "d2": 1, "re": [[1]], "im": [[0]]}'),
        ("schmidt", '{"type": "dense", "d1": true, "d2": 1, "re": [[1]], "im": [[0]]}'),
        ("schmidt", '{"type": "dense", "d1": 1.5, "d2": 1, "re": [[1]], "im": [[0]]}'),
        ("lhv", '{"s1": 1, "s2": 1, "outcomes1": 5, "outcomes2": [1, -1],'
                ' "phi": [[[[1, 0], [0, 1]]]]}'),
    ], ids=["cutoff-infinity", "d1-null", "d1-1e400", "d1-bool", "d1-fraction", "outcomes-int"])
    def test_malformed_integer_fields(self, capsys, tmp_path, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        flag = "--functional" if command == "lhv" else "--input"
        code, out, err = run(capsys, [command, flag, str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, text", [
        ("schmidt", '{"type": "coherent", "family": 1, "alpha": true}'),
        ("schmidt", '{"type": "coherent", "family": 1, "alpha": "0.5"}'),
        ("schmidt", '{"type": "coherent", "family": 1, "alpha": null}'),
        ("schmidt", '{"type": "schmidt", "coefficients": [true]}'),
        ("schmidt", '{"type": "schmidt", "coefficients": [1, true]}'),
        ("schmidt", '{"type": "dense", "d1": 1, "d2": 1, "re": [[true]], "im": [[0]]}'),
        ("schmidt", '{"type": "dense", "d1": 1, "d2": 1, "re": [[1]], "im": [[{}]]}'),
        ("lhv", '{"s1": 1, "s2": 1, "outcomes1": [true, false], "outcomes2": [1, -1],'
                ' "phi": [[[[1, 0], [0, 1]]]]}'),
    ], ids=["alpha-true", "alpha-string", "alpha-null", "coefficients-true",
            "coefficients-mixed", "re-true", "im-object", "outcomes-bools"])
    def test_non_number_leaves_refused(self, capsys, tmp_path, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        flag = "--functional" if command == "lhv" else "--input"
        code, out, err = run(capsys, [command, flag, str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must hold real numbers" in err

    @pytest.mark.parametrize("command", ["schmidt", "lhv"])
    def test_deeply_nested_file_refused(self, capsys, tmp_path, command):
        nested = "[" * 100_000 + "]" * 100_000
        if command == "lhv":
            flag, text = "--functional", (
                '{"s1": 1, "s2": 1, "outcomes1": [1, -1], "outcomes2": [1, -1], '
                f'"phi": {nested}}}')
        else:
            flag, text = "--input", f'{{"type": "dense", "d1": 1, "d2": 1, "re": {nested}}}'
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, [command, flag, str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nested too deeply" in err

    def test_integral_float_fields_parse(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text('{"type": "dense", "d1": 1.0, "d2": 1, "re": [[1]], "im": [[0]]}')
        code, out, _ = run(capsys, ["schmidt", "--input", str(path)])
        assert code == 0 and json.loads(out)["d1"] == 1
