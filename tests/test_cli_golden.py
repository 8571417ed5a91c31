"""CLI reports stay byte-stable: stdout is compared with committed captures.

The files ``golden/<case>.out`` hold the stdout of each command below; the
state files they read are beside them.  A change to any report is a
deliberate change to these files.
"""

from pathlib import Path

import pytest

from bellbound.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "violate_phi_plus": ["violate", "--functional", "chsh", "--input", "phi_plus.json"],
    "violate_dense_2x2": ["violate", "--functional", "chsh", "--input", "dense_2x2.json"],
    "violate_3x2_dense_3x3": [
        "violate", "--functional", "functional_3x2.json", "--input", "dense_3x3.json"
    ],
    "lhv_chsh": ["lhv", "--functional", "chsh"],
    "bound_schmidt_3": ["bound", "--input", "schmidt_3.json", "--s1", "3", "--s2", "2"],
    "coherent_1_0.5": ["coherent", "--family", "1", "--alpha", "0.5"],
    "source_op_phi_plus_2": ["source-op", "--input", "phi_plus.json", "--s2", "2"],
    # N = 729: the operator spans more than one row block of its build
    "source_op_dense_3x3_5": ["source-op", "--input", "dense_3x3.json", "--s2", "5"],
    # the sx1 builder, N = 243
    "source_op_dense_3x3_s1_4": ["source-op", "--input", "dense_3x3.json", "--s1", "4"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_capture(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CASES[case]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_file_holds_the_capture(case, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(GOLDEN)
    target = tmp_path / "report.out"
    assert main(CASES[case] + ["--output", str(target)]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("", "")
    want = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert target.read_text(encoding="utf-8") == want
