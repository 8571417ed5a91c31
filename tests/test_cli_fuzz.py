"""Random valid and mangled input files through the CLI: exit codes 0-4, no exception."""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellbound import ValidationError, source_operator_from_json
from bellbound.cli import main

#: What a mangled field is replaced with: wrong types, null, non-finite and
#: out-of-range numbers, nested lists and objects.
JUNK = [None, True, False, "", "x", "auto", math.nan, math.inf, -math.inf, 2.5, -1, 0, 3,
        10**30, [], [[]], [1, [2]], {}, {"k": 1}]

_reals = st.floats(-2.0, 2.0, allow_nan=False)


def _normalized(values):
    a = np.array(values)
    norm = float(np.linalg.norm(a))
    return (a / norm if norm > 0.0 else a).tolist()


@st.composite
def dense_states(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = _normalized(draw(st.lists(_reals, min_size=2 * d1 * d2, max_size=2 * d1 * d2)))
    re, im = np.reshape(parts, (2, d1, d2)).tolist()
    return {"type": "dense", "d1": d1, "d2": d2, "re": re, "im": im}


@st.composite
def states(draw):
    kind = draw(st.sampled_from(["dense", "schmidt", "coherent"]))
    if kind == "dense":
        return draw(dense_states())
    if kind == "schmidt":
        coeffs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        return {"type": "schmidt", "coefficients": _normalized(coeffs)}
    state = {"type": "coherent", "family": draw(st.integers(1, 4)),
             "alpha": draw(st.floats(0.2, 1.5))}
    cutoff = draw(st.sampled_from([None, "auto", 16, 24]))
    if cutoff is not None:
        state["cutoff"] = cutoff
    return state


@st.composite
def functionals(draw):
    s1, s2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    out1, out2 = (draw(st.sampled_from([[1, -1], [0, 1], [1, 0, -1]])) for _ in range(2))
    size = s1 * s2 * len(out1) * len(out2)
    phi = np.reshape(draw(st.lists(_reals, min_size=size, max_size=size)),
                     (s1, s2, len(out1), len(out2)))
    return {"s1": s1, "s2": s2, "outcomes1": out1, "outcomes2": out2, "phi": phi.tolist()}


def _paths(node, path=()):
    """Every object key and the first entry of every list, recursively."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list) and node:
        yield from _paths(node[0], path + (0,))


@st.composite
def mangled(draw, docs):
    doc = draw(docs)
    action = draw(st.sampled_from(["keep", "replace", "delete"]))
    if action == "keep":
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
    if not path:
        return junk
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(state=mangled(states()), functional=mangled(functionals()))
def test_cli_survives_random_files(state, functional):
    with tempfile.TemporaryDirectory() as tmp:
        state_path, functional_path = Path(tmp, "state.json"), Path(tmp, "functional.json")
        state_path.write_text(json.dumps(state))  # NaN and inf as NaN and Infinity
        functional_path.write_text(json.dumps(functional))
        s, f = str(state_path), str(functional_path)
        # a coherent state is truncated to a Fock cutoff of 16 or more: one copy
        copies = "1" if isinstance(state, dict) and state.get("type") == "coherent" else "2"
        for argv in (
            ["schmidt", "--input", s],
            ["bound", "--input", s, "--s1", "2", "--s2", "2"],
            ["source-op", "--input", s, "--s2", copies, "--check"],
            ["lhv", "--functional", f],
            ["violate", "--functional", f, "--input", s, "--restarts", "1", "--iters", "5"],
        ):
            code, out, err = _run(argv)
            assert code in (0, 1, 2, 3, 4), argv
            if code in (0, 4):
                json.loads(out)
            else:
                assert err.startswith("error:"), (argv, err)


#: Copy counts and dimensions far beyond any operator a file could hold.
HUGE_SIZES = [10**6, 10**9, 2**63, 10**30, 10**400]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(state=dense_states(), key=st.sampled_from(["s1", "s2", "d1", "d2"]),
       size=st.sampled_from(HUGE_SIZES))
def test_source_op_export_with_huge_sizes_refused_at_once(state, key, size):
    # no command reads an export back: the library reader must refuse it, and
    # every command that reads a file must end in exit 2, both at once
    with tempfile.TemporaryDirectory() as tmp:
        state_path, op_path = str(Path(tmp, "state.json")), Path(tmp, "op.json")
        Path(state_path).write_text(json.dumps(state))
        code, _, _ = _run(["source-op", "--input", state_path, "--s2", "1",
                           "--export", str(op_path)])
        assume(code == 0)  # a zero amplitude vector is no state
        export = json.loads(op_path.read_text())
        assume(key[0] == "d" or export["d" + key[1]] > 1)  # 1^s is 1 for any s
        export[key] = size
        op_path.write_text(json.dumps(export))
        op = str(op_path)
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            source_operator_from_json(json.loads(op_path.read_text()))
        for argv in (
            ["schmidt", "--input", op],
            ["bound", "--input", op, "--s1", "2", "--s2", "2"],
            ["source-op", "--input", op, "--s2", "1"],
            ["lhv", "--functional", op],
            ["violate", "--functional", op, "--input", state_path],
        ):
            code, _, err = _run(argv)
            assert code == 2 and err.startswith("error:"), (argv, err)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("s1, s2, code", [(14, 14, 0), (14, 16, 0), (15, 15, 3), (16, 16, 3)])
def test_lhv_on_both_sides_of_the_enumeration_guard(s1, s2, code, tmp_path):
    # binary 14 x 14 enumerates 2^14 strategies (6.4M table entries, under
    # the 1e7 guard); 15 x 15 and 16 x 16 are refused before enumerating
    phi = np.random.default_rng(s1 * s2).standard_normal((s1, s2, 2, 2))
    path = tmp_path / "functional.json"
    path.write_text(json.dumps({"s1": s1, "s2": s2, "outcomes1": [1, -1],
                                "outcomes2": [1, -1], "phi": phi.tolist()}))
    start = time.perf_counter()
    got, out, err = _run(["lhv", "--functional", str(path)])
    assert got == code
    if code == 0:
        report = json.loads(out)
        assert report["b_inf"] <= report["b_sup"]
        assert len(report["argmax_strategy"]["site1"]) == s1
        assert len(report["argmax_strategy"]["site2"]) == s2
    else:
        assert err.startswith("error:") and "enumeration guard" in err
        assert time.perf_counter() - start < 1.0


#: Every positive float, log-uniformly: 5e-324 up to the largest double.
POSITIVE_FLOATS = st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(family=st.integers(1, 4), alphas=st.lists(POSITIVE_FLOATS, min_size=2, max_size=2))
@example(family=1, alphas=[5e-324, sys.float_info.max])
@example(family=3, alphas=[1e-300, 1e155])
def test_coherent_commands_take_any_positive_alpha(family, alphas):
    low, high = sorted(alphas)
    for argv in (
        ["coherent", "--family", str(family), "--alpha", repr(low)],
        ["coherent", "--family", str(family), "--alpha", repr(high)],
        ["coherent-curve", "--family", str(family), "--alpha-min", repr(low),
         "--alpha-max", repr(high), "--steps", "3"],
    ):
        code, out, err = _run(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code == 0 and argv[0] == "coherent":
            assert 1.0 <= json.loads(out)["bound"] <= 3.0
