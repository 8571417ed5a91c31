"""Acceptance gate: end-to-end checks with pinned tolerances and budgets.

Each test prints one ``criterion N (...): PASS/FAIL`` line (visible under
``pytest -s``) and enforces a wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from bellbound import (
    CoherentFamily,
    PureState,
    bell_limit_fidelity,
    build_source_1xs,
    certify,
    chsh_functional,
    coherent_violation_bound,
    fock_state,
    fock_truncation,
    lhv_extrema,
    reduced_eigenvalues,
    schmidt_decompose,
    schmidt_settings_bound,
    schmidt_sum_squared,
    seesaw_maximize,
    trace_norm,
    verify_dilation,
)
from bellbound.cli import main
from helpers import chsh_max_two_qubit, random_functional, random_pure_state

ROOT2 = math.sqrt(2)


def _run(number, label, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_single_copy_reproduces_state():
    def body():
        rng = np.random.default_rng(101)
        for _ in range(50):
            d1 = int(rng.integers(2, 5))
            d2 = int(rng.integers(2, 5))
            st = random_pure_state(rng, d1, d2)
            op = build_source_1xs(schmidt_decompose(st), 1)
            psi = st.vector()
            rho = np.outer(psi, psi.conj())
            assert np.max(np.abs(op.matrix - rho)) <= 1e-10

    _run(1, "single-copy source operator equals the state projector", 5.0, body)


def test_criterion_2_dilation_property():
    def body():
        rng = np.random.default_rng(102)
        for i in range(20):
            d1 = int(rng.integers(2, 4))
            d2 = int(rng.integers(2, 4))
            s2 = 2 + (i % 2)
            st = random_pure_state(rng, d1, d2)
            op = build_source_1xs(schmidt_decompose(st), s2)
            residual = verify_dilation(op, st, n_samples=20, seed=i)
            assert residual <= 1e-9

    _run(2, "source operators dilate every embedded observable pair", 30.0, body)


def test_criterion_3_trace_norm_bounds():
    def body():
        rng = np.random.default_rng(103)
        for _ in range(100):
            d1 = int(rng.integers(2, 5))
            d2 = int(rng.integers(2, 5))
            s2 = int(rng.integers(1, 4))
            st = random_pure_state(rng, d1, d2)
            sd = schmidt_decompose(st)
            norm = trace_norm(build_source_1xs(sd, s2).matrix)
            cap = 2.0 * schmidt_sum_squared(sd) - 1.0
            assert norm <= cap + 1e-9
            assert cap <= 2.0 * sd.rank - 1.0 + 1e-12

    _run(3, "trace norms stay within the Schmidt-sum budget", 60.0, body)


def test_criterion_4_coherent_closed_forms():
    def body():
        for family in (1, 2, 3, 4):
            for alpha in (0.1, 0.5, 1.0, 2.0):
                fam = CoherentFamily(family, alpha)
                trunc = fock_truncation(alpha, tail_tol=1e-14)
                sd = schmidt_decompose(fock_state(fam, trunc))
                assert sd.rank == 2
                lam = reduced_eigenvalues(fam)
                assert np.max(np.abs(sd.coefficients**2 - np.array(lam))) <= 1e-9
                closed = coherent_violation_bound(fam)
                generic = 2.0 * schmidt_sum_squared(sd) - 1.0
                assert abs(closed - generic) <= 1e-8

    _run(4, "coherent families match their closed forms", 5.0, body)


def test_criterion_5_cli_bound_curve(capsys):
    def body():
        code = main([
            "coherent-curve", "--family", "1",
            "--alpha-min", "0.01", "--alpha-max", "3.0", "--steps", "300",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,bound"
        assert len(lines) == 301
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))
        assert abs(values[0] - 1.0) <= 1e-3
        assert abs(values[-1] - 3.0) <= 1e-6
        for family in ("3", "4"):
            code = main(["coherent-curve", "--family", family, "--steps", "50"])
            out = capsys.readouterr().out
            assert code == 0
            assert all(
                float(line.split(",")[1]) == 3.0
                for line in out.strip().split("\n")[1:]
            )

    _run(5, "CLI violation-bound curve is monotone from 1 to 3", 1.0, body)


def test_criterion_6_chsh_pipeline():
    def body():
        f = chsh_functional()
        ext = lhv_extrema(f)
        assert (ext.b_sup, ext.b_inf, ext.b_lhv) == (2.0, -2.0, 2.0)
        state = PureState(np.array([[1, 0], [0, 1]]) / ROOT2)
        value, _ = seesaw_maximize(f, state, restarts=10, seed=0)
        assert abs(value - 2 * ROOT2) <= 1e-6
        rep = certify(f, state, value)
        assert abs(rep.ratio - ROOT2) <= 1e-6
        assert rep.bound_schmidt_settings == pytest.approx(3.0)
        assert rep.certified

    _run(6, "CHSH pipeline: exact extrema, Tsirelson value, certified ratio", 10.0, body)


def test_criterion_7_random_ensemble_certifies():
    def body():
        rng = np.random.default_rng(107)
        done = 0
        while done < 100:
            d1 = int(rng.integers(2, 4))
            d2 = int(rng.integers(2, 4))
            s1 = int(rng.integers(1, 4))
            s2 = int(rng.integers(1, 4))
            st = random_pure_state(rng, d1, d2)
            f = random_functional(rng, s1, s2)
            if lhv_extrema(f).b_lhv < 1e-9:
                continue
            value, _ = seesaw_maximize(f, st, restarts=3, max_iters=80, seed=done)
            rep = certify(f, st, value)
            sd = schmidt_decompose(st)
            assert rep.ratio <= schmidt_settings_bound(sd, s1, s2) + 1e-6
            assert rep.certified
            assert rep.value_in_band
            done += 1

    _run(7, "random see-saw values never exceed the certified bounds", 300.0, body)


def test_criterion_8_partially_entangled_chsh():
    def body():
        f = chsh_functional()
        for theta in (math.pi / 12, math.pi / 8, math.pi / 6):
            st = PureState(np.diag([math.cos(theta), math.sin(theta)]).astype(complex))
            value, _ = seesaw_maximize(f, st, restarts=10, seed=3)
            expected = 2.0 * math.sqrt(1.0 + math.sin(2 * theta) ** 2)
            assert abs(value - expected) <= 1e-6
            assert abs(value - chsh_max_two_qubit(st)) <= 1e-6

    _run(8, "tilted states reach the known CHSH maximum", 10.0, body)


def test_criterion_9_bell_limit_fidelity():
    def body():
        trunc = fock_truncation(0.1)
        assert bell_limit_fidelity(3, trunc) >= 0.999
        fids = [bell_limit_fidelity(3, fock_truncation(a)) for a in (0.5, 0.3, 0.1)]
        assert fids[0] < fids[1] < fids[2]

    _run(9, "small-amplitude families approach the single-photon Bell state", 2.0, body)
