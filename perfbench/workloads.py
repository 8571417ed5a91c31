"""The closed-loop workloads: seeded inputs, warm-up, jobs and checks.

Each workload pre-generates a deck of job cycles from the seed before any
timing.  A cycle holds one job of every size class, so a run made of whole
cycles always has the same size mix and its medians do not depend on where
the clock stopped.  ``execute`` is the timed part of a job; it wraps every
call into a bellbound layer in a span.  ``check`` compares the outputs with
the oracles in ``oracles.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bellbound as bb
import oracles

ROOT = Path(__file__).resolve().parents[1]

BINARY = (1.0, -1.0)


@dataclass
class Outcome:
    ok: bool
    note: str = ""


def _fail(note: str) -> Outcome:
    return Outcome(False, note=note)


def random_amplitudes(rng, d1: int, d2: int, rank: int | None = None) -> np.ndarray:
    """Normalized complex Gaussian amplitude matrix of the given Schmidt rank."""
    r = min(d1, d2) if rank is None else rank
    left = rng.standard_normal((d1, r)) + 1j * rng.standard_normal((d1, r))
    right = rng.standard_normal((r, d2)) + 1j * rng.standard_normal((r, d2))
    m = left @ right
    return m / np.linalg.norm(m)


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_povm(rng, d: int, m: int) -> tuple[np.ndarray, ...]:
    """Random full-rank POVM: Wishart blocks normalized to sum to identity."""
    blocks = []
    for _ in range(m):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(blocks))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    out = []
    for b in blocks:
        e = inv_sqrt @ b @ inv_sqrt
        out.append((e + e.conj().T) / 2.0)
    return tuple(out)


def schmidt_oracle(amp: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(amp, compute_uv=False)
    return sv[sv > 1e-12]


def warm_lapack(svd=(), eigh=(), eigvalsh=()) -> None:
    """Run each LAPACK driver once at each size so first-call costs stay out of jobs."""
    rng = np.random.default_rng(12345)
    for sizes, fn in ((svd, np.linalg.svd), (eigh, np.linalg.eigh), (eigvalsh, np.linalg.eigvalsh)):
        for n in sorted(set(sizes)):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            fn(g + g.conj().T)


class Workload:
    name = ""
    #: Percentile reported as job_tail_ms, fixed per workload so that a faster
    #: program, which fits more jobs in a run, is compared at the same point.
    tail_percentile = 50.0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        self.smoke = smoke
        self.workdir = workdir
        self.prepare()
        self.deck = [self.make_cycle(k) for k in range(1 if smoke else self.deck_cycles)]

    def prepare(self) -> None:
        """Inputs shared by every cycle, drawn before the deck."""

    def cycle(self, k: int) -> list:
        return self.deck[k % len(self.deck)]

    def detail(self, jobs: list) -> dict:
        return {}

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that runs the jobs."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_extras(self, tracer, cycles: int) -> dict:
        """Extra per-layer figures a traced run gathers after its jobs."""
        return {}


class SourceOpLadder(Workload):
    """schmidt_decompose -> build -> trace_norm -> verify_dilation(20 samples)."""

    name = "sourceop-ladder"
    deck_cycles = 2
    tail_percentile = 50.0  # 20 jobs a cycle, one or two cycles a run
    RUNGS = ((2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (4, 3), (4, 4), (6, 3), (8, 2))
    SMOKE_RUNGS = ((2, 2), (3, 2))

    @classmethod
    def warm_up(cls, smoke: bool) -> None:
        rungs = cls.SMOKE_RUNGS if smoke else cls.RUNGS
        ds = [d for d, _ in rungs]
        warm_lapack(svd=ds, eigvalsh=ds + [d ** (s + 1) for d, s in rungs])

    def make_cycle(self, k: int) -> list:
        jobs = []
        for i, (d, s) in enumerate(self.SMOKE_RUNGS if self.smoke else self.RUNGS):
            for b, builder in enumerate(("1xs", "sx1")):
                rank = d if (i + b + k) % 2 == 0 else 2
                amp = random_amplitudes(self.rng, d, d, rank)
                jobs.append({"d": d, "s": s, "builder": builder, "rank": rank,
                             "amp": amp, "state": bb.PureState(amp)})
        return jobs

    def execute(self, job, tracer):
        s = job["s"]
        with tracer.span("qstate.schmidt_decompose"):
            sd = bb.schmidt_decompose(job["state"])
        with tracer.span("source_op.build"):
            if job["builder"] == "1xs":
                op = bb.build_source_1xs(sd, s)
            else:
                op = bb.build_source_sx1(sd, s)
        with tracer.span("source_op.trace_norm"):
            norm = bb.trace_norm(op.matrix)
        with tracer.span("source_op.verify_dilation"):
            residual = bb.verify_dilation(op, job["state"], n_samples=20)
        tracer.peak("source_op.dim_max", op.matrix.shape[0])
        tracer.count("source_op.verify_dilation.checks", 20 * op.s1 * op.s2)
        return norm, residual

    def check(self, job, out) -> Outcome:
        norm, residual = out
        coeffs = schmidt_oracle(job["amp"])
        if len(coeffs) != job["rank"]:
            return _fail(f"state rank {len(coeffs)} != {job['rank']}")
        if not oracles.source_norm_in_window(norm, coeffs):
            return _fail(f"trace norm {norm!r} outside [1, 2(sum sqrt lambda)^2 - 1]")
        if not residual <= 1e-9:
            return _fail(f"dilation residual {residual!r} > 1e-9")
        return Outcome(True)

    def detail(self, jobs):
        """Rank mix; every d = 2 state is rank 2, so it counts as rank 2 only."""
        full = sum(1 for j in jobs if j["rank"] == j["d"] > 2)
        return {"full_rank_share": full / len(jobs), "rank2_share": 1.0 - full / len(jobs)}


class BornCertify(Workload):
    """Assemblage -> lhv_extrema -> bell_value -> certify -> schmidt_decompose."""

    name = "born-certify"
    deck_cycles = 24
    tail_percentile = 95.0  # 24 jobs a cycle, about 20 cycles a run
    DIMS = (2, 8, 32, 96)
    # (outcomes, settings per site): the largest sizes today's guard accepts
    CLASSES = ((2, 11), (2, 8), (3, 7), (3, 5), (4, 5), (4, 4))
    SMOKE_DIMS = (2, 8)
    SMOKE_CLASSES = ((2, 3), (3, 2))
    POOL = 16

    @classmethod
    def warm_up(cls, smoke: bool) -> None:
        dims = cls.SMOKE_DIMS if smoke else cls.DIMS
        warm_lapack(svd=dims, eigh=dims, eigvalsh=dims)

    def prepare(self) -> None:
        self.dims, self.classes = ((self.SMOKE_DIMS, self.SMOKE_CLASSES) if self.smoke
                                   else (self.DIMS, self.CLASSES))
        self.pool = {(d, m): [random_povm(self.rng, d, m) for _ in range(self.POOL)]
                     for d in self.dims for m in sorted({m for m, _ in self.classes})}

    def make_cycle(self, k: int) -> list:
        dims, classes = self.dims, self.classes
        jobs = []
        for m, s in classes:
            labels = tuple(float(v) for v in np.linspace(1.0, -1.0, m))
            for d in dims:
                pool = self.pool[(d, m)]
                pick = self.rng.integers(len(pool), size=2 * s)
                amp = random_amplitudes(self.rng, d, d)
                f = bb.BellFunctional(bb.OutcomeSet(labels), bb.OutcomeSet(labels),
                                      self.rng.standard_normal((s, s, m, m)))
                jobs.append({"f": f, "amp": amp, "state": bb.PureState(amp),
                             "site1": tuple(pool[i] for i in pick[:s]),
                             "site2": tuple(pool[i] for i in pick[s:])})
        return jobs

    def execute(self, job, tracer):
        f = job["f"]
        with tracer.span("bell.Assemblage"):
            asm = bb.Assemblage(job["site1"], job["site2"])
        with tracer.span("bell.lhv_extrema"):
            ext = bb.lhv_extrema(f)
        tracer.count("bell.lhv_extrema.strategies",
                     min(f.outcomes1.size ** f.s1, f.outcomes2.size ** f.s2))
        with tracer.span("bell.bell_value"):
            value = bb.bell_value(f, job["state"], asm)
        with tracer.span("bell.certify"):
            rep = bb.certify(f, job["state"], value)
        with tracer.span("qstate.schmidt_decompose"):
            sd = bb.schmidt_decompose(job["state"])
        return ext, value, rep, sd

    def check(self, job, out) -> Outcome:
        ext, value, rep, sd = out
        if not (rep.certified and rep.value_in_band):
            return _fail(f"certified={rep.certified} value_in_band={rep.value_in_band}")
        if rep.b_lhv != ext.b_lhv:
            return _fail("certify and lhv_extrema disagree on b_lhv")
        # Born value by another contraction: p[s,t,a,b] = sum_jl (A^H E A)_jl F_jl
        a = job["amp"]
        e = np.array(job["site1"])
        g = np.einsum("ij,saik,kl->sajl", a.conj(), e, a, optimize=True)
        p = np.einsum("sajl,tbjl->stab", g, np.array(job["site2"]), optimize=True).real
        want = float(np.sum(job["f"].phi * p))
        if abs(value - want) > 1e-9 * max(1.0, float(np.abs(job["f"].phi).sum())):
            return _fail(f"Born value {value!r} != oracle {want!r}")
        coeffs = schmidt_oracle(a)
        if sd.rank != len(coeffs) or np.max(np.abs(sd.coefficients - coeffs)) > 1e-10:
            return _fail("Schmidt coefficients differ from the singular values")
        return Outcome(True)


CLI_COMMANDS = ("schmidt", "bound", "source-op", "coherent", "coherent-curve", "lhv", "violate")


class CliOneshot(Workload):
    """``python -m bellbound <command>`` subprocesses, one per command per cycle."""

    name = "cli-oneshot"
    deck_cycles = 16
    tail_percentile = 90.0  # 7 jobs a cycle, about 20 cycles a run

    @classmethod
    def warm_up(cls, smoke: bool) -> None:
        import bellbound.cli  # noqa: F401  the jobs' own import, paid again in each child

        warm_lapack(svd=(2, 3), eigh=(2,), eigvalsh=(2, 3))

    def prepare(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.out_path = self.workdir / "stdout"
        self.err_path = self.workdir / "stderr"
        self.child_maxrss_kb = 0

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def make_cycle(self, k: int) -> list:
        rng = self.rng
        fam, alpha = int(rng.integers(1, 5)), float(rng.uniform(0.3, 3.0))
        coh = {"type": "coherent", "family": fam, "alpha": alpha}
        r = int(rng.integers(2, 5))
        coeffs = rng.uniform(0.1, 1.0, r)
        coeffs = np.sort(coeffs / np.linalg.norm(coeffs))[::-1]
        sch = {"type": "schmidt", "coefficients": coeffs.tolist()}
        bs1, bs2 = (int(v) for v in rng.integers(2, 5, size=2))
        dense_amp = random_amplitudes(rng, 2, 2)
        dense = {"type": "dense", "d1": 2, "d2": 2,
                 "re": dense_amp.real.tolist(), "im": dense_amp.imag.tolist()}
        copies = int(rng.integers(2, 4))
        fam2, alpha2 = int(rng.integers(1, 5)), float(rng.uniform(0.3, 3.0))
        fam3 = int(rng.integers(1, 5))
        fs1, fs2 = (int(v) for v in rng.integers(2, 4, size=2))
        phi = rng.standard_normal((fs1, fs2, 2, 2))
        fun = {"s1": fs1, "s2": fs2, "outcomes1": list(BINARY), "outcomes2": list(BINARY),
               "phi": phi.tolist()}
        bell = random_unitary(rng, 2) @ np.eye(2) @ random_unitary(rng, 2).T / np.sqrt(2.0)
        bell_json = {"type": "dense", "d1": 2, "d2": 2,
                     "re": bell.real.tolist(), "im": bell.imag.tolist()}
        paths = {key: self._write(f"{key}_{k}.json", obj) for key, obj in
                 (("coherent", coh), ("schmidt", sch), ("dense", dense),
                  ("functional", fun), ("bell", bell_json))}
        return [
            {"cmd": "schmidt", "argv": ["schmidt", "--input", paths["coherent"]],
             "family": fam, "alpha": alpha, "state": coh},
            {"cmd": "bound", "argv": ["bound", "--input", paths["schmidt"],
                                      "--s1", str(bs1), "--s2", str(bs2)],
             "coeffs": coeffs, "s1": bs1, "s2": bs2, "state": sch},
            {"cmd": "source-op", "argv": ["source-op", "--input", paths["dense"],
                                          "--s2", str(copies), "--check"],
             "amp": dense_amp, "state": dense},
            {"cmd": "coherent", "argv": ["coherent", "--family", str(fam2),
                                         "--alpha", repr(alpha2)],
             "family": fam2, "alpha": alpha2},
            {"cmd": "coherent-curve", "argv": ["coherent-curve", "--family", str(fam3),
                                               "--alpha-min", "0.05", "--alpha-max", "3",
                                               "--steps", "60"],
             "family": fam3},
            {"cmd": "lhv", "argv": ["lhv", "--functional", paths["functional"]],
             "extrema": oracles.brute_force_extrema(phi)},
            {"cmd": "violate", "argv": ["violate", "--functional", "chsh",
                                        "--input", paths["bell"]],
             "state": bell_json},
        ]

    def execute(self, job, tracer):
        with tracer.span(f"cli.{job['cmd']}"), open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "bellbound", *job["argv"]],
                                    stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        return (proc.returncode, self.out_path.read_text(encoding="utf-8"),
                self.err_path.read_text(encoding="utf-8"))

    def peak_rss_kb(self) -> int:
        """Each job runs in its own child, so this is the largest child's peak."""
        return self.child_maxrss_kb

    def check(self, job, out) -> Outcome:
        code, stdout, stderr = out
        if code != 0:
            return _fail(f"{job['cmd']} exited {code}: {stderr.strip()[-200:]}")
        return check_cli_report(job, stdout)

    def trace_extras(self, tracer, cycles: int) -> dict:
        """In-process cli.main and serialize calls, plus interpreter start-up probes."""
        from bellbound import cli, serialize

        for k in range(cycles):
            for job in self.cycle(k):
                buf = io.StringIO()
                with tracer.span(f"cli.{job['cmd']}.inproc"), contextlib.redirect_stdout(buf):
                    code = cli.main(job["argv"])
                if code != 0 or not check_cli_report(job, buf.getvalue()).ok:
                    raise RuntimeError(f"in-process {job['cmd']} failed")
                if "state" in job:
                    with tracer.span("serialize.state_from_json"):
                        serialize.state_from_json(job["state"])
                if job["cmd"] != "coherent-curve":
                    report = json.loads(buf.getvalue())
                    with tracer.span("serialize.render_json"):
                        serialize.render_json(report)
        # Each probe includes the ones before it; they run round-robin so a
        # slow spell of the machine hits all three alike.
        probes = {"python_startup_ms": "pass", "numpy_import_ms": "import numpy",
                  "bellbound_import_ms": "import bellbound.cli"}
        for _ in range(1 if self.smoke else 5):
            for key, code in probes.items():
                with tracer.span(f"cli.probe.{key}"):
                    subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                                   cwd=self.workdir)
        out = {f"cli.{key}": statistics.median(tracer.durations(f"cli.probe.{key}")) * 1e3
               for key in probes}
        return out


def check_cli_report(job, stdout: str) -> Outcome:
    """Exit-0 output of one CLI command against its oracle."""
    cmd = job["cmd"]
    if cmd == "coherent-curve":
        lines = stdout.strip().splitlines()
        if lines[0] != "alpha,bound" or len(lines) != 61:
            return _fail("coherent-curve CSV has the wrong shape")
        for line in lines[1:]:
            alpha, bound = (float(v) for v in line.split(","))
            if abs(bound - oracles.coherent_bound(job["family"], alpha)) > 1e-9:
                return _fail(f"curve point {line} off the closed form")
        return Outcome(True)
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return _fail(f"{cmd} printed invalid JSON: {exc}")
    if cmd == "schmidt":
        want = oracles.coherent_schmidt(job["family"], job["alpha"])
        got = rep["coefficients"][:2]
        if rep["rank"] < 2 or max(abs(g - w) for g, w in zip(got, want)) > 1e-6:
            return _fail(f"schmidt coefficients {got} != closed form {want}")
    elif cmd == "bound":
        s1, s2, r = job["s1"], job["s2"], len(job["coeffs"])
        want = oracles.schmidt_settings_bound(job["coeffs"], s1, s2)
        if abs(rep["schmidt_settings_bound"] - want) > oracles.TOL:
            return _fail(f"schmidt_settings_bound {rep['schmidt_settings_bound']} != {want}")
        if rep["dimension_settings_bound"] != 2 * min(r, s1, s2) - 1:
            return _fail("dimension_settings_bound differs from 2 min{d1,d2,s1,s2} - 1")
    elif cmd == "source-op":
        coeffs = schmidt_oracle(job["amp"])
        if not oracles.source_norm_in_window(rep["trace_norm"], coeffs):
            return _fail(f"trace norm {rep['trace_norm']} outside its window")
        if not rep["dilation_residual"] <= 1e-9:
            return _fail(f"dilation residual {rep['dilation_residual']} > 1e-9")
    elif cmd == "coherent":
        want = oracles.coherent_bound(job["family"], job["alpha"])
        if abs(rep["bound"] - want) > oracles.TOL:
            return _fail(f"coherent bound {rep['bound']} != closed form {want}")
        if job["family"] == 3 and rep["bound"] != 3:
            return _fail("family-3 bound is not 3")
    elif cmd == "lhv":
        sup, inf = job["extrema"]
        if abs(rep["b_sup"] - sup) > oracles.TOL or abs(rep["b_inf"] - inf) > oracles.TOL:
            return _fail(f"lhv extrema ({rep['b_sup']}, {rep['b_inf']}) != ({sup}, {inf})")
    elif cmd == "violate":
        if rep["b_lhv"] != 2 or not rep["certified"] or not rep["value_in_band"]:
            return _fail(f"violate report off: b_lhv={rep['b_lhv']} certified={rep['certified']}")
        if abs(rep["quantum_value"] - 2.0 * np.sqrt(2.0)) > 1e-6:
            return _fail(f"Bell-state CHSH value {rep['quantum_value']} != 2 sqrt 2")
    return Outcome(True)


WORKLOADS = {cls.name: cls for cls in (SourceOpLadder, BornCertify, CliOneshot)}
