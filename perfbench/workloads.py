"""The three benchmark workloads: desk, sweep and study.

Each workload builds its inputs from the workload seed in ``setup``,
hands the runner one zero-argument program call per op from
``prepare``, and checks that call's outputs in ``check``. Only the
program call is timed; checks run outside the timed region. ``check``
raises ``CheckFailed`` (or a parse error) when an output is wrong and
otherwise returns the op's work units and its accuracy entries, keyed
so that repeated ops on the same input count once in ``aca_mean``.

The program is reached only through names looked up at call time
(``semishot.fit_sstextu``, ``semishot.cli.main``), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

import semishot
import semishot.cli

HERE = Path(__file__).resolve().parent

# Acceptance-14 desk shape: labeled points, unlabeled points, classes, dim.
DESK_SHAPE = (1000, 2400, 100, 512)
# Relative tolerance between a desk objective trace and its reference.
# Reordered float64 sums move traces by ~1e-14; anything past this is a
# change in what the fit computes.
DESK_TRACE_RTOL = 1e-6

SOLVERS = "zeroshot,simpleshot,sstext,sstextu"
SHOTS_GRID = "1,2,4,8,16"
SWEEP_DATASETS = 24
SWEEP_SEEDS = 5  # seeds 0..4 per invocation: 4 solvers x 5 shots x 5 = 100 cells
CSV_HEADER = ["solver", "dataset", "K", "M", "seed", "aca", "acc", "runtime_ms", "error"]

# Acceptance-13 noise levels; STUDY_REPEATS chains (datasets) per level.
STUDY_NOISE = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65)
STUDY_REPEATS = 3
STUDY_SHOTS = 4


# Each workload's op_tail_ms percentile (``tail_percentile``): the
# highest of p99, p95, p90, p75 and p50 that leaves at least 15 samples
# above it at the baseline op count of one run, so that a machine a
# third slower still leaves the minimum of 10. It is fixed rather than
# chosen per run so that the metric keeps one definition when a change
# alters the op count. On study, with ~30 chains per run, that is p50,
# so there op_tail_ms equals op_p50_ms.


class CheckFailed(Exception):
    """An op's output is wrong."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def desk_inputs(seed: int):
    """Random unit rows at the desk shape with every class labeled.

    The draw order matches the acceptance suite's helpers, so seed 140
    reproduces acceptance test 14's input.
    """
    n, m, c, d = DESK_SHAPE
    rng = np.random.default_rng(seed)
    idx = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    rng.shuffle(idx)
    support = semishot.SupportSet.from_indices(_unit_rows(rng, n, d), idx, c)
    unlabeled = semishot.UnlabeledSet.from_embeddings(_unit_rows(rng, m, d))
    return support, unlabeled, _unit_rows(rng, c, d)


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _remove(*paths: Path) -> None:
    """Delete an op's outputs first, so a stale file cannot pass its check."""
    for path in paths:
        path.unlink(missing_ok=True)


def _check_fraction(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
             f"{what} {value!r} outside [0, 1]")
    return float(value)


class Desk:
    """fit_sstextu with stock SolverConfig at the acceptance-14 shape.

    Ops alternate between the seeded input and the fixed reference
    input whose objective trace is recorded in reference.json, so every
    other op is compared with a stored result and the rest with the
    trace of the same input fitted at set-up.
    """

    unit = "fits"
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.rtol = self.reference["rtol"]
        self.cfg = semishot.SolverConfig()
        self.inputs = []
        self.expected = []

    def setup(self) -> None:
        self.inputs = [desk_inputs(self.seed), desk_inputs(self.reference["seed"])]
        seeded = self.inputs[0]
        semishot.fit_sstextu(*seeded, self.cfg)  # first fits grow the heap
        own = semishot.fit_sstextu(*seeded, self.cfg).objective_trace
        semishot.fit_sstextu(*self.inputs[1], self.cfg)
        self.expected = [own, np.asarray(self.reference["objective_trace"])]

    def prepare(self, i: int):
        support, unlabeled, text = self.inputs[i % 2]
        cfg = self.cfg
        return lambda: semishot.fit_sstextu(support, unlabeled, text, cfg)

    def check(self, i: int, fit):
        _require(bool(np.all(np.isfinite(fit.prototypes))), "non-finite prototypes")
        trace = np.asarray(fit.objective_trace)
        _require(trace.size == self.cfg.bcm_iters + 1,
                 f"objective trace has {trace.size} entries")
        _require(trace[-1] <= trace[0], f"objective rose {trace[0]} -> {trace[-1]}")
        expected = self.expected[i % 2]
        _require(trace.shape == expected.shape
                 and bool(np.allclose(trace, expected, rtol=self.rtol, atol=0)),
                 f"objective trace {trace.tolist()} differs from reference "
                 f"{expected.tolist()} beyond rtol {self.rtol}")
        support = self.inputs[i % 2][0]
        truth = np.argmax(support.labels, axis=1)
        pred = np.argmax(support.embeddings @ fit.prototypes.T, axis=1)
        recall = [np.mean(pred[truth == c] == c) for c in np.unique(truth)]
        return 1, {i % 2: _check_fraction(float(np.mean(recall)), "aca")}


class Sweep:
    """`semishot benchmark` over stored default-family datasets.

    One op is one in-process invocation with all four solvers, shots
    1,2,4,8,16, seeds 0..4 and --threads nproc; ops rotate through the
    datasets written at set-up. With --no-timing the CSV is a pure
    function of the dataset, so a repeated op must reproduce it byte
    for byte.
    """

    unit = "cells"
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.gen_seeds = _derived_seeds(seed, SWEEP_DATASETS)
        self.threads = nproc()
        self.first_csv: dict[int, str] = {}

    def _manifest(self, j: int) -> Path:
        return self.workdir / f"data{j}" / "manifest.json"

    def setup(self) -> None:
        for j, g in enumerate(self.gen_seeds):
            code = semishot.cli.main(["generate", "--seed", str(g),
                                      "--out", str(self._manifest(j).parent)])
            _require(code == 0, f"generate exited {code}")
        code = self.prepare(0)()
        _require(code == 0, f"warm-up benchmark exited {code}")

    def prepare(self, i: int):
        j = i % SWEEP_DATASETS
        argv = ["benchmark", "--data", str(self._manifest(j)),
                "--solvers", SOLVERS, "--shots-grid", SHOTS_GRID,
                "--seeds", str(SWEEP_SEEDS), "--threads", str(self.threads),
                "--no-timing", "--out-csv", str(self.workdir / "out.csv"),
                "--out-json", str(self.workdir / "out.json")]
        _remove(self.workdir / "out.csv", self.workdir / "out.json")
        return lambda: semishot.cli.main(argv)

    def check(self, i: int, code):
        _require(code == 0, f"benchmark exited {code}")
        j = i % SWEEP_DATASETS
        text = (self.workdir / "out.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        _require(rows and rows[0] == CSV_HEADER, "CSV header mismatch")
        body = rows[1:]
        cells = len(SOLVERS.split(",")) * len(SHOTS_GRID.split(",")) * SWEEP_SEEDS
        _require(len(body) == cells, f"CSV has {len(body)} rows, expected {cells}")
        report = json.loads((self.workdir / "out.json").read_text())
        _require(len(report["rows"]) == cells,
                 f"JSON has {len(report['rows'])} rows, expected {cells}")
        _require(text == self.first_csv.setdefault(j, text),
                 f"CSV for dataset {j} changed between identical runs")
        acas = {}
        for solver, _, shots, _, seed, aca, acc, _, error in body:
            _require(not error, f"cell {solver}/K={shots}/seed={seed} failed: {error}")
            _check_fraction(float(acc), "acc")
            acas[(j, solver, shots, seed)] = _check_fraction(float(aca), "aca")
        return cells, acas


class Study:
    """Accuracy versus cluster quality through the file format.

    One op is one chain: `generate --noise x --seed g`, then `adapt
    --solver sstextu --shots 4`, then `eval --silhouette`, cycling over
    the acceptance-13 noise levels with seeds drawn from the workload
    seed. A repeated chain must reproduce its accuracy and silhouette.
    """

    unit = "chains"
    tail_percentile = 50

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.chains = len(STUDY_NOISE) * STUDY_REPEATS
        self.gen_seeds = _derived_seeds(seed, self.chains)
        self.seen: dict[int, tuple[float, float]] = {}

    def _argvs(self, k: int, out: Path) -> list[list[str]]:
        g = str(self.gen_seeds[k])
        data = out / "data"
        adapt = out / "adapt"
        return [
            ["generate", "--noise", str(STUDY_NOISE[k % len(STUDY_NOISE)]),
             "--seed", g, "--out", str(data)],
            ["adapt", "--data", str(data / "manifest.json"), "--solver", "sstextu",
             "--shots", str(STUDY_SHOTS), "--seed", g, "--out", str(adapt)],
            ["eval", "--data", str(data / "manifest.json"),
             "--prototypes", str(adapt / "prototypes.json"), "--silhouette",
             "--out", str(out / "eval.json")],
        ]

    def setup(self) -> None:
        for argv in self._argvs(0, self.workdir / "warm"):
            code = semishot.cli.main(argv)
            _require(code == 0, f"{argv[0]} exited {code}")

    def prepare(self, i: int):
        out = self.workdir / "chain"
        argvs = self._argvs(i % self.chains, out)
        _remove(out / "eval.json", out / "adapt" / "prototypes.json")

        def chain():
            codes = []
            for argv in argvs:
                codes.append(semishot.cli.main(argv))
                if codes[-1] != 0:
                    break
            return codes

        return chain

    def check(self, i: int, codes):
        _require(codes == [0, 0, 0], f"chain exit codes {codes}")
        out = self.workdir / "chain"
        report = json.loads((out / "eval.json").read_text())
        aca = _check_fraction(report["aca"], "aca")
        sil = report["silhouette"]
        _require(isinstance(sil, float) and -1.0 <= sil <= 1.0,
                 f"silhouette {sil!r} outside [-1, 1]")
        manifest = json.loads((out / "adapt" / "prototypes.json").read_text())
        protos = np.fromfile(out / "adapt" / manifest["prototypes"], dtype="<f4")
        _require(protos.size == manifest["c"] * manifest["d"],
                 f"prototype blob holds {protos.size} values")
        _require(bool(np.all(np.isfinite(protos))), "non-finite prototypes")
        k = i % self.chains
        _require(self.seen.setdefault(k, (aca, sil)) == (aca, sil),
                 f"chain {k} changed between identical runs")
        return 1, {k: aca}


WORKLOADS = {"desk": Desk, "sweep": Sweep, "study": Study}
