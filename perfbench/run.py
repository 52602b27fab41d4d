"""Run one semishot benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk|sweep|study --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source tree that holds ``src/semishot``; the
package is imported from that tree, never from an installed copy.
Set-up runs SETUP_REPEATS times and reports the median. Then ops run
back to back (closed loop, one caller) until ``--seconds`` have passed;
each op's outputs are checked outside its timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops, reports per-layer self times and counts per
traced op, and the tracing overhead as traced minus untraced median op
time. The last stdout line is the result object; the lines before it
record the environment and the distributions behind each number.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# op_tail_ms is each workload's fixed tail percentile; this many samples
# above it make the percentile trustworthy.
TAIL_BEYOND = 10
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "sweep", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(np, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quartiles(np, values) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75]) if values else (0.0, 0.0, 0.0)
    return {"q1": float(q1), "median": float(q2), "q3": float(q3), "n": len(values)}


def tail(np, values, percentile: int) -> tuple[float, int]:
    """(value, samples above it) of op times at ``percentile``."""
    xs = np.asarray(values)
    value = float(np.percentile(xs, percentile))
    return value, int((xs > value).sum())


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop: one op at a time until ``seconds`` have passed.

    With a tracer, odd ops run traced and even ops untraced, so both
    halves see the same drift in machine speed.
    """
    times = {False: [], True: []}
    work = 0
    acas: dict = {}
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        i = attempted
        attempted += 1
        traced = tracer is not None and i % 2 == 1
        call = workload.prepare(i)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = tracer.op(i, call) if traced else call()
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"op {i}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        times[traced].append(elapsed)
        if error is None:
            try:
                units, op_acas = workload.check(i, result)
                work += units
                acas.update(op_acas)
            except Exception as exc:  # wrong or unparsable output
                error = f"op {i} check: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return {"times": times, "work": work, "acas": acas, "failures": failures,
            "attempted": attempted, "wall_s": time.perf_counter() - start}


def end_to_end(np, run: dict, setup_times: list[float],
               percentile: int) -> tuple[dict, dict]:
    times = run["times"][False]
    tail_s, beyond = tail(np, times, percentile)
    acas = list(run["acas"].values())
    values = {
        "setup_s": float(np.median(setup_times)),
        "op_p50_ms": float(np.median(times)) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "work_per_s": run["work"] / sum(times),
        "ok_frac": (run["attempted"] - len(run["failures"])) / run["attempted"],
        "aca_mean": float(np.mean(acas)) if acas else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"op_ms": quartiles(np, [t * 1e3 for t in times]),
              "op_tail": {"percentile": percentile, "samples_beyond": beyond,
                          "enough": beyond >= TAIL_BEYOND},
              "aca_distinct": len(acas)}
    return values, detail


def select(spec: dict, section: str, values: dict) -> dict:
    listed = {m["name"]: m["unit"] for m in spec[section]}
    if set(listed) != set(values):
        raise RuntimeError(f"{section} metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(listed)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in listed.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "semishot"
    if not (package / "__init__.py").is_file():
        print(f"error: no semishot sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import semishot
    if Path(semishot.__file__).resolve().parent != package.resolve():
        print(f"error: imported semishot from {semishot.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(np, args)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            tracer = spans.Tracer() if args.trace else None
            run = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    detail = {"setup_s": setup_times, "work_unit": workload.unit,
              "attempted": run["attempted"], "wall_s": run["wall_s"],
              "failures": run["failures"][:5]}
    if args.trace:
        untraced, traced = run["times"][False], run["times"][True]
        overhead_ms = (float(np.median(traced)) - float(np.median(untraced))) * 1e3 \
            if traced and untraced else 0.0
        values = spans.layer_metrics(tracer.spans, len(traced), overhead_ms,
                                     tracer.missing)
        metrics = select(spec, "per_layer", values)
        detail.update({
            "untraced_op_ms": quartiles(np, [t * 1e3 for t in untraced]),
            "traced_op_ms": quartiles(np, [t * 1e3 for t in traced]),
            "largest_self_ms": spans.largest_self_times(tracer.spans, len(traced)),
            "missing_spans": tracer.missing,
            "inspect_errors": tracer.inspect_errors[:5],
        })
    else:
        values, more = end_to_end(np, run, setup_times, workload.tail_percentile)
        metrics = select(spec, "end_to_end", values)
        detail.update(more)
    failed = len(run["failures"])
    print("# env " + json.dumps(env, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
