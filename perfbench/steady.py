"""Check that the benchmark is steady across seeds and over time.

    python3 perfbench/steady.py [--runs 10] [--compare FILE]

Runs run.py once per (seed, workload) for seeds 0 .. runs-1, on every
workload in BENCHMARK.json for its run_seconds, alternating workloads so
that drift in machine speed is shared by all of them. For each
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and that
spread as a share of the metric's bound. With --compare it also prints
how far each median moved from an earlier result file, in the metric's
worse direction. It exits 1 when a spread exceeds its bound or a median
moved worse by more than its bound. Results go to
.bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": lines[:-1],
            "elapsed_s": time.perf_counter() - start}


def summarize(results: dict, spec: dict) -> dict:
    out = {}
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            out[f"{workload}.{metric['name']}"] = {
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": metric["bound"], "better": metric["better"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: dict[str, list] = {w: [] for w in workloads}
    for k in range(args.runs):
        order = workloads[k % len(workloads):] + workloads[:k % len(workloads)]
        for workload in order:
            run = run_once(workload, k, seconds)
            results[workload].append(run)
            values = {m: v["value"] for m, v in run["result"]["metrics"].items()}
            print(f"{workload} seed {k} ({run['elapsed_s']:.1f} s): "
                  f"{json.dumps(values)}", flush=True)

    summary = summarize(results, spec)
    earlier = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    bad = 0
    for key, s in summary.items():
        line = (f"{key:28s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                f"q3 {s['q3']:12.6g}  spread {s['spread']:7.4f}  bound {s['bound']}  "
                f"spread/bound {s['spread'] / s['bound']:5.2f}")
        if s["spread"] > s["bound"]:
            line += "  OVER BOUND"
            bad += 1
        if key in earlier and earlier[key]["median"]:
            moved = s["median"] / earlier[key]["median"] - 1
            worse = moved if s["better"] == "lower" else -moved
            line += f"  worse-by {worse:+.4f}"
            if worse > s["bound"]:
                line += "  REGRESSED"
                bad += 1
        print(line)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds,
                                "summary": summary, "runs": results}, indent=1))
    print(f"wrote {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
