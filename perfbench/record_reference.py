"""Record the desk workload's reference objective trace.

    python3 perfbench/record_reference.py

Fits fit_sstextu with stock SolverConfig on the fixed reference input
(seed 140, the acceptance-14 input) and writes its objective trace to
perfbench/reference.json. Re-record only when a change to what the fit
computes is intended, and say so in the change that does it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 140

sys.path.insert(0, str(HERE.parent / "src"))

import semishot  # noqa: E402
from workloads import DESK_SHAPE, DESK_TRACE_RTOL, desk_inputs  # noqa: E402


def main() -> None:
    fit = semishot.fit_sstextu(*desk_inputs(REFERENCE_SEED), semishot.SolverConfig())
    record = {"seed": REFERENCE_SEED, "shape": list(DESK_SHAPE),
              "rtol": DESK_TRACE_RTOL,
              "objective_trace": fit.objective_trace.tolist()}
    (HERE / "reference.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
