"""The repository benchmark: one command, three workloads.

    python3 repobench/run.py --workload sim-sweep --seed 0 --seconds 30 --trace 0

Prints a detail line, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``.  Exits non-zero when any output is wrong or the program
cannot be run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, WORK, envelope_finish, envelope_start, metric  # noqa: E402

WORKLOADS = ("sim-sweep", "net-sweep", "serve-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    env = envelope_start()
    try:
        if args.workload == "serve-mixed":
            import serve as workload
        else:
            import sweeps as workload
        outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    detail = dict(outcome["detail"], envelope=envelope_finish(env))
    attempted, failed = outcome["attempted"], outcome["failed"]
    detail["failed_frac"] = failed / attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # A layer a workload never enters reports 0 (e.g. net.* in sim-sweep).
        layers = outcome["layers"]
        metrics = {
            m["name"]: metric(layers.get(m["name"], 0.0), m["unit"])
            for m in declared["per_layer"]
        }
    else:
        metrics = {m["name"]: outcome["metrics"][m["name"]] for m in declared["end_to_end"]}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
