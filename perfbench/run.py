"""The AIG middleware benchmark: one workload per invocation.

    python3 perfbench/run.py --workload daily_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload delta_medium --repeat 5

Run from the repository root.  The program under test is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, and the spans are written to
``perfbench/out/``.  ``--repeat K`` runs the workload K times in fresh
processes (seeds ``seed`` .. ``seed+K-1``) and prints each end-to-end
metric's median, quartiles and spread against its bound in
``BENCHMARK.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every run, and the server child of served_tiny, uses one string-hash
#: layout: with randomized hashing the median daily_large report of one
#: seed moved by up to 17% between processes (perfbench/README.md).
HASH_SEED = "0"


def _result(run) -> dict:
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    return {"correct": run.wrong == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(
                            run.metrics.items())}}


def run_once(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro  # noqa: F401  (fails outside a checkout with src/)
    from workloads import WORKLOADS, Run

    # guard findings of violate=True scenarios are expected, not news
    logging.getLogger("repro").setLevel(logging.ERROR)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.tracing(bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.tracing(False)
    run.finish()
    for kind in sorted(run.attempted):
        print(f"ops {kind}: attempted {run.attempted[kind]} "
              f"failed {run.failed[kind]}")
    for note in run.notes:
        print(note)
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.recorder.write(path)
        print(f"trace: {len(run.recorder.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
        keep = {m["name"] for m in _declared("per_layer")}
    else:
        keep = {m["name"] for m in _declared("end_to_end")}
    missing = keep - run.metrics.keys()
    if missing:
        raise SystemExit(f"{args.workload} measured no {sorted(missing)}")
    run.metrics = {name: value for name, value in run.metrics.items()
                   if name in keep}
    print(json.dumps(_result(run)))
    return 0


def _declared(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times and summarize the spread."""
    values: dict[str, list[float]] = {}
    shares = set()
    for index in range(args.repeat):
        seed = args.seed + index
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
        output = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout
        result = json.loads(output.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        summary = ", ".join(f"{name}={metric['value']:.4g}" for name, metric
                            in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}: {summary}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in _declared("end_to_end")}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  above bound/3"
        print(f"{name:<16} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{spread:>7.3f} {bound:>6.2f}{flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["daily_large", "compile_generated",
                                 "delta_medium", "served_tiny"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run K times in fresh processes and print "
                             "each metric's spread")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py"),
                                  *sys.argv[1:]])
    # a terminated run unwinds, so served_tiny's server child is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
