"""Reference figures for perfbench/README.md, measured once, not gated.

    python3 perfbench/figures.py delta_incremental_off --seed 1
    python3 perfbench/figures.py daily_shards_2 --seed 1
    python3 perfbench/figures.py served_small --seed 1

Each variant runs one benchmark workload with one setting changed from
the defaults the benchmark keeps, and prints the same end-to-end metrics
as ``run.py --trace 0``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

VARIANTS = {
    "delta_incremental_off": ("delta_medium", {"incremental": False}),
    "daily_shards_2": ("daily_large", {"shards": 2}),
    "served_small": ("served_tiny", {"scale": "small"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("variant", choices=sorted(VARIANTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS, Run

    logging.getLogger("repro").setLevel(logging.ERROR)
    workload, overrides = VARIANTS[args.variant]
    run = Run(workload, args.seed, args.seconds, False, overrides)
    WORKLOADS[workload](run)
    run.finish()
    for kind in sorted(run.attempted):
        print(f"ops {kind}: attempted {run.attempted[kind]} "
              f"failed {run.failed[kind]}")
    for note in run.notes:
        print(note)
    print(json.dumps({name: round(value, 4) for name, (value, _)
                      in sorted(run.metrics.items())}))
    return 0


if __name__ == "__main__":
    from run import HASH_SEED   # the hash layout of the benchmark's runs
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(HERE / "figures.py"),
                                  *sys.argv[1:]])
    sys.exit(main())
