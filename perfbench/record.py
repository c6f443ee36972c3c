"""Record the per-case output digests that run.py checks for parity.

    python3 perfbench/record.py --seeds 0-15 [--workload NAME ...]

Runs one checked pass of each workload per seed and stores, per case, a
32-bit digest of the rendered output (or ``fail:<class>`` for a known
failure) in perfbench/digests.json, space-separated in case order.  A seed
whose run has any unexpected failure is not recorded, so the table only
ever holds outputs that passed the exact checks.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=seeds, help="e.g. 0-15")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    lib = run.import_library()
    signal.signal(signal.SIGALRM, run._on_alarm)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            cases = workloads.family(workload, seed)
            paths = run.write_cli_files(workload, seed, cases)
            outcomes = run.measure(lib, cases, paths, 0)
            bad = {c.name: o.failure for c, o in zip(cases, outcomes)
                   if o.failure and o.failure != c.known_failure}
            if bad:
                print(f"{workload} seed {seed}: not recorded, failures {bad}")
                continue
            table.setdefault(workload, {})[str(seed)] = " ".join(
                run.outcome_digest(o) for o in outcomes)
            print(f"{workload} seed {seed}: {len(cases)} digests", flush=True)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
