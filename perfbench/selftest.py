"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at one replicate per cell, untraced and traced, and
checks that each metric named in BENCHMARK.json is printed with its unit and
that only the known failures fail.  Then damages one rendered output and
checks that the failure is counted: by the exact checks on small families,
and by the recorded digests on the full cli-verify family of seed 0.
Finally runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result.  Exits 1 on the
first problem.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def expect_metrics(result, specs, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    if got != want:
        fail(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], float):
            fail(f"{label}: {name} is not a number: {m['value']!r}")


def main():
    bench = run.BENCHMARK
    for workload in workloads.WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            prov, result = run.run(workload, 0, 0, trace, replicates=1)
            expect_metrics(result, specs, label)
            if not result["correct"] or prov["unexpected_failures"]:
                fail(f"{label}: unexpected failures {prov['unexpected_failures']}")
            for name, kf in prov["known_failures"].items():
                if kf["got"] != kf["expected"]:
                    fail(f"{label}: known failure {name} gave {kf['got']}")
            print(f"selftest: ok {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} cases, {result['failed']} known failures")

    for workload in ("vx-rational", "syzygy"):
        prov, result = run.run(workload, 0, 0, 0, corrupt=True, replicates=1)
        known = len(prov["known_failures"])
        if result["correct"] or prov["fail_frac"] <= known / result["attempted"]:
            fail(f"{workload}: a damaged output was not counted as a failure")
        print(f"selftest: ok {workload}: damaged output counted, "
              f"fail_frac={prov['fail_frac']:.4f}")

    prov, result = run.run("cli-verify", 0, 0, 0, corrupt=True)
    if prov["parity"]["status"] == "unrecorded":
        fail("no digests recorded for cli-verify seed 0")
    if result["correct"] or prov["parity"]["misses"] != 1:
        fail(f"cli-verify: a damaged output gave parity {prov['parity']}")
    print("selftest: ok cli-verify: damaged output caught by its digest")

    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "syzygy",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("the benchmark ran without the library's sources")
    print("selftest: ok without sources: exit", proc.returncode)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
