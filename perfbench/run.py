"""End-to-end benchmark of valsat, with a traced per-layer run.

    python3 perfbench/run.py --workload vx-rational --seed 1 --seconds 24 --trace 0

A single-process, closed-loop benchmark: one public call at a time, no
threads.  For the chosen workload it generates instance text from the seed
(``workloads.py``) and pushes every case through the public path, from
``textio.parse_instance`` to ``textio.render_vector`` (or through
``cli.main --verify`` on the cli-verify workload).  The first pass runs
every case once; further passes repeat the cases that passed until
``--seconds`` have elapsed; each case's time is the median of its repeats.

Times are normalised to a nominal machine speed.  The speed of a shared
machine swings by up to 1.7x, in phases of a second to tens of seconds,
which would swamp any change in the library.  A fixed probe of pure-Python
rational arithmetic (``probe.py``) runs between consecutive cases, and each
case's time is scaled by PROBE_NOMINAL_S over the median of the readings
around it; set-up children run the probe just after the timed import.
Every end-to-end metric in seconds (setup_s, solve_s_p50, solve_s_p90) and
throughput_ips are therefore probe-normalised: they read as seconds on a
machine where the probe takes exactly PROBE_NOMINAL_S, which is close to
its measured uncontended time (see ``probe.py``), not as wall seconds.  The
provenance line records the raw wall-clock figures of every metric,
PROBE_NOMINAL_S, and the cases' median slowdown factor (measured probe time
over PROBE_NOMINAL_S).

Outputs are checked outside the timed region: a digest of the
rendered output against the one recorded in ``digests.json`` (when the seed
was recorded), exact invariants of every result, and a parse of every
rendered vector back to the vector it came from.

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics (``tracing.py``, raw
times, totals over the family) of two traced passes: one with the span
hooks, which gives the layer times, and one with the high-frequency counter
hooks, which gives the counts that would otherwise inflate those times.
``trace.overhead_s`` is the cost of tracing in the span pass, taken against
one untraced pass; the counter pass's cost is in the provenance line.

The line before the result records provenance: interpreter, cores, seed,
case counts per family, the engine each family ran on, and the known
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import NOMINAL_S as PROBE_NOMINAL_S, probe  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = HERE / "digests.json"
SETUP_RUNS = 11
# The probe is imported only after the clock stops: it imports ``fractions``,
# which is part of what ``import valsat`` costs.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import valsat\n"
    "from valsat.textio import parse_domain_tag\n"
    "for tag in ('zp:2', 'field:q', 'field:5', 'rft0:q', 'rft0:5'):\n"
    "    parse_domain_tag(tag)\n"
    "elapsed = time.perf_counter() - t0\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from probe import probe\n"
    "print(elapsed, sorted(probe() for _ in range(3))[1])\n"
)


class BudgetExceeded(BaseException):
    """Raised by the alarm when a case overruns its budget.

    A BaseException, so that no ``except Exception`` inside the library
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def import_library():
    """The valsat modules the benchmark calls, imported from the checkout."""
    if not (SRC / "valsat" / "__init__.py").is_file():
        raise SystemExit(f"error: no valsat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import valsat.cli
    import valsat.errors
    import valsat.syzygy
    import valsat.textio
    import valsat.vxsat
    return valsat


class Outcome:
    """Per-case record: repeat times (raw and normalised), first output, failure."""

    __slots__ = ("raw", "times", "output", "failure")

    def __init__(self):
        self.raw = []
        self.times = []
        self.output = None
        self.failure = None


def execute(lib, case, path):
    """Run one case under its budget: (seconds, rendered output, objects, failure)."""
    out = objs = failure = None
    signal.setitimer(signal.ITIMER_REAL, case.budget_s)
    t0 = time.perf_counter()
    try:
        if case.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = lib.cli.main([str(path), "--verify"])
            out = buf.getvalue()
            objs = rc
        else:
            inst = lib.textio.parse_instance(case.text)
            if case.kind == "vx":
                res = lib.vxsat.saturate_vx(inst.vectors, inst.max_iter or 64)
            else:
                res = lib.syzygy.syzygy_vx(inst.vectors, inst.max_iter or 64)
            out = "\n".join(lib.textio.render_vector(v) for v in res.generators)
            objs = (inst, res)
        elapsed = time.perf_counter() - t0
    except BudgetExceeded:
        elapsed, failure = time.perf_counter() - t0, "budget"
    except lib.errors.IterationCapExceeded:
        elapsed, failure = time.perf_counter() - t0, "cap"
    except Exception as exc:  # every other error is a counted failure
        elapsed, failure = time.perf_counter() - t0, f"error:{type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, out, objs, failure


def check(lib, case, out, objs):
    """Exact checks of one result; the failure class, or None when all hold."""
    if case.kind == "cli":
        if objs != 0:
            return f"exit{objs}"
        return None if "# verify: ok" in out else "check:verify"
    inst, res = objs
    try:
        res.basis.validate()
    except ValueError:
        return "check:echelon"
    lines = out.split("\n") if out else []
    if len(lines) != len(res.generators):
        return "check:render"
    for line, v in zip(lines, res.generators):
        try:
            back = lib.textio.parse_vector(v.domain, line)
        except lib.errors.ValsatError:
            return "check:render"
        if back != v:
            return "check:render"
    if case.kind == "syzygy":
        for f in res.generators:
            if any(lib.syzygy.apply_columns(inst.vectors, f)):
                return "check:syzygy"
    return None


PROBE_WINDOW = 4  # readings on each side of a case that set its speed


def measure(lib, cases, paths, seconds, tracer=None, corrupt=False, checked=True):
    """One full pass, then repeats of the passing cases until time is up.

    A probe reading is taken between consecutive cases, and each raw time is
    normalised by the median of the readings within PROBE_WINDOW of it.
    ``corrupt`` damages the first case's output before it is checked; the
    self-test uses it to prove that the checks catch a wrong output.  The
    traced pass runs unchecked, since the checks call into hooked layers.
    """
    outcomes = [Outcome() for _ in cases]
    readings = [probe()]
    marks = [[] for _ in cases]

    def run_case(i):
        case = cases[i]
        if tracer is not None:
            tracer.family = case.family
        elapsed, out, objs, failure = execute(lib, case, paths[i])
        readings.append(probe())
        marks[i].append(len(readings) - 1)
        if corrupt and i == 0 and out:
            out = out[:-1]
        o = outcomes[i]
        o.raw.append(elapsed)
        if len(o.raw) == 1:
            o.output, o.failure = out, failure
            if failure is None and checked:
                o.failure = check(lib, case, out, objs)
        elif failure is not None or out != o.output:
            o.failure = o.failure or failure or "check:repeat"

    start = time.perf_counter()
    for i in range(len(cases)):
        run_case(i)
    while time.perf_counter() - start < seconds:
        passing = [i for i, o in enumerate(outcomes) if o.failure is None]
        if not passing:
            break
        for i in passing:
            if time.perf_counter() - start >= seconds:
                break
            run_case(i)
    for case, o, js in zip(cases, outcomes, marks):
        o.times = [
            r * PROBE_NOMINAL_S
            / statistics.median(readings[max(0, j - 1 - PROBE_WINDOW):j + PROBE_WINDOW])
            for r, j in zip(o.raw, js)]
        if o.failure == "budget":  # an overrun costs its budget, whatever the speed
            o.times = [case.budget_s] * len(o.raw)
    return outcomes


def parity(workload, seed, cases, outcomes):
    """Compare per-case digests with the ones recorded at the reference commit.

    A case recorded as a failure that now passes its exact checks counts as
    fixed, not as a miss.
    """
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = table.get(workload, {}).get(str(seed))
    if recorded is None:
        return {"status": "unrecorded"}
    recorded = recorded.split()
    if len(recorded) != len(cases):
        for o in outcomes:
            o.failure = o.failure or "check:parity"
        return {"status": "mismatch", "misses": len(cases)}
    misses = fixed = 0
    for want, o in zip(recorded, outcomes):
        if outcome_digest(o) == want:
            continue
        if want.startswith("fail:") and o.failure is None:
            fixed += 1
            continue
        misses += 1
        o.failure = o.failure or "check:parity"
    return {"status": "ok" if misses == 0 else "mismatch", "misses": misses,
            "fixed": fixed}


def outcome_digest(o) -> str:
    """32 bits of the rendered output's SHA-256, or the failure class."""
    if o.failure is not None and o.output is None:
        return f"fail:{o.failure}"
    return hashlib.sha256((o.output or "").encode()).hexdigest()[:8]


def write_cli_files(workload, seed, cases):
    paths = [None] * len(cases)
    if any(c.kind == "cli" for c in cases):
        d = WORK / f"{workload}-{seed}"
        d.mkdir(parents=True, exist_ok=True)
        for i, c in enumerate(cases):
            if c.kind == "cli":
                paths[i] = d / f"case{i:04d}.vsat"
                paths[i].write_text(c.text, encoding="utf-8")
    return paths


def measure_setup() -> float:
    """Median over fresh interpreters of ``import valsat`` plus domain construction."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, raw = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first run compiles the byte code and is not counted
            elapsed, speed = map(float, proc.stdout.split())
            raw.append(elapsed)
            times.append(elapsed * PROBE_NOMINAL_S / speed)
    return statistics.median(times), statistics.median(raw)


def quantile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(outcomes, setup_s, key=lambda o: o.times):
    per_case = [statistics.median(key(o)) for o in outcomes]
    passed = sum(1 for o in outcomes if o.failure is None)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "solve_s_p50": (quantile(per_case, 0.5), "s"),
        "solve_s_p90": (quantile(per_case, 0.9), "s"),
        "throughput_ips": (passed / sum(per_case), "1/s"),
        "pass_frac": (passed / len(outcomes), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer, counter, traced_s, overhead_s):
    v = tracer.values
    v.update(counter.values)
    v["engines.survive_ratio"] = (v["engines.survived"] / v["engines.inserts"]
                                  if v["engines.inserts"] else 0.0)
    v["trace.overhead_s"] = overhead_s
    v["trace.unattributed_s"] = traced_s - tracer.covered
    return {m["name"]: (float(v.get(m["name"], 0.0)), m["unit"])
            for m in BENCHMARK["per_layer"]}


def run(workload, seed, seconds, trace, corrupt=False, replicates=None):
    """Measure one workload; returns the provenance and the result line."""
    lib = import_library()
    cases = workloads.family(workload, seed, replicates)
    paths = write_cli_files(workload, seed, cases)
    signal.signal(signal.SIGALRM, _on_alarm)

    if trace:
        # Overhead compares the normalised case times of one pass each way;
        # the checks run outside both.  Layer times are raw.
        outcomes = measure(lib, cases, paths, 0, corrupt=corrupt)
        tracer = tracing.Tracer(tracing.ENGINE_HOOKS + tracing.SPAN_HOOKS)
        with tracer:
            traced = measure(lib, cases, paths, 0, tracer, corrupt, False)
        counter = tracing.Tracer(tracing.COUNT_HOOKS)
        with counter:
            counted = measure(lib, cases, paths, 0, counter, corrupt, False)
        untraced_s = sum(o.times[0] for o in outcomes)
        overhead_s = sum(o.times[0] for o in traced) - untraced_s
        count_overhead_s = sum(o.times[0] for o in counted) - untraced_s
        traced_s = sum(o.raw[0] for o in traced)
        for o, t, c in zip(outcomes, traced, counted):
            if any(x.failure != o.failure or x.output != o.output for x in (t, c)):
                o.failure = o.failure or t.failure or c.failure or "check:traced"
        metrics = per_layer(tracer, counter, traced_s, overhead_s)
    else:
        setup_s, raw_setup_s = measure_setup()
        tracer = tracing.Tracer(tracing.ENGINE_HOOKS)
        with tracer:
            outcomes = measure(lib, cases, paths, seconds, tracer, corrupt)
    parity_report = (parity(workload, seed, cases, outcomes) if replicates is None
                     else {"status": "unrecorded"})
    if not trace:
        metrics = end_to_end(outcomes, setup_s)
        raw = end_to_end(outcomes, raw_setup_s, key=lambda o: o.raw)

    failures = {c.name: o.failure for c, o in zip(cases, outcomes) if o.failure}
    unexpected = {c.name: o.failure for c, o in zip(cases, outcomes)
                  if o.failure and o.failure != c.known_failure}
    families = {}
    for c in cases:
        families[c.family] = families.get(c.family, 0) + 1
    provenance = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cases": len(cases), "cases_per_family": families,
        "engines": tracer.engines,
        "known_failures": {c.name: {"expected": c.known_failure,
                                    "got": failures.get(c.name)}
                           for c in cases if c.known_failure},
        "unexpected_failures": unexpected,
        "fail_frac": len(failures) / len(cases),
        "parity": parity_report,
        "absent_hooks": tracer.absent + (counter.absent if trace else []),
        "samples_per_case": statistics.median(len(o.times) for o in outcomes),
    }
    if trace:
        provenance["count_pass_overhead_s"] = count_overhead_s
    else:
        provenance["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
        provenance["probe_nominal_s"] = PROBE_NOMINAL_S
        provenance["probe_slowdown"] = statistics.median(
            r / t for o in outcomes for r, t in zip(o.raw, o.times) if t)
    result = {
        "correct": not unexpected,
        "attempted": len(cases),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return provenance, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    provenance, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
