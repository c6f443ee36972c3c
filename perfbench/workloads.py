"""Instance families of the benchmark, generated as instance text from a seed.

Every family is stratified: a fixed list of cells (domain, shape) is crossed
with a fixed number of replicates, and only the coefficients come from the
seed.  A seed therefore changes which instances run but not the mix of
shapes, which keeps the spread between seeds small enough to resolve a
regression.  The known failures of the library are part of their families
and are counted, never dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """One instance: how it runs, its text, its budget, its known failure."""

    name: str
    kind: str            # "vx", "syzygy" or "cli": how run.py drives it
    family: str          # "<domain tag>/<task>", the provenance key
    text: str
    budget_s: float
    known_failure: str | None = None   # the failure class expected today


# A steady case finishes in well under a second; the default budget only
# turns a hang into a counted failure.
DEFAULT_BUDGET_S = 20.0

# ROADMAP 5b: the default cap of 64 rounds rejects this valid input, which
# needs 70 rounds ("defect still 1 after 64 rounds").
CAP_CASE = "domain: zp:2\ntask: saturate-vx\n\nX^70 + 2\n4\n"

# The four instance files shipped in instances/, copied so that the
# benchmark's inputs cannot change under it: name -> (family, text).
SHIPPED = {
    "rational-functions": ("rft0:q/saturate-vx", (
        "domain: rft0:q\ntask: saturate-vx\nverify: true\n\n"
        "t^2 + t*X, (t+2)/(3)\nt*X^2, 1\n")),
    "saturate-free": ("zp:2/saturate-free", (
        "domain: zp:2\ntask: saturate-free\nverify: true\n\n2, 0, 1\n0, 2, 1\n")),
    "saturate-vx": ("zp:2/saturate-vx", "domain: zp:2\ntask: saturate-vx\n\n2\nX\n"),
    "syzygy": ("zp:2/syzygy", "domain: zp:2\ntask: syzygy\nverify: true\n\nX\n2\n"),
}

_UNIT_DENS = {2: (1, 3, 5, 7), 3: (1, 2, 5, 7), 0: (1, 2, 3, 5, 7)}


def _prime(tag: str) -> int:
    arg = tag.partition(":")[2]
    return 0 if arg == "q" else int(arg)


def _rational(rng: random.Random, tag: str) -> str:
    """A fraction of V scaled by a random p-power (p = 1 for Q)."""
    p = _prime(tag)
    if tag.startswith("field:") and p:
        return str(rng.randrange(-9, 10))
    num = rng.randrange(-999, 1000) * (p or 1) ** rng.randrange(0, 4)
    den = rng.choice(_UNIT_DENS[p])
    return str(num) if den == 1 else f"{num}/{den}"


def _ratfunc(rng: random.Random) -> str:
    """(a + b t)/(1 + c t) with a, b, c in [-5, 5]: regular at t = 0."""
    a, b, c = (rng.randint(-5, 5) for _ in range(3))
    return f"({a} + {b}*t)/(1 + {c}*t)"


def _coeff(rng: random.Random, tag: str) -> str:
    return _ratfunc(rng) if tag.startswith("rft0:") else _rational(rng, tag)


def _poly(rng: random.Random, tag: str, deg: int) -> str:
    length = rng.randrange(1, deg + 2)
    terms = []
    for k in range(length):
        c = _coeff(rng, tag)
        terms.append(f"({c})" if k == 0 else f"({c})*X^{k}")
    return " + ".join(terms)


def instance_text(rng, tag: str, task: str, n: int, m: int, deg: int) -> str:
    """m vectors of V[X]^n with component degrees <= deg, as an instance file."""
    header = f"domain: {tag}\ntask: {task}\n"
    lines = [", ".join(_poly(rng, tag, deg) for _ in range(n)) for _ in range(m)]
    return header + "\n" + "\n".join(lines) + "\n"


# ROADMAP 3: a random rft0:q instance with n=3, degree <= 3 and three
# generators that does not finish within 75 s.  Its budget sits 5x above the
# slowest steady vx-rft0 case, so a fix shows as a pass, not as noise.
SLOW_RFT0Q_CASE = instance_text(random.Random(20231), "rft0:q", "saturate-vx", 3, 3, 3)
SLOW_RFT0Q_BUDGET_S = 1.0


# Cells: (domain tag, task, n, m, degree).  For syzygy, n is the number of
# rows k and m the number of columns u_j.
def _vx_rational_cells():
    # Four generators of degree 5-6 take 10x the mean time with a long
    # tail; they would set the spread between seeds on their own.
    return [
        (tag, "saturate-vx", n, m, d)
        for tag in ("zp:2", "zp:3", "field:q")
        for n in (3, 4) for m in (3, 4) for d in range(2, 7)
        if m == 3 or d <= 4
    ]


def _vx_rft0_cells():
    # rft0:q grows fastest: with three generators, or two of degree 2, its
    # times reach seconds, so those shapes stay out of the steady cells.
    return [(tag, "saturate-vx", n, m, d) for tag, n, m, d in (
        ("rft0:5", 2, 2, 2), ("rft0:5", 3, 2, 2), ("rft0:5", 2, 3, 1),
        ("rft0:5", 3, 3, 1), ("rft0:5", 2, 3, 2),
        ("rft0:q", 2, 2, 1), ("rft0:q", 3, 2, 1), ("rft0:q", 1, 3, 2),
        ("rft0:q", 1, 2, 2),
    )]


def _syzygy_cells():
    cells = []
    for tag, degs in (("zp:2", (2, 4)), ("field:q", (2, 4)), ("field:5", (2, 4)),
                      ("rft0:5", (1, 2))):
        for k in (1, 2):
            for n in (3, 4, 5):
                if tag == "rft0:5" and k == 2 and n > 3:
                    continue
                for d in degs:
                    # rft0:5 with k=2 and degree 2 takes up to a second and
                    # would set the spread of the whole family on its own.
                    if tag == "rft0:5" and k == 2 and d == 2:
                        continue
                    cells.append((tag, "syzygy", k, n, d))
    return cells


def _cli_cells():
    # Verification costs grow fast with degree (rft0:q takes 12-260 s at
    # n=2, m=2, degree 2), so these stay at degree 1 except for the cheap
    # free saturation; rft0:q runs only as the shipped instance.
    cells = []
    for tag in ("zp:2", "zp:3", "field:q", "field:7", "rft0:5"):
        cells.append((tag, "saturate-free", 3, 3, 1 if tag == "rft0:5" else 2))
        cells.append((tag, "saturate-vx", 2, 2, 1))
        cells.append((tag, "syzygy", 1, 3, 1))
    return cells


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "vx-rational": (_vx_rational_cells(), 20),
    "vx-rft0": (_vx_rft0_cells(), 130),
    "syzygy": (_syzygy_cells(), 30),
    "cli-verify": (_cli_cells(), 30),
}  # name -> (cells, replicates of each cell)


def family(workload: str, seed: int, replicates: int | None = None) -> list[Case]:
    """The cases of one workload for one seed, in run order."""
    cells, reps = WORKLOADS[workload]
    reps = reps if replicates is None else replicates
    rng = random.Random(f"{workload}/{seed}")
    cases = []
    for _ in range(reps):
        for tag, task, n, m, d in cells:
            if workload == "cli-verify":
                kind = "cli"
            else:
                kind = "vx" if task == "saturate-vx" else "syzygy"
            cases.append(Case(f"{len(cases):04d}:{tag}:{task}:n{n}m{m}d{d}", kind,
                              f"{tag}/{task}", instance_text(rng, tag, task, n, m, d),
                              DEFAULT_BUDGET_S))
    if workload == "vx-rational":
        cases.append(Case("cap:zp:2:X^70+2,4", "vx", "zp:2/saturate-vx",
                          CAP_CASE, DEFAULT_BUDGET_S, "cap"))
    elif workload == "vx-rft0":
        cases.append(Case("slow:rft0:q:n3m3d3", "vx", "rft0:q/saturate-vx",
                          SLOW_RFT0Q_CASE, SLOW_RFT0Q_BUDGET_S, "budget"))
    elif workload == "cli-verify":
        for name, (fam, text) in SHIPPED.items():
            cases.append(Case(f"shipped:{name}", "cli", fam, text, DEFAULT_BUDGET_S))
    return cases
