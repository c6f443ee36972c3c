"""Command-line front end.

Reads an instance file (header plus one vector per line), runs one of the
three pipelines and emits results, traces and pivot diagrams.  Exit status:
0 on success, 1 on input errors, 2 when --verify finds a mismatch between
the algorithm and the brute-force oracle.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import oracle
from .echelon import EchelonBasis, saturate_free
from .errors import EmptyInput, ParseError, ValsatError
from .polyvec import family_degree, x_shifts
from .syzygy import apply_columns, scaled_kernel
from .textio import (
    InstanceFile,
    TASKS,
    parse_domain_tag,
    parse_instance,
    render_vector,
)
from .valuation import describe_domain
from .vxsat import SaturationResult, saturate_vx

TRACE_HEADER = "k,N_k,r_k,n_k,u_k,delta_k,Delta_k"


def pivot_diagram(G: EchelonBasis, H, n: int, max_exp: int) -> str:
    """Text grid of pivot positions, one row per component index.

    Rows are printed top-down from i = n to i = 1, columns are exponents
    0..max_exp.  Glyphs: ``O`` pivot of a current column, ``@`` pivot of a
    supernumerary current column, ``o`` pivot of an older basis column,
    ``#`` cell of a fully unoccupied row, ``.`` otherwise.
    """
    h_pivots = [v.piv().pivot for v in H]
    g_pivots = {p.pivot for p in G.pivots}
    max_mon = {}
    for j, r in h_pivots:
        max_mon[j] = max(max_mon.get(j, -1), r)
    super_cells = {(j, r) for j, r in h_pivots if r < max_mon[j]}
    h_cells = set(h_pivots)
    occupied_rows = {j for j, _ in g_pivots} | {j for j, _ in h_cells}
    w = len(str(n))
    lines = [" " * (w + 5) + " ".join(str(r % 10) for r in range(max_exp + 1))]
    for i in range(n, 0, -1):
        cells = []
        for r in range(max_exp + 1):
            if (i, r) in super_cells:
                cells.append("@")
            elif (i, r) in h_cells:
                cells.append("O")
            elif (i, r) in g_pivots:
                cells.append("o")
            elif i not in occupied_rows:
                cells.append("#")
            else:
                cells.append(".")
        lines.append(f"i={i:>{w}} | " + " ".join(cells))
    return "\n".join(lines)


def trace_csv(trace) -> str:
    lines = [TRACE_HEADER]
    for rec in trace:
        lines.append(
            f"{rec.k},{rec.new_columns},{rec.basis_size},{rec.index_count},"
            f"{rec.capacity},{rec.defect},{rec.slack}"
        )
    return "\n".join(lines) + "\n"


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="valsat",
        description="Exact saturation and syzygy computation over valuation domains.",
    )
    ap.add_argument("instance", help="instance file (see README for the format)")
    ap.add_argument("--task", choices=TASKS, help="override the task header")
    ap.add_argument("--domain", help="override the domain header (zp:2, rft0:q, field:5)")
    ap.add_argument("--verify", action="store_true",
                    help="cross-check the result against the brute-force oracle")
    ap.add_argument("--degree-bound", type=int, metavar="D",
                    help="slice bound used by --verify")
    ap.add_argument("--max-iter", type=int, metavar="N",
                    help="cap on saturation rounds (default 64)")
    ap.add_argument("--out", metavar="DIR",
                    help="write result/trace/diagram files instead of stdout")
    ap.add_argument("--diagram", action="store_true",
                    help="emit the pivot diagram of the final state")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = Path(args.instance).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.domain:
            parse_domain_tag(args.domain)  # fail fast on a bad tag
            text = _replace_domain(text, args.domain)
        inst = parse_instance(text)
        if args.task:
            inst.task = args.task
        if args.max_iter is not None:
            if args.max_iter < 1:
                raise ParseError(f"--max-iter must be at least 1, got {args.max_iter}")
            inst.max_iter = args.max_iter
        if args.degree_bound is not None:
            if args.degree_bound < 0:
                raise ParseError(
                    f"--degree-bound must be at least 0, got {args.degree_bound}"
                )
            inst.degree_bound = args.degree_bound
        if args.verify:
            inst.verify = True
        if not inst.vectors:
            raise EmptyInput("instance has no vectors")
        return _run(inst, args)
    except ValsatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _replace_domain(text: str, tag: str) -> str:
    lines = []
    replaced = False
    for line in text.splitlines():
        if not replaced and line.split("#", 1)[0].strip().startswith("domain"):
            lines.append(f"domain: {tag}")
            replaced = True
        else:
            lines.append(line)
    if not replaced:
        lines.insert(0, f"domain: {tag}")
    return "\n".join(lines)


def _run(inst: InstanceFile, args) -> int:
    out_lines = [f"# task: {inst.task}", f"# domain: {describe_domain(inst.domain)}"]
    max_iter = 64 if inst.max_iter is None else inst.max_iter
    diagram = None
    csv = None
    verified = None

    if inst.task == "saturate-free":
        G = saturate_free(inst.vectors)
        out_lines.append(f"# basis size: {len(G)}")
        out_lines.extend(render_vector(v) for v in G)
        if args.diagram:
            max_exp = max((p.pivot.exponent for p in G.pivots), default=0)
            n = inst.vectors[0].n
            diagram = pivot_diagram(G, list(G), n, max_exp)
        if inst.verify:
            nonzero = [v for v in inst.vectors if not v.is_zero()]
            d = family_degree(nonzero) if nonzero else 0
            bound = inst.degree_bound if inst.degree_bound is not None else max(d, 0)
            reference = oracle.brute_saturation(inst.vectors, bound)
            verified = oracle.spans_equal(list(G), reference)
    elif inst.task == "saturate-vx":
        res = saturate_vx(inst.vectors, max_iter)
        out_lines.append(f"# d: {res.degree}, rounds: {res.trace[-1].k}, "
                         f"basis: {len(res.basis)}, generators: {len(res.generators)}")
        out_lines.extend(render_vector(v) for v in res.generators)
        csv = trace_csv(res.trace)
        diagram = _final_diagram(inst, res) if args.diagram else None
        if inst.verify:
            verified = _verify_vx(inst, res)
    else:
        s_list = scaled_kernel(inst.vectors)
        out_lines.append(f"# kernel generators: {len(s_list)}")
        out_lines.extend(f"# s: {render_vector(s)}" for s in s_list)
        if s_list:
            res = saturate_vx(s_list, max_iter)
            out_lines.append(f"# d: {res.degree}, rounds: {res.trace[-1].k}, "
                             f"generators: {len(res.generators)}")
            out_lines.extend(render_vector(v) for v in res.generators)
            csv = trace_csv(res.trace)
            diagram = _final_diagram(inst, res) if args.diagram else None
            if inst.verify:
                verified = _verify_syzygy(inst, res)
        else:
            res = None
            out_lines.append("# syzygy module is zero")
            if inst.verify:
                bound = inst.degree_bound if inst.degree_bound is not None else 4
                verified = not oracle.brute_syzygies(inst.vectors, bound)

    if verified is not None:
        out_lines.append(f"# verify: {'ok' if verified else 'MISMATCH'}")

    body = "\n".join(out_lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "result.txt").write_text(body, encoding="utf-8")
        if csv is not None:
            (out_dir / "trace.csv").write_text(csv, encoding="utf-8")
        if diagram is not None:
            (out_dir / "diagram.txt").write_text(diagram + "\n", encoding="utf-8")
    else:
        sys.stdout.write(body)
        if csv is not None:
            sys.stdout.write("# trace\n" + csv)
        if diagram is not None:
            sys.stdout.write("# diagram\n" + diagram + "\n")
    if verified is False:
        return 2
    return 0


def _final_diagram(inst: InstanceFile, res: SaturationResult) -> str:
    n = res.basis[0].n if len(res.basis) else inst.vectors[0].n
    tail = res.trace[-1].new_columns
    H = list(res.basis)[len(res.basis) - tail:]
    max_exp = res.degree + res.trace[-1].k
    return pivot_diagram(res.basis, H, n, max_exp)


def _verify_vx(inst: InstanceFile, res: SaturationResult) -> bool:
    k_final = res.trace[-1].k
    bound = (inst.degree_bound if inst.degree_bound is not None
             else res.degree + k_final + 2)
    reference = oracle.saturation_slice(inst.vectors, bound)
    return oracle.in_v_span(
        reference, x_shifts(res.generators, bound)
    ) and oracle.in_vx_span(res.generators, reference, bound)


def _verify_syzygy(inst: InstanceFile, res: SaturationResult) -> bool:
    for f in res.generators:
        if any(poly for poly in apply_columns(inst.vectors, f)):
            return False
    k_final = res.trace[-1].k
    bound = (inst.degree_bound if inst.degree_bound is not None
             else res.degree + k_final + 2)
    reference = oracle.brute_syzygies(inst.vectors, bound)
    top = max([v.degree() for v in reference] + [bound])
    return oracle.in_vx_span(res.generators, reference, top) and oracle.in_v_span(
        reference, res.generators
    )


if __name__ == "__main__":
    sys.exit(main())
