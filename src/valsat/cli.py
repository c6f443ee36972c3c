"""Command-line front end.

Reads an instance file (header plus one vector per line), runs one of the
three pipelines and emits results, traces and pivot diagrams.  The flags
--domain, --task, --max-iter, --degree-bound and --verify override the
header keys of the same names: ``parse_instance`` takes them as raw strings
and checks them as it checks the header.  Exit status: 0 on success, 1 on
every input error (a usage error, a bad flag value and a file that is not
UTF-8 text included) and on an --out path that cannot be written, 2 when
--verify finds a mismatch between the algorithm and the independent oracle,
3 when an explicit round cap (``max-iter`` or --max-iter) is hit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .echelon import EchelonBasis, saturate_free
from .errors import EmptyInput, IterationCapExceeded, ParseError, ValsatError
from .syzygy import scaled_kernel
from .textio import InstanceFile, TASKS, parse_instance, render_vector
from .vxsat import SaturationResult, saturate_vx

TRACE_HEADER = "k,N_k,r_k,n_k,u_k,delta_k,Delta_k"


def pivot_diagram(G: EchelonBasis, H, n: int, max_exp: int) -> str:
    """Text grid of pivot positions, one row per component index.

    Rows are printed top-down from i = n to i = 1, columns are exponents
    0..max_exp.  Glyphs: ``O`` pivot of a current column, ``@`` pivot of a
    supernumerary current column, ``o`` pivot of an older basis column,
    ``#`` cell of a fully unoccupied row, ``.`` otherwise.
    """
    h_pivots = [v.piv() for v in H]
    g_pivots = set(G.pivots)
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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error: ``main`` prints it and exits 1."""
        raise ParseError(message)


# The flags that override header keys; each flag's dest is its key.
_SETTINGS = ("domain", "task", "max-iter", "degree-bound", "verify")


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="valsat",
        description="Exact saturation and syzygy computation over valuation domains.",
    )
    ap.add_argument("instance", help="instance file (see README for the format)")
    ap.add_argument("--task", help=f"override the task header ({', '.join(TASKS)})")
    ap.add_argument("--domain", help="override the domain header (zp:2, rft0:q, field:5)")
    ap.add_argument("--verify", action="store_const", const="true",
                    help="cross-check the result against the independent oracle")
    ap.add_argument("--degree-bound", dest="degree-bound", metavar="D",
                    help="slice bound used by --verify")
    ap.add_argument("--max-iter", dest="max-iter", metavar="N",
                    help="cap on saturation rounds, exit status 3 when hit (default: none)")
    ap.add_argument("--out", metavar="DIR",
                    help="write result/trace/diagram files instead of stdout")
    ap.add_argument("--diagram", action="store_true",
                    help="emit the pivot diagram of the final state")
    return ap


# Built once at import, not on every ``main`` call.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        try:
            text = Path(args.instance).read_text(encoding="utf-8-sig")  # drops a byte order mark
        except OSError as exc:
            raise ParseError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.instance} is not UTF-8 text: {exc}") from None
        flags = vars(args)
        inst = parse_instance(text, {key: flags[key] for key in _SETTINGS
                                     if flags[key] is not None})
        if not inst.vectors:
            raise EmptyInput("instance has no vectors")
        return _run(inst, args)
    except ValsatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, IterationCapExceeded) else 1


def _run(inst: InstanceFile, args) -> int:
    if inst.verify:
        from . import oracle  # only --verify loads the oracle
    out_lines = [f"# task: {inst.task}", f"# domain: {inst.domain.tag}"]
    diagram = None
    csv = None
    verified = None

    if inst.task == "saturate-free":
        G = saturate_free(inst.vectors)
        out_lines.append(f"# basis size: {len(G)}")
        out_lines.extend(render_vector(v) for v in G)
        if args.diagram:
            max_exp = max((at.exponent for at in G.pivots), default=0)
            n = inst.vectors[0].n
            diagram = pivot_diagram(G, list(G), n, max_exp)
        if inst.verify:
            verified = oracle.verify_free(inst.vectors, list(G), inst.degree_bound)
    elif inst.task == "saturate-vx":
        res = saturate_vx(inst.vectors, inst.max_iter)
        out_lines.append(f"# d: {res.degree}, rounds: {res.trace[-1].k}, "
                         f"basis: {res.trace[-1].basis_size}, "
                         f"generators: {len(res.generators)}")
        out_lines.extend(render_vector(v) for v in res.generators)
        csv = trace_csv(res.trace)
        diagram = _final_diagram(res) if args.diagram else None
        if inst.verify:
            verified = oracle.verify_saturation(inst.vectors, res.generators,
                                                _slice_bound(inst, res))
    else:
        s_list = scaled_kernel(inst.vectors)
        out_lines.append(f"# kernel generators: {len(s_list)}")
        out_lines.extend(f"# s: {render_vector(s)}" for s in s_list)
        if s_list:
            res = saturate_vx(s_list, inst.max_iter)
            out_lines.append(f"# d: {res.degree}, rounds: {res.trace[-1].k}, "
                             f"generators: {len(res.generators)}")
            out_lines.extend(render_vector(v) for v in res.generators)
            csv = trace_csv(res.trace)
            diagram = _final_diagram(res) if args.diagram else None
            if inst.verify:
                verified = oracle.verify_syzygies(inst.vectors, res.generators,
                                                  _slice_bound(inst, res))
        else:
            out_lines.append("# syzygy module is zero")
            if inst.verify:
                verified = oracle.verify_syzygies(inst.vectors, [], 0)

    if verified is not None:
        out_lines.append(f"# verify: {'ok' if verified else 'MISMATCH'}")

    body = "\n".join(out_lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "result.txt").write_text(body, encoding="utf-8")
            if csv is not None:
                (out_dir / "trace.csv").write_text(csv, encoding="utf-8")
            if diagram is not None:
                (out_dir / "diagram.txt").write_text(diagram + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(body)
        if csv is not None:
            sys.stdout.write("# trace\n" + csv)
        if diagram is not None:
            sys.stdout.write("# diagram\n" + diagram + "\n")
    if verified is False:
        return 2
    return 0


def _final_diagram(res: SaturationResult) -> str:
    n = res.basis[0].n
    tail = res.trace[-1].new_columns
    H = list(res.basis)[len(res.basis) - tail:]
    max_exp = res.degree + res.trace[-1].k
    return pivot_diagram(res.basis, H, n, max_exp)


def _slice_bound(inst: InstanceFile, res: SaturationResult) -> int:
    """The --verify slice bound: ``degree-bound``, else the result's degree
    plus its rounds plus 2."""
    if inst.degree_bound is not None:
        return inst.degree_bound
    return res.degree + res.trace[-1].k + 2


if __name__ == "__main__":
    sys.exit(main())
