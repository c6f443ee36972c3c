import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import valsat
from valsat.cli import main, pivot_diagram, trace_csv
from valsat.echelon import EchelonBasis, saturate_free
from valsat.polyvec import PolyVec
from valsat.syzygy import syzygy_vx
from valsat.textio import parse_instance, parse_vector, render_vector
from valsat.valuation import Zp
from valsat.vxsat import saturate_vx

Z2 = Zp(2)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def basis_vector(domain, n, j, r):
    comps = [[] for _ in range(n)]
    comps[j - 1] = [0] * r + [1]
    return PolyVec.from_raw(domain, comps)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_import_leaves_the_oracle_unloaded():
    """Only --verify needs the oracle, so ``import valsat.cli`` does not load it."""
    code = "import sys, valsat.cli\nsys.exit('valsat.oracle' in sys.modules)\n"
    src = str(Path(valsat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "valsat.oracle was loaded"


# Standard-library modules that cost milliseconds to import and that valsat
# does not need: ``dataclasses`` loads ``inspect`` (with ``ast``, ``dis`` and
# ``tokenize``).
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "pathlib")


def test_cold_start_loads_no_heavy_module():
    """``import valsat, valsat.textio`` and then ``import valsat.cli`` load
    none of HEAVY_MODULES.  The interpreter runs with -S, because a
    site-packages ``.pth`` file may import some of them before any code
    runs, which would hide a regression."""
    code = (
        "import sys\n"
        "heavy = " + repr(HEAVY_MODULES) + "\n"
        "def loaded(): return [m for m in heavy if m in sys.modules]\n"
        "print('start', loaded())\n"
        "import valsat, valsat.textio\n"
        "print('valsat, valsat.textio', loaded())\n"
        "import valsat.cli\n"
        "print('valsat.cli', loaded())\n"
    )
    src = str(Path(valsat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["start []", "valsat, valsat.textio []",
                                        "valsat.cli []"]


def test_run_saturate_vx(tmp_path, capsys):
    path = write(tmp_path, "a.vsat", "domain: zp:2\ntask: saturate-vx\n\n2\nX\n")
    assert main([path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[:2] == ["1", "X"]
    assert "k,N_k,r_k,n_k,u_k,delta_k,Delta_k" in out
    assert "0,2,2,1,2,1,0" in out
    assert "1,1,3,1,3,0,0" in out


def test_run_syzygy(tmp_path, capsys):
    path = write(tmp_path, "s.vsat", "domain: zp:2\ntask: syzygy\n\nX\n2\n")
    assert main([path]) == 0
    out = capsys.readouterr().out
    body = out.split("# trace")[0]
    lines = [l for l in body.splitlines() if l and not l.startswith("#")]
    assert lines == ["-2, X"]
    assert "# s: 2, -X" in out  # the intermediate primitive kernel vector


def test_run_saturate_free_with_verify(tmp_path, capsys):
    path = write(
        tmp_path, "f.vsat", "domain: zp:2\ntask: saturate-free\nverify: true\n\n2, 0\n0, 3\n"
    )
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "# verify: ok" in out
    assert "1, 0" in out and "0, 1" in out


def test_run_verify_flag_vx(tmp_path, capsys):
    path = write(tmp_path, "v.vsat", "domain: zp:2\ntask: saturate-vx\n\n2, -X\n")
    assert main([path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "# verify: ok" in out


def test_verification_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    from valsat import oracle

    path = write(tmp_path, "m.vsat", "domain: zp:2\ntask: saturate-vx\n\n2, -X\n")
    monkeypatch.setattr(oracle, "verify_saturation", lambda M, gens, bound: False)
    assert main([path, "--verify"]) == 2
    assert "# verify: MISMATCH" in capsys.readouterr().out


def test_zero_syzygy_verdict_sees_high_degree_syzygies(tmp_path, capsys, monkeypatch):
    # (X^5 + 2, -(X^5 + 1)) is a syzygy of degree 5; the oracle's own K[X]
    # kernel must see it when the library's kernel comes back empty.
    import valsat.cli as cli

    path = write(tmp_path, "z.vsat", "domain: zp:3\ntask: syzygy\n\nX^5 + 1\nX^5 + 2\n")
    monkeypatch.setattr(cli, "scaled_kernel", lambda vectors: [])
    assert main([path, "--verify"]) == 2
    out = capsys.readouterr().out
    assert "# syzygy module is zero" in out and "# verify: MISMATCH" in out


def test_zero_syzygy_verdict_ignores_the_degree_bound(tmp_path, capsys, monkeypatch):
    # No syzygy has degree <= 0 here, so a verdict read off the degree-0
    # slice would pass the empty kernel; the verdict must not depend on it.
    import valsat.cli as cli

    path = write(tmp_path, "z.vsat",
                 "domain: zp:3\ntask: syzygy\ndegree-bound: 0\n\nX^5 + 1\nX^5 + 2\n")
    monkeypatch.setattr(cli, "scaled_kernel", lambda vectors: [])
    assert main([path, "--verify"]) == 2
    out = capsys.readouterr().out
    assert "# syzygy module is zero" in out and "# verify: MISMATCH" in out


def test_saturate_free_input_above_the_bound_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "f.vsat", "domain: zp:2\ntask: saturate-free\n\n2, X^2\n1, X\n")
    assert main([path, "--verify", "--degree-bound", "1"]) == 1
    captured = capsys.readouterr()
    assert "degree 2 exceeds slice bound 1" in captured.err
    assert "# verify" not in captured.out


def test_generator_outside_v_is_a_mismatch(tmp_path, capsys, monkeypatch):
    import valsat.cli as cli

    def halved(vectors, max_iter=None):
        res = saturate_vx(vectors, max_iter)
        res.generators[0] = res.generators[0].scale(Z2.k_element(Fraction(1, 2)))
        return res

    path = write(tmp_path, "h.vsat", "domain: zp:2\ntask: saturate-vx\n\n2, X\n")
    monkeypatch.setattr(cli, "saturate_vx", halved)
    assert main([path, "--verify"]) == 2
    assert "# verify: MISMATCH" in capsys.readouterr().out


# The library's answer, (X^12, 1) and (1, 0), is V[X]^2 and correct, but
# (0, X^26) in the slice needs the witness X^38 (1, 0), beyond the
# _MAX_EXTRA = 10 degrees that --verify searches above its bound.
@pytest.mark.xfail(strict=True, reason="the witness degree is bounded by _MAX_EXTRA")
def test_verify_accepts_a_result_whose_witness_has_high_degree(tmp_path, capsys):
    path = write(tmp_path, "w.vsat", "domain: zp:3\ntask: saturate-vx\n\nX^12, 1\nX^12+3, 1\n")
    assert main([path, "--verify"]) == 0
    assert "# verify: ok" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["X^3 + 2\n", "1, X\nX^2, 3\n", "0, X^4\n2, X\n"])
def test_injective_family_verifies_zero_syzygies(tmp_path, capsys, text):
    path = write(tmp_path, "i.vsat", f"domain: zp:3\ntask: syzygy\n\n{text}")
    assert main([path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "# syzygy module is zero" in out and "# verify: ok" in out


def test_run_empty_vectors_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "e.vsat", "domain: zp:2\ntask: saturate-vx\n")
    assert main([path]) == 1
    assert "error" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    path = write(tmp_path, "p.vsat", "domain: zp:2\ntask: saturate-vx\n\n2 + $\n")
    assert main([path]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err


@pytest.mark.parametrize("tag", ["zp:318665857834031151167461",
                                 "field:318665857834031151167461"])
def test_strong_pseudoprime_domain_is_input_error(tmp_path, capsys, tag):
    path = write(tmp_path, "s.vsat", f"domain: {tag}\ntask: saturate-vx\n\n2, X\n")
    assert main([path, "--verify"]) == 1
    captured = capsys.readouterr()
    assert "is not prime" in captured.err and "# verify" not in captured.out


def test_repeated_calls_share_no_flags(tmp_path, capsys):
    path = write(tmp_path, "r.vsat", "domain: zp:2\ntask: saturate-vx\n\n2\nX\n")
    assert main([path, "--verify", "--diagram"]) == 0
    out = capsys.readouterr().out
    assert "# verify: ok" in out and "# diagram" in out
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "# verify" not in out and "# diagram" not in out


def test_run_missing_file(capsys):
    assert main(["/nonexistent/foo.vsat"]) == 1


def test_domain_and_task_overrides(tmp_path, capsys):
    path = write(tmp_path, "o.vsat", "domain: zp:2\ntask: saturate-vx\n\n3\n")
    assert main([path, "--domain", "zp:3", "--task", "saturate-free"]) == 0
    out = capsys.readouterr().out
    assert "# domain: zp:3" in out and "# task: saturate-free" in out


def test_domain_flag_wins_over_every_domain_line(tmp_path, capsys):
    path = write(tmp_path, "d.vsat",
                 "domain: zp:2\ndomain: zp:2\ntask: saturate-vx\n\n3, X\n")
    assert main([path, "--domain", "zp:3"]) == 0
    out = capsys.readouterr().out
    assert "# domain: zp:3" in out and "# domain: zp:2" not in out


@pytest.mark.parametrize("flags", [
    ["--task", "nope"],
    ["--max-iter", "x"],
    ["--degree-bound", "1.5"],
    ["--bogus"],
    None,
    ["--domain", "zp:4"],
], ids=["bad task", "bad max-iter", "bad degree-bound", "unknown flag", "no instance",
        "bad domain"])
def test_every_usage_error_exits_1(tmp_path, capsys, flags):
    """A bad flag or a missing argument is an input error, as the same bad
    value in the header is: exit 1 with one ``error:`` line, never the 2
    that means a --verify mismatch."""
    path = write(tmp_path, "u.vsat", "domain: zp:2\ntask: syzygy\n\nX\n2\n")
    argv = [] if flags is None else [path, *flags]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--degree-bound" in capsys.readouterr().out


def test_out_directory(tmp_path):
    path = write(tmp_path, "a.vsat", "domain: zp:2\ntask: saturate-vx\n\n2\nX\n")
    out_dir = tmp_path / "artifacts"
    assert main([path, "--out", str(out_dir), "--diagram"]) == 0
    result = (out_dir / "result.txt").read_text()
    assert "1\nX\n" in result
    trace = (out_dir / "trace.csv").read_text()
    assert trace.splitlines()[0] == "k,N_k,r_k,n_k,u_k,delta_k,Delta_k"
    assert (out_dir / "diagram.txt").exists()


def test_out_to_an_existing_file_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "a.vsat", "domain: zp:2\ntask: saturate-vx\n\n2\nX\n")
    taken = write(tmp_path, "taken", "")
    assert main([path, "--out", taken]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert Path(taken).read_text() == ""


def test_trace_csv_matches_records():
    res = saturate_vx([vec(Z2, [2]), vec(Z2, [0, 1])])
    csv = trace_csv(res.trace)
    assert csv.splitlines() == [
        "k,N_k,r_k,n_k,u_k,delta_k,Delta_k",
        "0,2,2,1,2,1,0",
        "1,1,3,1,3,0,0",
    ]


def test_pivot_diagram_single():
    G = saturate_free([vec(Z2, [1])])
    text = pivot_diagram(G, len(G), 1, 2)
    lines = text.splitlines()
    assert lines[-1] == "i=1 | O . ."


def test_pivot_diagram_empty():
    text = pivot_diagram(EchelonBasis(), 0, 2, 1)
    assert text.splitlines()[1:] == ["i=2 | # #", "i=1 | # #"]


def test_pivot_diagram_worked_configuration():
    pivots = [(1, 2), (1, 4), (2, 2), (3, 1), (4, 1), (4, 3)]
    cols = [basis_vector(Z2, 5, j, r) for j, r in pivots]
    G = EchelonBasis(cols)
    text = pivot_diagram(G, len(cols), 5, 4)
    assert text.count("@") == 2
    assert text.count("O") == 4
    # row 5 carries no pivot at all
    row5 = [l for l in text.splitlines() if l.startswith("i=5")][0]
    assert set(row5.split("| ")[1].split()) == {"#"}


def test_pivot_diagram_mixed_old_and_new():
    old = basis_vector(Z2, 2, 1, 0)
    new = basis_vector(Z2, 2, 2, 1)
    G = EchelonBasis([old, new])
    text = pivot_diagram(G, 1, 2, 1)
    lines = text.splitlines()
    assert lines[1] == "i=2 | . O"
    assert lines[2] == "i=1 | o ."


@pytest.mark.parametrize(
    "header, flags",
    [
        ("max-iter: abc\n", []),
        ("max-iter: 0\n", []),
        ("", ["--max-iter", "0"]),
        ("verify: true\ndegree-bound: -3\n", []),
        ("", ["--verify", "--degree-bound", "-3"]),
    ],
)
def test_bad_round_cap_or_degree_bound_is_input_error(tmp_path, capsys, header, flags):
    text = f"domain: zp:2\ntask: saturate-vx\n{header}\nX^2 + 2\n"
    path = write(tmp_path, "b.vsat", text)
    assert main([path, *flags]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "# verify" not in out


REPRO = "domain: zp:2\ntask: saturate-vx\n{header}\nX^70 + 2\n4\n"


def test_input_needing_70_rounds_verifies(tmp_path, capsys):
    path = write(tmp_path, "r.vsat", REPRO.format(header=""))
    assert main([path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "# d: 70, rounds: 70, basis: 141, generators: 2" in out
    assert "# verify: ok" in out


@pytest.mark.parametrize("header, flags", [("max-iter: 64\n", []), ("", ["--max-iter", "64"])])
def test_round_cap_hit_exits_3(tmp_path, capsys, header, flags):
    path = write(tmp_path, "c.vsat", REPRO.format(header=header))
    assert main([path, *flags]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: defect still 1 after 64 rounds\n")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.vsat"
    path.write_bytes(b"domain: zp:2\ntask: saturate-vx\n\n\xff\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


@pytest.mark.parametrize("flags", [[], ["--domain", "zp:3"]], ids=["header", "--domain"])
def test_utf8_bom_is_not_part_of_the_text(tmp_path, capsys, flags):
    """A file saved with a UTF-8 byte order mark reads as the same instance,
    whether its first header line is read or overridden by --domain."""
    path = tmp_path / "bom.vsat"
    path.write_bytes("domain: zp:3\ntask: saturate-vx\n\n3, X\n".encode("utf-8-sig"))
    assert main([str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert "# domain: zp:3" in out and "# task: saturate-vx" in out


LONG = "1" * 5000  # more digits than CPython converts between int and str at once


@pytest.mark.parametrize("component", [f"{LONG}*X + 1", f"({LONG[:3000]})^2*X + 1"],
                         ids=["long literal", "long rendered coefficient"])
def test_long_integers_parse_and_render(tmp_path, capsys, component):
    """A literal, or a rendered coefficient, of more than 4300 digits goes
    through the CLI, and the output parses back to the generators."""
    text = f"domain: field:q\ntask: saturate-vx\n\n{component}\n"
    assert main([write(tmp_path, "long.vsat", text)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.split("# trace")[0].splitlines() if l and not l.startswith("#")]
    inst = parse_instance(text)
    want = saturate_vx(inst.vectors, 64).generators
    assert [parse_vector(inst.domain, line) for line in lines] == want
    assert max(len(line) for line in lines) > 4300


def test_cli_syzygy_generators_are_those_of_syzygy_vx(capsys):
    """The CLI saturates ``scaled_kernel``, printing it as its ``# s:``
    lines; its generators are those of ``syzygy_vx``, which runs the same
    two calls."""
    path = Path(__file__).resolve().parents[1] / "instances" / "syzygy.vsat"
    assert main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# d: ")) + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("#"))
    res = syzygy_vx(parse_instance(path.read_text(encoding="utf-8")).vectors)
    assert lines[start:end] == [render_vector(g) for g in res.generators] != []


@pytest.mark.parametrize("tag", ["zp:2", "field:5"])
def test_cli_syzygy_builds_no_scalar_element(tmp_path, capsys, monkeypatch, tag):
    """From the parsed instance to the rendered output, a syzygy run over a
    scalar kind stays packed: the kernel is scaled, saturated and rendered
    from its numerators, and no ``ScalarElement`` is constructed.  The
    pivot diagram reads the basis's stored pivots, so --diagram builds none
    either."""
    import valsat.cli as cli
    from valsat.valuation import ScalarElement

    path = write(tmp_path, "s.vsat", f"domain: {tag}\ntask: syzygy\n\n"
                 "X + 1/3, 2\nX^2, (1/3)*X\n(2/3)*X, 4 + X^2\n")
    built, parsing = [], [True]
    parse_instance, init = cli.parse_instance, ScalarElement.__init__

    def parse(*args):
        inst = parse_instance(*args)
        parsing[0] = False
        return inst

    def counted(self, *args):
        if not parsing[0]:
            built.append(args)
        init(self, *args)

    monkeypatch.setattr(cli, "parse_instance", parse)
    monkeypatch.setattr(ScalarElement, "__init__", counted)
    for flags in ([], ["--diagram"]):
        parsing[0] = True
        assert main([path, *flags]) == 0
        out = capsys.readouterr().out
        assert "# s: " in out and ("# diagram\n" in out) == bool(flags)
        assert not parsing[0] and built == [], flags


TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "golden"
GOLDEN_INPUTS = sorted(TESTS.parent.glob("instances/*.vsat")) + sorted(TESTS.glob("data/*.vsat"))


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.name)
def test_cli_output_matches_its_golden_file(path, capsys):
    """The ``--verify --diagram`` output of every shipped and test instance,
    byte for byte: the ``# s:`` lines, the generators, the trace CSV, the
    diagram and the verdict, as tests/data/golden/<stem>.out records them.
    A change that alters an output on purpose records it again with
    ``python -m valsat.cli <file> --verify --diagram > tests/data/golden/<stem>.out``."""
    assert main([str(path), "--verify", "--diagram"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.name)
def test_cli_out_files_match_the_golden_file(path, tmp_path, capsys):
    """With --out, result.txt, trace.csv and diagram.txt hold the bytes that
    stdout would: joined under the ``# trace`` and ``# diagram`` headers,
    they are the golden file, and nothing is printed."""
    out_dir = tmp_path / "out"
    assert main([str(path), "--out", str(out_dir), "--verify", "--diagram"]) == 0
    assert capsys.readouterr().out == ""
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    joined = files.pop("result.txt")
    for name, header in (("trace.csv", b"# trace\n"), ("diagram.txt", b"# diagram\n")):
        if name in files:
            joined += header + files.pop(name)
    assert files == {}
    assert joined == (GOLDEN / f"{path.stem}.out").read_bytes()


def test_every_golden_file_has_its_instance():
    stems = [p.stem for p in GOLDEN_INPUTS]
    assert len(set(stems)) == len(stems)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(stems)
