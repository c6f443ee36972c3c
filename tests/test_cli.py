from pathlib import Path

import pytest

from valsat.cli import main, pivot_diagram, trace_csv
from valsat.echelon import EchelonBasis, saturate_free
from valsat.polyvec import PolyVec
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
    import valsat.cli as cli

    path = write(tmp_path, "m.vsat", "domain: zp:2\ntask: saturate-vx\n\n2, -X\n")
    monkeypatch.setattr(cli, "_verify_vx", lambda inst, res: False)
    assert main([path, "--verify"]) == 2
    assert "# verify: MISMATCH" in capsys.readouterr().out


def test_run_empty_vectors_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "e.vsat", "domain: zp:2\ntask: saturate-vx\n")
    assert main([path]) == 1
    assert "error" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    path = write(tmp_path, "p.vsat", "domain: zp:2\ntask: saturate-vx\n\n2 + $\n")
    assert main([path]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err


def test_run_missing_file(capsys):
    assert main(["/nonexistent/foo.vsat"]) == 1


def test_domain_and_task_overrides(tmp_path, capsys):
    path = write(tmp_path, "o.vsat", "domain: zp:2\ntask: saturate-vx\n\n3\n")
    assert main([path, "--domain", "zp:3", "--task", "saturate-free"]) == 0
    out = capsys.readouterr().out
    assert "# domain: zp:3" in out and "# task: saturate-free" in out


def test_out_directory(tmp_path):
    path = write(tmp_path, "a.vsat", "domain: zp:2\ntask: saturate-vx\n\n2\nX\n")
    out_dir = tmp_path / "artifacts"
    assert main([path, "--out", str(out_dir), "--diagram"]) == 0
    result = (out_dir / "result.txt").read_text()
    assert "1\nX\n" in result
    trace = (out_dir / "trace.csv").read_text()
    assert trace.splitlines()[0] == "k,N_k,r_k,n_k,u_k,delta_k,Delta_k"
    assert (out_dir / "diagram.txt").exists()


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
    text = pivot_diagram(G, list(G), 1, 2)
    lines = text.splitlines()
    assert lines[-1] == "i=1 | O . ."


def test_pivot_diagram_empty():
    text = pivot_diagram(EchelonBasis(), [], 2, 1)
    assert text.splitlines()[1:] == ["i=2 | # #", "i=1 | # #"]


def test_pivot_diagram_worked_configuration():
    pivots = [(1, 2), (1, 4), (2, 2), (3, 1), (4, 1), (4, 3)]
    cols = [basis_vector(Z2, 5, j, r) for j, r in pivots]
    G = EchelonBasis(cols)
    text = pivot_diagram(G, cols, 5, 4)
    assert text.count("@") == 2
    assert text.count("O") == 4
    # row 5 carries no pivot at all
    row5 = [l for l in text.splitlines() if l.startswith("i=5")][0]
    assert set(row5.split("| ")[1].split()) == {"#"}


def test_pivot_diagram_mixed_old_and_new():
    old = basis_vector(Z2, 2, 1, 0)
    new = basis_vector(Z2, 2, 2, 1)
    G = EchelonBasis([old, new])
    text = pivot_diagram(G, [new], 2, 1)
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
