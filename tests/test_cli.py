import contextlib
import csv
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dkit
from dkit import (
    DescriptorSystem,
    DkitError,
    Matrix,
    ParseError,
    Trajectory,
    analyze,
    brute_force_causality_oracle,
    residual_oracle,
)
from dkit import causality as causality_mod
from dkit import cli, linalg
from dkit import pencil as pencil_mod
from dkit.cli import (
    EXIT_HORIZON,
    EXIT_INCONSISTENT,
    EXIT_IRREGULAR,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE_DISAGREES,
    EXIT_PARSE,
    EXIT_UNRESOLVABLE,
    SystemFile,
    _csv_header,
    _csv_rows,
    main,
    parse_system_file,
)
from dkit.errors import excerpt
from dkit.scalars import Mode, format_scalar, parse_scalar
from helpers import (
    consistent_y0,
    planted_pencil,
    random_descriptor,
    random_signal,
    reference_causality_oracle,
    system_file_to_dict,
)

DATA = Path(__file__).parent / "data"
DIAG = str(DATA / "diag_system.json")
NIL_C100 = str(DATA / "nilpotent3_c100.json")
NIL_CEYE = str(DATA / "nilpotent3_ceye.json")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_parse_round_trip_is_lossless():
    sf = parse_system_file(DIAG)
    again = parse_system_file(system_file_to_dict(sf))
    assert sf == again
    sf3 = parse_system_file(system_file_to_dict(again))
    assert sf3 == sf


def test_parse_rational_strings():
    doc = load(DIAG)
    doc["F"][0][0] = "3/2"
    doc["Y0"][0] = "0.5"
    sf = parse_system_file(doc)
    assert sf.F[0, 0] == Fraction(3, 2)
    assert sf.Y0[0, 0] == Fraction(1, 2)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("F"), "missing"),
    (lambda d: d.update(n=0), "n"),
    (lambda d: d.update(K=-5), "K"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d["F"].append([0, 0]), "F"),
    (lambda d: d["F"][0].__setitem__(0, "1/0"), "F[0][0]"),
    (lambda d: d["B"][0].__setitem__(0, 0.25), "B[0][0]"),
    (lambda d: d.update(mode="symbolic"), "mode"),
])
def test_parse_errors_have_field_diagnostics(mutate, fragment):
    doc = load(DIAG)
    mutate(doc)
    with pytest.raises(ParseError) as err:
        parse_system_file(doc)
    assert fragment.lower() in str(err.value).lower()


def test_mode_override_reparses_scalars():
    sf = parse_system_file(DIAG, mode_override=Mode.FLOAT)
    assert sf.mode is Mode.FLOAT
    assert sf.F[0, 0] == complex(1.0)


def test_analyze_diag_fixture(capsys):
    assert main(["analyze", DIAG]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p = 1, q = 1, q_star = 1" in out
    assert "eigenvalue 2, size 1" in out
    assert "consistent, Z^p_k0 = [[5]]" in out
    assert "state-input causality: CAUSAL" in out
    assert "output-input causality: CAUSAL" in out
    assert "verification residuals: 0, 0" in out


def test_analyze_inconsistent_y0_still_emits_analysis(capsys, tmp_path):
    doc = load(DIAG)
    doc["Y0"] = [5, 7]
    path = tmp_path / "bad_y0.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_INCONSISTENT
    out = capsys.readouterr().out
    assert "INCONSISTENT" in out
    assert "residual Y0 - Q_p Z^p - Q D_k0 = [[0]; [8]]" in out
    assert "p = 1, q = 1" in out  # analysis still emitted


def test_analyze_irregular_pencil(tmp_path, capsys):
    doc = load(DIAG)
    doc["F"] = [[0, 0], [0, 0]]
    doc["G"] = [[0, 0], [0, 0]]
    path = tmp_path / "irregular.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_IRREGULAR
    assert "irregular" in capsys.readouterr().err


FLOAT_ZERO_CHAR_POLY = {
    # each node determinant's threshold, 1e-9 of its largest entry, zeroes the pivot -1
    "large_g": ([[1, 0], [0, 0]], [[2_000_000_000, 0], [0, 1]], EXIT_OK),
    # the trim's floor, 1e-9 * max(1, |coefficients|), zeroes every coefficient
    "tiny_entries": ([["1e-6", 0], [0, 0]], [["2e-6", 0], [0, "1e-6"]], EXIT_OK),
    "zero": ([[0, 0], [0, 0]], [[0, 0], [0, 0]], EXIT_IRREGULAR),
}


@pytest.mark.parametrize("case", FLOAT_ZERO_CHAR_POLY)
def test_a_float_char_poly_that_reads_zero_exits_7_and_only_exact_mode_exits_2(
        case, tmp_path, capsys):
    """Float thresholds cannot tell these pencils from irregular ones, so
    float mode asks for exact mode, which settles the verdict."""
    f, g, exact_code = FLOAT_ZERO_CHAR_POLY[case]
    doc = load(DIAG)
    doc.update(F=f, G=g, Y0=[0, 0], inputs=[[0]] * len(doc["inputs"]), mode="float")
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and "irregular" not in err
    assert err.startswith("numerical breakdown: det(sF - G) reads zero under the float "
                          "thresholds (1e-09 of each node's largest entry, 1e-09 of ")
    assert err.endswith("\nhint: retry with --mode exact\n")
    assert main(["analyze", str(path), "--mode", "exact"]) == exact_code
    out, err = capsys.readouterr()
    if exact_code == EXIT_OK:
        assert "pencil: regular (char poly degree 1)" in out
    else:
        assert err == "irregular pencil: det(sF - G) is identically zero\n"


def test_the_exit_codes_main_can_return_are_the_documented_ones():
    """main returns a code of its error table, or EXIT_OK, cmd_analyze's
    EXIT_INCONSISTENT or cmd_causality's EXIT_ORACLE_DISAGREES.  The cli
    module docstring's table and README's "Exit codes" paragraph list
    that set, no more and no less."""
    returned = {code for _, code, _, _ in cli._EXITS}
    returned |= {EXIT_OK, EXIT_INCONSISTENT, EXIT_ORACLE_DISAGREES}
    table = {int(c) for c in re.findall(r"^    (\d)  \S", cli.__doc__, re.M)}
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("\nExit codes: "):].split("\n\n")[0]
    listed = {int(c) for c in re.findall(r"`(\d)`", paragraph)}
    assert returned == table == listed == set(range(8))


def test_analyze_unresolvable_spectrum_suggests_float(tmp_path, capsys):
    doc = load(DIAG)
    doc["F"] = [[1, 0], [0, 1]]
    doc["G"] = [[0, -1], [1, 0]]  # char poly s^2 + 1
    doc["Y0"] = [0, 0]
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_UNRESOLVABLE
    err = capsys.readouterr().err
    assert "--mode float" in err
    assert main(["analyze", str(path), "--mode", "float"]) == EXIT_OK


def test_analyze_missing_file(capsys):
    assert main(["analyze", "no_such_file.json"]) == EXIT_PARSE
    assert "file not found" in capsys.readouterr().err


def test_a_path_that_starts_with_a_brace_is_read_as_a_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "{odd}.json").write_text(Path(DIAG).read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert parse_system_file("{odd}.json") == parse_system_file(DIAG)
    assert main(["analyze", "{odd}.json"]) == EXIT_OK


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "nested_too_deep"])
def test_unreadable_system_file_is_a_parse_error(kind, tmp_path, capsys):
    path = tmp_path / "system.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'{"n": "\xff"}')
    else:
        depth = 200_000
        path.write_text('{"n": ' + "[" * depth + "]" * depth + "}")
    assert main(["analyze", str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_analyze_out_json_round_trips_rationals(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["analyze", DIAG, "--out-json", str(report_path)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    assert doc["regular"] is True
    assert doc["char_poly"] == ["2", "-1"]
    assert doc["p"] == 1 and doc["q"] == 1 and doc["q_star"] == 1
    assert doc["jordan_blocks"] == [{"eigenvalue": "2", "size": 1}]
    assert doc["nilpotent_blocks"] == [1]
    assert doc["consistency"]["consistent"] is True
    assert doc["consistency"]["z_p0"] == ["5"]
    assert Fraction(doc["char_poly"][0]) == 2  # lossless strings
    assert doc["causality"]["state_input_causal"] is True


@pytest.mark.parametrize("command, flag, target, reason", [
    ("analyze", "--out-json", "", "Is a directory"),
    ("solve", "--out-csv", "missing/t.csv", "No such file or directory"),
], ids=["analyze", "solve"])
def test_unwritable_output_path_exits_1_with_one_error_line(command, flag, target, reason,
                                                            tmp_path, capsys):
    path = tmp_path / target
    assert main([command, DIAG, flag, str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {excerpt(str(path))}: {reason}\n"


def test_solve_worked_trajectory_csv(capsys):
    assert main(["solve", DIAG]) == EXIT_OK
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "Y_1", "Y_2", "X_1", "X_2", "Zp_1", "Zq_1"]
    assert len(rows[0]) == 1 + 2 + 2 + 1 + 1  # 1 + n + m + p + q
    ys = [(r[0], r[1], r[2]) for r in rows[1:]]
    assert ys == [("0", "5", "-1"), ("1", "11", "-1"),
                  ("2", "23", "-1"), ("3", "47", "-1")]


def test_solve_k_flag_and_out_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    assert main(["solve", DIAG, "--K", "2", "--out-csv", str(out_path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "max step residual 0" in printed
    text = out_path.read_text()
    assert "\r" not in text  # LF endings
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 3  # header + k = 0, 1, 2


def test_solve_zero_input_zero_state(tmp_path, capsys):
    doc = load(DIAG)
    doc["B"] = [[0], [0]]
    doc["Y0"] = [0, 0]
    path = tmp_path / "rest.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    for row in rows[1:]:
        assert all(v == "0" for v in row[1:])


def test_solve_short_horizon_exits_5(tmp_path, capsys):
    doc = load(NIL_C100)     # q* = 2, K = 4 needs inputs through index 5
    doc["inputs"] = doc["inputs"][:4]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_HORIZON
    assert "horizon" in capsys.readouterr().err


def test_solve_inconsistent_exits_3(tmp_path, capsys):
    doc = load(DIAG)
    doc["Y0"] = [5, 7]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_INCONSISTENT
    assert "inconsistent" in capsys.readouterr().err.lower()


def test_causality_command_fixture(capsys):
    assert main(["causality", NIL_C100]) == EXIT_OK
    out = capsys.readouterr().out
    assert "state-input causality: NON-CAUSAL" in out
    assert "witness H_q B_q = [[1]; [0]]" in out
    assert "output-input causality: CAUSAL" in out


def test_causality_oracle_cross_check(capsys):
    assert main(["causality", NIL_C100, "--oracle-trials", "25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("agrees") == 2

    assert main(["causality", NIL_CEYE, "--oracle-trials", "25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "output-input causality: NON-CAUSAL" in out
    assert out.count("agrees") == 2


def test_causality_q_zero_remark(tmp_path, capsys):
    doc = load(DIAG)
    doc["F"] = [[1, 0], [0, 1]]
    doc["Y0"] = [1, 1]
    path = tmp_path / "ordinary.json"
    path.write_text(json.dumps(doc))
    assert main(["causality", str(path)]) == EXIT_OK
    assert "no infinite eigenvalues: causal in both senses" in capsys.readouterr().out


def test_causality_seed_is_reproducible(capsys, monkeypatch):
    monkeypatch.setenv("DKIT_SEED", "1234")
    main(["causality", NIL_CEYE, "--oracle-trials", "10"])
    first = capsys.readouterr().out
    main(["causality", NIL_CEYE, "--oracle-trials", "10"])
    second = capsys.readouterr().out
    assert first == second


def test_causality_disagreement_exits_6(capsys, monkeypatch):
    # DIAG has no infinite eigenvalues, so no trial finds a counterexample
    # to the non-causal verdicts claimed here, and none is printed
    real_report = causality_mod.build_report

    def none_causal(*args, **kwargs):
        return real_report(*args, **kwargs)._replace(state_input_causal=False,
                                                     output_input_causal=False)

    monkeypatch.setattr(causality_mod, "build_report", none_causal)
    assert main(["causality", DIAG, "--oracle-trials", "5"]) == EXIT_ORACLE_DISAGREES
    captured = capsys.readouterr()
    assert "DISAGREES" in captured.out
    assert captured.err == "".join(
        f"criteria said non-causal for {mode} but the oracle found the opposite\n"
        for mode in ("state", "output"))


def _fmt_values(mat: Matrix) -> str:
    return "[" + "; ".join("[" + ", ".join(format_scalar(x) for x in mat.row_list(i)) + "]"
                           for i in range(mat.rows)) + "]"


def _disagreement_block(mode: str, ce) -> str:
    """What the CLI prints for an exact-mode verdict claimed causal that the
    oracle refutes with ``ce``."""
    u = [[format_scalar(x) for x in v.column_list()] for v in ce.base_signal.samples]
    u_pert = [[format_scalar(x) for x in v.column_list()] for v in ce.perturbed_signal.samples]
    return (f"criteria said causal for {mode} but the oracle found the opposite\n"
            f"distinguishing pair (perturbed index {ce.perturbed_index}, "
            f"diverged at k = {ce.diverged_at}):\n"
            f"  U  = {u}\n"
            f"  U' = {u_pert}\n"
            f"  value under U  at k: {_fmt_values(ce.base_value)}\n"
            f"  value under U' at k: {_fmt_values(ce.perturbed_value)}\n")


def test_both_disagreements_print_their_counterexamples_state_first(capsys, monkeypatch):
    # both verdicts of nilpotent3_ceye read causal, which the oracle refutes
    real_report = causality_mod.build_report

    def all_causal(*args, **kwargs):
        return real_report(*args, **kwargs)._replace(state_input_causal=True,
                                                     output_input_causal=True)

    monkeypatch.setattr(causality_mod, "build_report", all_causal)
    monkeypatch.delenv("DKIT_SEED", raising=False)
    assert main(["causality", NIL_CEYE, "--oracle-trials", "5"]) == EXIT_ORACLE_DISAGREES
    out, err = capsys.readouterr()
    assert "oracle (state, 5 trials): DISAGREES\noracle (output, 5 trials): DISAGREES\n" in out

    a = analyze(parse_system_file(NIL_CEYE).system())
    blocks = []
    for mode in ("state", "output"):
        ce = reference_causality_oracle(a, mode, horizon=8, trials=5, seed=0)
        # C = I, so a diverging state is a diverging output
        assert _fmt_values(ce.base_value) == "[[0]; [0]; [0]]"
        assert _fmt_values(ce.perturbed_value) == "[[0]; [1]; [0]]"
        blocks.append(_disagreement_block(mode, ce))
    assert err == "".join(blocks)


@pytest.mark.parametrize("seed, plant", [(0, "generic"), (3, "generic"),
                                         (7, "output_causal_only")])
def test_the_cli_prints_the_library_oracles_counterexamples(seed, plant, capsys, monkeypatch):
    """``DKIT_SEED=s dkit causality --oracle-trials N`` prints, for each
    verdict a patched ``build_report`` flips, the counterexample (or none)
    that ``brute_force_causality_oracle(a, N, seed=s)`` returns for it."""
    rng = random.Random(seed)
    a = random_descriptor(rng, 5, 2, 1, q=3, plant=plant)
    sysm = a.system
    signal = random_signal(rng, 2, 0, 8)
    sf = SystemFile(n=5, l=2, m=1, mode=Mode.EXACT, F=sysm.F, G=sysm.G, B=sysm.B,
                    C=sysm.C, Y0=consistent_y0(rng, a, signal), k0=0,
                    inputs=signal.samples, K=4)
    doc = json.dumps(system_file_to_dict(sf))
    real_report = causality_mod.build_report
    truth = real_report(a.system, a.w, a.tin)

    def flipped(*args, **kwargs):
        rep = real_report(*args, **kwargs)
        return rep._replace(state_input_causal=not rep.state_input_causal,
                            output_input_causal=not rep.output_input_causal)

    monkeypatch.setattr(causality_mod, "build_report", flipped)
    monkeypatch.setenv("DKIT_SEED", str(seed))
    assert main(["causality", doc, "--oracle-trials", "20"]) == EXIT_ORACLE_DISAGREES
    err = capsys.readouterr().err

    found = brute_force_causality_oracle(analyze(sf.system()), 20, seed=seed)
    want = []
    for mode, causal, ce in zip(("state", "output"),
                                (truth.state_input_causal, truth.output_input_causal), found):
        assert (ce is None) == causal
        want.append(_disagreement_block(mode, ce) if ce else
                    f"criteria said non-causal for {mode} but the oracle found the opposite\n")
    assert any(found)
    assert err == "".join(want)


def test_oracle_reruns_the_perturbed_signal_only_where_its_window_reads_it(capsys, monkeypatch):
    """Per trial, three runs of the stepping core: Z^p advanced from k0 to
    k1 = max(k0, j - w + 1), w = max(q*, 1), on the forward rows alone,
    then the base and the perturbed signal from Z^p_{k1} over k1 .. j - 1
    on the Y and X rows, with samples that differ only at j; no run
    computes instant j."""
    rng = random.Random(4)
    a = random_descriptor(rng, 6, 2, 2, q=3, plant="state_causal")
    sysm = a.system
    signal = random_signal(rng, 2, 0, 12)
    sf = SystemFile(n=6, l=2, m=2, mode=Mode.EXACT, F=sysm.F, G=sysm.G, B=sysm.B,
                    C=sysm.C, Y0=consistent_y0(rng, a, signal), k0=0,
                    inputs=signal.samples, K=6)
    real_oracle, real_steps = causality_mod.brute_force_causality_oracle, causality_mod._steps
    oracle_calls, runs = [], []

    def counted_oracle(*args, **kwargs):
        oracle_calls.append((args[1:], kwargs))
        return real_oracle(*args, **kwargs)

    def recorded_steps(st, rows, z, e, inputs, i, count):
        runs.append((rows, inputs[0], i // sysm.l, count))  # (rows, samples, first instant, instants)
        return real_steps(st, rows, z, e, inputs, i, count)

    monkeypatch.setattr(causality_mod, "brute_force_causality_oracle", counted_oracle)
    monkeypatch.setattr(causality_mod, "_steps", recorded_steps)
    monkeypatch.delenv("DKIT_SEED", raising=False)
    doc = json.dumps(system_file_to_dict(sf))
    assert main(["causality", doc, "--oracle-trials", "3"]) == EXIT_OK
    assert "state-input causality: CAUSAL" in capsys.readouterr().out
    assert oracle_calls == [((3,), {"seed": 0, "tol": None})]  # one pass for both verdicts
    width = max(a.w.q_star, 1)
    assert width >= 2
    assert len(runs) == 9
    compared = a.step_map.rows[:sysm.n + sysm.m]
    for prefix, base, pert in zip(runs[::3], runs[1::3], runs[2::3]):
        moved = {i // sysm.l for i, (x, y) in enumerate(zip(base[1], pert[1], strict=True))
                 if x != y}
        assert len(moved) == 1
        j = moved.pop()
        k1 = max(0, j - width + 1)
        assert prefix[0] == () and prefix[1] == base[1]  # stepped on the forward rows alone
        assert prefix[2:] == (0, k1 + 1)  # instants k0 .. k1: Z^p_{k1} is its last
        assert base[0] == pert[0] == compared
        assert base[2:] == pert[2:] == (k1, j - k1)  # instants k1 .. j - 1


def test_float_mode_full_pipeline(capsys):
    assert main(["analyze", DIAG, "--mode", "float"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p = 1, q = 1, q_star = 1" in out
    assert "state-input causality: CAUSAL" in out

    assert main(["solve", DIAG, "--mode", "float"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    values = [float(r[1]) for r in rows[1:]]
    assert values == pytest.approx([5.0, 11.0, 23.0, 47.0], abs=1e-9)


def test_the_system_tolerance_decides_the_float_structure(tmp_path, capsys):
    # F = diag(1, 1e-6): at tol 1e-4 the char poly trim and every rank
    # decision alike read the 1e-6 entry as zero
    doc = load(DIAG)
    doc["mode"], doc["F"] = "float", [[1, 0], [0, 1e-6]]
    sf = parse_system_file(doc)
    w = analyze(DescriptorSystem(sf.F, sf.G, sf.B, sf.C, tol=1e-4)).w
    assert (w.p, w.q, w.q_star) == (1, 1, 1)
    target = tmp_path / "report.json"
    argv = ["analyze", json.dumps(doc), "--mode", "float", "--tol", "1e-4",
            "--out-json", str(target)]
    assert main(argv) == EXIT_OK
    report = json.loads(target.read_text())
    assert (report["p"], report["q"], report["q_star"]) == (w.p, w.q, w.q_star)
    assert report["jordan_blocks"] == [
        {"eigenvalue": format_scalar(b.eigenvalue), "size": b.size} for b in w.jordan_blocks]
    assert report["nilpotent_blocks"] == [b.size for b in w.nilpotent_blocks]


def test_float_char_poly_breakdown_is_typed(tmp_path, capsys):
    # At n = 10 the float Vandermonde system on nodes 0..10 goes numerically
    # rank deficient; that must end in a documented exit code, not a traceback.
    pen, _, _ = planted_pencil(random.Random(0), 10, min_q=1)
    doc = {
        "n": 10, "l": 1, "m": 1, "mode": "float",
        "F": [[format_scalar(x) for x in pen.F.row_list(i)] for i in range(10)],
        "G": [[format_scalar(x) for x in pen.G.row_list(i)] for i in range(10)],
        "B": [[1]] * 10, "C": [[1] * 10], "Y0": [0] * 10,
        "k0": 0, "inputs": [[0]] * 12, "K": 2,
    }
    path = tmp_path / "float10.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical breakdown" in err
    assert "Traceback" not in err


@pytest.mark.xfail(strict=True, reason="the float char poly solves the Vandermonde system of "
                   "nodes 0..n, which breaks down from n = 10 (ROADMAP item 4)")
def test_float_analyze_of_a_10_x_10_diagonal_system(capsys):
    # F = I, G = diag(1..10): ten simple eigenvalues 1..10, no infinite part;
    # n = 9 exits 0, n = 10 exits 7 ("interpolation on nodes 0..10 broke down")
    n = 10
    doc = {
        "n": n, "l": 1, "m": 1, "mode": "float",
        "F": [[int(i == j) for j in range(n)] for i in range(n)],
        "G": [[(i + 1) * int(i == j) for j in range(n)] for i in range(n)],
        "B": [[1]] * n, "C": [[1] * n], "Y0": [0] * n,
        "k0": 0, "inputs": [[0]] * 2, "K": 2,
    }
    assert main(["analyze", json.dumps(doc)]) == EXIT_OK


def test_float_analyze_at_n_10_breaks_down_before_any_node_and_exits_7(capsys):
    """At n = 10 the smallest pivot of the logged Vandermonde elimination,
    1, is within the threshold of V alone, 1e-9 * 10^10, so the char poly
    breaks down before it evaluates a node."""
    n = 10
    _, _, pivot = pencil_mod._vandermonde(n)
    assert pivot <= linalg.DEFAULT_RANK_TOL * n**n
    doc = {
        "n": n, "l": 1, "m": 1, "mode": "float",
        "F": [[int(i == j) for j in range(n)] for i in range(n)],
        "G": [[(i + 1) * int(i == j) for j in range(n)] for i in range(n)],
        "B": [[1]] * n, "C": [[1] * n], "Y0": [0] * n,
        "k0": 0, "inputs": [[0]] * 2, "K": 2,
    }
    assert main(["analyze", json.dumps(doc)]) == EXIT_NUMERICAL
    assert capsys.readouterr() == (
        "", "numerical breakdown: char poly interpolation on nodes 0..10 broke down: "
            "Vandermonde pivot 1 within the rank threshold 10\nhint: retry with --mode exact\n")


def _over_time(signum, frame):
    raise TimeoutError("stopped by the 2 s alarm")


def test_float_analyze_at_n_144_exits_7_on_the_vandermonde_overflow_within_2s(capsys):
    """From n = 144 on the Vandermonde entry n^n overflows a double (143^143
    is below 1.8e308, 144^144 above), and the char poly breaks down there
    with exit 7 instead of an OverflowError."""
    n = 144
    doc = {
        "n": n, "l": 1, "m": 1, "mode": "float",
        "F": [[int(i == j) for j in range(n)] for i in range(n)],
        "G": [[(i + 1) * int(i == j) for j in range(n)] for i in range(n)],
        "B": [[1]] * n, "C": [[1] * n], "Y0": [0] * n,
        "k0": 0, "inputs": [[0]] * 2, "K": 2,
    }
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code = main(["analyze", json.dumps(doc)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == (
        "numerical breakdown: char poly interpolation on nodes 0..144 broke down: "
        "the Vandermonde entries overflow a double")


def test_float_mode_without_numpy_exits_1_naming_numpy_and_exact_mode(monkeypatch, capsys):
    """Only the float root finder imports numpy; without it (dkit installed
    with --no-deps) a float run ends in a typed error, not a traceback."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert main(["analyze", DIAG, "--mode", "float"]) == EXIT_PARSE
    assert capsys.readouterr() == (
        "", "error: float mode needs numpy for the roots of the char poly, and it cannot "
            "be imported; install numpy or retry with --mode exact\n")
    assert main(["analyze", DIAG]) == EXIT_OK


def test_analyze_of_eigenvalues_scaled_by_a_product_of_11_primes_ends_within_2s(capsys):
    """F = P I, G = diag(59 P, 61 P), P the product of the first 11 primes:
    the char poly has content P^2, which the rational root search divides
    out; kept, it gives the end coefficients 4 * 3^11 and 3^11 divisors."""
    big = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    doc = {
        "n": 2, "l": 1, "m": 1, "mode": "exact",
        "F": [[big, 0], [0, big]], "G": [[59 * big, 0], [0, 61 * big]],
        "B": [[1], [1]], "C": [[1, 1]], "Y0": [0, 0],
        "k0": 0, "inputs": [[0]] * 2, "K": 2,
    }
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code = main(["analyze", json.dumps(doc)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_OK
    assert ("finite blocks: (eigenvalue 59, size 1), (eigenvalue 61, size 1)\n"
            in capsys.readouterr().out)


def _count_calls(monkeypatch, *names):
    """Count calls of dkit functions given as "module.function" by patching
    every dkit.* module binding of each, as perfbench/spans.py does."""
    counts = dict.fromkeys(names, 0)
    for qual in names:
        mod_name, attr = qual.split(".")
        orig = getattr(sys.modules[f"dkit.{mod_name}"], attr)

        def counted(*args, _orig=orig, _qual=qual, **kwargs):
            counts[_qual] += 1
            return _orig(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "dkit" or name.startswith("dkit."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
    return counts


@pytest.mark.parametrize("argv", [
    ["analyze", NIL_C100],
    ["solve", NIL_C100],
    ["causality", NIL_C100],
    ["causality", NIL_CEYE, "--oracle-trials", "3"],
])
def test_each_run_computes_char_poly_and_verify_once(argv, monkeypatch, capsys):
    """Each run computes the char poly and the canonical form once.  An
    exact run accepts the form by its chain relations inside _decompose and
    calls no verify; a float run calls verify once."""
    counts = _count_calls(monkeypatch, "pencil.char_poly", "weierstrass._decompose",
                          "weierstrass.verify")
    for mode, verify_calls in (("exact", 0), ("float", 1)):
        counts.update(dict.fromkeys(counts, 0))
        assert main(argv + ["--mode", mode]) == EXIT_OK
        assert counts == {"pencil.char_poly": 1, "weierstrass._decompose": 1,
                          "weierstrass.verify": verify_calls}


@pytest.mark.parametrize("argv", [
    ["analyze", NIL_C100],
    ["solve", NIL_C100],
    ["causality", NIL_CEYE, "--oracle-trials", "3"],
])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_only_float_runs_invert_the_forced_blocks(argv, mode, monkeypatch, capsys):
    """Exact mode defines P as [F Q_p | G Q_q]^{-1} and never builds it:
    P B is one solve.  Float mode still inverts the blocks."""
    counts = _count_calls(monkeypatch, "linalg.inverse", "linalg.solve_unique")
    assert main(argv + ["--mode", mode]) == EXIT_OK
    if mode == "exact":
        assert counts == {"linalg.inverse": 0, "linalg.solve_unique": 1}
    else:
        assert counts["linalg.inverse"] == 1


@pytest.mark.parametrize("argv", [
    ["analyze", NIL_C100],
    ["solve", NIL_C100],
    ["causality", NIL_C100],
    ["causality", NIL_CEYE, "--oracle-trials", "3"],
])
def test_each_exact_run_walks_the_wong_sequence_once(argv, monkeypatch, capsys):
    """The char poly and the canonical form share one walk of the Wong
    sequence of (F, G); the only other preimage steps are those of G - aF
    for the one finite eigenvalue, a = 1."""
    sf = parse_system_file(argv[1])
    calls = []
    preimages = linalg.preimages

    def recorded(a, tol=None):
        calls.append(a)
        return preimages(a, tol)

    monkeypatch.setattr(linalg, "preimages", recorded)
    assert main(argv) == EXIT_OK
    assert calls == [sf.F, sf.G - sf.F]


# each run after another in one process, as ``main`` reuses one parser
_SEQUENCE = [
    ["solve", DIAG, "--K", "2"],
    ["solve", DIAG],
    ["analyze", DIAG, "--mode", "float", "--out-json", "{out}"],
    ["analyze", DIAG, "--out-json", "{out}"],
    ["solve", DIAG, "--K", "x"],
    ["causality", NIL_C100, "--oracle-trials", "2"],
]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _in_a_fresh_interpreter(argv):
    src = str(Path(dkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", "import sys; from dkit.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_consecutive_runs_in_one_process_match_runs_on_their_own(tmp_path, monkeypatch):
    monkeypatch.setenv("DKIT_SEED", "7")
    target = tmp_path / "report.json"

    def run(argv, runner):
        target.unlink(missing_ok=True)
        result = runner([a.replace("{out}", str(target)) for a in argv])
        return result + (target.read_bytes() if target.exists() else None,)

    in_sequence = [run(argv, _in_process) for argv in _SEQUENCE]
    alone = [run(argv, _in_a_fresh_interpreter) for argv in _SEQUENCE]
    assert in_sequence == alone
    assert [r[0] for r in in_sequence] == [EXIT_OK] * 4 + [EXIT_PARSE, EXIT_OK]
    assert in_sequence[0][1] != in_sequence[1][1]  # --K 2 did set the horizon
    assert in_sequence[2][3] != in_sequence[3][3]  # --mode float did switch the mode


def test_main_dispatches_to_the_command_bound_at_call_time(monkeypatch, capsys):
    assert main(["solve", DIAG]) == EXIT_OK  # the parser exists by now
    counts = _count_calls(monkeypatch, "cli.cmd_solve", "cli.cmd_analyze")
    assert main(["solve", DIAG]) == EXIT_OK
    assert counts == {"cli.cmd_solve": 1, "cli.cmd_analyze": 0}
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv, builds", [
    (["analyze", NIL_C100], 0),
    (["causality", NIL_C100], 0),
    (["solve", NIL_C100], 1),
    (["causality", NIL_CEYE, "--oracle-trials", "3"], 1),
])
def test_each_run_builds_the_step_map_at_most_once(argv, builds, monkeypatch, capsys):
    counts = _count_calls(monkeypatch, "solver._step_map")
    assert main(argv) == EXIT_OK
    assert counts == {"solver._step_map": builds}


EXACT_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**300)),
)
REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-300, -1e-300, 1e300, -1e300,
                     float("inf"), float("-inf"), float("nan")]),
)
FLOAT_VALUES = st.one_of(REALS.map(complex), st.builds(complex, REALS, REALS))


@st.composite
def trajectories(draw):
    """Block sizes, k0, a scalar mode and rows of values, one per instant:
    Y, X, Z^p and Z^q one after another."""
    n, m, p, q = (draw(st.integers(lo, 3)) for lo in (1, 0, 0, 0))
    mode = draw(st.sampled_from([Mode.EXACT, Mode.FLOAT]))
    values = EXACT_VALUES if mode is Mode.EXACT else FLOAT_VALUES
    rows = draw(st.lists(st.lists(values, min_size=n + m + p + q, max_size=n + m + p + q),
                         max_size=4))
    return draw(st.integers(-5, 5)), mode, rows, n, m, p, q


@settings(max_examples=200)
@given(trajectories())
def test_trajectory_csv_bytes_match_the_csv_module(traj):
    k0, mode, rows, n, m, p, q = traj
    bounds = [0, n, n + m, n + m + p, n + m + p + q]
    parts = [tuple(Matrix.column(row[lo:hi], mode) for row in rows)
             for lo, hi in zip(bounds, bounds[1:])]
    lines = [_csv_header(n, m, p, q)]
    states = list(_csv_rows(zip(*parts), k0, lines))
    assert states == list(parts[0])
    got = io.StringIO(newline="")
    got.writelines(lines)
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["k"] + [f"Y_{i + 1}" for i in range(n)] + [f"X_{i + 1}" for i in range(m)]
                    + [f"Zp_{i + 1}" for i in range(p)] + [f"Zq_{i + 1}" for i in range(q)])
    for k, row in enumerate(rows, k0):
        writer.writerow([str(k)] + [format_scalar(x) for x in row])
    assert got.getvalue().encode() == want.getvalue().encode()


@pytest.mark.parametrize("k", ["-1", "0"])
def test_solve_rejects_k_flag_not_after_k0(k, capsys):
    assert main(["solve", DIAG, "--K", k]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "--K" in err
    assert "Traceback" not in err


def test_solve_rejects_file_horizon_at_k0(tmp_path, capsys):
    doc = load(DIAG)
    doc["K"] = doc["k0"]
    path = tmp_path / "k_at_k0.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_PARSE
    assert "K: solve needs a horizon end after k0" in capsys.readouterr().err
    assert main(["analyze", str(path)]) == EXIT_OK  # analyze needs no horizon


@pytest.mark.parametrize("argv", [
    [],
    ["analyze"],
    ["frobnicate", DIAG],
    ["analyze", DIAG, "--tol", "abc"],
    ["analyze", DIAG, "--mode", "symbolic"],
    ["solve", DIAG, "--K", "1.5"],
    ["causality", DIAG, "--oracle-trials", "-3"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol", "--cluster-tol", "--causality-tol"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_tolerances_must_be_finite_and_non_negative(flag, value, capsys):
    assert main(["analyze", DIAG, "--mode", "float", flag, value]) == EXIT_PARSE
    assert f"argument {flag}" in capsys.readouterr().err


def test_zero_oracle_trials_runs_no_oracle(capsys):
    assert main(["causality", DIAG, "--oracle-trials", "0"]) == EXIT_OK
    assert "oracle" not in capsys.readouterr().out


def test_non_integer_seed_is_a_parse_error(monkeypatch, capsys):
    monkeypatch.setenv("DKIT_SEED", "abc")
    assert main(["causality", DIAG, "--oracle-trials", "2"]) == EXIT_PARSE
    assert "DKIT_SEED" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
@pytest.mark.parametrize("raw, why", [
    ("1" * 5000, "the integer exceeds Python's limit of"),
    (" -1_" + "2" * 4999 + "\n", "the integer exceeds Python's limit of"),
    ("1" * 4999 + "x", "expected an integer"),
    ("1__" + "1" * 4999, "expected an integer"),
])
def test_a_seed_over_the_digit_limit_says_so(raw, why, monkeypatch, capsys):
    monkeypatch.setenv("DKIT_SEED", raw)
    assert main(["causality", DIAG, "--oracle-trials", "2"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"DKIT_SEED: {why}" in err
    assert f"(length {len(raw)})" in err and len(err) < 200


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1+nanj", "1+infj", "1e400",
                                  float("nan"), float("inf"),
                                  pytest.param(10**400, id="int10**400"),
                                  pytest.param(True, id="True")])
def test_float_mode_rejects_non_finite_scalars(cell, capsys):
    doc = load(DIAG)
    doc["mode"] = "float"
    doc["F"][0][0] = cell
    with pytest.raises(ValueError) as reason:
        parse_scalar(cell, Mode.FLOAT)
    with pytest.raises(ParseError) as exc:
        parse_system_file(doc)
    assert str(exc.value) == f"F[0][0]: {reason.value}"
    assert main(["analyze", json.dumps(doc)]) == EXIT_PARSE


def test_float_json_ints_are_admitted_once(monkeypatch):
    doc = load(DIAG)
    doc["mode"] = "float"
    doc["F"][1] = [2**1023 - 1, -(2**1023 - 1)]  # the widest ints taken directly
    doc["Y0"] = [-(2**53 + 1), 3]  # rounded to a double as complex() rounds it
    counts = _count_calls(monkeypatch, "scalars.parse_scalar", "scalars.ensure_scalar")
    sf = parse_system_file(doc)
    assert counts == {"scalars.parse_scalar": 0, "scalars.ensure_scalar": 0}
    for name in ("F", "G", "B", "C"):
        want = [[parse_scalar(x, Mode.FLOAT) for x in row] for row in doc[name]]
        got = getattr(sf, name).to_lists()
        assert got == want and all(type(x) is complex for row in got for x in row)
    assert sf.Y0.column_list() == [parse_scalar(x, Mode.FLOAT) for x in doc["Y0"]]
    assert [v.column_list() for v in sf.inputs] == [[1 + 0j]] * 4


def test_float_json_int_of_1024_bits_goes_through_parse_scalar(monkeypatch):
    doc = load(DIAG)
    doc["mode"] = "float"
    doc["F"][0][0] = 2**1023  # finite, but beyond the direct path's bound
    counts = _count_calls(monkeypatch, "scalars.parse_scalar")
    assert parse_system_file(doc).F[0, 0] == complex(2**1023)
    assert counts == {"scalars.parse_scalar": 1}


def test_exact_json_ints_pass_through_where_python_has_no_digit_limit(monkeypatch):
    want = parse_system_file(DIAG)
    monkeypatch.setattr(cli, "max_str_digits", lambda: 0)
    counts = _count_calls(monkeypatch, "scalars.parse_scalar")
    got = parse_system_file(DIAG)
    assert counts == {"scalars.parse_scalar": 0}
    assert got == want


@pytest.mark.parametrize("field, value", [
    ("n", [0] * 100_000),
    ("mode", "x" * 100_000),
    ("k0", "7" * 1_000_000),
    ("F", [["x" * 200_000, 0], [0, 0]]),
], ids=["n", "mode", "k0", "F"])
def test_parse_errors_show_a_bounded_excerpt_of_the_value(field, value, tmp_path, capsys):
    doc = load(DIAG)
    doc[field] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"parse error: {field}") and len(err) <= 200


@pytest.mark.parametrize("argv, prefix", [
    (["solve", DIAG, "--K", "x" * 100_000], "parse error: "),
    (["analyze", DIAG, "--tol", "x" * 100_000], "parse error: "),
    (["causality", DIAG, "--oracle-trials", "x" * 100_000], "parse error: "),
    (["analyze", DIAG, "--mode", "x" * 100_000], "parse error: "),
    (["analyze", "x" * 100_000], "parse error: "),
    (["analyze", DIAG, "--out-json", "x" * 100_000], "error: cannot write "),
    (["solve", DIAG, "--out-csv", "x" * 100_000], "error: cannot write "),
], ids=["K", "tol", "oracle-trials", "mode", "path", "out-json", "out-csv"])
def test_usage_errors_show_a_bounded_excerpt_of_the_argument(argv, prefix, capsys):
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix) and err.count("\n") == 1
    assert len(err.encode()) <= 300 and "invalid _" not in err


def test_exact_mode_rejects_non_finite_json_numbers():
    doc = load(DIAG)
    doc["G"][1][1] = float("inf")
    with pytest.raises(ParseError, match=r"G\[1\]\[1\]"):
        parse_system_file(doc)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
def test_json_int_over_the_digit_limit_is_a_parse_error(capsys):
    text = json.dumps(load(DIAG)).replace('"k0": 0', '"k0": ' + "7" * 5000)
    assert main(["analyze", text]) == EXIT_PARSE
    assert "not valid JSON" in capsys.readouterr().err


digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="this Python has no int digit limit")


@digit_limit
@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_exact_value_over_the_digit_limit_is_a_parse_error(command, capsys):
    doc = load(DIAG)
    doc["Y0"] = ["1e5000", -1]
    with pytest.raises(ParseError, match=r"Y0\[0\]: .*more than \d+ decimal digits"):
        parse_system_file(doc)
    assert main([command, json.dumps(doc)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "decimal digits" in err


@digit_limit
def test_exact_scalars_at_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    widest = 10**limit - 1  # the largest integer with `limit` digits
    for raw in (widest, -widest, f"{widest}/7", f"7/{widest}"):
        assert format_scalar(parse_scalar(raw, Mode.EXACT))
    doc = load(DIAG)
    doc["Y0"] = [widest, f"-{widest}/3"]
    assert parse_system_file(doc).Y0.column_list() == [widest, Fraction(-widest, 3)]
    # a numerator of 10^limit: as an int it is caught by its size, as a
    # string (spelled without str()) when it is read
    over = "1" + "0" * limit
    for raw in ("1e5000", f"{over}/3", 10**limit):
        with pytest.raises(ValueError, match="digits"):
            parse_scalar(raw, Mode.EXACT)
        doc["Y0"] = [raw, 0]
        with pytest.raises(ParseError, match=r"Y0\[0\]: .*digits"):
            parse_system_file(doc)
    for raw in ("1e5000", f"{over}/3"):
        doc["Y0"] = [raw, 0]
        assert main(["analyze", json.dumps(doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "digits" in err


@digit_limit
@pytest.mark.parametrize("out_csv", [False, True])
def test_solve_whose_states_outgrow_the_digit_limit_exits_1(out_csv, tmp_path, capsys):
    # Y_k = 1000^k * 10^4000 passes 4,300 digits at k = 101
    doc = {"n": 1, "l": 1, "m": 1, "mode": "exact", "F": [[1]], "G": [[1000]],
           "B": [[0]], "C": [[1]], "Y0": ["1e4000"], "k0": 0,
           "inputs": [[0]] * 121, "K": 120}
    assert main(["analyze", json.dumps(doc)]) == EXIT_OK
    capsys.readouterr()
    argv = ["solve", json.dumps(doc)]
    if out_csv:
        argv += ["--out-csv", str(tmp_path / "t.csv")]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "decimal digits" in err


@digit_limit
def test_inconsistent_residual_over_the_digit_limit_exits_1(capsys):
    # Q_p spans [1; 10^10], so the least-squares residual of a 4,291-digit
    # Y0 has more than 4,300 digits although Y0 itself parses
    doc = {"n": 2, "l": 1, "m": 1, "mode": "exact", "F": [[1, 0], [10**10, 0]],
           "G": [[1, 0], [0, 1]], "B": [[0], [0]], "C": [[1, 0]],
           "Y0": ["9e4290", 0], "k0": 0, "inputs": [[0]] * 5, "K": 3}
    for command in ("analyze", "solve"):
        assert main([command, json.dumps(doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "decimal digits" in err


@digit_limit
@pytest.mark.parametrize("out_csv", [False, True])
def test_solve_over_the_digit_limit_writes_no_rows(out_csv, tmp_path, capsys):
    # Y_k = 1000^k * 10^4000 passes 4,300 digits at k = 101; the check
    # runs before the first row, so no part of the CSV appears
    doc = {"n": 1, "l": 1, "m": 1, "mode": "exact", "F": [[1]], "G": [[1000]],
           "B": [[0]], "C": [[1]], "Y0": ["1e4000"], "k0": 0,
           "inputs": [[0]] * 121, "K": 120}
    target = tmp_path / "t.csv"
    argv = ["solve", json.dumps(doc)] + (["--out-csv", str(target)] if out_csv else [])
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert not target.exists()
    assert "Traceback" not in err and "decimal digits" in err


@digit_limit
def test_parse_scalar_agrees_with_str_at_the_limit():
    big = 10 ** sys.get_int_max_str_digits()
    for x in (big - 1, 1 - big, big, -big):
        cases = [(x, Fraction(x))]
        for value in (Fraction(x), Fraction(1, abs(x)), Fraction(3, abs(x))):
            try:  # the n/d spelling, where its integers print and Fraction reads them
                cases.append((f"{value.numerator}/{value.denominator}", value))
            except ValueError:
                pass
        for raw, value in cases:
            try:
                str(value)
            except ValueError:
                with pytest.raises(ValueError, match="decimal digits"):
                    parse_scalar(raw, Mode.EXACT)
            else:
                assert parse_scalar(raw, Mode.EXACT) == value


# the inconsistent residual of test_inconsistent_residual_over_the_digit_limit_exits_1,
# a char poly (s - 2^7200)^2 whose constant coefficient has 4,335 digits, and
# an output witness C Q_q H_q B_q = 10^4400 behind a printable H_q B_q = [10^2200; 0]
_RESIDUAL_OVER_LIMIT = {"n": 2, "l": 1, "m": 1, "mode": "exact", "F": [[1, 0], [10**10, 0]],
                        "G": [[1, 0], [0, 1]], "B": [[0], [0]], "C": [[1, 0]],
                        "Y0": ["9e4290", 0], "k0": 0, "inputs": [[0]] * 5, "K": 3}
_CHAR_POLY_OVER_LIMIT = {"n": 2, "l": 1, "m": 1, "mode": "exact", "F": [[1, 0], [0, 1]],
                         "G": [[str(2**7200), 0], [0, str(2**7200)]], "B": [[0], [0]],
                         "C": [[1, 0]], "Y0": [0, 0], "k0": 0, "inputs": [[0]] * 5, "K": 3}
_WITNESS_OVER_LIMIT = {"n": 2, "l": 1, "m": 1, "mode": "exact", "F": [[0, 1], [0, 0]],
                      "G": [[1, 0], [0, 1]], "B": [[0], ["1e2200"]], "C": [["1e2200", 0]],
                      "Y0": [0, 0], "k0": 0, "inputs": [[0]] * 5, "K": 3}


@digit_limit
@pytest.mark.parametrize("doc", [_RESIDUAL_OVER_LIMIT, _CHAR_POLY_OVER_LIMIT, _WITNESS_OVER_LIMIT],
                         ids=["residual", "char_poly", "witness"])
def test_analyze_over_the_digit_limit_prints_nothing(doc, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", json.dumps(doc), "--out-json", str(target)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert not target.exists()
    assert "Traceback" not in err and "decimal digits" in err


@digit_limit
def test_causality_over_the_digit_limit_prints_nothing(capsys):
    assert main(["causality", json.dumps(_WITNESS_OVER_LIMIT)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err and "decimal digits" in err


@digit_limit
@pytest.mark.parametrize("out_csv", [False, True])
def test_solve_stops_at_the_first_unprintable_state_within_2s(out_csv, tmp_path, capsys):
    # Y_k = 10^(6k) passes 4,300 digits at k = 717; the run stops there,
    # long before K = 32,000, and writes nothing
    doc = {"n": 1, "l": 1, "m": 1, "mode": "exact", "F": [[1]], "G": [[10**6]],
           "B": [[0]], "C": [[1]], "Y0": [1], "k0": 0,
           "inputs": [[0]] * 32001, "K": 32000}
    target = tmp_path / "t.csv"
    argv = ["solve", json.dumps(doc)] + (["--out-csv", str(target)] if out_csv else [])
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_PARSE
    assert capsys.readouterr() == (
        "", f"error: an exact value has more than {sys.get_int_max_str_digits()} decimal "
            "digits, Python's limit for printing an integer\n")
    assert not target.exists()


def _solve_outputs(argv: list[str], where: str) -> tuple[str, str, bytes]:
    """stdout, stderr and the bytes of the CSV file of ``dkit solve``, run
    once printing to stdout and once writing to a file in ``where``; both
    runs must exit 0 and print the same CSV."""
    path = os.path.join(where, "t.csv")
    runs = []
    for extra in ([], ["--out-csv", path]):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv + extra) == EXIT_OK
        runs.append((out.getvalue(), err.getvalue()))
    with open(path, "rb") as fh:
        written = fh.read()
    (csv_text, summary), (told, nothing) = runs
    assert nothing == ""
    assert told == summary + f"trajectory written to {path}\n"
    return csv_text, summary, written


def _library_outputs(sf: SystemFile, traj: Trajectory, y0) -> tuple[str, str]:
    """The CSV text and the residual line built from a library trajectory."""
    a = analyze(sf.system())
    lines = [",".join(["k"] + [f"Y_{i + 1}" for i in range(sf.n)]
                      + [f"X_{i + 1}" for i in range(sf.m)]
                      + [f"Zp_{i + 1}" for i in range(a.w.p)]
                      + [f"Zq_{i + 1}" for i in range(a.w.q)])]
    for k, vecs in enumerate(zip(traj.states, traj.outputs, traj.z_p, traj.z_q), traj.k0):
        lines.append(",".join([str(k)] + [s for v in vecs for s in v.format_entries()]))
    res = residual_oracle(a.system, sf.signal(), traj, y0)
    return ("".join(line + "\n" for line in lines),
            f"residual: max step residual {format_scalar(res.step_residual)}, "
            f"Y_k0 mismatch {format_scalar(res.y0_mismatch)}\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["exact", "float"]), st.integers(1, 4),
       st.integers(0, 4), st.integers(-3, 3), st.integers(1, 5), st.booleans(), st.booleans())
def test_streamed_solve_prints_what_the_library_computes(seed, mode, n, q, k0, span,
                                                          fractional, shorter):
    """CSV on stdout, the ``--out-csv`` bytes and the residual line are the
    library's ``solve`` and ``residual_oracle`` results, formatted by
    ``format_entries``; over k0 != 0, q* = 0, samples with denominators
    and a ``--K`` before the file's K."""
    rng = random.Random(seed)
    a = random_descriptor(rng, n, 2, rng.randint(0, 2), q=min(q, n))
    den = 3 if fractional else 1
    count = span + a.w.q_star + 1
    sig = dkit.InputSignal(k0, [Matrix.column([Fraction(rng.randint(-3, 3), den)
                                               for _ in range(2)], Mode.EXACT)
                                for _ in range(count)])
    doc = system_file_to_dict(SystemFile(
        n=n, l=2, m=a.system.m, mode=Mode.EXACT, F=a.system.F, G=a.system.G, B=a.system.B,
        C=a.system.C, Y0=consistent_y0(rng, a, sig), k0=k0, inputs=sig.samples, K=k0 + span))
    doc["mode"] = mode
    sf = parse_system_file(doc)
    K = k0 + (rng.randint(1, span) if shorter else span)
    try:
        traj = dkit.solve(analyze(sf.system()), sf.signal(), sf.Y0, K)
    except DkitError:  # float mode breaks down on some plants
        assert mode == "float"
        return
    want_csv, want_summary = _library_outputs(sf, traj, sf.Y0)
    argv = ["solve", json.dumps(doc)] + (["--K", str(K)] if shorter else [])
    with tempfile.TemporaryDirectory() as where:
        csv_text, summary, written = _solve_outputs(argv, where)
    assert csv_text == want_csv
    assert written == want_csv.encode()
    assert summary == want_summary


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("where", [0, 2, 3])
def test_streamed_solve_reports_the_residual_of_a_corrupted_state(mode, where, monkeypatch):
    """A state corrupted in the stream at the first, a middle and the last
    of DIAG's instants k = 0..3 shows in the CLI's residual line exactly as
    ``residual_oracle`` sees it on the corrupted trajectory."""
    stream = cli._instants
    seen = []

    def corrupted(*args):
        for t, (y, *rest) in enumerate(stream(*args)):
            if t == where:
                y = y + Matrix.column([1, 0], y.mode)
            seen.append((y, *rest))
            yield (y, *rest)

    monkeypatch.setattr(cli, "_instants", corrupted)
    with tempfile.TemporaryDirectory() as tmp:
        csv_text, summary, written = _solve_outputs(["solve", DIAG, "--mode", mode], tmp)
    sf = parse_system_file(DIAG, Mode(mode))
    traj = Trajectory(sf.k0, *zip(*seen[:len(seen) // 2]))
    assert len(traj) == 4
    want_csv, want_summary = _library_outputs(sf, traj, sf.Y0)
    assert (csv_text, summary, written) == (want_csv, want_summary, want_csv.encode())
    res = residual_oracle(analyze(sf.system()).system, sf.signal(), traj, sf.Y0)
    assert res.step_residual != 0
    assert (res.y0_mismatch != 0) == (where == 0)


def test_solve_holds_no_trajectory(tmp_path, capsys):
    """README's 2 x 2 example over K = 2,000: the traced peak of ``dkit
    solve --out-csv`` stays below 1.6 times the CSV it writes.  The lines
    are kept until the last one is formatted; the instants' matrices are
    not."""
    doc = load(DIAG)
    doc["inputs"], doc["K"] = [[1]] * 2001, 2000
    target = tmp_path / "t.csv"
    argv = ["solve", json.dumps(doc), "--out-csv", str(target)]
    assert main(argv) == EXIT_OK  # warms the imports and the parser
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert size > 1_500_000
    assert peak < 1.6 * size, (peak, size)
