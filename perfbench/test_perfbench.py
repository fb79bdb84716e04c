"""Self-tests of the benchmark: generator, gate, tracer, comparison and failure exit.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import plant  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from dkit import cli, decompose, transform_input  # noqa: E402
from dkit.causality import build_report  # noqa: E402


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_files(name):
    wl = run.WORKLOADS[name]
    a = run.plants_for_round(wl, 7, 1)
    b = run.plants_for_round(wl, 7, 1)
    assert [p.system_json() for p in a] == [p.system_json() for p in b]
    assert [p.oracle_json() for p in a] == [p.oracle_json() for p in b]
    c = run.plants_for_round(wl, 8, 1)
    assert [p.system_json() for p in a] != [p.system_json() for p in c]


def test_unimodular_inverse_is_exact():
    rng = random.Random(3)
    for n in (1, 4, 9):
        u, uinv = plant.unimodular(rng, n)
        assert plant.matmul(u, uinv) == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("kind", run.KINDS)
@pytest.mark.parametrize("wide", (False, True))
def test_plant_oracle_matches_dkit(kind, wide):
    rng = random.Random(f"{kind}{wide}")
    for shape in ((((2, 1),), (2, 1)), (((1,), (1,), (1,)), (3,)), (((4,),), (1, 1)),
                  (((2,), (2,)), (2,))):
        pl = plant.make_plant(rng, 6, shape, kind=kind, wide=wide)
        sf = cli.parse_system_file(pl.doc)
        w = decompose(cli.Pencil(sf.F, sf.G))
        o = pl.oracle
        assert (w.p, w.q, w.q_star) == (o["p"], o["q"], o["q_star"])
        assert sorted(b.size for b in w.nilpotent_blocks) == o["nilpotent"]
        assert sorted((b.eigenvalue, b.size) for b in w.jordan_blocks) == sorted(
            (Fraction(a), s) for a, s in o["jordan"])
        sysm = sf.system()
        rep = build_report(sysm, w, transform_input(w, sf.B))
        assert rep.state_input_causal == o["state_causal"]
        assert rep.output_input_causal == o["output_causal"]
        if kind == "state_causal":
            assert o["state_causal"]
        if kind == "output_causal_only":
            assert o["output_causal"]


def test_wide_plants_respect_the_bound():
    rng = random.Random(11)
    for _ in range(20):
        pl = plant.make_plant(rng, 16, (((3,), (2, 2), (2,)), (4, 2, 1)), wide=True)
        jordan = [(Fraction(a), s) for a, s in pl.oracle["jordan"]]
        assert max(plant._char_poly_ends(jordan)) <= plant.WIDE_BOUND


def _run_cli(argv):
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def test_gate_accepts_right_and_rejects_tampered_solve(tmp_path):
    pl = plant.make_plant(random.Random(5), 5, (((1,), (1,)), (2, 1)), horizon=12)
    path, out = tmp_path / "s.json", tmp_path / "s.csv"
    path.write_text(pl.system_json())
    code, text = _run_cli(["solve", str(path), "--out-csv", str(out)])
    assert code == 0
    assert gate.check_solve(text, str(out), pl.doc, pl.oracle) is None
    lines = out.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = str(Fraction(cells[1]) + 1)
    lines[5] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert gate.check_solve(text, str(out), pl.doc, pl.oracle) is not None


def test_gate_rejects_wrong_analysis(tmp_path):
    pl = plant.make_plant(random.Random(6), 6, (((2,), (1,)), (2, 1)), kind="state_causal")
    path, out = tmp_path / "a.json", tmp_path / "a.out"
    path.write_text(pl.system_json())
    assert _run_cli(["analyze", str(path), "--out-json", str(out)])[0] == 0
    assert gate.check_analyze(str(out), pl.doc, pl.oracle, True) == (None, 0.0)
    report = json.loads(out.read_text())
    report["causality"]["state_input_causal"] = not report["causality"]["state_input_causal"]
    out.write_text(json.dumps(report))
    assert gate.check_analyze(str(out), pl.doc, pl.oracle, True)[0] is not None
    lying = dict(pl.oracle, q_star=pl.oracle["q_star"] + 1)
    assert gate.check_analyze(str(out), pl.doc, lying, True)[0] is not None


def test_tracer_counts_calls_and_restores_originals(tmp_path):
    originals = (cli.decompose, cli.char_poly, cli.Matrix.__matmul__)
    pl = plant.make_plant(random.Random(9), 6, (((2,), (1,)), (2, 1)))
    path = tmp_path / "t.json"
    path.write_text(pl.system_json())
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.decompose is not originals[0]
        code, _ = _run_cli(["analyze", str(path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.decompose, cli.char_poly, cli.Matrix.__matmul__) == originals
    assert tracer.stats["pencil.char_poly"][0] == 3
    assert tracer.stats["weierstrass.verify"][0] == 2
    assert tracer.stats["cli.main"][0] == 1
    root = [s for s in tracer.spans if s[2] == -1]
    assert [s[3] for s in root] == ["cli.main"]
    wall = root[0][5] - root[0][4]
    total_self = sum(self_s for _, self_s in tracer.stats.values())
    assert 0 < total_self <= wall * (1 + 1e-9)
    assert tracer.matmul_mults > 0 and tracer.max_bits > 0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
    assert pct == 75.0


def test_compare_flags_worse_outcomes_whatever_the_timings():
    base = {"correct": True, "attempted": 40, "failed": 0, "digest": "ab"}
    assert stats.outcome_regressions(base, dict(base)) == []
    for change in ({"correct": False}, {"failed": 1}, {"digest": "cd"}):
        assert len(stats.outcome_regressions(base, {**base, **change})) == 1
    assert stats.outcome_regressions({**base, "failed": 2}, {**base, "failed": 1}) == []


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
