"""Golden digests of CLI output.

Exact mode is the referee, so its output must not move when the code
under it is made faster.  For every ``tests/data`` system and a set of
fixed-seed planted systems this runs exact ``analyze --out-json``,
``solve --out-csv`` and ``causality --oracle-trials 2`` and compares the
exit code and the sha256 (first 16 hex digits) of stdout, of stderr and
of the file written against the values frozen in ``DIGESTS``.  The temporary
directory is masked in both streams.  ``ORACLE_DIGESTS`` holds longer
``causality --oracle-trials`` runs in the same way.  ``FLOAT_DIGESTS``
holds the same cases and commands run with ``--mode float``: a refactor
that keeps the order of float arithmetic keeps them bit for bit.
``PYTHONPATH=src python tests/test_golden.py`` prints the digests of the
current code in the same layout.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from dkit import Matrix, block_diag, linalg
from dkit.cli import SystemFile, main
from dkit.scalars import Mode

from helpers import consistent_y0, random_descriptor, random_signal, system_file_to_dict

DATA = Path(__file__).parent / "data"

# eigenvalues whose char poly ends run to 10^20 and beyond, yet stay
# smooth enough for the exact root search
WIDE_PALETTE = [Fraction(2**20), Fraction(-3**9, 7), Fraction(5**6, 32),
                Fraction(-1001, 16), Fraction(17**3, 9)]

# entries that double or halve at every step of a long forward recursion
GROWTH_PALETTE = [Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]

# name: (seed, n, q, plant kind, palette, consistent initial state[, horizon K
# [, rational entries]])
PLANTS = {
    "plant_n3": (1, 3, 1, "generic", None, True),
    "plant_n5_q0": (2, 5, 0, "generic", None, True),
    "plant_n6_pure_nilpotent": (3, 6, 6, "state_causal", None, True),
    "plant_n8_state_causal": (4, 8, 3, "state_causal", None, True),
    "plant_n8_inconsistent": (5, 8, 3, "generic", None, False),
    "plant_n10_output_causal": (6, 10, 4, "output_causal_only", None, True),
    "plant_n12": (7, 12, 5, "generic", None, True),
    "plant_n16": (8, 16, 6, "state_causal", None, True),
    "plant_n9_wide": (9, 9, 3, "generic", WIDE_PALETTE, True),
    "plant_n12_wide": (10, 12, 4, "state_causal", WIDE_PALETTE, True),
    "plant_n8_growth_K60": (14, 8, 3, "generic", GROWTH_PALETTE, True, 60),
    "plant_n6_q0_K30": (12, 6, 0, "generic", None, True, 30),
    "plant_n8_rational": (15, 8, 3, "generic", None, True, 12, True),
    "plant_n10_rational_state_causal": (16, 10, 4, "state_causal", GROWTH_PALETTE, True, 20, True),
}
K = 6


# row scales of F, G and B, state scales, and the ratio V' / V of the
# rational plants
ROW_SCALES = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(-5, 4)]
STATE_SCALES = [Fraction(1), Fraction(2, 3), Fraction(-1, 5)]
INPUT_SCALE = Fraction(1, 6)


def _diag(scales, n):
    return block_diag([Matrix([[scales[i % len(scales)]]], Mode.EXACT) for i in range(n)],
                      Mode.EXACT)


def planted_doc(seed, n, q, plant, palette, consistent, K=K, rational=False):
    """The system file of a planted system.  A rational plant is the same
    system in the coordinates Y = T Y' and V' = V / 6, its equations scaled
    by D: F' = D F T, G' = D G T, B' = 6 D B, C' = C T / 3 and Y0' = T^-1 Y0,
    so every matrix, the initial state and the inputs hold non-integers."""
    rng = random.Random(seed)
    kw = {"palette": palette} if palette else {}
    a = random_descriptor(rng, n, 2, 2, q=q, plant=plant, **kw)
    sysm = a.system
    signal = random_signal(rng, 2, 0, K + n)
    y0 = consistent_y0(rng, a, signal)
    if not consistent:
        y0 = y0 + a.w.Q.col(n - 1)
    F, G, B, C, inputs = sysm.F, sysm.G, sysm.B, sysm.C, signal.samples
    if rational:
        d, t = _diag(ROW_SCALES, n), _diag(STATE_SCALES, n)
        F, G, B = d @ F @ t, d @ G @ t, (d @ B).scale(1 / INPUT_SCALE)
        C, y0 = (C @ t).scale(Fraction(1, 3)), linalg.inverse(t) @ y0
        inputs = [v.scale(INPUT_SCALE) for v in inputs]
    sf = SystemFile(n=n, l=2, m=2, mode=Mode.EXACT, F=F, G=G, B=B,
                    C=C, Y0=y0, k0=0, inputs=inputs, K=K)
    return system_file_to_dict(sf)


def system_text(case):
    if case in PLANTS:
        return json.dumps(planted_doc(*PLANTS[case]))
    return (DATA / f"{case}.json").read_text()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(case, tmp: Path, mode: str = "exact") -> dict:
    """Exit code and digests of stdout, stderr and the written file, per
    command run in ``mode``."""
    text = system_text(case)
    report, traj = tmp / "report.json", tmp / "traj.csv"
    runs = {
        "analyze": (["--out-json", str(report)], report),
        "solve": (["--out-csv", str(traj)], traj),
        "causality": (["--oracle-trials", "2"], None),
    }
    out = {}
    for command, (extra, target) in runs.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, text, "--mode", mode] + extra)
        streams = [sha(s.getvalue().replace(str(tmp), "<tmp>").encode())
                   for s in (stdout, stderr)]
        written = sha(target.read_bytes()) if target and target.exists() else None
        out[command] = [code, *streams, written]
    return out


DIGESTS = {
    'diag_system': {'analyze': [0, '46fad336d78e31ed', 'e3b0c44298fc1c14', 'bd11d9a5b679c445'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', 'cb31a7e279d36655'], 'causality': [0, 'f26dffdf2062e811', 'e3b0c44298fc1c14', None]},
    'nilpotent3_c100': {'analyze': [0, 'cf6f57ffbc3cf3c4', 'e3b0c44298fc1c14', 'b315f337b7467bef'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '76fcf884fb6a361a'], 'causality': [0, '3bdb4d86bb806a84', 'e3b0c44298fc1c14', None]},
    'nilpotent3_ceye': {'analyze': [0, '3179cf94de8d19d9', 'e3b0c44298fc1c14', '9f254c603743beda'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '3a2276715c48d1a6'], 'causality': [0, 'ba1670e0ec57d9a5', 'e3b0c44298fc1c14', None]},
    'plant_n3': {'analyze': [0, 'e655efd021cf03de', 'e3b0c44298fc1c14', '042b814a9ababcdc'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '990cace47a65db19'], 'causality': [0, '00fa448626da7669', 'e3b0c44298fc1c14', None]},
    'plant_n5_q0': {'analyze': [0, '050bc531d9587a4b', 'e3b0c44298fc1c14', 'e021006276f8fbfd'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', 'ff444d9244e3d6b4'], 'causality': [0, '51264f1289991002', 'e3b0c44298fc1c14', None]},
    'plant_n6_pure_nilpotent': {'analyze': [0, '96e8a45a6b169d71', 'e3b0c44298fc1c14', 'ee9ddcf9b1ef8ee7'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', 'b7149e4ea585ea6c'], 'causality': [0, '1fe73cf62b09d50f', 'e3b0c44298fc1c14', None]},
    'plant_n8_state_causal': {'analyze': [0, '9c9de1e675b2929f', 'e3b0c44298fc1c14', '57aedf8842c816f1'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '24d04f7f267655c7'], 'causality': [0, 'df3836c175e7b5f9', 'e3b0c44298fc1c14', None]},
    'plant_n8_inconsistent': {'analyze': [3, '8eb39969243cb085', 'e3b0c44298fc1c14', '9f4b70bebc0f5804'], 'solve': [3, 'e3b0c44298fc1c14', 'f2643a056948dcf1', None], 'causality': [0, '5987580b72e132f8', 'e3b0c44298fc1c14', None]},
    'plant_n10_output_causal': {'analyze': [0, '00c513c8fc0eba8b', 'e3b0c44298fc1c14', 'ca74e1bc60c37a0b'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '691d0c44b8e70ce3'], 'causality': [0, '65f701e959f03e0d', 'e3b0c44298fc1c14', None]},
    'plant_n12': {'analyze': [0, '95b103991da35082', 'e3b0c44298fc1c14', '13f57cab5d466a0a'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '02ede4540c9c3974'], 'causality': [0, '4accd5fb266c664c', 'e3b0c44298fc1c14', None]},
    'plant_n16': {'analyze': [0, '93da06232ef6c617', 'e3b0c44298fc1c14', '48c20d5e2da33cb2'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '2504244c08ecfb60'], 'causality': [0, '1fe73cf62b09d50f', 'e3b0c44298fc1c14', None]},
    'plant_n9_wide': {'analyze': [0, 'a215b8afe1a9cb72', 'e3b0c44298fc1c14', 'a9df88160cf773b8'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '14eedc8f8adad5cb'], 'causality': [0, 'df3836c175e7b5f9', 'e3b0c44298fc1c14', None]},
    'plant_n12_wide': {'analyze': [0, '713e9cc9847a2d1c', 'e3b0c44298fc1c14', '50d54dd2dac35c5a'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', 'd3da770cd75e7413'], 'causality': [0, '81dd6775bc8be45b', 'e3b0c44298fc1c14', None]},
    'plant_n8_growth_K60': {'analyze': [0, 'e96d03924d6fb559', 'e3b0c44298fc1c14', 'e8b0b8f44e1b7294'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '8f395238047963b4'], 'causality': [0, '07567c6250d6ab8b', 'e3b0c44298fc1c14', None]},
    'plant_n6_q0_K30': {'analyze': [0, '21513217661f2915', 'e3b0c44298fc1c14', '18fd0df492876f18'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '593b433c74e167a3'], 'causality': [0, '51264f1289991002', 'e3b0c44298fc1c14', None]},
    'plant_n8_rational': {'analyze': [0, '222bdce98fced26b', 'e3b0c44298fc1c14', '8b7fbfa91b53a488'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', '1b13798f00e35d0b'], 'causality': [0, '62b8ee34640141b2', 'e3b0c44298fc1c14', None]},
    'plant_n10_rational_state_causal': {'analyze': [0, '81902396d4d8c0fb', 'e3b0c44298fc1c14', '2dca32068f394938'], 'solve': [0, 'a36829d8bb6139aa', 'e3b0c44298fc1c14', 'bdc08eab639cb9f8'], 'causality': [0, 'd3a996b078ec9716', 'e3b0c44298fc1c14', None]},
}

# the cases of DIGESTS run with --mode float; a float run that ends in a
# typed error keeps its exit code and stderr here as well
FLOAT_DIGESTS = {
    'diag_system': {'analyze': [0, '96b39e99d1779546', 'e3b0c44298fc1c14', 'd7c1104ec244f264'], 'solve': [0, '592a2f88c91d1fcf', 'e3b0c44298fc1c14', '2397d1736a5a9216'], 'causality': [0, '992ad20fcebb3733', 'e3b0c44298fc1c14', None]},
    'nilpotent3_c100': {'analyze': [0, '7846588b6f17b671', 'e3b0c44298fc1c14', '22d54d157ff89052'], 'solve': [0, '592a2f88c91d1fcf', 'e3b0c44298fc1c14', '0334dd7c1927f5e4'], 'causality': [0, 'c6647e2e8dc005b4', 'e3b0c44298fc1c14', None]},
    'nilpotent3_ceye': {'analyze': [0, 'da75675de8d8ea5a', 'e3b0c44298fc1c14', 'a4002e37b583135a'], 'solve': [0, '592a2f88c91d1fcf', 'e3b0c44298fc1c14', 'ca4d90737eec10b3'], 'causality': [0, '4bf03640c3b10a32', 'e3b0c44298fc1c14', None]},
    'plant_n3': {'analyze': [0, 'cb38519e26fcdde8', 'e3b0c44298fc1c14', 'ca0ba92a6de11f46'], 'solve': [0, 'd02897b2cc9de7bf', 'e3b0c44298fc1c14', '1f5fec8d77a62491'], 'causality': [0, '4f24eb0ddf70decd', 'e3b0c44298fc1c14', None]},
    'plant_n5_q0': {'analyze': [7, 'e3b0c44298fc1c14', '9ef7edae47e4cb6f', None], 'solve': [7, 'e3b0c44298fc1c14', '9ef7edae47e4cb6f', None], 'causality': [7, 'e3b0c44298fc1c14', '9ef7edae47e4cb6f', None]},
    'plant_n6_pure_nilpotent': {'analyze': [0, '7de372bcfe29f470', 'e3b0c44298fc1c14', '4048803b1a245589'], 'solve': [0, '177df34b9937b4c7', 'e3b0c44298fc1c14', '6cd8fef0cc9c8d8f'], 'causality': [0, '16bfa24579b54a38', 'e3b0c44298fc1c14', None]},
    'plant_n8_state_causal': {'analyze': [7, 'e3b0c44298fc1c14', 'd0f0be87f99edb7a', None], 'solve': [7, 'e3b0c44298fc1c14', 'd0f0be87f99edb7a', None], 'causality': [7, 'e3b0c44298fc1c14', 'd0f0be87f99edb7a', None]},
    'plant_n8_inconsistent': {'analyze': [7, 'e3b0c44298fc1c14', '9ef7edae47e4cb6f', None], 'solve': [7, 'e3b0c44298fc1c14', '9ef7edae47e4cb6f', None], 'causality': [7, 'e3b0c44298fc1c14', '9ef7edae47e4cb6f', None]},
    'plant_n10_output_causal': {'analyze': [7, 'e3b0c44298fc1c14', '9994cfc52aa30113', None], 'solve': [7, 'e3b0c44298fc1c14', '9994cfc52aa30113', None], 'causality': [7, 'e3b0c44298fc1c14', '9994cfc52aa30113', None]},
    'plant_n12': {'analyze': [7, 'e3b0c44298fc1c14', 'd2f69dcfdb386998', None], 'solve': [7, 'e3b0c44298fc1c14', 'd2f69dcfdb386998', None], 'causality': [7, 'e3b0c44298fc1c14', 'd2f69dcfdb386998', None]},
    'plant_n16': {'analyze': [7, 'e3b0c44298fc1c14', '668c8dee34899b82', None], 'solve': [7, 'e3b0c44298fc1c14', '668c8dee34899b82', None], 'causality': [7, 'e3b0c44298fc1c14', '668c8dee34899b82', None]},
    'plant_n9_wide': {'analyze': [7, 'e3b0c44298fc1c14', '6a68c3f97fee3053', None], 'solve': [7, 'e3b0c44298fc1c14', '6a68c3f97fee3053', None], 'causality': [7, 'e3b0c44298fc1c14', '6a68c3f97fee3053', None]},
    'plant_n12_wide': {'analyze': [7, 'e3b0c44298fc1c14', 'd2f69dcfdb386998', None], 'solve': [7, 'e3b0c44298fc1c14', 'd2f69dcfdb386998', None], 'causality': [7, 'e3b0c44298fc1c14', 'd2f69dcfdb386998', None]},
    'plant_n8_growth_K60': {'analyze': [7, 'e3b0c44298fc1c14', '42b2761425f4371e', None], 'solve': [7, 'e3b0c44298fc1c14', '42b2761425f4371e', None], 'causality': [7, 'e3b0c44298fc1c14', '42b2761425f4371e', None]},
    'plant_n6_q0_K30': {'analyze': [7, 'e3b0c44298fc1c14', 'bf903a16c470fb2a', None], 'solve': [7, 'e3b0c44298fc1c14', 'bf903a16c470fb2a', None], 'causality': [7, 'e3b0c44298fc1c14', 'bf903a16c470fb2a', None]},
    'plant_n8_rational': {'analyze': [7, 'e3b0c44298fc1c14', '42b2761425f4371e', None], 'solve': [7, 'e3b0c44298fc1c14', '42b2761425f4371e', None], 'causality': [7, 'e3b0c44298fc1c14', '42b2761425f4371e', None]},
    'plant_n10_rational_state_causal': {'analyze': [7, 'e3b0c44298fc1c14', '9994cfc52aa30113', None], 'solve': [7, 'e3b0c44298fc1c14', '9994cfc52aa30113', None], 'causality': [7, 'e3b0c44298fc1c14', '9994cfc52aa30113', None]},
}

# name: (oracle trials, [exit code, stdout digest, stderr digest]); a
# state-causal plant runs every trial of both modes to the end
ORACLE_DIGESTS = {
    'plant_n8_state_causal': (25, [0, 'c4b18b603da193fa', 'e3b0c44298fc1c14']),
}


def run_oracle_case(case, trials) -> list:
    """Exit code and digests of stdout and stderr of ``causality
    --oracle-trials trials``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["causality", system_text(case), "--mode", "exact",
                     "--oracle-trials", str(trials)])
    return [code, sha(stdout.getvalue().encode()), sha(stderr.getvalue().encode())]


CASES = sorted(p.stem for p in DATA.glob("*.json")) + list(PLANTS)


@pytest.mark.parametrize("case", CASES)
def test_exact_cli_output_matches_its_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.delenv("DKIT_SEED", raising=False)
    assert run_case(case, tmp_path) == DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_float_cli_output_matches_its_golden_digest(case, tmp_path, monkeypatch):
    monkeypatch.delenv("DKIT_SEED", raising=False)
    assert run_case(case, tmp_path, "float") == FLOAT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS))
def test_exact_oracle_output_matches_its_golden_digest(case, monkeypatch):
    monkeypatch.delenv("DKIT_SEED", raising=False)
    trials, want = ORACLE_DIGESTS[case]
    assert run_oracle_case(case, trials) == want


if __name__ == "__main__":
    os.environ.pop("DKIT_SEED", None)
    print("DIGESTS = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(case, Path(tmp))!r},")
    print("}")
    print("FLOAT_DIGESTS = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(case, Path(tmp), 'float')!r},")
    print("}")
    print("ORACLE_DIGESTS = {")
    for case, (trials, _) in ORACLE_DIGESTS.items():
        print(f"    {case!r}: ({trials}, {run_oracle_case(case, trials)!r}),")
    print("}")
