"""Fuzz the CLI contract: every input ends in a documented exit code.

``main()`` runs on generated system files, valid and corrupted, under
generated flags.  Whatever the input, it must return an int in 0..7 and
let no exception escape.  Systems stay at n <= 4 with small integer or
rational entries, so that each example runs in milliseconds.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dkit.cli import main

EXIT_CODES = set(range(8))

SCALARS = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 3), st.integers(1, 3)),
    st.sampled_from(["0.5", "-1.25"]),
)
JUNK = st.sampled_from([None, True, "x", "1/0", "nan", "inf", "1+2j", 1.5,
                        float("nan"), float("inf"), [], {}, [[1]], -1, 10])
KEYS = ("n", "l", "m", "mode", "F", "G", "B", "C", "Y0", "k0", "inputs", "K")
TOL_FLAGS = ("--tol", "--cluster-tol", "--causality-tol")


@st.composite
def system_docs(draw):
    n = draw(st.integers(1, 4))
    l = draw(st.integers(0, 2))
    m = draw(st.integers(0, 2))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(SCALARS, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    def vector(length, zero):
        return [0] * length if zero else draw(st.lists(SCALARS, min_size=length,
                                                       max_size=length))

    # Zeroed rows of F make the pencil singular at infinity (q > 0); zero
    # inputs with Y0 = 0 are consistent whatever the structure.
    f = matrix(n, n)
    for i in draw(st.sets(st.integers(0, n - 1))):
        f[i] = [0] * n
    quiet = draw(st.booleans())
    k0 = draw(st.integers(-2, 2))
    doc = {
        "n": n, "l": l, "m": m, "mode": draw(st.sampled_from(["exact", "float"])),
        "F": f, "G": matrix(n, n), "B": matrix(n, l), "C": matrix(m, n),
        "Y0": vector(n, quiet), "k0": k0,
        "inputs": [vector(l, quiet) for _ in range(draw(st.integers(0, 8)))],
        "K": k0 + draw(st.integers(0, 4)),
    }
    corruption = draw(st.sampled_from(["none"] * 7 + ["drop", "extra", "field", "cell"]))
    if corruption == "drop":
        del doc[draw(st.sampled_from(KEYS))]
    elif corruption == "extra":
        doc["extra"] = 1
    elif corruption == "field":
        doc[draw(st.sampled_from(KEYS))] = draw(JUNK)
    elif corruption == "cell":
        field = draw(st.sampled_from(["F", "G", "B", "C"]))
        rows = doc[field]
        if rows and rows[0]:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows[0]) - 1))
            rows[i][j] = draw(JUNK)
    return doc


@st.composite
def argvs(draw, text):
    command = draw(st.sampled_from(["analyze", "solve", "causality"]))
    argv = [command, text]
    mode = draw(st.sampled_from([None, "exact", "float"]))
    if mode:
        argv += ["--mode", mode]
    for flag in TOL_FLAGS:
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, draw(st.sampled_from(["1e-9", "0", "1e-3"]))]
    if command == "solve" and draw(st.booleans()):
        argv += ["--K", str(draw(st.integers(-2, 4)))]
    if command == "causality" and draw(st.booleans()):
        argv += ["--oracle-trials", str(draw(st.integers(0, 3)))]
    # One usage error in a tenth of the runs, so that most reach the analysis.
    if draw(st.integers(0, 9)) == 0:
        kind = draw(st.sampled_from(["command", "file", "mode", "value", "trials"]))
        if kind == "command":
            argv[0] = "bogus"
        elif kind == "file":
            argv.remove(text)
        elif kind == "mode":
            argv += ["--mode", "symbolic"]
        elif kind == "value":
            argv += [draw(st.sampled_from(TOL_FLAGS)),
                     draw(st.sampled_from(["abc", "-1", "nan", "inf"]))]
        else:
            argv += ["--oracle-trials", "-2"]
    return argv


@settings(max_examples=300)
@given(st.data())
def test_main_always_returns_a_documented_exit_code(data):
    doc = data.draw(system_docs(), label="doc")
    argv = data.draw(argvs(json.dumps(doc)), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert type(code) is int and code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
