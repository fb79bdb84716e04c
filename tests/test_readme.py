"""The README's library quick start runs and prints what it says.

Every ``print`` call in the README's ``python`` block states its output
in a comment: on its own line, or on the next line when the output is
too long to share it.  The test runs the block and compares the printed
lines with those comments.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def stated_outputs(code: str) -> list[str]:
    lines = code.splitlines()
    stated = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        own = re.search(r"\)\s+# (.*)$", line)
        stated.append(own.group(1) if own else lines[i + 1].removeprefix("# "))
    return stated


def test_readme_quick_start_prints_what_it_states():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    stated = stated_outputs(code)
    assert len(stated) == 4
    assert out.getvalue().splitlines() == stated
