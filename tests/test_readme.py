"""README's library quick start runs as written and prints the worked
example's intervals, which ``enrichci example`` checks against the same
published values."""

import contextlib
import io
import re
from pathlib import Path

from enrichci import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_the_worked_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert sorted((t, m) for t, m, _, _ in rows) == sorted(
        cli._EXAMPLE_EXPECTED)
    for target, method, lower, upper in rows:
        exp_lo, exp_hi = cli._EXAMPLE_EXPECTED[(target, method)]
        assert abs(float(lower) - exp_lo) <= cli._EXAMPLE_TOL, (target, method)
        assert abs(float(upper) - exp_hi) <= cli._EXAMPLE_TOL, (target, method)
