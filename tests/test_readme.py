"""The README's Python quick start runs as documented, on a short horizon."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first fenced python block under the "Quick start" heading."""
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    code = _quick_start()
    assert "100_000" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code.replace("100_000", "300"), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "cost of learning",
        "satisficing regret",
        "path checks pass",
        "slackness",
    ]
    assert lines[2] == "path checks pass: True"
