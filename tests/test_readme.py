"""README's code runs as written: a name removed from the library, or a
printed value that moved, fails here rather than in a reader's session."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_what_it_says():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "6/5",
        "frozenset({0, 1, 2, 3, 4, 5})",
        "2",
        "frozenset({0, 1, 2, 3, 4, 5})",
    ]
