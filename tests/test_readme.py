"""The README's Python examples run as written and print what their
comments say, with ``...`` standing for any text."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS)
def test_readme_example_runs(source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    wanted = re.findall(r"^print\(.*\)\s+# (.*)$", source, re.M)
    got = out.getvalue().splitlines()
    assert len(got) == len(wanted)
    for line, want in zip(got, wanted):
        assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), line), (line, want)
