"""Every fenced ``python`` block of README.md runs against the package, so the
documentation cannot name a removed export."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each block is padded with the newlines before it, so a traceback gives README lines.
BLOCKS = ["\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)), ids=lambda i: f"block{i}")
def test_readme_example_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], str(README), "exec"), {"__name__": "readme_example"})
