"""The examples in README.md run as written."""

import io
import re
import shlex
from pathlib import Path

from bbp.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_run():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("bbp ")]
    assert lines
    for line in lines:
        err = io.StringIO()
        code = run(shlex.split(line, comments=True)[1:], out=io.StringIO(), err=err)
        assert code == 0, (line, err.getvalue())
