"""The README's Python examples run, in order, as one session, and its CLI
lines parse."""

import re
import shlex
from pathlib import Path

from nedist.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the values the quick start's comments give
    assert capsys.readouterr().out.split() == ["1", "2", "0", "((()))"]


def test_readme_cli_lines_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.splitlines() if line.startswith("nedist ")]
    assert len(commands) >= 10
    parser = _build_parser()
    for argv in commands:
        # parsing only: the example files need not exist
        assert parser.parse_args(argv[1:]).handler
