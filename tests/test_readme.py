"""The python blocks of README.md run as written."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})
