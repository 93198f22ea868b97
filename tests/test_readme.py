"""The python blocks of README.md run as written, and the package names it
quotes exist."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import superspecial

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})


def test_readme_module_names_resolve():
    # Every `module.name` quoted in backticks outside the code blocks, such as
    # `cosettrace.COSET_WALK_MIN_ORDER = 48` or `superspecial.cli`, where
    # module is the package or one of its modules, names something that
    # exists, so that a deleted or renamed name cannot leave stale docs.
    modules = {info.name for info in pkgutil.iter_modules(superspecial.__path__)}
    prose = re.sub(r"```.*?```", "", _README.read_text(), flags=re.DOTALL)
    refs = [ref for span in re.findall(r"`([^`]*)`", prose)
            for ref in re.findall(r"\b(\w+)\.(\w+)\b", span)
            if ref[0] in modules or ref[0] == superspecial.__name__]
    assert len(refs) >= 8
    missing = []
    for module, name in refs:
        if module == superspecial.__name__:
            found = importlib.util.find_spec(f"{module}.{name}") is not None
        else:
            found = hasattr(importlib.import_module(f"{superspecial.__name__}.{module}"), name)
        if not found:
            missing.append(f"{module}.{name}")
    assert missing == []
