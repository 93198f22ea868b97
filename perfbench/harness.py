"""Paths and small helpers shared by the benchmark's files."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"
WARM_FIXTURE = FIXTURES / "census_5_1000.cache"
EXPECTED = FIXTURES / "expected.json"
TMP_ROOT = ROOT / ".perfbench_tmp"


def require_source() -> None:
    """Make ``superspecial`` importable from this checkout's ``src`` or exit 2."""
    if not (SRC / "superspecial" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/superspecial; "
              "run from the root of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Caches are always passed explicitly; a cache directory from the caller's
    # environment must not leak into a run.
    os.environ.pop("SUPERSPECIAL_CACHE_DIR", None)


@contextlib.contextmanager
def temp_dir():
    """A fresh directory inside the checkout, removed on exit."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``superspecial <argv>`` in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def clear_program_caches() -> None:
    """Drop every memo the package keeps (lru caches, the Bernoulli table), so
    the next call pays what a fresh ``superspecial`` process pays."""
    from superspecial import exactnum

    for name, module in list(sys.modules.items()):
        if not name.startswith("superspecial"):
            continue
        for obj in list(vars(module).values()):
            while obj is not None:  # through any tracing wrapper to the memo
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
                obj = getattr(obj, "__wrapped__", None)
    for attr, value in list(vars(exactnum).items()):
        if isinstance(value, exactnum.BernoulliTable):
            setattr(exactnum, attr, exactnum.BernoulliTable())


def expected() -> dict:
    return json.loads(EXPECTED.read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "cpu": _cpu_model(),
    }
