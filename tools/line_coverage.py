"""Print the lines of the package that a pytest run never executes.

Usage, from the repository root:

    PYTHONPATH=src python tools/line_coverage.py [PYTEST_ARGS ...]

It runs ``pytest.main(PYTEST_ARGS)`` in this process under ``sys.settrace``,
then prints, after pytest's own report, ``path:line`` for every executable
line of a ``src/mlmsa`` module that never ran, and a count on stderr.  A
module's executable lines are the line numbers its code objects list in
``co_lines()``, the code of every function, class body and comprehension
included.  Only this thread is traced.  The exit code is pytest's.

Unless PYTEST_ARGS give a ``--hypothesis-seed``, it passes
``--hypothesis-seed=0``, so the property tests draw the same examples on
every run and two runs list the same lines; without a fixed seed a line
that only a property test reaches could come and go between runs.

Lines outside the package are not traced, so the whole suite takes about
120 s this way against about 107 s untraced (two cores, one run each).  It
reports and does not judge, so it is a tool to run by hand when looking
for untested guards, not a test.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlmsa"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from path."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no line
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    if not any(arg.split("=")[0] == "--hypothesis-seed" for arg in args):
        args = ["--hypothesis-seed=0", *args]
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace_line(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None  # lines outside the package are not traced
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    sys.settrace(trace_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    module = sys.modules.get("mlmsa")
    if module is not None and Path(module.__file__).parent != PACKAGE:
        raise SystemExit(f"mlmsa was imported from {module.__file__}, not from {PACKAGE}")
    total = missed = 0
    for name, path in files.items():
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{missed} of {total} executable lines never ran", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
