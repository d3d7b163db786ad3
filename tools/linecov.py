"""List the lines of ``src/pcrpp`` that no test executes.

Run from the repository root against the sources under ``src``:

    python3 tools/linecov.py [PYTEST ARGS...]

It runs pytest in this process (by default on ``tests``, the tier-1 suite)
under a ``sys.settrace`` tracer, so it needs only the standard library and
no coverage package.  For every module it prints the lines that hold code
but never ran, as ranges, then the count of executed and unexecuted lines.
Tests that start a child process (``subprocess``, multiprocessing workers)
are not traced in that child, so a line that only such a test reaches is
listed as unexecuted.  Tracing slows the pure-Python parts of the solver
several times over; the run is a survey, not part of tier-1.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcrpp"


def code_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module at ``path``, nested code included."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """``1-3, 7`` for the sorted line numbers ``[1, 2, 3, 7]``."""
    out = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        out.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_run = total_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        ran = executed.get(str(path), set()) & lines
        missed = sorted(lines - ran)
        total_run += len(ran)
        total_missed += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{total_run} lines executed, {total_missed} not executed (pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
