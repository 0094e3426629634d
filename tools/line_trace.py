"""Line trace of Tier-1 over ``src/pignet``.

Runs the test suite in this process under ``sys.settrace`` and prints every
executable line of ``src/pignet`` that no test ran, as ``path:line``. The
executable lines of a file are the lines that ``co_lines()`` gives for every
code object it compiles to, nested ones included. The last lines give the
count of missed lines and pytest's own exit status. The script exits 1 if
any line was missed, else 0, whatever pytest's status.

    python3 tools/line_trace.py [pytest arguments]

Extra arguments go to pytest after the defaults; with ``-m "not slow"`` the
report gives the lines that the quick subset misses.

The tracer slows the suite down. ``test_acceptance.py``'s criterion 1
asserts a wall time under 120 s, and under the tracer it can fail on time
alone with every error figure unchanged; pytest's status then reads 1. That
bound is left as it is here: moving it to the benchmark or relaxing it under
a tracer would change a check, not this script.
"""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pignet"


def executable_lines(path):
    """The line numbers of every code object compiled from ``path``."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv):
    files = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    ran = set()

    def in_frame(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return in_frame

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return in_frame

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              "-c", str(ROOT / "pyproject.toml"),
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    missed = [(path, line) for name, path in files.items()
              for line in sorted(executable_lines(path))
              if (name, line) not in ran]
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missed)} executable lines of src/pignet never ran")
    print(f"pytest exit status: {int(status)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
