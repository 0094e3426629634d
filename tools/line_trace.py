"""Line trace of Tier-1, or of the pignet commands, over ``src/pignet``.

Runs the test suite in this process under ``sys.settrace`` and prints every
executable line of ``src/pignet`` that no test ran, as ``path:line``. The
executable lines of a file are the lines that ``co_lines()`` gives for every
code object it compiles to, nested ones included. The last lines give the
count of missed lines and pytest's own exit status. The script exits 1 if
any line was missed, else 0, whatever pytest's status.

    python3 tools/line_trace.py [pytest arguments]
    python3 tools/line_trace.py --commands

Extra arguments go to pytest after the defaults; with ``-m "not slow"`` the
report gives the lines that the quick subset misses.

``--commands`` runs the seven ``pignet`` commands in this process, through
``pignet.cli.main``, under the same tracer instead: ``synth`` writes a small
lamp, rocket and table set; each category is trained for one epoch at a tiny
configuration, then evaluated and predicted; a PointNet baseline is trained
on the lamps for ``robustness``; then come ``ablate`` and ``inspect``. It
prints the lines that no command ran, leaving out refusals (the lines of a
``raise`` statement, and the ``except`` line of a handler that only raises):
what is left runs only under tests or the benchmark. It then prints each
command's exit status, and exits 1 if any command failed, else 0.

The tracer slows the suite down. ``test_acceptance.py``'s criterion 1
asserts a wall time under 120 s, and under the tracer it can fail on time
alone with every error figure unchanged; pytest's status then reads 1. That
bound is left as it is here: moving it to the benchmark or relaxing it under
a tracer would change a check, not this script.
"""

import ast
import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pignet"
FILES = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}

SHAPES = ("lamp", "rocket", "table")
TINY_CONFIG = """\
[model]
inception_plan = 4,8
tnet_conv_widths = 4,8,16
tnet_fc_widths = 8,8
head_widths = 8,8
[train]
epochs = 1
batch_size = 4
[data]
points = 32
"""


def executable_lines(path):
    """The line numbers of every code object compiled from ``path``."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def refusal_lines(path):
    """The lines of every ``raise`` statement in ``path``, and the ``except``
    line of every handler whose body only raises."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and all(
                isinstance(statement, ast.Raise) for statement in node.body):
            lines.add(node.lineno)
    return lines


def traced(run):
    """``run()`` under a line trace of ``src/pignet``; returns its result
    and the set of (file name, line) pairs that ran."""
    ran = set()

    def in_frame(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return in_frame

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in FILES:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return in_frame

    sys.settrace(on_call)
    try:
        return run(), ran
    finally:
        sys.settrace(None)


def missed_lines(ran, skipped=lambda path: set()):
    return [(path, line) for name, path in FILES.items()
            for line in sorted(executable_lines(path) - skipped(path))
            if (name, line) not in ran]


def run_commands(workdir):
    """The seven commands on a synthetic three-category set; returns each
    command's (name, exit status)."""
    from pignet.cli import main  # imported under the trace

    statuses = []

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            statuses.append((argv[0], main([str(arg) for arg in argv])))

    def checkpoint(out):
        return next(Path(out).glob("run-*/checkpoint.ckpt"), "missing")

    config = workdir / "tiny.ini"
    config.write_text(TINY_CONFIG)
    data = workdir / "data"
    run("synth", "--shapes", ",".join(SHAPES), "--count", 4, "--val-count",
        2, "--test-count", 2, "--cloud-points", 64, "--out", data)
    for shape in SHAPES:
        common = ["--config", config, "--data-root", data, "--category",
                  shape, "--out", workdir / shape]
        run("train", *common)
        run("eval", *common, "--checkpoint", checkpoint(workdir / shape))
        run("predict", *common, "--checkpoint", checkpoint(workdir / shape))
    lamp = ["--config", config, "--data-root", data, "--category", "lamp"]
    run("train", *lamp, "--arch", "pointnet", "--out", workdir / "pointnet")
    run("robustness", *lamp, "--out", workdir / "robustness",
        "--checkpoint", checkpoint(workdir / "lamp"),
        "--baseline-checkpoint", checkpoint(workdir / "pointnet"))
    run("ablate", *lamp, "--out", workdir / "ablate")
    run("inspect", "--config", config)
    return statuses


def report(missed, what):
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missed)} {what}")


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    if argv == ["--commands"]:
        with tempfile.TemporaryDirectory() as workdir:
            statuses, ran = traced(lambda: run_commands(Path(workdir)))
        report(missed_lines(ran, refusal_lines),
               "lines of src/pignet that are not refusals ran under no command")
        for name, code in statuses:
            print(f"pignet {name}: exit status {code}")
        return 1 if any(code for _, code in statuses) else 0
    status, ran = traced(lambda: pytest.main([
        "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
        "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
        str(ROOT / "tests"), *argv]))
    missed = missed_lines(ran)
    report(missed, "executable lines of src/pignet never ran")
    print(f"pytest exit status: {int(status)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
