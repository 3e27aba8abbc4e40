#!/usr/bin/env python3
"""List the lines of ``src/imbalance`` that a script never runs.

Usage: ``python scripts/unrun_lines.py SCRIPT [ARGS...]``.

SCRIPT runs as ``python SCRIPT ARGS...`` would run it: as ``__main__``,
with its own directory first on ``sys.path`` and ``sys.argv`` set to
``[SCRIPT, *ARGS]``; a ``SystemExit`` ends the script, not this one.
Every thread is traced (``sys.settrace`` and ``threading.settrace``), and
line events are kept only for frames whose code lives in
``src/imbalance``.  Afterwards each executable line of each module there
that never ran is printed as ``module.py:LINE: source text``, then the
count of unrun lines per module.  The executable lines are those of
``co_lines`` over every code object the module's source compiles to.
The exit code is the script's.

Standard library only, so it needs nothing installed.  For example,
``python scripts/unrun_lines.py benchmarks/run.py --workload grid-sweep
--seed 0 --seconds 1`` shows which lines one benchmark workload never
reaches.
"""

import os
import runpy
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imbalance"


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers of every instruction of ``code`` and of the code
    objects nested in it."""
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(script: str, args: list[str]) -> tuple[object, dict[str, set[int]]]:
    """Run the script under the tracer; return its exit status and the
    lines run in each package file, keyed by resolved path."""
    prefix = str(PACKAGE) + os.sep
    inside: dict[str, str | None] = {}  # co_filename -> resolved path, None outside the package
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = str(Path(name).resolve())
            inside[name] = path if path.startswith(prefix) else None
        return local if inside[name] else None

    sys.argv = [script, *args]
    sys.path[0] = str(Path(script).resolve().parent)
    status = 0
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: defaultdict[str, set[int]] = defaultdict(set)
    for name, lines in ran.items():
        by_path[inside[name]] |= lines
    return status, by_path


def main(argv: list[str]) -> object:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    status, ran = run_traced(argv[0], argv[1:])
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        unrun = sorted(executable_lines(compile(source, str(path), "exec")) - ran[str(path)])
        for line in unrun:
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
        counts.append((path.name, len(unrun)))
    print("unrun lines per module:")
    for name, count in counts:
        print(f"  {name:<16}{count:>6}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
