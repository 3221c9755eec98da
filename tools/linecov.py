#!/usr/bin/env python3
"""Line coverage of src/ under tier-1, with the standard library only.

Runs tier-1 in this process under `sys.settrace`, and `threading.settrace`
for the threads it starts (the reachability probe's workers). A file's
executable lines are the lines of its code objects' `co_lines()`. Prints
every executable line of src/ that did not run, and exits 1 if tier-1 fails
or if any of them is not in EXEMPT.

    python3 tools/linecov.py
"""

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "shuffleformer"
TIER1 = ["-q", "-W", "error", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# (file, stripped source line, or None for every line of the file): why
# tier-1 cannot run it
EXEMPT = {
    ("__main__.py", None): "runs only as `python -m shuffleformer`, in a subprocess",
    ("cli.py", "sys.exit(main())"): "the `__main__` guard runs only in a subprocess",
    ("reachability.py", "return None"): "the OpenBLAS query on a NumPy without a bundled OpenBLAS",
    ("tensor.py", "self._node._vjp = vjp"): "the `Tensor._vjp` setter, which only the "
                                            "benchmark's tracer calls",
}


def executable_lines(source: str, path: Path) -> set[int]:
    """The lines that the code objects compiled from `source` map instructions to."""
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit status and the lines of src/ that ran, by file path."""
    import pytest

    prefix = str(PKG) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 tools/linecov.py", file=sys.stderr)
        return 2
    # tier-1's PYTHONPATH, also for the tests that start the CLI in a subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    status, hits = run_traced()

    missed, exempt, total = [], [], 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text, lines = source.splitlines(), executable_lines(source, path)
        total += len(lines)
        for n in sorted(lines - hits[str(path)]):
            line = text[n - 1].strip()
            row = f"{path.relative_to(ROOT)}:{n}: {line}"
            why = EXEMPT.get((path.name, None)) or EXEMPT.get((path.name, line))
            if why:
                exempt.append(f"{row}  [exempt: {why}]")
            else:
                missed.append(row)

    print("\n".join(exempt + missed))
    print(f"{total - len(missed) - len(exempt)} of {total} lines of src/ ran under tier-1; "
          f"{len(exempt)} exempt, {len(missed)} not run")
    if status:
        print(f"tier-1 exited {status}")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
