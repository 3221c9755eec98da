"""Count source lines: lines that are not blank and do not start with '#'.

Leading whitespace is ignored when looking for '#'; docstrings count as
code. Prints one line per Python file under the given directory (default
`src/` next to this script's parent) and then the total.

    python3 tools/sloc.py [DIR]
"""

import sys
from pathlib import Path


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = sloc(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
