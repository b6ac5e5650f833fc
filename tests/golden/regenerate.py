"""Golden `baire-lab check` reports.

Each `<name>.json` in this folder is an instance file, and `<name>.out` is
the exact stdout of `baire-lab check <name>.json`.  The instances cover
every multimap kind and all five modes, an Inconclusive verdict, an empty
value and a point listed twice.  After a change that alters a report on
purpose, rewrite the reports from the root of a checkout with

    PYTHONPATH=src python tests/golden/regenerate.py

and give the reason in CHANGES.md.  With `--print`, the script writes
nothing and prints one JSON object instead, mapping each name to its exit
code and report; `tests/test_golden.py` compares that with the files.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from baire_lab import cli

GOLDEN = Path(__file__).resolve().parent


def render(instance: Path) -> tuple[int, str]:
    """The exit code and stdout of `baire-lab check` on the instance."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", str(instance)])
    return code, out.getvalue()


def main(argv: list[str]) -> int:
    reports = {p.stem: render(p) for p in sorted(GOLDEN.glob("*.json"))}
    if argv == ["--print"]:
        print(json.dumps(reports, sort_keys=True))
        return 0
    for name, (_, report) in reports.items():
        (GOLDEN / (name + ".out")).write_text(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
