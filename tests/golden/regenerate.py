"""Golden `baire-lab` reports.

Each `<name>.json` in this folder is an instance file, and `<name>.out`
is the exact stdout of `baire-lab check <name>.json`, or its stderr when
the check refuses the instance with exit 2.  The instances cover every
multimap kind and all five modes (`extend` in `plain`, `strong` and
`dagger`, `compose` in `plain`, `star`, `dagger` and `fell`), an
Inconclusive verdict, a `dense_bound` that alone makes a verdict
Inconclusive (`f2_star_starved_binding`), an empty value, a point listed
twice, f2 trees with one or two branches in `plain` and `star` mode
(`f2_branch_trees_*`), checks that can stop at the first delta ball
(`strong` and `fell` on f1 and the spike map, `plain` and `fell` on
interval values, `plain` on the dyadic dense split), f1's separation
certificates (`f1_star`), sequence-space values with an empty value
among them (`tabular_baire_*`): ties at distance 1, refutation levels
between members, strong refutations and separation certificates between
finite sets, and under an eps schedule that starts at 2, above every
distance, where only an empty value fails a table (`tabular_baire_eps2_*`),
a rational finite codomain in `star` and `dagger` mode, codomains whose
only value is empty (`tabular_grid_codomain_plain`,
`tabular_tree_codomain_star`), the `dagger` mode on f1, the spike map and
a tabular map, f1 at its default window in `dagger` mode, where the last
window K_8 still clips the value 17/2 (`f1_dagger_clipped`), `star` on
the dyadic dense split, and refusals (`*_refused`), whose
report is the `{"error", "path"}` object: f2 in `dagger` mode, and one
malformed literal or field at each decode site of the input boundary
(rational labels, a table entry, grid points as an object and as text
that is not JSON, a test-ball radius, an affine scale, the f1 window,
the spike map's tail start and head, a value set that is not an object
or holds a malformed literal, an extension's super space and base, and
the config), integer fields holding a JSON float (the f1 window) or a
boolean (the probe budget), an f1 window above its cap, and a `tree_body`
tree with a space inside a number.  Each `<name>.argv` holds a JSON list of
command-line arguments, and `<name>.out` is the exact stdout of
`baire-lab` run with them, or its stderr when it exits 2: the `gallery`
certificates of f1 and f2, an embed chain 64 intervals deep, the `tree`
operations (one on a tree literal spaced between its tokens; `generate` on
seeds holding a node of over 16 entries, a duplicate and a prefix of
another seed; `trm` on a well-founded tree; `illfounded`), `classify`
on the four hierarchy skeletons of acceptance 01, malformed `--gamma`,
`--tree` (one of them a tree literal that gives its node list twice),
`--alpha` and `--nodes` arguments, and an embed `--depth` above its cap.  After a change that
alters a report on purpose, rewrite the reports from the root of a
checkout with

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


def cases() -> list[Path]:
    """The instance files and argument lists, in name order."""
    return sorted([*GOLDEN.glob("*.json"), *GOLDEN.glob("*.argv")])


def render(case: Path) -> tuple[int, str]:
    """The exit code and stdout of `baire-lab check` on an instance file,
    or of `baire-lab` with the arguments of an argv file; the stderr
    instead when it exits 2, refusing its input."""
    argv = json.loads(case.read_text()) if case.suffix == ".argv" else ["check", str(case)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, (err if code == 2 else out).getvalue()


def main(argv: list[str]) -> int:
    reports = {p.stem: render(p) for p in cases()}
    if argv == ["--print"]:
        print(json.dumps(reports, sort_keys=True))
        return 0
    for name, (_, report) in reports.items():
        (GOLDEN / (name + ".out")).write_text(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
