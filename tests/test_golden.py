"""Golden reports: `baire-lab check` on the committed instances of
`tests/golden/`, and `baire-lab` on its committed argument lists, give the
committed bytes, under two hash seeds.

One subprocess per seed renders every case; `tests/golden/regenerate.py`
documents the files and rewrites them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def test_golden_folder_pairs_every_instance_with_its_report():
    instances = sorted(p.stem for p in GOLDEN.glob("*.json"))
    argvs = sorted(p.stem for p in GOLDEN.glob("*.argv"))
    reports = sorted(p.stem for p in GOLDEN.glob("*.out"))
    assert len(instances) >= 51
    assert len(argvs) >= 15
    assert not set(instances) & set(argvs)
    assert sorted(instances + argvs) == reports
    commands = {tuple(json.loads((GOLDEN / (name + ".argv")).read_text())[:2]) for name in argvs}
    assert {("gallery", "f1"), ("gallery", "f2"), ("tree", "shift"), ("tree", "trm")} <= commands
    assert sum(command[0] == "classify" for command in commands) >= 4  # acceptance 01's skeletons


@pytest.mark.parametrize("seed", ["1", "2"])
def test_check_reports_match_the_golden_bytes(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), "--print"],
                         capture_output=True, text=True, env=env, check=True)
    rendered = json.loads(out.stdout)
    assert sorted(rendered) == sorted(p.stem for p in [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.argv")])
    for name, (code, report) in rendered.items():
        assert report == (GOLDEN / (name + ".out")).read_text(), name
        payload = json.loads(report)
        if set(payload) == {"error", "path"}:
            assert code == 2, name  # a refused instance
        elif "results" in payload:
            verdicts = [r["verdict"] for r in payload["results"]]
            assert code == (3 if "inconclusive" in verdicts else 0), name
        else:
            assert code == 0, name
            assert payload.get("witness_verified", True) is True, name
