"""Golden reports: `baire-lab check` on the committed instances of
`tests/golden/` gives the committed bytes, under two hash seeds.

One subprocess per seed renders every instance; `tests/golden/regenerate.py`
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
    reports = sorted(p.stem for p in GOLDEN.glob("*.out"))
    assert len(instances) >= 15
    assert instances == reports


@pytest.mark.parametrize("seed", ["1", "2"])
def test_check_reports_match_the_golden_bytes(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), "--print"],
                         capture_output=True, text=True, env=env, check=True)
    rendered = json.loads(out.stdout)
    assert sorted(rendered) == sorted(p.stem for p in GOLDEN.glob("*.json"))
    for name, (code, report) in rendered.items():
        assert report == (GOLDEN / (name + ".out")).read_text(), name
        verdicts = [r["verdict"] for r in json.loads(report)["results"]]
        assert code == (3 if "inconclusive" in verdicts else 0), name
