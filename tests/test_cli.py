"""CLI surface: subcommands, exit codes, deterministic reports."""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "baire_lab.cli"]


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


def test_classify_subcommand():
    out = run_cli("classify", "Ic(Uc(open))")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["pointclass"] == "Pi0(2)"
    assert payload["derivation"][-1]["result"] == "Pi0(2)"
    assert run_cli("classify", "open").returncode == 0
    bad = run_cli("classify", "Uc(")
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["offset"] == 3


def test_check_subcommand_and_exit_codes(tmp_path):
    instance = tmp_path / "split.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "dense_split", "variant": "dyadic"},
        "points": ["1/2", "1/3"],
        "mode": "strong",
    }))
    out = run_cli("check", str(instance))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    kinds = {r["point"]: r["verdict"] for r in payload["results"]}
    assert kinds == {"1/2": "continuous", "1/3": "discontinuous"}

    # schema violations exit 2 with a field path
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"multimap": {"kind": "wat"}}))
    out = run_cli("check", str(broken))
    assert out.returncode == 2
    assert json.loads(out.stderr)["path"] == "multimap.kind"

    # a starved budget yields Inconclusive and exit 3
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps({
        "multimap": {"kind": "f2"},
        "points": ["tree{nodes:[()],branches:[\";1\"]}"],
        "mode": "star",
        "config": {"dense_bound": 4, "n_bound": 8},
    }))
    out = run_cli("check", str(starved))
    assert out.returncode == 3
    payload = json.loads(out.stdout)
    assert payload["results"][0]["verdict"] == "inconclusive"


def test_check_point_override(tmp_path):
    instance = tmp_path / "split.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "dense_split", "variant": "dyadic"},
        "points": ["1/2"],
        "mode": "strong",
    }))
    out = run_cli("check", str(instance), "--point", "1/3", "--mode", "strong")
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"][0]["verdict"] == "discontinuous"


def test_gallery_subcommands():
    out = run_cli("gallery", "f1", "--gamma", "all_ones")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["verdict"] == "continuous"
    assert payload["witness_verified"] is True

    out = run_cli("gallery", "f2", "--tree", "tree{nodes:[(),(0)]}")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["verdict"] == "discontinuous"
    assert payload["witness_verified"] is True

    out = run_cli("gallery", "embed", "--alpha", "1;0", "--depth", "3")
    payload = json.loads(out.stdout)
    assert payload["intervals"][1] == ["1/2", "5/8"]
    final = payload["intervals"][-1]
    # the depth-3 interval sits inside [1/2, 5/8]
    from fractions import Fraction as Fr
    from baire_lab.rationals import parse_rational
    assert Fr(1, 2) <= parse_rational(final[0]) <= parse_rational(final[1]) <= Fr(5, 8)

    assert run_cli("gallery", "unknown").returncode == 2


def test_tree_subcommands():
    out = run_cli("tree", "shift", "--tree", "tree{nodes:[(),(0),(0,1)]}")
    assert json.loads(out.stdout)["tree"] == "tree{nodes:[(),(1),(1,2)]}"
    out = run_cli("tree", "trm", "--tree", "tree{nodes:[(),(0),(0,1)]}")
    assert json.loads(out.stdout)["terminals"] == ["(0,1)"]
    out = run_cli("tree", "illfounded", "--tree", 'tree{nodes:[()],branches:["0;1"]}')
    assert json.loads(out.stdout)["ill_founded"] is True
    out = run_cli("tree", "generate", "--nodes", "(2,5) (2,6)")
    assert json.loads(out.stdout)["tree"] == "tree{nodes:[(),(2),(2,5),(2,6)]}"
    assert run_cli("tree", "shift").returncode == 2


def test_reports_are_byte_identical(tmp_path):
    instance = tmp_path / "split.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "dense_split", "variant": "thirds"},
        "points": ["1/2", "1/3", "5/6"],
        "mode": "strong",
    }))
    runs = [run_cli("check", str(instance)).stdout for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    classified = [run_cli("classify", "Uc(Ic(Uc(open)))").stdout for _ in range(3)]
    assert classified[0] == classified[1] == classified[2]
    # --timing is the explicit opt-out from byte-identity
    timed = run_cli("--timing", "classify", "open")
    assert "wall_time_seconds" in json.loads(timed.stdout)


def test_check_fell_mode_reads_test_balls(tmp_path):
    instance = tmp_path / "fell.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "dense_split", "variant": "dyadic"},
        "points": ["1/3", "1/2"],
        "mode": "fell",
        "test_balls": [["1", "1/2"], ["0", "1/2"]],
    }))
    out = run_cli("check", str(instance))
    assert out.returncode == 0
    kinds = {r["point"]: r["verdict"] for r in json.loads(out.stdout)["results"]}
    assert kinds == {"1/3": "discontinuous", "1/2": "continuous"}

    missing = tmp_path / "fell_missing.json"
    missing.write_text(json.dumps({
        "multimap": {"kind": "dense_split", "variant": "dyadic"},
        "points": ["1/3"],
        "mode": "fell",
    }))
    assert run_cli("check", str(missing)).returncode == 2


def test_check_serializes_tree_witnesses(tmp_path):
    instance = tmp_path / "f2.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "f2"},
        "points": ["tree{nodes:[(),(0)]}"],
        "mode": "plain",
    }))
    out = run_cli("check", str(instance))
    assert out.returncode == 0
    result = json.loads(out.stdout)["results"][0]
    assert result["verdict"] == "discontinuous"
    witness = result["witness"]
    assert witness["kind"] == "discontinuity"
    # counterexample perturbation trees round-trip through the literal form
    delta, tree_text = witness["entries"][0]["counterexamples"][0]
    assert tree_text.startswith("tree{")


def test_check_empty_value_at_a_listed_point(tmp_path):
    # 1/1024 lies in every schedule ball around 0, so the empty value is
    # also a probe value for the neighbouring point
    instance = tmp_path / "empty.json"
    instance.write_text(json.dumps({
        "multimap": {
            "kind": "tabular",
            "space": {"kind": "finite_points", "labels": ["0", "1/1024"],
                      "table": [["0", "1/1024"], ["1/1024", "0"]], "rational_labels": True},
            "values": {"0": {"kind": "empty"}, "1/1024": {"kind": "finite_real", "points": ["0"]}},
        },
        "points": ["0", "1/1024"],
    }))
    expected = {"plain": "discontinuous", "strong": "continuous"}
    for mode, kind in expected.items():
        out = run_cli("check", str(instance), "--mode", mode)
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr
        at_empty = json.loads(out.stdout)["results"][0]
        assert at_empty["point"] == "0"
        assert at_empty["verdict"] == kind
        assert "witness" not in at_empty
        assert "empty" in at_empty["report"]["reason"]


def test_check_dagger_mode(tmp_path):
    instance = tmp_path / "dagger.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "dense_split", "variant": "dyadic"},
        "points": ["1/2"],
        "mode": "dagger",
    }))
    out = run_cli("check", str(instance))
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"][0]["verdict"] == "continuous"


def test_check_dagger_mode_needs_a_real_codomain(tmp_path):
    instance = tmp_path / "f2_dagger.json"
    instance.write_text(json.dumps({
        "multimap": {"kind": "f2"},
        "points": ["tree{nodes:[(),(0)]}"],
        "mode": "dagger",
    }))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == "mode"

    # the --mode override is checked too
    instance.write_text(json.dumps({"multimap": {"kind": "f2"}, "points": ["tree{nodes:[(),(0)]}"]}))
    out = run_cli("check", str(instance), "--mode", "dagger")
    assert out.returncode == 2, out.stderr
    assert json.loads(out.stderr)["path"] == "mode"


def test_check_fell_mode_rejects_malformed_test_balls(tmp_path):
    instance = tmp_path / "fell.json"
    for balls in ([["1", "0"]], [["1", "-1/2"]], [["1"]], [["1", "1/2"], ["0", "1/2", "1"]], [["1", 0.5]],
                  [[0.5, "1/2"]]):
        instance.write_text(json.dumps({
            "multimap": {"kind": "dense_split", "variant": "dyadic"},
            "points": ["1/3"],
            "mode": "fell",
            "test_balls": balls,
        }))
        out = run_cli("check", str(instance))
        assert out.returncode == 2, (balls, out.stderr)
        assert "Traceback" not in out.stderr
        assert json.loads(out.stderr)["path"] == "test_balls[%d]" % (len(balls) - 1)


def test_check_rejects_a_point_that_is_not_a_literal(tmp_path):
    instance = tmp_path / "float_point.json"
    instance.write_text(json.dumps({"multimap": {"kind": "dense_split"}, "points": ["1/3", 0.5]}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert json.loads(out.stderr)["path"] == "points[1]"


@pytest.mark.parametrize("multimap, path", [
    ({"kind": "f1", "window": "x"}, "multimap.window"),
    ({"kind": "tabular",
      "space": {"kind": "finite_points", "labels": ["a", "b"], "table": [["0", "1"], ["1", "0"]]},
      "values": {"a": {"kind": "finite_real", "points": ["0"]}, "b": {"kind": "bogus"}}}, "multimap.values.b"),
    ({"kind": "spike", "head": ["1/2", "1/2"]}, "multimap.head"),
])
def test_check_rejects_a_malformed_multimap_at_its_path(tmp_path, multimap, path):
    instance = tmp_path / "malformed.json"
    instance.write_text(json.dumps({"multimap": multimap, "points": []}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == path


def test_check_rejects_a_point_outside_the_domain(tmp_path):
    instance = tmp_path / "outside.json"
    instance.write_text(json.dumps({"multimap": {"kind": "dense_split"}, "points": ["1/3", "2"]}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == "points[1]"

    # the --point override is checked too
    instance.write_text(json.dumps({"multimap": {"kind": "dense_split"}, "points": ["1/3"]}))
    out = run_cli("check", str(instance), "--point", "3/2")
    assert out.returncode == 2, out.stderr
    assert json.loads(out.stderr)["path"] == "point"
