"""CLI surface: subcommands, exit codes, deterministic reports."""

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from baire_lab import cli

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
    for gamma in ("[]", '{"default_row": "1"}', '{"explicit_rows": {"0": {"prefix": "2"}}}'):
        out = run_cli("gallery", "f1", "--gamma", gamma)
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["gallery", "f1", "--gamma", "all_ones"],
    ["gallery", "f2", "--tree", "tree{nodes:[(),(0)]}"],
    ["gallery", "f2", "--tree", 'tree{nodes:[()],branches:["0;1"]}'],
])
def test_gallery_exits_1_when_verify_witness_rejects_the_witness(monkeypatch, argv):
    """A rejected gallery witness is a fault of the program: an error on
    stderr and exit 1, with no report and no verdict."""
    monkeypatch.setattr(cli, "verify_witness", lambda *args: False)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code == 1
    assert stdout.getvalue() == ""
    assert json.loads(stderr.getvalue()) == {
        "error": "gallery %s: verify_witness rejected the gallery witness" % argv[1]}


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


@pytest.mark.parametrize("argv, path", [
    (["gallery", "f1"], "gamma"),
    (["gallery", "f1", "--gamma", "{"], "gamma"),
    (["gallery", "f1", "--gamma", "[]"], "gamma"),
    (["gallery", "f1", "--gamma", '{"default_row": "1"}'], "gamma"),
    (["gallery", "f2"], "tree"),
    (["gallery", "f2", "--tree", "tree{"], "tree"),
    (["gallery", "embed", "--depth", "2"], "alpha"),
    (["gallery", "embed", "--alpha", "x", "--depth", "2"], "alpha"),
    (["gallery", "embed", "--alpha", "1;", "--depth", "2"], "alpha"),
    (["gallery", "unknown"], "name"),
    (["tree", "shift"], "tree"),
    (["tree", "trm", "--tree", "bad"], "tree"),
    (["tree", "illfounded", "--tree", "tree{nodes:[(0)"], "tree"),
    (["tree", "generate"], "nodes"),
    (["tree", "generate", "--nodes", " "], "nodes"),
    # the tree's own validation, inside generated_by
    (["tree", "generate", "--nodes", "(-1)"], "nodes"),
    (["tree", "generate", "--nodes", "(a)"], "nodes"),
    (["check", "no/such/instance.json"], "instance"),
])
def test_malformed_command_line_arguments_exit_2_at_their_name(argv, path):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code == 2
    assert stdout.getvalue() == ""
    error = json.loads(stderr.getvalue())
    assert error["path"] == path
    assert error["error"].startswith(path + ": ")


def test_check_refuses_an_instance_file_that_is_not_utf8_json(tmp_path):
    instance = tmp_path / "binary.json"
    instance.write_bytes(b"\xff\xfe{")
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == "instance"


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
    # the same space without its table, which rational labels determine
    untabled = tmp_path / "empty_untabled.json"
    obj = json.loads(instance.read_text())
    del obj["multimap"]["space"]["table"]
    untabled.write_text(json.dumps(obj))
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
        derived = run_cli("check", str(untabled), "--mode", mode)
        assert derived.returncode == 0, derived.stderr
        # the reports differ only in the digest of the instance file
        report, derived_report = json.loads(out.stdout), json.loads(derived.stdout)
        assert report.pop("digest") != derived_report.pop("digest")
        assert report == derived_report


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
    split = ({"kind": "dense_split", "variant": "dyadic"}, "1/3")
    cases = [(split, balls) for balls in ([["1", "0"]], [["1", "-1/2"]], [["1"]], [["1", "1/2"], ["0", "1/2", "1"]],
                                          [["1", 0.5]], [[0.5, "1/2"]])]
    # a center is a point of the codomain, and only a grid point is a JSON object
    cases += [(({"kind": "f2"}, "tree{nodes:[(),(0)]}"), [[{"explicit_rows": {}}, "1/2"]]),
              (split, [[{"explicit_rows": {}}, "1/2"]]),
              (split, [["1", "1/2"], ["5", "1/2"]])]
    for (multimap, point), balls in cases:
        instance.write_text(json.dumps({
            "multimap": multimap,
            "points": [point],
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


TWO_POINTS = {"kind": "finite_points", "labels": ["0", "1"], "table": [["0", "1"], ["1", "0"]],
              "rational_labels": True}
STRING_LABELS = {"kind": "finite_points", "labels": ["a", "b"], "table": [["0", "1"], ["1", "0"]]}


def tabular(codomain, value_at_1, value_at_0=None):
    """A tabular map on the points 0 and 1; the value at 0 defaults to empty."""
    return {"kind": "tabular", "space": TWO_POINTS, "codomain": codomain,
            "values": {"0": value_at_0 or {"kind": "empty"}, "1": value_at_1}}


def finite(*points):
    return {"kind": "finite_real", "points": list(points)}


def extend(base, super_labels=("0", "1", "2")):
    table = [[str(abs(int(a) - int(b))) for b in super_labels] for a in super_labels]
    return {"kind": "extend", "base": base,
            "super_space": {"kind": "finite_points", "labels": list(super_labels), "table": table,
                            "rational_labels": True}}


def affine(scale="2", shift="1"):
    pi = {"kind": "affine", "scale": scale, "shift": shift}
    return {"kind": "compose", "pi": {k: v for k, v in pi.items() if v is not None},
            "base": tabular({"kind": "real_line"}, finite("1"))}


@pytest.mark.parametrize("multimap, path", [
    ({"kind": "f1", "window": "x"}, "multimap.window"),
    ({"kind": "tabular", "space": STRING_LABELS,
      "values": {"a": finite("0"), "b": {"kind": "bogus"}}}, "multimap.values.b"),
    ({"kind": "spike", "head": ["1/2", "1/2"]}, "multimap.head"),
    # a value must be a subset of the codomain, of a kind measured there
    (tabular({"kind": "real_line"}, {"kind": "finite_baire", "points": ["1;0"]}), "multimap.values.1"),
    (tabular({"kind": "unit_interval"}, finite("2")), "multimap.values.1"),
    (tabular({"kind": "unit_interval"}, {"kind": "closed_intervals", "intervals": [["-1", "1/2"]]}),
     "multimap.values.1"),
    (tabular(TWO_POINTS, finite("5")), "multimap.values.1"),
    (tabular(TWO_POINTS, {"kind": "closed_intervals", "intervals": [["0", "1"]]}), "multimap.values.1"),
    (tabular({"kind": "baire_space"}, finite("0")), "multimap.values.1"),
    (tabular({"kind": "cantor_grid"}, finite("0")), "multimap.values.1"),
    (tabular({"kind": "tree_space"}, {"kind": "tree_body", "tree": "tree{nodes:[()]}"}), "multimap.values.1"),
    (tabular(STRING_LABELS, finite("0")), "multimap.values.1"),
    (tabular({"kind": "real_line"}, finite("1"), {"kind": "tree_body", "tree": "tree{nodes:[()]}"}),
     "multimap.values.0"),
    # a coordinate change must fit the codomain it is composed with
    ({"kind": "compose", "pi": {"kind": "baire_embed"}, "base": {"kind": "f1"}}, "multimap.pi"),
    ({"kind": "compose", "pi": {"kind": "affine", "scale": "2", "shift": "0"}, "base": {"kind": "f2"}},
     "multimap.pi"),
    (affine(scale=None), "multimap.pi.scale"),
    (affine(scale="x"), "multimap.pi.scale"),
    (affine(scale="0"), "multimap.pi.scale"),
    (affine(scale=2), "multimap.pi.scale"),
    (affine(shift="1/0"), "multimap.pi.shift"),
    (affine(shift=None), "multimap.pi.shift"),
    # an object is expected where each of these holds something else
    ("f2", "multimap"),
    ({"kind": "compose", "pi": "affine", "base": {"kind": "f2"}}, "multimap.pi"),
    ({"kind": "tabular", "space": TWO_POINTS, "values": []}, "multimap.values"),
    ({"kind": "tabular", "space": "finite_points", "values": {}}, "multimap.space"),
    # an extension's off-image value is the whole codomain, which must be representable
    (extend(tabular({"kind": "real_line"}, finite("1"))), "multimap.base"),
    (extend(tabular({"kind": "unit_interval"}, finite("1")), ("0", "2")), "multimap.super_space"),
    # a list is expected where each of these holds a string or a number
    ({"kind": "spike", "head": "12"}, "multimap.head"),
    ({"kind": "tabular", "space": {**STRING_LABELS, "labels": "ab"}, "values": {}}, "multimap.space.labels"),
    ({"kind": "tabular", "space": {**TWO_POINTS, "table": 5}, "values": {}}, "multimap.space.table"),
    ({"kind": "tabular", "space": {**TWO_POINTS, "table": ["01", ["1", "0"]]}, "values": {}},
     "multimap.space.table[0]"),
    (tabular({"kind": "real_line"}, {"kind": "finite_real", "points": "12"}), "multimap.values.1.points"),
    (tabular({"kind": "real_line"}, {"kind": "closed_intervals", "intervals": "01"}),
     "multimap.values.1.intervals"),
    (tabular({"kind": "real_line"}, {"kind": "open_intervals", "intervals": ["01"]}),
     "multimap.values.1.intervals[0]"),
    # a number where a literal belongs
    ({"kind": "tabular", "space": {**TWO_POINTS, "table": [[0, 1], [1, 0]]}, "values": {}}, "multimap.space"),
    ({"kind": "tabular", "space": {**TWO_POINTS, "labels": [0, 1]}, "values": {}}, "multimap.space.labels"),
    # rational labels are rational literals measured by |x - y|, and name each point once
    ({"kind": "tabular", "space": {**STRING_LABELS, "rational_labels": True}, "values": {}},
     "multimap.space.labels"),
    (tabular({**TWO_POINTS, "table": [["0", "1/1000"], ["1/1000", "0"]]}, finite("1")), "multimap.codomain"),
    ({"kind": "tabular", "space": {**TWO_POINTS, "labels": ["0", "1/2"], "table": [["0", "1/2"], ["1/2", "0"]]},
      "values": {"0": finite("0"), "1/2": finite("0"), "2/4": finite("1")}}, "multimap.values.2/4"),
    # a kind is a string
    ({"kind": ["f2"]}, "multimap.kind"),
    ({"kind": "tabular", "space": {**TWO_POINTS, "kind": ["finite_points"]}, "values": {}}, "multimap.space.kind"),
    (tabular({"kind": {"finite_points": 1}}, finite("1")), "multimap.codomain.kind"),
    (extend(tabular({"kind": "unit_interval"}, finite("1")))
     | {"super_space": {"kind": ["finite_points"]}}, "multimap.super_space.kind"),
    ({"kind": "compose", "pi": {"kind": ["affine"]}, "base": {"kind": "f2"}}, "multimap.pi.kind"),
    (tabular({"kind": "real_line"}, {"kind": ["finite_real"], "points": ["1"]}), "multimap.values.1.kind"),
    # the rational_labels flag is a JSON boolean
    *[({"kind": "tabular", "space": {**TWO_POINTS, "rational_labels": flag}, "values": {}},
       "multimap.space.rational_labels") for flag in ("false", 0, 1, None)],
    # an integer field holding an infinite number (JSON's Infinity)
    ({"kind": "f1", "window": float("inf")}, "multimap.window"),
    ({"kind": "spike", "harmonic_tail_start": float("-inf")}, "multimap.harmonic_tail_start"),
    # a tabular map lists a value at every point of a finite space
    ({"kind": "tabular", "space": {"kind": "unit_interval"}, "values": {"0": finite("0")}}, "multimap.space"),
    # an integer field holds a natural number: not a float or a boolean, which int() would truncate
    ({"kind": "f1", "window": 2.5}, "multimap.window"),
    ({"kind": "f1", "window": True}, "multimap.window"),
    ({"kind": "spike", "harmonic_tail_start": 1.0}, "multimap.harmonic_tail_start"),
    ({"kind": "spike", "harmonic_tail_start": False}, "multimap.harmonic_tail_start"),
    # a negative tail start would put 1/0 on the harmonic list
    ({"kind": "spike", "head": ["3"], "harmonic_tail_start": -1}, "multimap.harmonic_tail_start"),
])
def test_check_rejects_a_malformed_multimap_at_its_path(tmp_path, multimap, path):
    instance = tmp_path / "malformed.json"
    instance.write_text(json.dumps({"multimap": multimap, "points": []}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == path


@pytest.mark.parametrize("point", ["2/4", "1/2"])
def test_check_reads_a_rational_label_as_the_point_it_names(tmp_path, point):
    space = {**TWO_POINTS, "labels": ["0", "2/4"], "table": [["0", "1/2"], ["1/2", "0"]]}
    instance = tmp_path / "labels.json"
    instance.write_text(json.dumps({"multimap": {"kind": "tabular", "space": space,
                                                 "values": {"0": finite("0"), "2/4": finite("0")}},
                                    "points": [point]}))
    out = run_cli("check", str(instance))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["results"][0]
    assert (result["point"], result["verdict"]) == ("1/2", "continuous")


@pytest.mark.parametrize("config", [[], {"probe_budget": [1]}, {"eps_schedule": [1]}, {"dense_bound": "x"},
                                    {"probe_budget": float("inf")}, {"probe_budget": True}, {"dense_bound": 2.5},
                                    {"n_bound": -1}, {"m_bound": 8.0}])
def test_check_rejects_a_malformed_config_at_its_path(tmp_path, config):
    instance = tmp_path / "malformed.json"
    instance.write_text(json.dumps({"multimap": {"kind": "f2"}, "points": [], "config": config}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == "config"


@pytest.mark.parametrize("fields, path", [
    ({"points": 5}, "points"),
    ({"points": "()"}, "points"),
    ({"points": {"0": "()"}}, "points"),
    ({"config": {"eps_schedule": "1/2"}}, "config.eps_schedule"),
    ({"config": {"delta_schedule": 5}}, "config.delta_schedule"),
])
def test_check_rejects_a_string_or_number_where_a_list_belongs(tmp_path, fields, path):
    instance = tmp_path / "malformed.json"
    instance.write_text(json.dumps({"multimap": {"kind": "f2"}, "points": [], **fields}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == path


@pytest.mark.parametrize("point", [
    # a grid row is a sequence of 0s and 1s
    {"explicit_rows": {"1": {"prefix": "2", "period": "0"}}},
    {"default_row": {"prefix": "", "period": "012"}},
    # rows, and the set of explicit rows, are objects
    {"explicit_rows": []},
    {"default_row": "1"},
    {"explicit_rows": {"1": {"prefix": 5}}},
    # a grid point given as a string is JSON text
    "1/3",
    "{",
    # nested past the JSON parser's depth
    pytest.param("[" * 100_000, id="deep_text"),
])
def test_check_rejects_a_malformed_grid_point_at_its_path(tmp_path, point):
    instance = tmp_path / "grid.json"
    instance.write_text(json.dumps({"multimap": {"kind": "f1"}, "points": [point]}))
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["path"] == "points[0]"
    if isinstance(point, str):  # the --point override reads the same literals
        instance.write_text(json.dumps({"multimap": {"kind": "f1"}, "points": []}))
        out = run_cli("check", str(instance), "--point", point)
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert json.loads(out.stderr)["path"] == "point"
        # and so does `gallery f1 --gamma`, with the same refusal text
        gamma = run_cli("gallery", "f1", "--gamma", point)
        assert gamma.returncode == 2, gamma.stderr
        assert json.loads(gamma.stderr)["error"] == json.loads(out.stderr)["error"].replace("point: ", "gamma: ", 1)


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


def test_star_on_only_empty_values_into_codomains_without_a_dense_index(tmp_path):
    # the grid, the tree space and string-labelled finite spaces carry no
    # value but the empty set; every point is at distance 1 from it
    instance = tmp_path / "empty_star.json"
    for codomain in ({"kind": "cantor_grid"}, {"kind": "tree_space"}, STRING_LABELS):
        instance.write_text(json.dumps({"multimap": tabular(codomain, {"kind": "empty"}),
                                        "points": ["0", "1"], "mode": "star"}))
        out = run_cli("check", str(instance))
        assert out.returncode == 0, (codomain, out.stderr)
        results = json.loads(out.stdout)["results"]
        assert [r["verdict"] for r in results] == ["discontinuous", "discontinuous"], codomain
        assert results[0]["report"] == {"certificate": "probe value sets separated by 2/(n+1) at every delta",
                                        "criterion": "star", "refuted_n": 0}
        assert results[0]["report"] == results[1]["report"]


def _nested_compose(depth, points):
    """An instance whose multimap nests `depth` identity `compose` maps
    around a tabular map, as JSON text (json.dumps recurses too deeply)."""
    base = json.dumps(tabular({"kind": "real_line"}, finite("1")))
    layer = '{"kind": "compose", "pi": {"kind": "affine", "scale": "1", "shift": "0"}, "base": '
    return '{"multimap": %s, "points": %s}' % (layer * depth + base + "}" * depth, json.dumps(points))


@pytest.mark.parametrize("text", ["[" * 100_000, _nested_compose(1500, ["1"])], ids=["brackets", "compose"])
def test_check_refuses_a_deeply_nested_instance_at_instance(tmp_path, text):
    instance = tmp_path / "deep.json"
    instance.write_text(text)
    out = run_cli("check", str(instance))
    assert out.returncode == 2, out.stderr[-300:]
    assert "Traceback" not in out.stderr
    assert out.stdout == ""
    error = json.loads(out.stderr)
    assert error["path"] == "instance"
    assert "recursion" in error["error"]


def test_check_refuses_nesting_too_deep_for_the_decoder_at_instance(tmp_path):
    """Past some depth the instance decoder recurses too deeply although
    json.load still reads the file.  The least refused depth, found by
    bisection, is refused by the decoder; the recursion limit itself by
    json.load.  Both are refused at `instance`, and shallower instances
    decode."""
    instance = tmp_path / "deep.json"

    def refusal(depth):
        instance.write_text(_nested_compose(depth, []))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["check", str(instance)])
        if code == 0:
            return None
        assert code == 2, depth
        error = json.loads(stderr.getvalue())
        assert error["path"] == "instance", depth
        return error["error"].split(":")[1].strip()

    lo, hi = sys.getrecursionlimit() - 300, sys.getrecursionlimit()
    assert refusal(lo) is None
    assert refusal(hi) == "cannot read instance file"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refusal(mid) else (mid, hi)
    assert refusal(hi) == "instance nests too deeply to decode"


def test_check_evaluates_a_compose_chain_as_deep_as_the_decoder_reads(tmp_path):
    """977 identity `compose` maps around a tabular map decode in a fresh
    process; the chain's value applies every coordinate change in one loop,
    so the check does not recurse once per layer, and the verdicts are
    those of the bare map."""
    reports = []
    for depth in (1, 977):
        instance = tmp_path / ("chain%d.json" % depth)
        instance.write_text(_nested_compose(depth, ["0", "1"]))
        out = run_cli("check", str(instance))
        assert out.returncode == 0, out.stderr[-300:]
        reports.append(json.loads(out.stdout))
    assert reports[1]["results"] == reports[0]["results"]
    assert [r["verdict"] for r in reports[1]["results"]] == ["discontinuous", "continuous"]


# --- mutated instances --------------------------------------------------------

MUTATION_BASES = [
    {"multimap": tabular({"kind": "unit_interval"}, finite("1"), finite("0", "1/2")), "points": ["0", "1"],
     "mode": "plain"},
    {"multimap": {"kind": "spike", "head": ["1/2", "1/3"], "harmonic_tail_start": 4}, "points": ["1/2", "2"],
     "mode": "strong"},
    {"multimap": {"kind": "dense_split", "variant": "thirds"}, "points": ["1/3"], "mode": "fell",
     "test_balls": [["1", "1/2"], ["0", "1/2"]]},
    {"multimap": affine(), "points": ["1"], "mode": "star"},
    {"multimap": extend(tabular({"kind": "unit_interval"}, finite("1"))), "points": ["2"], "mode": "dagger",
     "probe_spec": {"kind": "full_domain"}},
    # grid points as JSON text and as an object
    {"multimap": {"kind": "f1", "window": 2}, "mode": "plain",
     "points": ['{"explicit_rows": {"0": {"prefix": "1", "period": "0"}}}',
                {"default_row": {"prefix": "", "period": "1"}}]},
]

JUNK_WORDS = ["", "0", "1/2", "-1", "2/4", "1/0", "a", ";", "0;1", "tree{nodes:[()]}", "finite_points", "real_line",
              "unit_interval", "baire_space", "cantor_grid", "tree_space", "tabular", "f1", "f2", "spike", "extend",
              "compose", "dense_split", "empty", "finite_real", "closed_intervals", "open_intervals",
              "finite_baire", "tree_body", "affine", "baire_embed", "default", "full_domain", "plain", "strong",
              "star", "dagger", "fell", "dyadic", "thirds"]
JUNK_KEYS = ["kind", "0", "1", "points", "intervals", "explicit_rows", "default_row", "prefix", "period", "labels",
             "table", "rational_labels", "base", "pi", "space", "codomain", "values", "head", "scale", "shift"]
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.sampled_from(JUNK_WORDS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(JUNK_KEYS), inner, max_size=3),
    max_leaves=6,
)


def _fields(obj, path=()):
    """Every field path of a JSON document, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_check_never_crashes_on_a_mutated_instance(tmp_path, data):
    instance = copy.deepcopy(data.draw(st.sampled_from(MUTATION_BASES)))
    where = data.draw(st.sampled_from(list(_fields(instance))))
    holder = instance
    for key in where[:-1]:
        holder = holder[key]
    holder[where[-1]] = data.draw(JUNK)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(instance))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(path)])
    assert code in (0, 2, 3), (where, instance)
