"""Instance-file schema: decoding, validation errors, digests."""

from fractions import Fraction as Fr

import pytest

from baire_lab.checkers import check_continuity, check_strong_continuity
from baire_lab.closed_sets import finite_real
from baire_lab.instances import (
    SchemaError,
    canonical_json,
    config_from_json,
    instance_digest,
    load_instance,
    verdict_to_json,
)


def dense_split_instance(**overrides):
    base = {
        "multimap": {"kind": "dense_split", "variant": "dyadic"},
        "points": ["1/2", "1/3"],
        "mode": "strong",
        "config": {},
        "probe_spec": {"kind": "default"},
    }
    base.update(overrides)
    return base


def test_load_and_run_dense_split_instance():
    mm, points, mode, cfg, probes = load_instance(dense_split_instance())
    assert mode == "strong"
    assert points == [Fr(1, 2), Fr(1, 3)]
    verdicts = [check_strong_continuity(mm, x, cfg, probes) for x in points]
    assert [v.kind for v in verdicts] == ["continuous", "discontinuous"]
    for x, v in zip(points, verdicts):
        payload = verdict_to_json(v)
        assert payload["verdict"] == v.kind
        assert "witness" in payload


def test_tabular_instance_roundtrip():
    instance = {
        "multimap": {
            "kind": "tabular",
            "space": {
                "kind": "finite_points",
                "labels": ["0", "1/2", "1"],
                "table": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]],
                "rational_labels": True,
            },
            "codomain": {"kind": "real_line"},
            "values": {
                "0": {"kind": "finite_real", "points": ["0"]},
                "1/2": {"kind": "finite_real", "points": ["0", "1"]},
                "1": {"kind": "finite_real", "points": ["1"]},
            },
        },
        "points": ["0", "1/2", "1"],
        "mode": "plain",
        "probe_spec": {"kind": "full_domain"},
    }
    mm, points, mode, cfg, probes = load_instance(instance)
    assert mm.value(Fr(1, 2)) == finite_real(0, 1)
    for x in points:
        assert check_continuity(mm, x, cfg, probes).kind == "continuous"


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        load_instance(dense_split_instance(multimap={"kind": "nonsense"}))
    assert err.value.path == "multimap.kind"
    with pytest.raises(SchemaError) as err:
        load_instance(dense_split_instance(mode="sideways"))
    assert err.value.path == "mode"
    with pytest.raises(SchemaError) as err:
        load_instance(dense_split_instance(points=["not-a-number"]))
    assert err.value.path == "points[0]"
    with pytest.raises(SchemaError) as err:
        load_instance(dense_split_instance(probe_spec={"kind": "full_domain"}))
    assert "probe_spec" in err.value.path
    with pytest.raises(SchemaError):
        config_from_json({"net_resolution": "0"})
    for variant in ("cubes", ["dyadic"], {"dyadic": 1}, 2):
        with pytest.raises(SchemaError) as err:
            load_instance(dense_split_instance(multimap={"kind": "dense_split", "variant": variant}))
        assert str(err.value) == "multimap.variant: unknown dense_split variant %r" % (variant,)


def test_decode_at_turns_a_malformed_literal_into_a_schema_error_at_its_path():
    from baire_lab.instances import decode_at, parse_rational

    assert decode_at("x", parse_rational, "2/4") == Fr(1, 2)
    for decode, literal, failure in [(parse_rational, "1/x", ValueError), (parse_rational, 5, AttributeError),
                                     ({}.__getitem__, "k", KeyError), (len, 5, TypeError),
                                     (int, float("inf"), OverflowError)]:
        with pytest.raises(SchemaError) as err:
            decode_at("x", decode, literal)
        assert err.value.path == "x" and isinstance(err.value.__cause__, failure)
    # the failure's own text; a message in its place; a prefix before the failure's text
    with pytest.raises(SchemaError, match=r"^x: invalid literal for int\(\) with base 10: 'k'$"):
        decode_at("x", int, "k")
    with pytest.raises(SchemaError, match=r"^x: expected an integer, got 'k'$"):
        decode_at("x", int, "k", message="expected an integer, got 'k'")
    with pytest.raises(SchemaError, match=r"^x: not a number: invalid literal"):
        decode_at("x", int, "k", prefix="not a number: ")
    # a validating constructor catches only ValueError: any other error stays a fault of the program
    with pytest.raises(SchemaError, match=r"^x: invalid literal"):
        decode_at("x", int, "k", catch=ValueError)
    with pytest.raises(TypeError):
        decode_at("x", len, 5, catch=ValueError)

    def nested():
        raise SchemaError("x.inner", "deeper")

    # a SchemaError from inside keeps its own path, although it is a ValueError
    with pytest.raises(SchemaError) as err:
        decode_at("x", nested)
    assert (err.value.path, str(err.value)) == ("x.inner", "x.inner: deeper")
    # anything else is a fault of the program, not of the input
    with pytest.raises(ZeroDivisionError):
        decode_at("x", lambda: 1 // 0)


def test_extend_and_compose_instances():
    tabular = {
        "kind": "tabular",
        "space": {
            "kind": "finite_points",
            "labels": ["0", "1/2"],
            "table": [["0", "1/2"], ["1/2", "0"]],
            "rational_labels": True,
        },
        "codomain": {"kind": "unit_interval"},
        "values": {
            "0": {"kind": "finite_real", "points": ["0"]},
            "1/2": {"kind": "finite_real", "points": ["1"]},
        },
    }
    extended = {
        "multimap": {
            "kind": "extend",
            "base": tabular,
            "super_space": {
                "kind": "finite_points",
                "labels": ["0", "1/2", "1"],
                "table": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]],
                "rational_labels": True,
            },
        },
        "points": ["1"],
        "mode": "plain",
    }
    mm, points, mode, cfg, probes = load_instance(extended)
    assert check_continuity(mm, points[0], cfg, probes).kind == "continuous"

    composed = {
        "multimap": {
            "kind": "compose",
            "pi": {"kind": "affine", "scale": "1/2", "shift": "0"},
            "base": tabular,
        },
        "points": ["0"],
        "mode": "plain",
        "probe_spec": {"kind": "full_domain"},
    }
    mm, points, mode, cfg, probes = load_instance(composed)
    assert mm.value(Fr(1, 2)) == finite_real(Fr(1, 2))


def test_digest_is_canonical():
    a = dense_split_instance()
    b = dict(reversed(list(a.items())))
    assert instance_digest(a) == instance_digest(b)
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    c = dense_split_instance(points=["1/2"])
    assert instance_digest(a) != instance_digest(c)
