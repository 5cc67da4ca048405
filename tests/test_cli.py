import json
import time

import pytest
from reference_rays import support_nullity

from sclflow import bounds, cli, engine
from sclflow.cli import main
from sclflow.cones import cone_spec, in_cone
from sclflow.errors import LimitExceeded
from sclflow.graphs import flow_from_json
from sclflow.words import parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_commutator(capsys):
    code, out, _ = run_cli(capsys, "compute", "a b a^-1 b^-1")
    assert code == 0
    assert "1/2" in out


def test_compute_mixed_word_json(capsys):
    code, out, _ = run_cli(capsys, "--output", "json",
                           "compute", "a1 b1 b2 a1^-1 b1^-1 b2^-1")
    assert code == 0
    data = json.loads(out)
    assert data["scl"] == {"num": "1", "den": "2"}
    assert data["status"] == "stabilized"


def test_compute_invalid_word_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "a^2 b")
    assert code == 2
    assert "error" in err


def test_limit_refusal_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute",
                           "a1 a2 a3 a4 a5 a6 b " * 6 + "a1^-6 a2^-6 a3^-6 a4^-6 a5^-6 a6^-6 b^-6")
    assert code in (2, 3)  # word shape may fail first; limits otherwise


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "a b a^-1 b^-1")
    assert code == 0
    assert "(0, 1/2)" in out


def test_universal_command(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "universal", "3",
                           "--compute")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "a1 a2 b1 b2 a1^-1 b1^-1 a2^-1 b2^-1"
    assert data["scl"] == {"num": "1", "den": "2"}


def test_generic_command_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--output", "json", "--seed", "3",
                             "generic", "4")
    code2, out2, _ = run_cli(capsys, "--output", "json", "--seed", "3",
                             "generic", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_discs_command(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "discs",
                           "a b a^-1 b^-1", "--disc-bound", "1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1


def test_rays_command(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "rays", "a b a^-1 b^-1")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_gadget_subset(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "gadget", "subset",
                           "--variant", "SS", "--values", "1,-1,3")
    assert code == 0
    assert json.loads(out)["answer"] is True


def test_gadget_table(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "gadget", "table",
                           "--values", "1,-1", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["columns"][0] == [1, -1, -1, 0, -1]


def test_gadget_smallscl(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "gadget", "smallscl",
                           "--values", "2,-1,-1")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "a^2 b a^-1 b a^-1 b^-2"


def test_gadget_reduce(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "gadget", "reduce",
                           "--values", "1,-1")
    assert code == 0
    assert json.loads(out)["answer"] is True


def test_gadget_essential(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "gadget", "essential",
                           "--values", "2,-1")
    assert code == 0
    assert json.loads(out)["no_zero_subset"] is True


def test_synth_command(tmp_path, capsys):
    graph_file = tmp_path / "loop.json"
    graph_file.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]]}))
    code, out, _ = run_cli(capsys, "--output", "json", "synth", "--graph",
                           str(graph_file))
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["extremal"] is True


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "--bound", "1",
                           "conjecture", "1", "2", "1")
    assert code == 0
    data = json.loads(out)
    assert data["predicted"] == {"num": "3", "den": "4"}


def test_essential_command(tmp_path, capsys):
    disc = tmp_path / "disc.json"
    disc.write_text(json.dumps({"n": 2, "entries": [[0, 1], [1, 0]]}))
    code, out, _ = run_cli(capsys, "--output", "json", "essential",
                           "a b a^-1 b^-1", "--side", "a", "--disc", str(disc))
    assert code == 0
    assert json.loads(out)["essential"] is True


@pytest.mark.parametrize("word, entries", [
    ("a b a^-1 b^-1", [[0, 10 ** 9], [10 ** 9, 0]]),
    ("a b a^-3000000 b a^2999999 b^-2", [[2999999, 1, 0], [1, 0, 0], [0, 0, 0]]),
])
def test_essential_refuses_disc_entries_above_the_bound(tmp_path, capsys, word, entries):
    # searched instead of refused, the first ran past 10 s and the second
    # (a loop of 2999999 beside a two-cycle) took 54 s
    disc = tmp_path / "disc.json"
    disc.write_text(json.dumps({"n": len(entries), "entries": entries}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "essential", word, "--disc", str(disc))
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert err.startswith("refused:")


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "synth", "--graph", "/nonexistent.json")
    assert code == 2


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bound": 1, "output": "json"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "compute",
                           "a b a^-1 b^-1")
    assert code == 0
    assert json.loads(out)["status"] in ("stabilized", "upper_bound")
    # flag overrides the config file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--output", "text",
                           "compute", "a b a^-1 b^-1")
    assert code == 0
    assert "scl = 1/2" in out


def test_json_output_byte_identical(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "--output", "json", "compute",
                            "a b a^-1 b^-1")
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("--config", "", "compute", "a b a^-1 b^-1"),
    ("compute", "a b a^-1 b^-1", "--config="),
])
def test_empty_config_path_is_input_error(capsys, argv):
    # an empty path used to pass for no config file
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_malformed_config_json_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{bound: 3")
    code, _, err = run_cli(capsys, "--config", str(cfg), "compute",
                           "a b a^-1 b^-1")
    assert code == 2
    assert err.startswith("input error:")


def test_ill_typed_config_is_input_error(tmp_path, capsys):
    for data in ({"bound": "x"}, {"bound": True}, {"stabilize": 1},
                 {"output": "xml"}, [1, 2]):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "--config", str(cfg), "compute",
                               "a b a^-1 b^-1")
        assert code == 2, data
        assert err.startswith("input error:")


def test_malformed_collapse_file_is_input_error(tmp_path, capsys):
    for text in ("[[1, 2]", '{"vectors": [[1, "x"]]}', '{"vectors": [[1, 2], [3]]}',
                 '{"other": []}'):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        code, _, err = run_cli(capsys, "gadget", "collapse", "--file",
                               str(inst), "--usage-bound", "2")
        assert code == 2, text
        assert err.startswith("input error:")


def test_negative_disc_bound_is_input_error(capsys):
    code, _, err = run_cli(capsys, "discs", "a b a^-1 b^-1", "--disc-bound", "-1")
    assert code == 2
    assert err.startswith("input error:")


def test_collapse_file_still_accepted(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"vectors": [[1, 0], [0, 1]]}))
    code, out, _ = run_cli(capsys, "--output", "json", "gadget", "collapse",
                           "--file", str(inst), "--usage-bound", "2")
    assert code == 0
    assert json.loads(out)["collapsed"] == [1, 5]


def test_unknown_config_keys_are_input_error(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"bund": 1, "outptu": "json"}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "compute",
                             "a b a^-1 b^-1")
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "'bund'" in err and "'outptu'" in err


def test_rays_command_five_blocks(capsys):
    # n = 5 is within the ray limit; the rank test checks every ray
    word = "a b a b a b a b a^-4 b^-4"
    code, out, _ = run_cli(capsys, "--output", "json", "rays", word)
    assert code == 0
    data = json.loads(out)
    w = parse_word(word)
    spec = cone_spec(w.n, w.x.rows)
    assert spec.n == 5
    rays = [flow_from_json(r) for r in data["rays"]]
    assert data["count"] == len(rays) > 0
    assert len({r.entries for r in rays}) == len(rays)
    for r in rays:
        assert in_cone(spec, r)
        assert support_nullity(spec, r.entries) == 1


@pytest.mark.parametrize("only", ["x", "1,", "99", ""])
def test_bad_verify_criteria_are_input_error(capsys, monkeypatch, only):
    # an empty list used to pass for an absent one and run the whole battery
    def run_all(only=None):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(cli, "run_all", run_all)
    code, out, err = run_cli(capsys, "verify", f"--only={only}")
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("argv, data", [
    (("synth", "--graph"), {"vertices": "x", "edges": []}),
    (("synth", "--graph"), {"vertices": 2, "edges": [[0]]}),
    (("essential", "a b a^-1 b^-1", "--disc"), {"n": 2, "entries": [[1, "a"], [0, 0]]}),
    (("essential", "a b a^-1 b^-1", "--disc"), {"n": 2, "entries": [[0, 1.9], [1.2, 0]]}),
    (("essential", "a b a^-1 b^-1", "--disc"),
     {"n": 2, "entries": [[0, {"num": 1.5, "den": 1}], [{"num": 1.5, "den": 1}, 0]]}),
    (("essential", "a b a^-1 b^-1", "--disc"),
     {"n": 2, "entries": [[0, {"num": "1", "den": "0"}], [{"num": "1", "den": "0"}, 0]]}),
    (("synth", "--graph"), {"vertices": 1.9, "edges": [[0, 0.7]]}),
])
def test_malformed_graph_or_flow_file_is_input_error(tmp_path, capsys, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("input error:")


def test_verify_timings_json(capsys):
    code, plain, _ = run_cli(capsys, "--output", "json", "verify", "--only", "1")
    assert code == 0
    assert "seconds" not in plain
    code, timed, _ = run_cli(capsys, "--output", "json", "verify", "--only", "1",
                             "--timings")
    assert code == 0
    plain_card, timed_card = json.loads(plain), json.loads(timed)
    (entry,) = timed_card["criteria"]
    assert isinstance(entry.pop("seconds"), float) and entry["id"] == 1
    assert timed_card == plain_card


def test_verify_timings_text(capsys):
    code, plain, _ = run_cli(capsys, "verify", "--only", "1")
    assert code == 0
    code, timed, _ = run_cli(capsys, "verify", "--only", "1", "--timings")
    assert code == 0
    plain_line, plain_tail = plain.splitlines()
    timed_line, timed_tail = timed.splitlines()
    assert plain_tail == timed_tail == "all passed"
    head, sep, suffix = timed_line.rpartition(" [")
    assert sep and head == plain_line
    assert suffix.endswith(" s]") and float(suffix[:-3]) >= 0


@pytest.mark.parametrize("argv", [
    ("gadget", "smallscl", "--values=--"),
    ("synth", "--graph=--"),
    ("verify", "--only=--"),
])
def test_lone_double_dash_value_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_gadget_essential_refuses_an_empty_list(capsys):
    # an empty list has no nonempty subset to test, as the gadget itself says
    code, out, err = run_cli(capsys, "gadget", "essential", "--values=")
    assert code == 2
    assert out == ""
    assert err == "input error: need at least one value\n"


def test_gadget_essential_refuses_more_than_sixteen_values(capsys):
    # 17 powers of two: the parent's exhaustive petal search took seconds
    values = ",".join(str(2 ** k) for k in range(17))
    code, out, err = run_cli(capsys, "gadget", "essential", "--values", values)
    assert code == 3
    assert out == ""
    assert err.startswith("refused:")


@pytest.mark.parametrize("argv, files, code", [
    (["gadget", "smallscl", "--values",
      ",".join(str(v) for v in [2 ** k for k in range(17)] + [1 - 2 ** 17])],
     {}, 3),
    (["essential", "a b " * 34 + "a^-34 b^-34", "--disc", "{disc}"],
     {"disc": {"n": 35, "entries": [[1] * 35] * 35}}, 3),
    (["synth", "--graph", "{graph}"],
     {"graph": {"vertices": 2, "edges": [[0, 1], [1, 0], [0, 0], [1, 1]]}}, 3),
    (["universal", "101"], {}, 3),
    (["generic", "13"], {}, 3),
    (["synth", "--graph", "{graph}"],
     {"graph": {"vertices": 101, "edges": [[v, (v + 1) % 101] for v in range(101)]}},
     3),
    (["synth", "--graph", "{graph}"],
     {"graph": {"vertices": 10000, "edges": [[0, 0]]}}, 2),
    (["compute", "a2000000 b a2000000^-1 b^-1"], {}, 3),
    (["compute", "a^1" + "0" * 5000 + " b a^-1 b^-1"], {}, 3),
], ids=["smallscl-17-powers", "essential-35-blocks", "synth-4-edges",
        "universal-101", "generic-13", "synth-101-edges", "synth-10000-vertices",
        "subscript-2000000", "exponent-5001-digits"])
def test_searches_past_their_caps_are_refused(tmp_path, capsys, argv, files, code):
    # uncapped, the first ran for minutes, the next two ended in a
    # RecursionError traceback, the synth-10000-vertices case answered only
    # after a component search quadratic in the vertices, though a graph
    # with fewer edges than vertices cannot be strongly connected, the
    # subscript case allocated one exponent row per subscript up to 2000000,
    # and the last ended in a ValueError traceback from int()
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [a.format(**{k: tmp_path / f"{k}.json" for k in files}) for a in argv]
    start = time.perf_counter()
    got, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert got == code
    assert out == ""
    assert err.startswith({2: "input error:", 3: "refused:"}[code])


def test_bounds_refuses_a_word_past_the_scl_cap_before_the_lower_bound(
        capsys, monkeypatch):
    # the lower-bound search grows with the blocks; scl refuses 7 at once
    def lower_bound(w):
        raise AssertionError("lower_bound ran")

    monkeypatch.setattr(cli, "lower_bound", lower_bound)
    monkeypatch.setattr(engine, "lower_bound", lower_bound)
    word = "a b " * 6 + "a^-6 b^-6"
    code, out, err = run_cli(capsys, "bounds", word)
    assert code == 3
    assert out == ""
    assert err.startswith("refused:")
    with pytest.raises(LimitExceeded):
        engine.scl(parse_word(word))


@pytest.mark.parametrize("stabilize", [(), ("--no-stabilize",)],
                         ids=["stabilize", "no-stabilize"])
@pytest.mark.parametrize("argv", [
    ("compute", "a b a^-1 b^-1"),
    ("bounds", "a b a^-1 b^-1"),
    ("universal", "4", "--compute"),
    ("generic", "3", "--compute"),
], ids=lambda argv: argv[0])
def test_one_lower_bound_search_per_word(capsys, monkeypatch, argv, stabilize):
    # scl finds the lower bound once and its callers read it off the result
    calls = []

    def counting(w, lower_bound=bounds.lower_bound):
        calls.append(w)
        return lower_bound(w)

    for module in (bounds, engine, cli):
        monkeypatch.setattr(module, "lower_bound", counting)
    code, _, _ = run_cli(capsys, *argv, *stabilize)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [("compute",), ("bounds",)])
def test_a_lower_bound_above_the_value_is_an_internal_failure(capsys, monkeypatch, argv):
    word = parse_word("a b a^-1 b^-1")
    value = engine.scl(word).value
    monkeypatch.setattr(engine, "lower_bound", lambda w: value + 1)
    code, out, err = run_cli(capsys, *argv, "a b a^-1 b^-1")
    assert code == 4
    assert out == ""
    assert err.startswith("internal invariant failure:")


W_UNSTABLE = "a^-3 b^-1 a b a b^-1 a b"


def test_config_stabilize_false_stops_at_the_bound(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stabilize": False}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--output", "json",
                           "compute", W_UNSTABLE)
    assert code == 0
    assert json.loads(out)["status"] == "upper_bound"
    _, flag_out, _ = run_cli(capsys, "--output", "json", "--no-stabilize",
                             "compute", W_UNSTABLE)
    assert out == flag_out


def test_config_seed_matches_the_seed_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    _, from_config, _ = run_cli(capsys, "--config", str(cfg), "generic", "4")
    _, from_flag, _ = run_cli(capsys, "--seed", "3", "generic", "4")
    _, unseeded, _ = run_cli(capsys, "generic", "4")
    assert from_config == from_flag != unseeded


@pytest.mark.parametrize("config, argv, flag", [
    ({"bound": 1}, ("compute", W_UNSTABLE), ("--bound", "3")),
    ({"stabilize": True}, ("compute", W_UNSTABLE), ("--no-stabilize",)),
    ({"seed": 1}, ("generic", "4"), ("--seed", "3")),
    ({"output": "json"}, ("compute", W_UNSTABLE), ("--output", "text")),
])
def test_flag_after_the_subcommand_overrides_the_config(tmp_path, capsys,
                                                        config, argv, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, merged, _ = run_cli(capsys, "--config", str(cfg), *argv, *flag)
    assert code == 0
    _, flag_only, _ = run_cli(capsys, *argv, *flag)
    _, config_only, _ = run_cli(capsys, "--config", str(cfg), *argv)
    assert merged == flag_only != config_only
