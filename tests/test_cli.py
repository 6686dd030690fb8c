"""Command-line front end: subcommands, formats, exit codes."""
import json
import time

import pytest

from wlmpnn.cases import NETWORK_NAMES, CaseSpec, builtin_graph, named_spec, verify_counterexample
from wlmpnn.cli import main
from wlmpnn.compare import ShiftSpec
from wlmpnn.graphs import GraphFormatError, format_graph
from wlmpnn.mpnn import DimensionError, SpecValidationError, spec_to_json
from wlmpnn.surd import ONE, InputError, LimitError, parse_scalar
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import wl_run


def run(argv):
    return main(argv)


def test_wl_run_text_and_json(capsys):
    assert run(["wl", "run", "--graph", "fig1"]) == 0
    text = capsys.readouterr().out
    assert "stabilized_at: 3" in text
    assert run(["wl", "run", "--graph", "fig1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stabilized_at"] == 3
    assert payload["rounds"][1] == [0, 0, 1, 2, 2, 3]


def test_wl_run_on_graph_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(format_graph(builtin_graph("g1")))
    assert run(["wl", "run", "--graph", str(path)]) == 0
    assert "stabilized_at" in capsys.readouterr().out


def test_mpnn_run_named_family(capsys):
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", "gcn", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "1/6*sqrt(6), 2/3" in out


def test_mpnn_run_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(named_spec("dgnn6", 3, rounds=2))))
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(spec_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rounds"]) == 3


def test_compare_same_round_fails_with_witness(capsys):
    code = run(["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl",
                "--shift", "0", "--rounds", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness: round 1, vertices v4 and v5" in out


def test_compare_one_step_ahead_holds(capsys):
    code = run(["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl",
                "--shift", "+1", "--rounds", "3"])
    assert code == 0
    assert "weaker-than" in capsys.readouterr().out


@pytest.mark.parametrize(
    "left, right, shift, code",
    [
        ("gcn", "wl+deg", "0", 0),  # the exact bound holds at the same round
        ("wl", "wl+deg", "0", 0),  # W^(t) refines WL^(t)
        ("wl+deg", "wl", "+1", 0),  # WL^(t+1) refines W^(t)
        ("wl+deg", "wl", "0", 1),  # on fig1, W^(1) is strictly finer than WL^(1)
    ],
)
def test_compare_degree_aware_refinement_side(capsys, left, right, shift, code):
    argv = ["compare", "--graph", "fig1", "--left", left, "--right", right, "--shift", shift, "--rounds", "3",
            "--format", "json"]
    assert run(argv) == code
    payload = json.loads(capsys.readouterr().out)
    (comparison,) = payload["comparisons"]
    assert (comparison["left"], comparison["right"], comparison["holds"]) == (left, right, code == 0)


@pytest.mark.parametrize(
    "sides, rounds, message",
    [
        (("{spec}", "wl"), "1", "right trace has 1 rounds but the shift needs 2"),
        (("wl", "{spec}"), "3", "right trace has 2 rounds but the shift needs 3"),
    ],
    ids=["left", "right"],
)
def test_compare_with_a_spec_file_of_other_length_exit_2(tmp_path, capsys, sides, rounds, message):
    # a spec file sets its own round count, which the comparison may not match
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(named_spec("gcn", 3, rounds=2))))
    left, right = (side.format(spec=path) for side in sides)
    assert run(["compare", "--graph", "fig1", "--left", left, "--right", right, "--rounds", rounds]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl", "--rounds", "1",
             "--shift", "x10000000000000000000000"],
            "error: 10000000000000000000000 rounds exceed MAX_ROUNDS = 1000\n",
        ),
        (
            ["mpnn", "run", "--graph", "fig1", "--spec", "gcn", "--rounds", "1000000000000000"],
            "error: 1000000000000000 rounds exceed MAX_ROUNDS = 1000\n",
        ),
        (
            ["synth", "--graph", "fig1", "--target", "dgnn6", "--sigma", "relu", "--rounds", "1001"],
            "error: 1001 rounds exceed MAX_ROUNDS = 1000\n",
        ),
        (
            ["compare", "--graph", "fig1", "--left", "wl", "--right", "wl", "--rounds", "-1"],
            "error: rounds must be non-negative, got -1\n",
        ),
    ],
    ids=["huge-shift", "huge-rounds", "synth-rounds", "negative-rounds"],
)
def test_round_counts_out_of_range_exit_2(capsys, argv, message):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize(
    "left, right, shift, message",
    [
        ("gcn", "wl", "x2", "error: 2000 rounds exceed MAX_ROUNDS = 1000\n"),
        ("gcn", "wl+deg", "x2", "error: 2000 rounds exceed MAX_ROUNDS = 1000\n"),
        ("gcn", "gcn", "+1", "error: 1001 rounds exceed MAX_ROUNDS = 1000\n"),
    ],
    ids=["wl-side", "wl+deg-side", "network-side"],
)
def test_compare_makes_both_sides_before_running_either(monkeypatch, capsys, left, right, shift, message):
    # a right side past MAX_ROUNDS is refused before the left side runs
    def refuse(*args):
        raise AssertionError("a network ran before both sides were made")

    monkeypatch.setattr("wlmpnn.cli.run_mpnn", refuse)
    argv = ["compare", "--graph", "fig1", "--left", left, "--right", right, "--shift", shift, "--rounds", "1000"]
    assert run(argv) == 2
    assert capsys.readouterr().err == message


def test_compare_checks_round_counts_before_running_either(monkeypatch, tmp_path, capsys):
    # a 1,000-layer spec file on the left needs 2,000 rounds of the right
    # under x2, and --rounds 1 gives refinement 2: refused before any run
    def refuse(*args):
        raise AssertionError("a network ran before the round counts were checked")

    monkeypatch.setattr("wlmpnn.cli.run_mpnn", refuse)
    path = tmp_path / "long.json"
    layer = {"family": "gcn-kipf", "W": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path.write_text(json.dumps({"f_mode": "degree", "layers": [layer] * 1000}))
    argv = ["compare", "--graph", "fig1", "--left", str(path), "--right", "wl", "--shift", "x2", "--rounds", "1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: right trace has 2 rounds but the shift needs 2000\n"
    assert captured.out == ""


def test_compare_refuses_a_malformed_right_spec_before_running_either(monkeypatch, tmp_path, capsys):
    # a layer's shape is checked when the spec file is read, so a 1,000-layer
    # left spec does not run before the right one's last layer is refused
    def refuse(*args):
        raise AssertionError("a network ran before both sides were made")

    monkeypatch.setattr("wlmpnn.cli.run_mpnn", refuse)
    layer = {"family": "gcn-kipf", "W": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(json.dumps({"f_mode": "degree", "layers": [layer] * 1000}))
    malformed = {"family": "dgnn1", "W": [[], [], []]}
    right.write_text(json.dumps({"f_mode": "degree", "layers": [layer] * 999 + [malformed]}))
    argv = ["compare", "--graph", "fig1", "--left", str(left), "--right", str(right), "--rounds", "1"]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == "error: layer 1000: dgnn1 W has no columns, so its output width is 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["mpnn", "run", "--graph", "fig1", "--spec", "{spec}"], "1001 rounds exceed MAX_ROUNDS = 1000"),
        (
            ["cases", "verify", "--case", "g1-dgnn12", "--trials", "100000000"],
            "100000000 trials exceed MAX_TRIALS = 10000",
        ),
    ],
    ids=["spec-file-layers", "trials"],
)
def test_counts_from_outside_stop_at_their_limit_exit_2(monkeypatch, tmp_path, capsys, argv, limit):
    # a spec file of 1,001 layers is refused by its length, before its layers
    # are read, and a trial count before any trial runs
    def refuse(*args):
        raise AssertionError("a count past its limit was run")

    monkeypatch.setattr("wlmpnn.cli.run_mpnn", refuse)
    monkeypatch.setattr("wlmpnn.cli.verify_counterexample", refuse)
    path = tmp_path / "long.json"
    layer = {"family": "gcn-kipf", "W": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path.write_text(json.dumps({"f_mode": "degree", "layers": [layer] * 1001}))
    start = time.perf_counter()
    assert run([arg.format(spec=path) for arg in argv]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {limit}\n"
    assert captured.out == ""


def test_compare_json_emit(tmp_path):
    out = tmp_path / "verdict.json"
    code = run(["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl",
                "--shift", "0", "--rounds", "1", "--format", "json", "--emit", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["comparisons"][0]["first_violation"] == {"round": 1, "v": 4, "w": 5}


def test_synth_gnn_minus_json(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["synth", "--graph", "fig1", "--target", "gnn-minus", "--sigma", "relu",
                "--rounds", "3", "--p", "1/2", "--format", "json", "--emit", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_equivalent_to_wl"] is True
    assert payload["p"] == "1/2"


def test_synth_dgnn6(capsys):
    code = run(["synth", "--graph", "g1", "--target", "dgnn6", "--sigma", "sign", "--rounds", "2"])
    assert code == 0
    assert "m_p: 0" in capsys.readouterr().out


def test_synth_dgnn6_on_uniform_path(capsys, tmp_path):
    path = tmp_path / "path5.txt"
    path.write_text("n 5\n" + "".join(f"v {v} 1: 1\n" for v in range(1, 6)) +
                    "e 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    code = run(["synth", "--graph", str(path), "--target", "dgnn6", "--sigma", "relu",
                "--rounds", "3"])
    assert code == 0  # the clamp repair realizes the refinement partition
    assert "repair=clamp" in capsys.readouterr().out


def test_synth_dgnn6_reports_equivalence_gap(capsys, tmp_path):
    # two internally-torn degree classes on width-1 labels: no ReLU layer of
    # this form can separate them, so the certificate reports the gap
    path = tmp_path / "torn.txt"
    path.write_text("n 6\n" + "".join(f"v {v} 1: 1\n" for v in range(1, 7)) +
                    "e 1 4\ne 1 5\ne 2 4\ne 3 6\ne 4 5\ne 4 6\n")
    code = run(["synth", "--graph", str(path), "--target", "dgnn6", "--sigma", "relu",
                "--rounds", "2"])
    assert code == 1  # certificate exists but not every round is equivalent
    assert "equivalent=False" in capsys.readouterr().out


def test_cases_verify_and_list(capsys):
    assert run(["cases", "list"]) == 0
    assert "g2-dgnn34" in capsys.readouterr().out
    assert run(["cases", "verify", "--case", "g2-dgnn34", "--trials", "100", "--seed", "1"]) == 0
    assert "passed: True" in capsys.readouterr().out
    assert run(["cases", "verify", "--case", "g2-dgnn34", "--trials", "100", "--seed", "1", "--format", "json"]) == 0
    report = verify_counterexample(CaseSpec(case_id="g2-dgnn34", trials=100, seed=1))
    assert capsys.readouterr().out == report.to_json_text() + "\n"


def test_usage_errors_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl",
                "--shift", "0", "--rounds", "1", "--bogus-flag"]) == 2
    assert run(["wl", "run", "--graph", "no-such-file"]) == 2
    capsys.readouterr()


def test_zero_denominator_scalar_exit_2(capsys):
    assert run(["synth", "--graph", "fig1", "--target", "gnn-minus", "--sigma", "relu",
                "--rounds", "3", "--p", "1/0"]) == 2
    assert "error: zero denominator" in capsys.readouterr().err


def test_bad_graph_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 2\nv 1 1: 1\nv 2 1: 1\ne 1 1\n")
    assert run(["wl", "run", "--graph", str(path)]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_malformed_spec_file_exit_2(tmp_path, capsys):
    bad_specs = {
        "no-layers": {"f_mode": "degree"},
        "array": [{"family": "gcn-kipf", "W": [["1"]]}],
        "no-family": {"f_mode": "degree", "layers": [{"sigma": "relu", "W": [["1"]]}]},
    }
    for name, payload in bad_specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(path)]) == 2, name
        assert capsys.readouterr().err.startswith("error: "), name


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("W", 5, "W must be a list of rows, not int"),
        ("bias", 5, "bias must be a list of scalar strings"),
        ("W", [[1]], "each row of W must be a list of scalar strings"),
        ("p", 1, "p must be a string, not int"),
        ("g", 5, "g must be a string, not int"),
        ("rounds", True, "rounds must be an integer, not bool"),
        ("rounds", 3.0, "rounds must be an integer, not float"),
        ("rounds", "3", "rounds must be an integer, not str"),
    ],
)
def test_spec_field_of_wrong_json_type_exit_2(tmp_path, capsys, field, value, message):
    # rounds is a field of the spec, the others of its layer
    spec = spec_to_json(named_spec("dgnn6", 3, rounds=1))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(path)]) == 0
    capsys.readouterr()
    (spec if field == "rounds" else spec["layers"][0])[field] = value
    path.write_text(json.dumps(spec))
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(path)]) == 2
    where = "" if field == "rounds" else "layer 1: "
    assert capsys.readouterr().err == f"error: {where}{message}\n"


def test_internal_verification_failure_exits_1(monkeypatch, capsys):
    def failing_check(*args, **kwargs):
        raise ArithmeticError("right inverse check failed")

    monkeypatch.setattr("wlmpnn.cli.synthesize_dgnn6", failing_check)
    assert run(["synth", "--graph", "fig1", "--target", "dgnn6", "--sigma", "sign", "--rounds", "1"]) == 1
    assert capsys.readouterr().err == "internal error: right inverse check failed\n"


def test_internal_value_error_exits_1(monkeypatch, capsys):
    # a ValueError the program raises past input parsing is its own failure,
    # not a usage error
    def failing_synthesis(*args, **kwargs):
        raise ValueError("rows are linearly dependent")

    monkeypatch.setattr("wlmpnn.cli.synthesize_dgnn6", failing_synthesis)
    assert run(["synth", "--graph", "fig1", "--target", "dgnn6", "--sigma", "sign", "--rounds", "1"]) == 1
    assert capsys.readouterr().err == "internal error: rows are linearly dependent\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--graph", "fig1", "--target", "gnn-minus", "--sigma", "relu", "--rounds", "3",
          "--p", "3/2"], "error: p = 3/2 must lie strictly between 0 and 1"),
        (["synth", "--graph", "fig1", "--target", "gnn-minus", "--sigma", "relu", "--rounds", "3",
          "--p", "0"], "error: p = 0 must lie strictly between 0 and 1"),
        (["synth", "--graph", "fig1", "--target", "gnn-minus", "--sigma", "relu", "--rounds", "3",
          "--p", "half"], "error: "),
        (["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl", "--shift", "x0",
          "--rounds", "1"], "error: linear factor must be a positive integer"),
        (["mpnn", "run", "--graph", "fig1", "--spec", "no-such-family"], "error: spec 'no-such-family'"),
        # a factor past Python's int string conversion limit is refused, not an internal error
        (["compare", "--graph", "fig1", "--left", "gcn", "--right", "wl", "--shift", "x" + "9" * 5000,
          "--rounds", "1"], "error: shift x<5000 digits>: Exceeds the limit"),
        (["synth", "--graph", "fig1", "--target", "dgnn6", "--sigma", "relu", "--rounds", "1",
          "--p", "1/2"], "error: --p applies to the gnn-minus target only"),
    ],
)
def test_input_errors_exit_2(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(message)


def test_round_count_must_be_positive(capsys):
    # the library refuses the count, and the CLI prints the library's message
    assert run(["synth", "--graph", "fig1", "--target", "gnn-minus", "--sigma", "relu", "--rounds", "0"]) == 2
    assert capsys.readouterr().err == "error: need at least one round\n"
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", "gcn", "--rounds", "0"]) == 2
    assert capsys.readouterr().err == "error: a network needs at least one round\n"


@pytest.mark.parametrize(
    "trials, message",
    [
        ("0", "error: a verification needs at least one trial, got 0\n"),
        ("-3", "error: a verification needs at least one trial, got -3\n"),
        ("three", "argument --trials: invalid int value: 'three'\n"),
    ],
    ids=["0", "-3", "three"],
)
def test_trial_count_must_be_positive(capsys, trials, message):
    assert run(["cases", "verify", "--case", "g2-dgnn34", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(message)
    assert "passed" not in captured.out


def test_max_rounds_must_be_non_negative(capsys):
    assert run(["wl", "run", "--graph", "fig1", "--max-rounds", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: max_rounds must be non-negative, got -1\n"
    assert "stabilized_at" not in captured.out
    assert run(["wl", "run", "--graph", "fig1", "--max-rounds", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "stabilized_at: None"
    assert run(["cases", "verify", "--case", "g2-dgnn34", "--trials", "1"]) == 0


def test_malformed_input_files_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"f_mode": "degree", "layers": [')
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    graph = tmp_path / "graph.txt"
    graph.write_text("n 2\nv 1 1: one\nv 2 1: 1\ne 1 2\n")
    assert run(["wl", "run", "--graph", str(graph)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a well-formed spec whose weights do not chain with the graph's labels
    spec.write_text(json.dumps(spec_to_json(named_spec("dgnn6", 2, rounds=1))))
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error: layer 1: dgnn6 W has 2 rows")


def _dgnn6_spec_with(edit):
    spec = spec_to_json(named_spec("dgnn6", 3, rounds=1))
    edit(spec, spec["layers"][0])
    return spec


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda spec, layer: layer.update(bais=["-1", "-1", "-1"]), "layer 1: unknown field 'bais'"),
        (lambda spec, layer: spec.update(note="x"), "unknown field 'note'"),
        (
            lambda spec, layer: layer.update(W2=layer.pop("W")),
            "layer 1: dgnn6 does not take W2 (a dgnn6 layer has no W2 field)",
        ),
        (
            lambda spec, layer: layer.update(W2=layer["W"]),
            "layer 1: dgnn6 does not take W2 (a dgnn6 layer has no W2 field)",
        ),
        (
            lambda spec, layer: layer.update(W1=layer["W"]),
            "layer 1: dgnn6 does not take W1 (a dgnn6 layer has no W1 field)",
        ),
        (
            lambda spec, layer: layer.update(q="1/2"),
            "layer 1: dgnn6 does not take q (a dgnn6 layer has no q field)",
        ),
        (lambda spec, layer: layer.update(family="dgnn7"), "layer 1: unknown family 'dgnn7'"),
    ],
    ids=["misspelled-bias", "unknown-top-level", "W2-alone", "W2-beside-W", "W1", "q", "unknown-family"],
)
def test_spec_field_unknown_or_not_taken_exit_2(tmp_path, capsys, edit, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_dgnn6_spec_with(edit)))
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _general_dgnn_spec(g):
    identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    layer = {"family": "general-dgnn", "p": "1/2", "g": g, "h": "one", "W2": identity}
    return {"f_mode": "degree", "layers": [layer]}


def _named_spec_with(family, rounds, edit):
    spec = spec_to_json(named_spec(family, 3, rounds=rounds))
    edit(spec["layers"][-1])
    return spec


@pytest.mark.parametrize(
    "spec, message",
    [
        (_named_spec_with("dgnn6", 2, lambda layer: layer.pop("r")), "layer 2: dgnn6 requires r"),
        (
            _named_spec_with("dgnn6", 2, lambda layer: layer.update(p="2")),
            "layer 2: p = 2 outside the allowed unit-interval range",
        ),
        (
            _named_spec_with("dgnn6", 2, lambda layer: layer.update(W=layer["W"][:2])),
            "layer 2: dgnn6 W has 2 rows but incoming labels have width 3",
        ),
        (
            _named_spec_with("gnn", 1, lambda layer: layer.update(W1=layer["W1"][:2])),
            "layer 1: gnn W1 has 2 rows but incoming labels have width 3",
        ),
        (
            _named_spec_with("gnn", 1, lambda layer: layer.update(W2=layer["W2"] + layer["W2"][:1])),
            "layer 1: gnn W2 has 4 rows but incoming labels have width 3",
        ),
        # blend parameters whose degree factors need a prime above
        # MAX_RADICAND_PRIME, refused by bounded trial division: 2**101 - 1
        # has no prime factor below 2**16, and 10000019 is prime
        (
            _named_spec_with("dgnn6", 1, lambda layer: layer.update(r=f"1/{2**100}")),
            f"layer 1: blend_inv_sqrt(1/{2**100}) at degree 2: radicand {(2**101 - 1) * 2**100} "
            "has a prime factor above MAX_RADICAND_PRIME = 65536",
        ),
        (
            _named_spec_with("dgnn6", 1, lambda layer: layer.update(r="1/10000019")),
            f"layer 1: blend_inv_sqrt(1/10000019) at degree 1: radicand {10000019**2} "
            "has a prime factor above MAX_RADICAND_PRIME = 65536",
        ),
        # fig1 has degrees 1, 2 and 3, and the table has degree 1 only
        (_general_dgnn_spec("table(1:1)"), "layer 1: table(1:1) at degree 2: missing from the table"),
        (
            {"f_mode": "degree", "layers": [{"family": "dgnn1", "W": [[], [], []]}]},
            "layer 1: dgnn1 W has no columns, so its output width is 0",
        ),
        # a weight without rows has no column count to check when it is made
        (
            {"f_mode": "degree", "layers": [{"family": "dgnn1", "W": []}]},
            "layer 1: dgnn1 W has 0 rows but incoming labels have width 3",
        ),
    ],
    ids=[
        "missing-r",
        "p-out-of-range",
        "dgnn6-W-rows",
        "gnn-W1-rows",
        "gnn-W2-rows",
        "r-2^-100",
        "r-1/10000019",
        "g-table-missing-degree",
        "W-without-columns",
        "W-without-rows",
    ],
)
def test_run_time_spec_errors_name_their_layer_exit_2(tmp_path, capsys, spec, message):
    # required fields, ranges, widths and degree factors are checked when
    # the layer runs, at once; the error names the layer and the weight as
    # the spec file does
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            _named_spec_with("dgnn6", 2, lambda layer: layer.update(p="abc")),
            "layer 2: p: malformed term 'abc' in scalar 'abc'",
        ),
        (_general_dgnn_spec("inv_sqrt_x"), "layer 1: g: unknown degree function 'inv_sqrt_x'"),
        (
            _general_dgnn_spec("table(1:-1; 2:1; 3:1)"),
            "layer 1: g: table(1:-1; 2:1; 3:1): value -1 at degree 1 is not positive",
        ),
        (
            _general_dgnn_spec("table(1:1; 2:0; 3:1)"),
            "layer 1: g: table(1:1; 2:0; 3:1): value 0 at degree 2 is not positive",
        ),
    ],
    ids=["malformed-scalar", "unknown-degree-function", "negative-table-value", "zero-table-value"],
)
def test_spec_field_value_errors_name_their_layer_and_field_exit_2(tmp_path, capsys, spec, message):
    # a field value that does not parse, or that its degree function
    # refuses, is refused as the spec is read
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["mpnn", "run", "--graph", "fig1", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_named_networks_are_the_cli_names(capsys):
    names = ("gcn", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6", "gnn", "gnn-minus")
    assert sorted(NETWORK_NAMES) == sorted(names)
    for name in names:
        assert run(["mpnn", "run", "--graph", "g1", "--spec", name]) == 0, name
    capsys.readouterr()
    for name in ("gcn-kipf", "general-dgnn"):
        with pytest.raises(ValueError, match="unknown network name"):
            named_spec(name, 3, rounds=1)
        assert run(["mpnn", "run", "--graph", "g1", "--spec", name]) == 2
        assert capsys.readouterr().err == f"error: spec {name!r} is neither a known family nor an existing file\n"


def test_graph_file_radicand_above_the_bound_exit_2(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("n 2\nv 1 1: 1\nv 2 1: sqrt(1000000000039)\ne 1 2\n")
    assert run(["wl", "run", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: radicand 1000000000039 has a prime factor above MAX_RADICAND_PRIME = 65536\n"
    )


@pytest.mark.parametrize("target", ["gnn-minus", "dgnn6"])
def test_conjugate_limit_reached_from_a_graph_file_exit_2(tmp_path, capsys, target):
    # inverting a label whose radicands span 13 primes is past the limit of
    # 12, which bounds the norm tower's term growth: a limit the input
    # reaches, not a program fault
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    path = tmp_path / "graph.txt"
    path.write_text("n 2\nv 1 1: " + " + ".join(f"sqrt({p})" for p in primes) + "\nv 2 1: 1\ne 1 2\n")
    assert run(["synth", "--graph", str(path), "--target", target, "--sigma", "relu", "--rounds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: radicands span 13 primes; the conjugate limit is 12\n"
    assert captured.out == ""


_GRAPH_FILE = "n 2\nv 1 1: 1\nv 2 1: 1\ne 1 2\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 2\n" + _GRAPH_FILE, "line 2: duplicate n line"),
        (_GRAPH_FILE.replace("n 2", "n two"), "line 1: malformed n line"),
        (_GRAPH_FILE.replace("v 1 1:", "v 1:"), "line 2: malformed vertex line"),
        (_GRAPH_FILE.replace("v 1 1:", "v one 1:"), "line 2: malformed vertex line"),
        (_GRAPH_FILE.replace("v 2 1:", "v 1 1:"), "line 3: duplicate vertex 1"),
        (_GRAPH_FILE.replace("v 2 1: 1", "v 2 2: 1"), "line 3: vertex 2 declares width 2 but lists 1 scalars"),
        (_GRAPH_FILE.replace("e 1 2", "e 1"), "line 4: malformed edge line"),
        (_GRAPH_FILE.replace("e 1 2", "e 1 two"), "line 4: malformed edge line"),
        (_GRAPH_FILE + "e 2 1\n", "line 5: duplicate edge (1, 2)"),
        (_GRAPH_FILE + "x 1 2\n", "line 5: unknown directive 'x'"),
        (_GRAPH_FILE.replace("n 2\n", ""), "missing n line"),
        ("n 0\n", "graph needs at least one vertex"),
        (_GRAPH_FILE + "e 1 3\n", "edge (1,3) references a vertex outside 1..2"),
    ],
    ids=[
        "duplicate-n", "malformed-n", "vertex-fields", "vertex-id", "duplicate-vertex", "width-mismatch",
        "edge-fields", "edge-endpoint", "duplicate-edge", "unknown-directive", "missing-n", "n-0", "edge-past-n",
    ],
)
def test_graph_file_errors_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert run(["wl", "run", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_singular_separation_reports_synthesis_failure_exit_1(monkeypatch, capsys):
    # a separation whose activated block is singular is the synthesis's own
    # failure: SynthesisError, not an assertion that escapes as a traceback
    monkeypatch.setattr("wlmpnn.synthesis.rows_linearly_independent", lambda rows: False)
    assert run(["synth", "--graph", "fig1", "--target", "dgnn6", "--sigma", "relu", "--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("synthesis failed: separation produced a singular activated matrix")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["wl", "run", "--graph", "{dir}"],
        ["mpnn", "run", "--graph", "fig1", "--spec", "{dir}"],
        ["wl", "run", "--graph", "fig1", "--emit", "{dir}"],
    ],
    ids=["graph", "spec", "emit"],
)
def test_directory_named_as_a_file_exit_2(tmp_path, capsys, argv):
    assert run([arg.format(dir=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(str(tmp_path)) in captured.err
    assert captured.out == ""


def test_sign_past_the_bit_limit_exit_2(tmp_path, monkeypatch, capsys):
    # sqrt(2) less a convergent of it lies within 10**-24 of 0: the ReLU of
    # gcn needs its sign, which 64 bits do not decide
    monkeypatch.setattr("wlmpnn.surd._SIGN_MAX_BITS", 64)
    label = "sqrt(2) - 886731088897/627013566048"
    path = tmp_path / "graph.txt"
    path.write_text(f"n 2\nv 1 1: {label}\nv 2 1: {label}\ne 1 2\n")
    assert run(["mpnn", "run", "--graph", str(path), "--spec", "gcn"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sign of -886731088897/627013566048 + sqrt(2) undecided at 64 bits\n"
    assert captured.out == ""


def test_error_classes_of_input_are_input_errors():
    for cls in (LimitError, GraphFormatError, SpecValidationError, DimensionError):
        assert issubclass(cls, InputError)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: parse_scalar("1/0"),
        lambda: parse_scalar("sqrt(0)"),
        lambda: ShiftSpec.from_text("x-1"),
        lambda: ShiftSpec("times_c", 0),
        lambda: builtin_graph("g4"),
        lambda: named_spec("gcn-kipf", 3, rounds=1),
        lambda: verify_counterexample(CaseSpec("no-such-case", trials=1, seed=1)),
        lambda: verify_counterexample(CaseSpec("g2-dgnn34", trials=0, seed=1)),
        lambda: synthesize_dgnn6(builtin_graph("fig1"), 0, "relu"),
        lambda: synthesize_dgnn6(builtin_graph("fig1"), 1, "none"),
        lambda: synthesize_gnn_minus(builtin_graph("fig1"), 1, "relu", p=ONE),
        lambda: wl_run(builtin_graph("fig1"), -1),
    ],
    ids=[
        "scalar", "radicand-0", "shift-text", "shift-factor", "graph-id", "network-name", "case-id",
        "trials", "synth-rounds", "synth-sigma", "gnn-minus-p", "max-rounds",
    ],
)
def test_library_refusals_of_input_raise_input_error(refuse):
    # the CLI maps InputError, and only it, to exit 2
    with pytest.raises(InputError):
        refuse()
