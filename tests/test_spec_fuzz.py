"""Fuzz test of the network-spec boundary through the command line.

Valid spec files of every family are mutated: a field dropped, renamed or
given another JSON type, a value nested wrongly, a list or the rows of a
matrix emptied, a huge integer, a blank file.  Every run must exit 2 with
one ``error:`` line and no output, or exit 0 with exactly the output of the
valid spec.
"""
import contextlib
import copy
import io
import json
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlmpnn.cases import named_spec
from wlmpnn.cli import main
from wlmpnn.linalg import identity, matrix_to_text
from wlmpnn.mpnn import spec_to_json

BIAS = ["1/2", "-1", "0"]


def _valid_specs() -> dict[str, dict]:
    """One two-layer spec per family on fig1's width-3 labels.  Biases are
    nonzero, so a bias the reader ignored would change the output."""
    specs = {}
    for name in ("gcn", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6", "gnn", "gnn-minus"):
        spec = json.loads(json.dumps(spec_to_json(named_spec(name, 3, rounds=2))))
        for layer in spec["layers"]:
            if name not in ("gcn", "gnn-minus"):
                layer["bias"] = BIAS
        specs[name] = spec
    eye = matrix_to_text(identity(3))
    general = {
        "family": "general-dgnn", "sigma": "relu", "W1": eye, "W2": eye, "bias": BIAS,
        "p": "1/3", "g": "inv_sqrt_1pd", "h": "table(1:1; 2:1/2; 3:1/3*sqrt(3))",
    }
    specs["general-dgnn"] = {"f_mode": "degree", "rounds": 2, "layers": [general, dict(general)]}
    return specs


VALID = _valid_specs()
# the optional fields with an effect: without them the spec is another valid
# network, so dropping them is not a mutation this test can judge
OPTIONAL = {"gnn": {"bias"}, "general-dgnn": {"W1", "bias"}}


def _run(path, text: str) -> tuple[int, str, str]:
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mpnn", "run", "--graph", "fig1", "--spec", str(path)])
    return code, out.getvalue(), err.getvalue()


@cache
def _valid_output(family: str, path) -> str:
    code, out, err = _run(path, json.dumps(VALID[family]))
    assert (code, err) == (0, ""), err
    return out


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)


@st.composite
def mutated_specs(draw) -> tuple[str, str]:
    """(family, text of a mutated spec file)."""
    family = draw(st.sampled_from(sorted(VALID)))
    spec = copy.deepcopy(VALID[family])
    kind = draw(st.sampled_from(["drop", "rename", "retype", "nest", "move", "empty", "huge", "blank"]))
    if kind == "blank":
        return family, draw(st.sampled_from(["", " \n", "{}", "[]", "null"]))
    layer = spec["layers"][draw(st.integers(0, len(spec["layers"]) - 1))]
    where = spec if draw(st.integers(0, 3)) == 0 else layer  # a layer has more fields
    keys = sorted(where)
    if kind == "drop":  # sigma is relu, the default, and rounds is optional
        optional = OPTIONAL.get(family, {"bias"}) if where is layer else set()
        del where[draw(st.sampled_from([k for k in keys if k not in optional]))]
    elif kind == "rename":
        key = draw(st.sampled_from(keys))
        new = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in where))
        where[new] = where.pop(key)
    elif kind == "retype":
        key = draw(st.sampled_from(keys))
        where[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(where[key])))
    elif kind == "nest":
        key = draw(st.sampled_from(keys))
        how = draw(st.sampled_from(["list", "object", "first"]))
        value = where[key]
        if how == "first" and isinstance(value, list) and value:
            where[key] = value[0]
        else:
            where[key] = [value] if how != "object" else {"value": value}
    elif kind == "move":  # a field of a layer to the top, or the other way round
        source, target = (layer, spec) if where is layer else (spec, layer)
        key = draw(st.sampled_from([k for k in sorted(source) if k not in target and k != "layers"]))
        target[key] = source.pop(key)
    elif kind == "empty":  # a list emptied, or each row of a matrix
        key = draw(st.sampled_from([k for k in keys if isinstance(where[k], list)]))
        value = where[key]
        rows = all(isinstance(row, list) for row in value) and draw(st.booleans())
        where[key] = [[] for _ in value] if rows else []
    else:
        key = draw(st.sampled_from(keys))
        digits = draw(st.integers(30, 400))
        huge = draw(st.sampled_from([10**digits, -(10**digits) + 1]))
        scalar = key in ("p", "q", "r") and draw(st.booleans())
        where[key] = str(huge) if scalar else huge
    return family, json.dumps(spec)


def _misspelled_bias() -> str:
    spec = copy.deepcopy(VALID["dgnn6"])
    spec["layers"][0]["bais"] = spec["layers"][0].pop("bias")
    return json.dumps(spec)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


# a JSON integer past the interpreter's int/str digit limit, where it has one
HUGE_ROUNDS = json.dumps({**VALID["dgnn6"], "rounds": 123456789}).replace("123456789", "1" + "0" * 5000)


# a weight without columns, whose output width is 0
NO_COLUMNS = json.dumps({"f_mode": "degree", "layers": [{"family": "dgnn1", "W": [[], [], []]}]})


@settings(max_examples=150)
@example(case=("dgnn6", _misspelled_bias()))
@example(case=("dgnn6", HUGE_ROUNDS))
@example(case=("dgnn1", NO_COLUMNS))
@given(case=mutated_specs())
def test_mutated_spec_is_refused_or_runs_as_the_valid_one(spec_path, case):
    family, text = case
    expected = _valid_output(family, spec_path)
    code, out, err = _run(spec_path, text)
    if code == 0:
        assert (out, err) == (expected, "")
    else:
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
