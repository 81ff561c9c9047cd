"""The schema checker of ``rmflab.schemas`` against jsonschema's draft 2020-12 validator."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import schemas
from rmflab.schemas import ALL_SCHEMAS, SchemaViolation, validate

jsonschema = pytest.importorskip("jsonschema")

LP_PLANE = {"kind": "lp", "p": 1.5, "dim": 2}
SCHATTEN = {"kind": "schatten", "p": 1, "rows": 1, "cols": 2}
FILTRATION = {"masses": [0.5, 0.25, 0.25], "levels": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]}

# valid documents of each schema, between them taking every branch of a oneOf
VALID = {
    "space": [LP_PLANE, {"kind": "lp", "p": "inf", "dim": 1}, SCHATTEN, {"kind": "hilbert_op", "rows": 2, "cols": 1}],
    "vectorset": [{"space": LP_PLANE, "vectors": [[1, 0], [0.5, -2.0]]}],
    "filtration": [FILTRATION],
    "step_function": [{"space": SCHATTEN, "masses": [0.5, 0.5], "values": [[1, 2], [3.5, 4]]}],
    "martingale": [
        {
            "space": {"kind": "lp", "p": 2, "dim": 1},
            "filtration": {"masses": [0.5, 0.5], "levels": [[0, 0], [0, 1]]},
            "levels": [[[0.0], [0.0]], [[1.0], [-1.0]]],
        }
    ],
    "concave_samples": [
        {
            "space": LP_PLANE,
            "samples": [{"set": [[1, 0]], "point": [0, 1]}],
            "midpoints": [{"set": [], "a": [0, 0], "b": [1, 1]}],
        }
    ],
    "config": [
        {
            "seed": 3, "exact_threshold": 4, "restarts": 0, "tol": 1e-9, "out": "r.json", "format": "csv",
            "space": LP_PLANE, "p": "inf", "q": 2, "c": 0, "exponent": 1.5, "perturb": True,
            "candidate": "penalty", "lambdas": "1,2", "truncation": 0,
        }
    ],
}

KEYS = st.sampled_from(
    ["kind", "p", "dim", "rows", "cols", "space", "vectors", "masses", "levels", "values", "filtration",
     "samples", "midpoints", "set", "point", "a", "b", "seed", "tol", "format", "perturb", "x", "y"]
)
SCALARS = st.one_of(
    st.sampled_from(
        [None, True, False, 0, 1, -1, 2, 2.0, 0.0, -0.0, 0.5, -0.5, 2**63 - 1, 2**63, 1e300, math.inf, math.nan,
         "", "inf", "lp", "schatten", "hilbert_op", "csv", "zero"]
    ),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.text(max_size=2),
)
VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3), max_leaves=6
)


def _nodes(doc, keys=()):
    """(keys, value) of every value of ``doc``, itself first."""
    yield keys, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, keys + (key,))


@st.composite
def mutated(draw, name):
    """A valid document of schema ``name`` after one to three mistakes:
    a value replaced (wrong type, bool, 2.0, out of range, nested junk),
    a key dropped or added, a container emptied, or an item appended."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID[name])))
    for _ in range(draw(st.integers(1, 3))):
        keys, node = draw(st.sampled_from(list(_nodes(doc))))
        move = draw(st.sampled_from(["replace", "drop", "add", "empty", "append"]))
        if move == "replace":
            value = draw(VALUES)
            if not keys:
                doc = value
                continue
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
        elif move == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif move == "add" and isinstance(node, dict):
            node[draw(KEYS)] = draw(VALUES)
        elif move == "empty" and isinstance(node, (dict, list)):
            node.clear()
        elif move == "append" and isinstance(node, list):
            node.append(copy.deepcopy(node[0]) if node and draw(st.booleans()) else draw(VALUES))
    return doc


def _jsonschema_first_error(doc, name):
    errors = sorted(
        jsonschema.Draft202012Validator(ALL_SCHEMAS[name]).iter_errors(doc), key=lambda e: list(e.absolute_path)
    )
    return (list(errors[0].absolute_path), errors[0].message) if errors else None


@pytest.mark.parametrize("name", list(ALL_SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_first_error_is_jsonschemas(name, data):
    doc = data.draw(mutated(name))
    assert schemas._schema_error(doc, name) == _jsonschema_first_error(doc, name)


@pytest.mark.parametrize("name", list(ALL_SCHEMAS))
def test_valid_documents_pass(name):
    for doc in VALID[name]:
        assert _jsonschema_first_error(doc, name) is None
        validate(doc, name)


def _keywords(schema: dict) -> set:
    """The keywords of ``schema`` and of its subschemas."""
    found = set(schema)
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    subs += [schema["items"]] if "items" in schema else []
    return found.union(*map(_keywords, subs))


def test_every_keyword_is_implemented():
    used = set().union(*map(_keywords, ALL_SCHEMAS.values()))
    assert used == set(schemas._KEYWORDS) | schemas._ANNOTATIONS


@pytest.mark.parametrize(
    "schema",
    [
        {"pattern": "^a"},
        {"items": {"uniqueItems": True}},
        {"type": ["number", "null"]},
        {"additionalProperties": {"type": "number"}},
        {"const": 1},
        {"enum": ["json", None]},
    ],
)
def test_an_unimplemented_keyword_raises(schema):
    with pytest.raises(ValueError, match="is not implemented"):
        schemas._compile(schema)


@pytest.mark.parametrize(
    "name, doc, where, message",
    [
        ("vectorset", {"space": LP_PLANE, "vectors": [[1, "a"]]}, "$['vectors'][0][1]", "'a' is not of type 'number'"),
        ("vectorset", {"space": LP_PLANE, "vectors": [[]]}, "$['vectors'][0]", "[] should be non-empty"),
        ("filtration", {"masses": [0], "levels": [[0]]}, "$['masses'][0]", "0 is less than or equal to the minimum of 0"),
        ("config", {"y": 1, "x": 2}, "$", "Additional properties are not allowed ('x', 'y' were unexpected)"),
        ("config", {"seed": True}, "$['seed']", "True is not of type 'integer'"),
        (
            "filtration",
            {"masses": [1], "levels": [[2**63]]},
            "$['levels'][0][0]",
            "9223372036854775808 is greater than the maximum of 9223372036854775807",
        ),
        (
            "space",
            {"kind": "lp", "p": 1, "dim": 0},
            "$",
            "{'kind': 'lp', 'p': 1, 'dim': 0} is not valid under any of the given schemas",
        ),
        # a schema error comes before an earlier non-finite number and a mis-sized array
        ("vectorset", {"space": LP_PLANE, "vectors": [[math.nan, 1, 1], [1, "a"]]}, "$['vectors'][1][1]",
         "'a' is not of type 'number'"),
        # a non-finite number comes before an earlier mis-sized array
        ("vectorset", {"space": LP_PLANE, "vectors": [[1, 1, 1], [math.inf, 1]]}, "$['vectors'][1][0]",
         "inf is not a finite number"),
    ],
)
def test_refusal_message(name, doc, where, message):
    with pytest.raises(SchemaViolation) as refused:
        validate(doc, name)
    assert str(refused.value) == f"<input>: {name} schema violated at {where}: {message}"


def test_edge_values_pass():
    # an integer may be written with a zero fraction
    validate({"kind": "lp", "p": 1, "dim": 2.0}, "space")
    validate({"space": {"kind": "lp", "p": 1, "dim": 2.0}, "vectors": [[1, 2]]}, "vectorset")
    # inclusive bounds hold their own value
    validate({"masses": [1], "levels": [[0], [2**63 - 1]]}, "filtration")
    validate({"kind": "schatten", "p": 1, "rows": 1, "cols": 1}, "space")
