"""JSON schemas (draft 2020-12) for the file formats the CLI accepts.

The same dictionaries are dumped verbatim under schema/v1/ in the
repository; SCHEMA_VERSION names that directory.  Documents are checked
against them by a small interpreter of the keywords they use
(``_KEYWORDS``), which reports jsonschema's first error in jsonschema's
words; the tests hold it to jsonschema itself.
"""

from __future__ import annotations

import math
import operator

SCHEMA_VERSION = "v1"

SPACE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "space",
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "lp"},
                "p": {
                    "oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]
                },
                "dim": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "p", "dim"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "schatten"},
                "p": {"type": "number", "minimum": 1},
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "p", "rows", "cols"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "hilbert_op"},
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "rows", "cols"],
            "additionalProperties": False,
        },
    ],
}

_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 1}

VECTORSET_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "vectorset",
    "type": "object",
    "properties": {
        "space": SPACE_SCHEMA,
        "vectors": {"type": "array", "items": _VECTOR, "minItems": 1},
    },
    "required": ["space", "vectors"],
    "additionalProperties": False,
}

FILTRATION_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "filtration",
    "type": "object",
    "properties": {
        "masses": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "levels": {
            "type": "array",
            # labels are int64: a larger one stops here, with its path
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0, "maximum": 2**63 - 1}},
            "minItems": 1,
        },
    },
    "required": ["masses", "levels"],
    "additionalProperties": False,
}

STEP_FUNCTION_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "step_function",
    "type": "object",
    "properties": {
        "space": SPACE_SCHEMA,
        "masses": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "values": {"type": "array", "items": _VECTOR, "minItems": 1},
    },
    "required": ["space", "masses", "values"],
    "additionalProperties": False,
}

MARTINGALE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "martingale",
    "type": "object",
    "properties": {
        "space": SPACE_SCHEMA,
        "filtration": FILTRATION_SCHEMA,
        "levels": {
            "type": "array",
            "items": {"type": "array", "items": _VECTOR},
            "minItems": 1,
        },
    },
    "required": ["space", "filtration", "levels"],
    "additionalProperties": False,
}

CONCAVE_SAMPLES_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "concave_samples",
    "type": "object",
    "properties": {
        "space": SPACE_SCHEMA,
        "samples": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "set": {"type": "array", "items": _VECTOR},
                    "point": _VECTOR,
                },
                "required": ["set", "point"],
                "additionalProperties": False,
            },
        },
        "midpoints": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "set": {"type": "array", "items": _VECTOR},
                    "a": _VECTOR,
                    "b": _VECTOR,
                },
                "required": ["set", "a", "b"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["space", "samples"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "experiment_config",
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "exact_threshold": {"type": "integer", "minimum": 1},
        "mc_samples": {"type": "integer", "minimum": 1},
        "restarts": {"type": "integer", "minimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "out": {"type": "string"},
        "format": {"enum": ["json", "csv"]},
        "space": SPACE_SCHEMA,
        "vectors": {"type": "string"},
        "function": {"type": "string"},
        "martingale": {"type": "string"},
        "samples": {"type": "string"},
        "p": {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
        "q": {"type": "number", "minimum": 1},
        "c": {"type": "number", "minimum": 0},
        "kind": {"type": "string"},
        "exponent": {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
        "count": {"type": "integer", "minimum": 1},
        "multiplicity": {"type": "integer", "minimum": 1},
        "grid_step": {"type": "number", "exclusiveMinimum": 0},
        "grid_exponent": {"type": "integer", "minimum": 1},
        "steps": {"type": "integer", "minimum": 0},
        "instances": {"type": "integer", "minimum": 0},
        "lambdas": {"type": "string"},
        "lambda_points": {"type": "integer", "minimum": 1},
        "beta": {"type": "number", "exclusiveMinimum": 0},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "scale": {"type": "number", "exclusiveMinimum": 0},
        "perturb": {"type": "boolean"},
        "subsample": {"type": "integer", "minimum": 1},
        "candidate": {"enum": ["zero", "penalty"]},
        "truncation": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

ALL_SCHEMAS = {
    "space": SPACE_SCHEMA,
    "vectorset": VECTORSET_SCHEMA,
    "filtration": FILTRATION_SCHEMA,
    "step_function": STEP_FUNCTION_SCHEMA,
    "martingale": MARTINGALE_SCHEMA,
    "concave_samples": CONCAVE_SAMPLES_SCHEMA,
    "config": CONFIG_SCHEMA,
}


class SchemaViolation(ValueError):
    """Input failed schema validation; message carries the JSON path."""


# An error is (keys, message), its keys innermost first: each level a
# document is descended through appends its key on the way out.  A check
# returns the errors of one value, empty when it is valid.


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# draft 2020-12 types: an integer may be written 2.0, and a bool is
# neither a number nor an integer
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _under(key, errors):
    for keys, _ in errors:
        keys.append(key)
    return errors


def _unsupported(keyword: str, value):
    return ValueError(f"schema keyword {keyword!r} with value {value!r} is not implemented")


def _type(name, schema):
    if not isinstance(name, str) or name not in _TYPES:
        raise _unsupported("type", name)
    is_type = _TYPES[name]
    return lambda x: () if is_type(x) else [([], f"{x!r} is not of type {name!r}")]


def _properties(properties, schema):
    checks = [(key, _compile(sub)) for key, sub in properties.items()]

    def check(x):
        if not isinstance(x, dict):
            return ()
        errors = []
        for key, sub in checks:
            if key in x:
                errors += _under(key, sub(x[key]))
        return errors

    return check


def _required(names, schema):
    def check(x):
        if not isinstance(x, dict):
            return ()
        return [([], f"{k!r} is a required property") for k in names if k not in x]

    return check


def _additional_properties(allowed, schema):
    if allowed is not False:
        raise _unsupported("additionalProperties", allowed)
    known = schema.get("properties", {})

    def check(x):
        extra = sorted((k for k in x if k not in known), key=str) if isinstance(x, dict) else ()
        if not extra:
            return ()
        verb = "was" if len(extra) == 1 else "were"
        return [([], f"Additional properties are not allowed ({', '.join(map(repr, extra))} {verb} unexpected)")]

    return check


def _items(sub, schema):
    if not isinstance(sub, dict):
        raise _unsupported("items", sub)
    check_item = _compile(sub)

    def check(x):
        if not isinstance(x, list):
            return ()
        errors = []
        for i, item in enumerate(x):
            found = check_item(item)
            if found:
                errors += _under(i, found)
        return errors

    return check


def _min_items(least, schema):
    words = "should be non-empty" if least == 1 else "is too short"
    return lambda x: [([], f"{x!r} {words}")] if isinstance(x, list) and len(x) < least else ()


def _bound(fails, words: str):
    """A numeric bound; it applies to numbers only."""

    def make(limit, schema):
        return lambda x: [([], f"{x!r} is {words} {limit!r}")] if _is_number(x) and fails(x, limit) else ()

    return make


def _strings(keyword: str, values: list):
    """``values`` compared by ``==``, which is jsonschema's equality when one side is a string."""
    if not all(isinstance(v, str) for v in values):
        raise _unsupported(keyword, values)


def _const(value, schema):
    _strings("const", [value])
    return lambda x: () if x == value else [([], f"{value!r} was expected")]


def _enum(values, schema):
    _strings("enum", values)
    return lambda x: () if x in values else [([], f"{x!r} is not one of {values!r}")]


def _one_of(subs, schema):
    checks = [_compile(sub) for sub in subs]

    def check(x):
        valid = [sub for sub, c in zip(subs, checks) if not c(x)]
        if not valid:
            return [([], f"{x!r} is not valid under any of the given schemas")]
        if len(valid) > 1:  # jsonschema names the first valid one last
            shown = ", ".join(map(repr, valid[1:] + valid[:1]))
            return [([], f"{x!r} is valid under each of {shown}")]
        return ()

    return check


# keyword -> maker of its check from (value, enclosing schema)
_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "const": _const,
    "enum": _enum,
    "oneOf": _one_of,
}
_ANNOTATIONS = frozenset({"$schema", "title"})


def _compile(schema: dict):
    """The check of ``schema``: its keywords' checks in the schema's order,
    which is the order jsonschema reports their errors in.  A keyword
    outside ``_KEYWORDS`` and ``_ANNOTATIONS`` raises ``ValueError``."""
    checks = []
    for keyword, value in schema.items():
        if keyword in _ANNOTATIONS:
            continue
        if keyword not in _KEYWORDS:
            raise _unsupported(keyword, value)
        checks.append(_KEYWORDS[keyword](value, schema))
    if len(checks) == 1:
        return checks[0]

    def check(x):
        errors = []
        for c in checks:
            errors += c(x)
        return errors

    return check


_CHECKS = {name: _compile(schema) for name, schema in ALL_SCHEMAS.items()}


def _schema_error(obj, schema_name: str):
    """(keys, message) of the first error of ``obj`` against the schema, or
    None: jsonschema's errors, stably sorted by path, come first."""
    errors = _CHECKS[schema_name](obj)
    if not errors:
        return None
    keys, message = min(errors, key=lambda e: e[0][::-1])
    return keys[::-1], message


def _first_non_finite(obj):
    """The keys down to the first NaN or infinite float of a parsed JSON
    document, in document order, and that float; None if there is none.
    ``json`` reads ``NaN``, ``Infinity`` and overflowing literals such as
    ``1e999`` as floats."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else ([], obj)
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            found = _first_non_finite(value)
            if found is not None:
                found[0].insert(0, key)
                return found
    return None


def _json_path(keys) -> str:
    return "$" + "".join(f"[{k!r}]" if isinstance(k, str) else f"[{k}]" for k in keys)


def _sized_arrays(obj, schema_name: str):
    """(keys, array, length) of each array of a schema-valid document whose
    length the document's own sizes fix: a vector has its space's dim, and
    a level or a step function's values one entry per mass."""
    space = obj.get("space")
    dim = space and (space["dim"] if space["kind"] == "lp" else space["rows"] * space["cols"])
    if schema_name == "vectorset":
        yield from ((["vectors", i], v, dim) for i, v in enumerate(obj["vectors"]))
    elif schema_name == "step_function":
        yield ["values"], obj["values"], len(obj["masses"])
        yield from ((["values", a], v, dim) for a, v in enumerate(obj["values"]))
    elif schema_name in ("filtration", "martingale"):
        filt, at = (obj, []) if schema_name == "filtration" else (obj["filtration"], ["filtration"])
        atoms = len(filt["masses"])
        yield from ((at + ["levels", j], labels, atoms) for j, labels in enumerate(filt["levels"]))
        for j, level in enumerate(obj["levels"] if schema_name == "martingale" else ()):
            yield ["levels", j], level, atoms
            yield from ((["levels", j, a], v, dim) for a, v in enumerate(level))
    elif schema_name == "concave_samples":
        for part, points in (("samples", ("point",)), ("midpoints", ("a", "b"))):
            for i, sample in enumerate(obj.get(part, ())):
                yield from (([part, i, "set", j], v, dim) for j, v in enumerate(sample["set"]))
                yield from (([part, i, key], sample[key], dim) for key in points)


def validate(obj, schema_name: str, source: str = "<input>") -> None:
    """Raise ``SchemaViolation`` at the JSON path of the first schema error,
    else of the first non-finite number, else of the first array whose
    length disagrees with the document's own sizes (``_sized_arrays``)."""
    error = _schema_error(obj, schema_name)
    if error is not None:
        keys, message = error
        raise SchemaViolation(f"{source}: {schema_name} schema violated at {_json_path(keys)}: {message}")
    found = _first_non_finite(obj)
    if found is not None:
        keys, value = found
        raise SchemaViolation(
            f"{source}: {schema_name} schema violated at {_json_path(keys)}: {value} is not a finite number"
        )
    for keys, array, length in _sized_arrays(obj, schema_name):
        if len(array) != length:
            raise SchemaViolation(
                f"{source}: {schema_name} schema violated at {_json_path(keys)}: has length {len(array)}, not {length}"
            )
