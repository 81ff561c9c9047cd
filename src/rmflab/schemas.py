"""JSON schemas (draft 2020-12) for the file formats the CLI accepts.

The same dictionaries are dumped verbatim under schema/v1/ in the
repository; SCHEMA_VERSION names that directory.
"""

from __future__ import annotations

import math
from functools import lru_cache

import jsonschema

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


@lru_cache(maxsize=None)
def _validator(schema_name: str) -> jsonschema.Draft202012Validator:
    """The validator of one schema, built on first use and kept."""
    return jsonschema.Draft202012Validator(ALL_SCHEMAS[schema_name])


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
    errors = sorted(_validator(schema_name).iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise SchemaViolation(
            f"{source}: {schema_name} schema violated at {_json_path(err.absolute_path)}: {err.message}"
        )
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
