#!/usr/bin/env python3
"""Validates a bench_matrix --json artifact against its schema.

Usage:
    validate_bench_artifact.py ARTIFACT.json [SCHEMA.json]

SCHEMA.json defaults to bench_matrix_schema.json next to this script.
Exits 0 when the artifact conforms, 1 with a path-qualified error list
otherwise. Stdlib only: implements exactly the JSON-Schema subset the
schema file uses — type (one name or a list), properties, required,
additionalProperties, items, enum, minimum, if/then/else — rather than
depending on the jsonschema package (CI images do not ship it, and the
subset keeps the failure messages short and deterministic).
"""

import json
import os
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _check_type(value, expected):
    if isinstance(expected, list):
        return any(_check_type(value, name) for name in expected)
    py = _TYPES[expected]
    if isinstance(value, bool):
        # bool is an int subclass in Python; only "boolean" may accept it.
        return expected == "boolean"
    return isinstance(value, py)


def validate(value, schema, path="$", errors=None):
    """Collects violations of `schema` at `value` into the returned list."""
    if errors is None:
        errors = []

    expected = schema.get("type")
    if expected is not None and not _check_type(value, expected):
        errors.append(f"{path}: expected {expected}, "
                      f"got {type(value).__name__}")
        return errors

    if "if" in schema:
        # The branch is picked by whether `value` satisfies the "if" schema.
        branch = "else" if validate(value, schema["if"], path) else "then"
        if branch in schema:
            validate(value, schema[branch], path, errors)

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} below minimum {schema['minimum']}")

    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required field '{key}'")
        extra = schema.get("additionalProperties", True)
        for key, sub in value.items():
            key_path = f"{path}.{key}"
            if key in props:
                validate(sub, props[key], key_path, errors)
            elif isinstance(extra, dict):
                validate(sub, extra, key_path, errors)
            elif extra is False:
                errors.append(f"{path}: unexpected field '{key}'")

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    schema_path = argv[2] if len(argv) > 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "bench_matrix_schema.json")
    try:
        with open(argv[1]) as f:
            artifact = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot read artifact {argv[1]}: {e}")
        return 1
    with open(schema_path) as f:
        schema = json.load(f)

    errors = validate(artifact, schema)
    if errors:
        print(f"{argv[1]} FAILS schema validation:")
        for e in errors:
            print(f"  {e}")
        return 1
    n_scenarios = len(artifact.get("scenarios", []))
    n_runs = sum(len(s.get("runs", [])) for s in artifact.get("scenarios", []))
    print(f"{argv[1]} conforms to schema_version "
          f"{artifact.get('schema_version')}: "
          f"{n_scenarios} scenarios, {n_runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
