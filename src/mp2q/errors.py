import json
import sys


class Mp2qError(Exception):
    """Base error for this package."""


class SchemaError(Mp2qError):
    """Input file violates its schema or declared invariants."""


class LoweringError(Mp2qError):
    """No edge-respecting realization exists for a gate."""


class NumericalError(Mp2qError):
    """Zero denominator or other numerical failure."""


def json_int(value, where: str) -> int:
    """`value` if it is a JSON integer: a bool, float or string is not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: {value!r} is not an integer")
    return value


def json_number(value, where: str) -> float:
    """`value` as a float if it is a JSON number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: an integer of {len(str(abs(value)))} digits "
                          "is out of a double's range") from None


def json_list(doc, key: str, source: str) -> list:
    """doc[key] if `doc` is a JSON object and that entry a list."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    if not isinstance(doc.get(key), list):
        raise SchemaError(f"{source}: {key}: expected a list, got {doc.get(key)!r}")
    return doc[key]


def parse_json(text: bytes | str, source: str):
    """json.loads(text), with what it rejects (a syntax error, bytes that do
    not decode, an integer past the interpreter's digit limit) raised as a
    SchemaError naming `source` and the problem."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problem = f"{exc.msg} at line {exc.lineno}, column {exc.colno}"
    except UnicodeDecodeError as exc:
        problem = f"cannot decode byte {exc.start} as {exc.encoding}"
    except ValueError:   # int() of a literal longer than the digit limit
        problem = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    raise SchemaError(f"{source}: not valid JSON: {problem}")
