"""Shared exception types, and the field checks that raise ConfigError."""

import dataclasses


class MedlmError(Exception):
    """Base class for all package errors."""


class ShapeError(MedlmError):
    """Tensor shapes incompatible with the requested op."""


class ContractError(MedlmError):
    """An operation was called outside its contract (e.g. backward on a non-scalar)."""


class VocabError(MedlmError):
    """Unknown symbol or invalid vocabulary input."""


class DataError(MedlmError):
    """Invalid or malformed data record."""


class ConfigError(MedlmError):
    """Invalid configuration value or stage/schema mismatch."""


class TrainingError(MedlmError):
    """Training aborted (e.g. NaN gradient)."""


class IntegrityError(MedlmError):
    """Checkpoint file corrupt or truncated."""


_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "str": (str, "a string")}


def field_errors(obj, **intervals):
    """Messages, by field name, for the fields of dataclass ``obj`` that are
    not of their annotated type (int, float or str; a bool is none of them)
    or lie outside their interval in ``intervals``, written like "[0, 1)"."""
    errors = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        kind = _KINDS.get(getattr(f.type, "__name__", f.type))
        if kind and (isinstance(value, bool) or not isinstance(value, kind[0])):
            errors[f.name] = f"{f.name} must be {kind[1]}, got {value!r}"
        elif f.name in intervals:
            text = intervals[f.name]
            lo, hi = (float(x) for x in text[1:-1].split(","))
            if not ((lo <= value if text[0] == "[" else lo < value)
                    and (value <= hi if text[-1] == "]" else value < hi)):
                errors[f.name] = f"{f.name} must be in {text}, got {value!r}"
    return errors


def check_fields(obj, **intervals):
    """Raise one ConfigError listing every field_errors message, if any."""
    errors = field_errors(obj, **intervals)
    if errors:
        raise ConfigError("; ".join(errors.values()))
