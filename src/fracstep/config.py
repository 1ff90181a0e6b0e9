"""Run configuration: JSON loading, schema validation, object building.

The schema ships with the package (``config_schema.json``) and is the
single authority on accepted keys; anything it does not know is
rejected, so configs cannot silently carry typos.  A small interpreter
in this module checks configs against it with JSON Schema 2020-12
semantics (booleans are not numbers, integer-valued floats are
integers, bounds apply to numbers only), covering just the keywords the
schema uses and refusing any other, so no command imports a general
validator.  The first error by instance path becomes a
:class:`ConfigError` with a JSON pointer to it.  Semantic rules that
JSON Schema cannot express (monotone breakpoints, length agreement
between mode lists) surface as :class:`ConfigError` with a JSON pointer
to the offending element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources
from operator import ge, gt, le, lt

import numpy as np

from .errors import ConfigError, DomainError
from .operator import OperatorSpec
from .schedule import OrderSchedule
from .solver import ProblemSpec, SeparableSource

__all__ = ["RunConfig", "load_config", "build_run_config", "schema"]


@cache
def schema() -> dict:
    """The published configuration schema, loaded once per process."""
    return json.loads(resources.files("fracstep").joinpath(
        "config_schema.json").read_text())


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: the problem plus run parameters.

    ``run`` holds the run values with every number the schema types as
    integer made an ``int``, as numpy needs: the schema takes ``33.0``
    for an integer.  ``raw`` keeps the parsed JSON so artifacts can echo
    the exact input back out for reproduction.
    """

    problem: ProblemSpec
    run: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def run_value(self, key: str, default):
        return self.run.get(key, default)


def load_config(path: str) -> dict:
    """Parse a JSON config file; malformed text is a config error.

    Python's parser also takes ``NaN``, ``Infinity`` and ``-Infinity``,
    which are not JSON; they are refused here, because a NaN passes every
    schema bound (each comparison with it is false).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc


def _reject_constant(name: str):
    raise ConfigError(f"malformed JSON: {name} is not a JSON number; "
                      "numbers must be finite")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "number": _is_number,
    "integer": lambda value: value.is_integer()
    if isinstance(value, float) else _is_number(value),
}


# Each keyword check takes (instance, keyword argument, enclosing schema,
# instance path) and yields (path, message) per violation.

def _type(value, name, schema, path):
    if not _TYPES[name](value):
        yield path, f"{value!r} is not of type {name!r}"


def _properties(value, props, schema, path):
    if isinstance(value, dict):
        for key, sub in props.items():
            if key in value:
                yield from _errors(value[key], sub, path + (key,))


def _additional_properties(value, allowed, schema, path):
    if allowed is not False:
        raise NotImplementedError("additionalProperties must be false")
    if isinstance(value, dict):
        known = schema.get("properties", {})
        extra = sorted(key for key in value if key not in known)
        if extra:
            verb = "was" if len(extra) == 1 else "were"
            yield path, ("Additional properties are not allowed ("
                         f"{', '.join(map(repr, extra))} {verb} unexpected)")


def _required(value, keys, schema, path):
    if isinstance(value, dict):
        for key in keys:
            if key not in value:
                yield path, f"{key!r} is a required property"


def _items(value, sub, schema, path):
    if isinstance(value, list):
        for index, item in enumerate(value):
            yield from _errors(item, sub, path + (index,))


def _min_items(value, count, schema, path):
    if isinstance(value, list) and len(value) < count:
        yield path, (f"{value!r} should be non-empty" if count == 1
                     else f"{value!r} is too short")


def _bound(fails, words):
    def check(value, limit, schema, path):
        if _is_number(value) and fails(value, limit):
            yield path, f"{value!r} is {words} {limit!r}"
    return check


def _const(value, expected, schema, path):
    # True == 1 in Python, but JSON keeps booleans apart from numbers
    if value != expected or \
            isinstance(value, bool) != isinstance(expected, bool):
        yield path, f"{expected!r} was expected"


def _one_of(value, branches, schema, path):
    matches = sum(not any(_errors(value, branch, path))
                  for branch in branches)
    if matches != 1:
        yield path, (f"{value!r} is not valid under any of the given schemas"
                     if matches == 0 else f"{value!r} is valid under more "
                     "than one of the given schemas")


#: The keywords the interpreter applies; any other is refused.
_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "required": _required,
    "items": _items,
    "minItems": _min_items,
    "minimum": _bound(lt, "less than the minimum of"),
    "maximum": _bound(gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(ge,
                               "greater than or equal to the maximum of"),
    "const": _const,
    "oneOf": _one_of,
}

#: Keywords that only annotate the schema.
_ANNOTATIONS = frozenset({"$schema", "title"})


def _errors(value, schema: dict, path: tuple):
    """Yield ``(path, message)`` for every violation, in schema order."""
    for key, arg in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key not in _KEYWORDS:
            raise NotImplementedError(
                f"config schema keyword {key!r} is not interpreted")
        yield from _KEYWORDS[key](value, arg, schema, path)


def _validate_schema(raw: dict) -> None:
    # a stable sort by path keeps schema order among errors at one place
    errors = sorted(_errors(raw, schema(), ()), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(message, pointer="/" + "/".join(map(str, path)))


def _build_source(block: dict | None,
                  num_modes: int) -> SeparableSource | None:
    if block is None or block["kind"] == "zero":
        return None
    coeffs = block["coefficients"]
    if len(coeffs) != num_modes:
        raise ConfigError(
            f"source carries {len(coeffs)} mode coefficients but the "
            f"initial data defines {num_modes} modes",
            pointer="/problem/source/coefficients")
    profile = block["time_profile"]
    if profile["kind"] == "polynomial":
        # highest power first, as numpy's Horner rule takes it
        poly = np.array(profile["coefficients"][::-1], dtype=float)
        return SeparableSource(coeffs, partial(np.polyval, poly),
                               partial(np.polyval, np.polyder(poly)))
    scale = float(profile["scale"])
    exponent = float(profile["exponent"])

    def power_rate(t):
        # the derivative of t**exponent is unbounded at zero when the
        # exponent is below one; inf is the faithful sample there
        with np.errstate(divide="ignore"):
            return scale * exponent * np.asarray(t, dtype=float) \
                ** (exponent - 1.0)

    return SeparableSource(coeffs, lambda t: scale * t ** exponent,
                           power_rate)


def build_run_config(raw: dict) -> RunConfig:
    """Validate raw JSON and construct the problem objects it encodes."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _validate_schema(raw)
    prob = raw["problem"]
    try:
        sched = OrderSchedule(
            breakpoints=tuple(prob["schedule"]["breakpoints"]),
            orders=tuple(prob["schedule"]["orders"]))
    except DomainError as exc:
        raise ConfigError(str(exc), pointer="/problem/schedule") from exc

    op_block = prob.get("operator", {})
    try:
        operator = OperatorSpec(
            diffusion=op_block.get("diffusion", 1.0),
            reaction=op_block.get("reaction", 0.0),
            length=op_block.get("length", 1.0))
    except DomainError as exc:
        raise ConfigError(str(exc), pointer="/problem/operator") from exc

    initial = prob["initial"]
    if initial["kind"] == "zero":
        # 2.0 is an integer to the schema
        coefficients = (0.0,) * int(initial["num_modes"])
    else:
        coefficients = tuple(float(c) for c in initial["coefficients"])

    source = _build_source(prob.get("source"), len(coefficients))
    margins = prob.get("margins")
    try:
        problem = ProblemSpec(
            schedule=sched, operator=operator,
            initial_coefficients=coefficients, source=source,
            regularity_margins=None if margins is None else tuple(margins))
    except DomainError as exc:
        raise ConfigError(str(exc), pointer="/problem") from exc
    run_schema = schema()["properties"]["run"]["properties"]
    run = {key: _as_ints(value, run_schema[key])
           for key, value in raw.get("run", {}).items()}
    return RunConfig(problem=problem, run=run, raw=raw)


def _as_ints(value, sub: dict):
    """``value`` with every number ``sub`` types as integer an ``int``."""
    if isinstance(value, list):
        return [_as_ints(item, sub["items"]) for item in value]
    types = [sub.get("type")] + [b.get("type") for b in sub.get("oneOf", ())]
    return int(value) if "integer" in types else value
