"""The in-package schema interpreter against jsonschema as the reference.

``fracstep.config`` checks run configurations with its own interpreter
of ``config_schema.json``; ``jsonschema`` is a test-only dependency that
these tests hold it to.  A fixed-seed corpus of mutated configurations
must get the same accept/reject decision and the same JSON pointer from
both.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from fracstep import config
from fracstep.errors import ConfigError

#: Valid configurations that between them reach every branch and every
#: key of the schema.
BASES = [
    {
        "problem": {
            "schedule": {"breakpoints": [0.0, 0.5, 1.0],
                         "orders": [0.3, 0.8]},
            "initial": {"kind": "modes", "coefficients": [1.0, 0.5]},
            "source": {"kind": "zero"},
            "margins": [0.1, 0.1],
        },
        "run": {"cells": 32, "quad": 16, "oracle_spatial_points": 16,
                "compare_step_exponents": [6, 8]},
    },
    {
        "problem": {
            "schedule": {"breakpoints": [0.0, 1.0], "orders": [0.5]},
            "operator": {"diffusion": 1.0, "reaction": 0.0, "length": 1.0},
            "initial": {"kind": "zero", "num_modes": 2},
            "source": {"kind": "separable", "coefficients": [1.0, 0.5],
                       "time_profile": {"kind": "polynomial",
                                        "coefficients": [1.0, 0.5]}},
        },
        "run": {"ml_alpha": 0.5, "ml_beta": 1.0, "ml_count": 10,
                "oracle_step_exponent": 8},
    },
    {
        "problem": {
            "schedule": {"breakpoints": [0.0, 0.25, 1.0],
                         "orders": [0.4, 0.6]},
            "initial": {"kind": "modes", "coefficients": [0.0]},
            "source": {"kind": "separable", "coefficients": [1.0],
                       "time_profile": {"kind": "power", "scale": 2.0,
                                        "exponent": 0.5}},
        },
        "run": {"space_points": 9, "time_points": 9, "verify_quad": 12,
                "ml_z_min": -10.0, "ml_z_max": 0.0},
    },
]

#: Replacement values: each JSON type, booleans next to 0 and 1,
#: integer-valued floats, values on and past the schema's bounds, and the
#: ``kind`` tags of other branches.
VALUES = [True, False, None, 0, 1, -1, 2, 4, 8, 15, 16, 24, 25, 100001,
          0.0, 0.5, 1.0, 2.0, 3.0, 16.0, 3.5, -0.5, float("nan"),
          float("inf"), "zero", "modes", "separable", "polynomial",
          "power", "x", [], [0.5], [1, 2], [True], ["a", 0.5], {},
          {"kind": "zero"}, {"kind": "modes", "coefficients": []}]

#: Keys added to objects: unknown ones and keys of other objects.
KEYS = ["surprise", "kind", "cells", "coefficients", "num_modes",
        "schedule", "scale"]


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def _mutate(raw, rng):
    target = rng.choice(_containers(raw, []))
    action = rng.random()
    if isinstance(target, dict):
        if action < 0.2 or not target:
            target[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
        elif action < 0.35:
            del target[rng.choice(list(target))]
        else:
            target[rng.choice(list(target))] = \
                copy.deepcopy(rng.choice(VALUES))
    elif action < 0.2 or not target:
        target.append(copy.deepcopy(rng.choice(VALUES)))
    elif action < 0.35:
        del target[rng.randrange(len(target))]
    else:
        target[rng.randrange(len(target))] = \
            copy.deepcopy(rng.choice(VALUES))


def corpus(count, seed):
    rng = random.Random(seed)
    texts = [json.dumps(raw) for raw in BASES]
    for _ in range(count):
        raw = json.loads(rng.choice(texts))
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(raw, rng)
        yield raw


def reference_pointer(validator, raw):
    errors = sorted(validator.iter_errors(raw),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "/" + "/".join(str(p) for p in errors[0].absolute_path)


def interpreter_pointer(raw):
    try:
        config._validate_schema(raw)
    except ConfigError as exc:
        return exc.pointer
    return None


def _schema_keywords(node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            out.add(key)
            if key == "type":
                out.add(f"type:{value}")
            elif key == "properties":
                for sub in value.values():
                    _schema_keywords(sub, out)
            elif key in ("items", "oneOf"):
                _schema_keywords(value, out)
    elif isinstance(node, list):
        for sub in node:
            _schema_keywords(sub, out)
    return out


class TestSchemaInterpreter:
    def test_every_schema_keyword_is_interpreted(self):
        used = _schema_keywords(config.schema(), set())
        handled = set(config._KEYWORDS) | config._ANNOTATIONS | {
            f"type:{name}" for name in config._TYPES}
        assert used <= handled, sorted(used - handled)
        assert handled - config._ANNOTATIONS <= used

    def test_unknown_keyword_fails_loudly(self):
        with pytest.raises(NotImplementedError, match="pattern"):
            list(config._errors("a", {"pattern": "a"}, ()))

    @pytest.mark.parametrize("value,valid", [(1, False), (0.5, True),
                                             ("a", False)])
    def test_one_of_needs_exactly_one_match(self, value, valid):
        # the config schema's branches exclude each other, so the case of
        # two matches needs a schema of its own
        sub = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
        reference = jsonschema.Draft202012Validator(sub).is_valid(value)
        errors = list(config._errors(value, sub, ("x",)))
        assert reference is valid
        assert [path for path, _ in errors] == ([] if valid else [("x",)])

    def test_bases_are_valid(self):
        jsonschema.Draft202012Validator.check_schema(config.schema())
        for raw in BASES:
            config.build_run_config(copy.deepcopy(raw))

    def test_mutation_corpus_matches_jsonschema(self):
        validator = jsonschema.Draft202012Validator(config.schema())
        rejected = 0
        raws = list(corpus(1500, seed=20240607))
        for raw in raws:
            expected = reference_pointer(validator, raw)
            assert interpreter_pointer(raw) == expected, raw
            rejected += expected is not None
        # the corpus exercises both outcomes, not just one
        assert 0.05 * len(raws) < rejected < 0.95 * len(raws)


def _horner(coefficients, t):
    """The loop a polynomial profile is held to: lowest power first."""
    out = np.zeros_like(t)
    for c in reversed(coefficients):
        out = out * t + c
    return out


class TestPolynomialProfile:
    def test_value_and_rate_match_the_horner_loop(self):
        # numpy's Horner rule runs the same loop, so values and rates are
        # equal bit for bit, signed zeros and integer coefficients included
        rng = np.random.default_rng(20261020)
        for draw in range(300):
            degree = int(rng.integers(1, 8))
            coefficients = (rng.normal(size=degree)
                            * 10.0 ** rng.integers(-3, 4, size=degree))
            coefficients[rng.random(degree) < 0.25] = -0.0
            coefficients = coefficients.tolist()
            if draw % 5 == 0:
                coefficients = [int(round(c)) for c in coefficients]
            source = config._build_source(
                {"kind": "separable", "coefficients": [1.0],
                 "time_profile": {"kind": "polynomial",
                                  "coefficients": coefficients}}, 1)
            t = np.concatenate([[0.0, -0.0], rng.uniform(-2.0, 3.0, 7)])
            rate = [k * c for k, c in enumerate(coefficients)][1:]
            assert source.time_value(t).tobytes() \
                == _horner(coefficients, t).tobytes(), coefficients
            assert source.time_derivative(t).tobytes() \
                == _horner(rate, t).tobytes(), coefficients

    def test_building_a_config_loads_no_numpy_polynomial(self):
        # the set-up every command pays: the profile takes numpy's
        # top-level Horner rule, not the numpy.polynomial package
        script = "\n".join([
            "import json, sys",
            "from fracstep import config",
            "config.build_run_config(json.loads(sys.argv[1]))",
            "print('numpy.polynomial' in sys.modules)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(BASES[1])],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
