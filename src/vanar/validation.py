"""Input validation helpers shared by the estimators, and the config rule vocabulary."""

from __future__ import annotations

import functools
import inspect
import json
import sys

import numpy as np

DET_OPTIONS = ("none", "constant", "constant+trend")
ACTIVATIONS = ("relu", "linear")

REQUIRED = object()  # the default of a config key that must be given

# The config and model-document rule vocabulary: a kind below (the text of what it asks for),
# a tuple of the allowed texts, or a list [rule, least] of at least ``least`` values that
# follow ``rule`` (itself a list for nested lists). A table maps a key to (default, rule) or
# to a section's table; a default (null included) always passes, and so does any value of a
# rule None (its user checks it).
COUNT, INDEX, FLAG, NUMBER = ("a positive integer", "a nonnegative integer", "true or false",
                              "a number")
FINITE, POSITIVE = "a finite number", "a positive finite number"
FRACTION = "a number in [0, 1)"
LARGEST = sys.float_info.max  # a larger integer has no float64, a larger float is infinite
TEXT, OBJECT, SOURCE = "a nonempty text", "an object", '"system1" or {"csv": path}'
NAME = "a nonempty text of letters, digits, '_', '.', '+' and '-'"
NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-")


def check_matrix(values, name: str = "values") -> np.ndarray:
    """Coerce to a 2-D float64 array with no NaN/inf entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def check_fit_rows(n_obs: int, n_vars: int, p: int, det: str | None = None) -> None:
    """Raise unless ``n_obs`` rows can fit lag order ``p`` on ``n_vars`` variables: a VAR
    with deterministic terms ``det`` needs more target rows (T - p) than the N*p + n_det
    coefficients of each equation, a neural fit (``det`` None) two target rows."""
    need = p + 1 + (1 if det is None else n_vars * p + DET_OPTIONS.index(det))
    if n_obs < need:
        raise ValueError(f"insufficient history: lag order {p} on {n_vars} variable(s) "
                         f"needs {need} rows, got {n_obs}")


def check_fitted(estimator, attribute: str) -> None:
    """Raise if ``estimator`` has not been fitted (missing trailing-underscore attribute)."""
    if getattr(estimator, attribute, None) is None:
        raise RuntimeError(
            f"{type(estimator).__name__} must be fit before calling this method"
        )


def check_same_length(a, b, names: str = "series") -> tuple[np.ndarray, np.ndarray]:
    """Both coerced to 1-D float64 arrays of one length with no NaN/inf entries."""
    a, b = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (a, b))
    for which, arr in (("first", a), ("second", b)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{which} {names} contains NaN or infinite entries")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"{names} must have equal length, got {a.shape[0]} and {b.shape[0]}")
    return a, b


def follows(value, rule) -> bool:
    """Whether ``value`` follows a config rule; a bool is no number."""
    items = (value,)
    if type(rule) is list:  # [rule, least]
        if type(value) is not list or len(value) < rule[1]:
            return False
        items, rule = value, rule[0]
    for item in items:  # one loop, as each cold call costs more in a freshly forked process
        kind = type(item)
        if not (type(rule) is tuple and kind is str and item in rule
                or kind is int and (item >= 0 and rule is INDEX or item > 0 and rule is COUNT)
                or (kind is int or kind is float) and (
                    rule is NUMBER or rule is FINITE and abs(item) <= LARGEST
                    or rule is POSITIVE and 0 < item <= LARGEST
                    or rule is FRACTION and 0 <= item < 1)
                or kind is str and item != "" and (
                    rule is TEXT or rule is NAME and NAME_CHARS.issuperset(item)
                    or rule is SOURCE and item == "system1")
                or kind is dict and (rule is OBJECT or rule is SOURCE and list(item) == ["csv"]
                                     and follows(item["csv"], TEXT))
                or kind is bool and rule is FLAG
                or type(rule) is list and follows(item, rule)):
            return False
    return True


def describe(rule) -> str:
    if type(rule) is list:
        size = ("a list", "a nonempty list", f"a list of at least {rule[1]} items")[min(rule[1], 2)]
        return f"{size}, each item {describe(rule[0])}"
    return rule if type(rule) is str else f"one of {rule}"


def check_table(table: dict, given: dict, name: str, problems: list) -> dict:
    """``given`` filled from ``table``; a problem for each unknown key, section that is not an
    object and value that breaks its rule (the default replaces it). ``name``: path and a dot."""
    if not table.keys() >= given.keys():  # an unknown key
        problems += [f"{name[:-1] + ': ' if name else ''}unknown key {key!r}; allowed: "
                     f"{', '.join(table)}" for key in given if key not in table]
    filled = {}
    for key, rule in table.items():
        if type(rule) is dict:  # an object section
            value, found = given.get(key, {}), problems
            if type(value) is not dict:
                problems.append(f"'{name}{key}' must be an object, got {value!r}")
                value, found = {}, []  # its defaults, without problems of its own keys
            filled[key] = check_table(rule, value, f"{name}{key}.", found)
            continue
        default, rule = rule
        value = given.get(key, default)
        if value is REQUIRED:
            problems.append(f"missing '{name}{key}' ({describe(rule)})")
        elif rule is not None and value is not default and not follows(value, rule):
            path = f"'{name}{key}'" if type(rule) is list else name + key
            problems.append(f"{path} must be {describe(rule)}, got {value!r}")
            value = default
        filled[key] = value
    return filled


# Each public argument's rule, by name: every function taking one checks it by check_arguments,
# and model entries read their hyperparameters' rules from it through argument_table.
ARGUMENTS = {
    "p": COUNT, "det": DET_OPTIONS, "hidden_dims": [COUNT, 0], "embedding_dim": COUNT,
    "force_autoencoder": FLAG, "epochs": INDEX, "batch_size": COUNT, "learning_rate": POSITIVE,
    "patience": INDEX, "validation_fraction": FRACTION, "seed": INDEX, "p_max": COUNT,
    "h": COUNT, "horizon": COUNT, "n": COUNT, "train_len": COUNT, "test_len": COUNT,
    "layer_dims": [COUNT, 2], "activations": [ACTIVATIONS, 1],
}


@functools.cache
def argument_table(func) -> dict:
    """``check_table``'s table of ``func``'s arguments (a class: its constructor's) that
    ``ARGUMENTS`` names: (default, rule), so a None default stays ``func``'s choice."""
    return {name: (arg.default, ARGUMENTS[name])
            for name, arg in inspect.signature(func).parameters.items() if name in ARGUMENTS}


def _plain(value):
    """A numpy scalar as the Python value it holds, a tuple or list as a list of those."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.item() if isinstance(value, np.generic) else value


def check_arguments(func, values: dict) -> None:
    """ValueError naming each of ``values`` that breaks its rule in ``argument_table(func)``; the
    table (where a default passes) is read only for a value without a passing ``ARGUMENTS`` rule."""
    if all(follows(_plain(value), ARGUMENTS.get(key)) for key, value in values.items()):
        return  # reading a signature costs tens of microseconds in each new process
    table, problems = argument_table(func), []
    check_table(table, {key: _plain(values[key]) for key in table if key in values}, "", problems)
    if problems:
        raise ValueError("; ".join(problems))


def check_fields(doc, rules: dict, what: str) -> dict:
    """``doc``; ValueError unless it is an object whose value at each key of ``rules``
    follows that key's rule (a missing key reads as null)."""
    if type(doc) is not dict:
        raise ValueError(f"{what} must be an object, got {doc!r:.60}")
    for key, rule in rules.items():
        if not follows(doc.get(key), rule):
            raise ValueError(f"{what} {key} must be {describe(rule)}, got {doc.get(key)!r:.60}")
    return doc


def check_model_document(text: str, model: str, rules: dict) -> dict:
    """The JSON object in ``text``; ValueError unless a ``model`` document with a names list
    whose fields follow ``rules``."""
    doc = json.loads(text)
    names = doc.get("names") if type(doc) is dict else None
    if names is None or doc.get("model") != model or not follows(names, [TEXT, 0]):
        raise ValueError(f"not a {model} model document with a list of names: {text[:60]!r}")
    return check_fields(doc, rules, f"{model} model")
