"""Run configuration: the [subcommand] section of one INI file over defaults.

Each subcommand owns one schema, and its INI section is the only way to set
a value; schema defaults, stored already typed, fill the missing keys. INI
values are read raw (no interpolation) and parsed here, list kinds as
comma-separated tokens. A missing section, unknown keys and unparseable or
out-of-range values raise ConfigError; the resolved mapping is hashed (short
SHA-256 of its canonical JSON) for provenance stamping.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import os

__all__ = ["ConfigError", "config_hash", "load_config"]

_REQUIRED = object()


class ConfigError(Exception):
    """Raised for missing, unknown, or invalid configuration."""


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _unit_open(x):
    return 0.0 < x < 1.0


# key -> (type tag, typed default or _REQUIRED, validator or None)
_SCHEMAS = {
    "sample": {
        "N": ("int", _REQUIRED, _positive),
        "count": ("int", _REQUIRED, _nonnegative),
        "seed": ("int", 0, _nonnegative),
    },
    "evolve": {
        "input": ("str", _REQUIRED, bool),
        "dt": ("float", _REQUIRED, _positive),
        "T": ("float", _REQUIRED, _nonnegative),
        "checkpoints": ("floats", (), None),
    },
    "invariance": {
        "N": ("int", _REQUIRED, lambda x: x >= 3),  # the headline observables read mode 3
        "count": ("int", _REQUIRED, lambda x: x >= 2),
        "seed": ("int", 0, _nonnegative),
        "dt": ("float", _REQUIRED, _positive),
        "T": ("float", _REQUIRED, _nonnegative),
        "alpha": ("float", 0.01, _unit_open),
    },
    "tails": {
        "N": ("int", _REQUIRED, _positive),
        "samples": ("int", _REQUIRED, _positive),
        "seed": ("int", 0, _nonnegative),
        "s": ("float", _REQUIRED, None),
        "p": ("float", _REQUIRED, lambda x: x >= 1),
        "q": ("str", "inf", None),
        "k_min": ("float", _REQUIRED, _positive),
        "k_max": ("float", _REQUIRED, _positive),
        "k_step": ("float", _REQUIRED, _positive),
    },
    "lemmas": {
        "resonance_bound": ("int", 200, _positive),
        "psum_cutoff": ("int", 10**6, _positive),
        "seed": ("int", 0, _nonnegative),
        "decay_m_max": ("int", 65536, lambda m: m > 0 and m & (m - 1) == 0),
        "decay_seeds": ("int", 200, _positive),
        "decay_delta": ("float", 0.1, _unit_open),
    },
    "estimates": {
        "s": ("float", _REQUIRED, None),
        "p": ("float", _REQUIRED, lambda x: x >= 1),
        "C": ("float", 10.0, lambda x: x >= 1),
        "c0": ("float", 1.0, _nonnegative),
        "delta": ("float", 0.01, _unit_open),
        "n_list": ("ints", (8, 16, 32, 64), lambda ns: bool(ns) and min(ns) >= 2),
        "trials": ("int", 200, _nonnegative),
        "seed": ("int", 0, _nonnegative),
        "time_loc": ("bool", True, None),
    },
}


_LIST_KINDS = {"floats": "float", "ints": "int"}


def _coerce(key, kind, raw):
    """Parse one INI string; list kinds parse each comma-separated token."""
    if kind in _LIST_KINDS:
        return tuple(_coerce(key, _LIST_KINDS[kind], t) for t in raw.split(",") if t.strip())
    if kind == "str":
        return raw
    try:
        if kind == "int":
            return int(raw, 10)
        if kind == "float":
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError(raw)
            return val
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {kind})") from None


def load_config(subcommand, path):
    """Resolve one subcommand's configuration mapping.

    path may be None (defaults only); a file must hold a [subcommand] section.
    """
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = _SCHEMAS[subcommand]

    resolved = {key: dflt for key, (_kind, dflt, _v) in schema.items()}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keys are case-sensitive (N vs n)
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file: {exc}") from exc
        if not parser.has_section(subcommand):
            raise ConfigError(f"no [{subcommand}] section in {path}")
        if parser.defaults():  # they would reach every section
            raise ConfigError(f"keys in [{parser.default_section}]; set them in [{subcommand}]")
        for key, raw in parser.items(subcommand):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in [{subcommand}]")
            kind, _dflt, validator = schema[key]
            value = _coerce(key, kind, raw)
            if validator is not None and not validator(value):
                raise ConfigError(f"value out of range for {key!r}: {value!r}")
            resolved[key] = value
    missing = [key for key, value in resolved.items() if value is _REQUIRED]
    if missing:
        raise ConfigError(f"missing required key {missing[0]!r} for [{subcommand}]")
    return resolved


def config_hash(cfg):
    """Short stable digest of a resolved configuration."""
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]
