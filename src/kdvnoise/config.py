"""Layered run configuration: defaults < INI file < environment < CLI flags.

Each subcommand owns one schema. Environment overrides use the KDVNOISE_
prefix with the upper-cased key name (KDVNOISE_SEED, ...). Unknown keys and
unparseable or out-of-range values raise ConfigError; the resolved mapping
is hashed (short SHA-256 of its canonical JSON) for provenance stamping.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import os

__all__ = ["ConfigError", "config_hash", "load_config"]

_ENV_PREFIX = "KDVNOISE_"
_REQUIRED = object()


class ConfigError(Exception):
    """Raised for missing, unknown, or invalid configuration."""


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _unit_open(x):
    return 0.0 < x < 1.0


# key -> (type tag, default or _REQUIRED, validator or None)
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
        "checkpoints": ("str", "", None),
    },
    "invariance": {
        "N": ("int", _REQUIRED, _positive),
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
        "decay_m_max": ("int", 65536, _positive),
        "decay_seeds": ("int", 200, _positive),
        "decay_delta": ("float", 0.1, _unit_open),
    },
    "estimates": {
        "s": ("float", _REQUIRED, None),
        "p": ("float", _REQUIRED, lambda x: x >= 1),
        "C": ("float", 10.0, lambda x: x >= 1),
        "c0": ("float", 1.0, _nonnegative),
        "delta": ("float", 0.01, _unit_open),
        "n_list": ("str", "8,16,32,64", None),
        "trials": ("int", 200, _nonnegative),
        "seed": ("int", 0, _nonnegative),
        "time_loc": ("bool", True, None),
    },
}


def _coerce(key, kind, raw):
    if kind == "str":
        return str(raw)
    try:
        if kind == "int":
            if isinstance(raw, bool):
                raise ValueError(raw)
            return int(raw) if not isinstance(raw, str) else int(raw, 10)
        if kind == "float":
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError(raw)
            return val
        if kind == "bool":
            if isinstance(raw, bool):
                return raw
            low = str(raw).strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {kind})") from None
    raise ConfigError(f"unknown type tag {kind!r} for {key!r}")


def load_config(subcommand, path, cli_overrides, env):
    """Resolve one subcommand's configuration mapping.

    path may be None (no file layer). cli_overrides is a plain dict of
    already-chosen values; env is consulted only for schema keys, via the
    KDVNOISE_ prefix.
    """
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = _SCHEMAS[subcommand]

    merged = {k: dflt for k, (_, dflt, _v) in schema.items() if dflt is not _REQUIRED}

    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (N vs n)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file: {exc}") from exc
        if parser.has_section(subcommand):
            for key, raw in parser.items(subcommand):
                if key not in schema:
                    raise ConfigError(f"unknown key {key!r} in [{subcommand}]")
                merged[key] = raw

    for key in schema:
        raw = env.get(_ENV_PREFIX + key.upper())
        if raw is not None:
            merged[key] = raw

    for key, value in cli_overrides.items():
        if key not in schema:
            raise ConfigError(f"unknown override key {key!r}")
        merged[key] = value

    resolved = {}
    for key, (kind, _dflt, validator) in schema.items():
        if key not in merged:
            raise ConfigError(f"missing required key {key!r} for [{subcommand}]")
        value = _coerce(key, kind, merged[key])
        if validator is not None and not validator(value):
            raise ConfigError(f"value out of range for {key!r}: {value!r}")
        resolved[key] = value
    return resolved


def config_hash(cfg):
    """Short stable digest of a resolved configuration."""
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]
