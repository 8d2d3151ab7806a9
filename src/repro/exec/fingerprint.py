"""Stable configuration fingerprints — the result-cache key.

A fingerprint is a SHA-256 digest over a canonical JSON encoding of a
configuration dataclass (every field, recursively, with the class name
included so two shapes with identical fields cannot collide) plus a
code-version salt.  Properties:

- **stable across field order and processes** — the JSON encoding sorts
  keys and avoids anything address- or hash-seed-dependent;
- **sensitive to every knob** — changing any field, nested field, or
  the seed produces a different digest;
- **invalidated by semantic changes** — bump :data:`CODE_VERSION`
  whenever the simulation's behaviour changes so stale cached rows are
  never reused, and set ``REPRO_CACHE_SALT`` to partition caches
  between experimental branches without touching code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional

#: Bump whenever simulation semantics change: old cache entries must
#: not satisfy new runs.
CODE_VERSION = "repro-exec-v3"  # v3: protocol plugin registry


def _encode(value: object) -> object:
    """Canonical JSON-able encoding of a config value tree."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {field.name: _encode(getattr(value, field.name))
                  for field in dataclasses.fields(value)}
        return {"__type__": type(value).__name__, "fields": fields}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _encode(item)
                for key, item in sorted(value.items(),
                                        key=lambda kv: str(kv[0]))}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def cache_salt(salt: Optional[str] = None) -> str:
    """The effective salt: code version + optional user partition."""
    extra = salt if salt is not None else os.environ.get(
        "REPRO_CACHE_SALT", "")
    return CODE_VERSION + ("+" + extra if extra else "")


def _protocol_token(config: object) -> Optional[str]:
    """The protocol plugin's fingerprint contribution.

    Registered protocols contribute ``name@revision`` (resolved to the
    canonical name, so aliases fingerprint identically), letting one
    plugin bump its ``revision`` to invalidate exactly its cached
    rows without a global :data:`CODE_VERSION` bump.  Configs without
    a protocol field — or with one that fails to resolve (validation
    reports that; fingerprints must stay total) — contribute nothing.
    """
    name = getattr(config, "protocol", None)
    if not isinstance(name, str):
        return None
    from ..protocols import REGISTRY
    try:
        return REGISTRY.fingerprint_token(name)
    except ValueError:
        return None


def config_payload(config: object,
                   salt: Optional[str] = None) -> str:
    """The canonical JSON string a fingerprint digests."""
    payload = {"salt": cache_salt(salt), "config": _encode(config)}
    token = _protocol_token(config)
    if token is not None:
        payload["protocol"] = token
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: object,
                       salt: Optional[str] = None) -> str:
    """SHA-256 hex digest identifying one runnable configuration."""
    return hashlib.sha256(
        config_payload(config, salt).encode("utf-8")).hexdigest()


def describe_config(config: object) -> str:
    """Short human-readable label for logs and failure reports."""
    name = type(config).__name__
    parts = []
    for attr in ("protocol", "mode", "seed"):
        value = getattr(config, attr, None)
        if value is not None:
            parts.append(f"{attr}={value}")
    return f"{name}({', '.join(parts)})"
