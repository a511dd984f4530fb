"""Field-by-field answer checks against the recorded expected outputs.

Only the fields below are compared, so a key the program adds later (for
example a ``stats`` record) is not a failure.  Strings longer than
``INLINE_LIMIT`` characters (edge lists, long witnesses) are recorded and
compared as their sha256.
"""

from __future__ import annotations

import hashlib
import json

INLINE_LIMIT = 64

FIELDS = {
    "gamma": ("graph", "value", "witness", "method", "variant"),
    "verify": ("graph", "verdict"),
    "recognize": ("graph", "classes"),
    "family": ("graph", "edge_list", "witness", "value"),
    "reduce": ("graph", "edge_list", "parameter"),
    "check-equivalence": ("verdict", "source_value", "target_value"),
    "crosscheck": ("total", "passed"),
}


def _digest(value):
    if isinstance(value, str) and len(value) > INLINE_LIMIT:
        return "sha256:" + hashlib.sha256(value.encode("ascii")).hexdigest()
    return value


def answer(command: str, code: int, stdout: str) -> dict:
    """The checked fields of one response, plus its exit code."""
    out: dict = {"exit_code": code}
    try:
        payload = json.loads(stdout)
    except ValueError:
        out["unparsed"] = True
        return out
    for key in FIELDS[command]:
        if key in payload:
            out[key] = _digest(payload[key])
    return out


def mismatches(expected: dict, got: dict) -> list[str]:
    """Names of the recorded fields whose values differ or are missing."""
    return sorted(k for k, v in expected.items() if got.get(k, object()) != v) + (
        ["unparsed"] if got.get("unparsed") else []
    )
