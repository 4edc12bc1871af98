"""The output checker: one op's result against its reference.

References come from the same ``campion`` surface run in an
independent configuration (``--set-backend bdd``, ``--no-compress``
for fleets, ``--no-cache``), outside the timed region.  Reports are
compared as sorted-key JSON, the form the service's API serves.  The
CLI's ``fleet --json`` promises the same bytes cold or warm as well;
the benchmark records where the bytes differ (:func:`key_order_difference`)
beside the verdict, because warm output breaks that promise today.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one op."""

    ok: bool
    reason: str = ""


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def _parse(raw) -> Optional[object]:
    try:
        return json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        return None


def check_output(
    returncode: int, stdout: bytes, expected_returncode: int, expected_stdout: bytes
) -> Verdict:
    """Check one CLI op's exit code and stdout against its reference."""
    if returncode != expected_returncode:
        return Verdict(False, f"exit code {returncode}, expected {expected_returncode}")
    document = _parse(stdout)
    if document is None:
        return Verdict(False, "stdout is not JSON")
    return check_document(document, expected_stdout)


def check_unreferenced(returncode: int, stdout: bytes, expected_returncodes) -> Verdict:
    """Check an op that has no reference: its exit code and that it printed JSON."""
    if returncode not in expected_returncodes:
        return Verdict(False, f"exit code {returncode}, references exited {sorted(expected_returncodes)}")
    if _parse(stdout) is None:
        return Verdict(False, "stdout is not JSON")
    return Verdict(True)


def check_document(document, expected_raw: bytes) -> Verdict:
    """Compare a parsed report with the reference's, as sorted-key JSON."""
    expected = _parse(expected_raw)
    if expected is None:
        return Verdict(False, "reference is not JSON")
    if canonical(document) != canonical(expected):
        return Verdict(False, "report differs from the reference")
    return Verdict(True)


def key_order_difference(document, expected, path: str = "$") -> Optional[str]:
    """Path of the first object whose keys are in another order, if any."""
    if isinstance(document, dict) and isinstance(expected, dict):
        if list(document) != list(expected):
            return path
        for key in document:
            found = key_order_difference(document[key], expected[key], f"{path}.{key}")
            if found:
                return found
    elif isinstance(document, list) and isinstance(expected, list):
        for index, (left, right) in enumerate(zip(document, expected)):
            found = key_order_difference(left, right, f"{path}[{index}]")
            if found:
                return found
    return None
