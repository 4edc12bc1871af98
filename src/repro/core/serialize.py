"""JSON serialization of Campion reports.

``campion compare --json`` and CI integrations need machine-readable
output; this module renders a :class:`~repro.core.results.CampionReport`
as plain JSON-compatible dictionaries.  The schema mirrors the report
tables: each semantic difference carries its included/excluded ranges,
action pair, text localization (with file/line provenance), and any
examples; structural differences carry component/attribute/values.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, List, Optional

from ..model.types import SourceSpan
from .header_localize import Localization
from .results import CampionReport, SemanticDifference, StructuralDifference

__all__ = [
    "SCHEMA_VERSION",
    "semantic_difference_to_dict",
    "structural_difference_to_dict",
    "report_to_dict",
    "report_to_json",
    "fleet_report_to_dict",
    "json_text",
]

# v2: adds "degraded", "aborted" (budget-tripped components), and
# "parse_diagnostics" (stanzas lenient parsing skipped, per router).
# v3: adds fleet-report serialization (fleet_report_to_dict) and is the
# schema stamped into cached per-component diff entries (repro.cache);
# cache entries from older schemas are rejected as stale on read.
# v4: fleet reports gain "notes" (previously dropped on the floor —
# now deterministic, so byte-identity across backends still holds),
# a machine-readable "partial" degradation flag, and per-device
# "coverage" (policy lines exercised by localized diffs vs. untouched
# policy).  Bumping the stamp also invalidates pre-v4 cache entries.
# v5: memo/cache entries gain the localization-replay fields
# ("localized", "provenance", "replay" — see repro.core.replay); the
# report schema itself is unchanged, but the bump invalidates pre-v5
# cache entries so collect mode never replays an entry whose
# localization fields predate the replay protocol.
SCHEMA_VERSION = 5


def _span_to_dict(span: SourceSpan) -> Optional[Dict]:
    if span.is_empty():
        return None
    return {
        "file": span.filename,
        "start_line": span.start_line,
        "end_line": span.end_line,
        "text": list(span.text),
    }


def _localization_to_dict(localization: Optional[Localization]) -> Optional[Dict]:
    if localization is None:
        return None
    return {
        "terms": [
            {"range": str(term.range), "minus": [str(m) for m in term.minus]}
            for term in localization.terms
        ],
        "included": [str(r) for r in localization.included],
        "excluded": [str(r) for r in localization.excluded],
    }


def semantic_difference_to_dict(difference: SemanticDifference) -> Dict:
    """One semantic difference as JSON-compatible dictionaries.

    Hostname-free by construction (hostnames appear only at the report
    top level), so this is also the per-component *cache entry* format
    (:mod:`repro.core.memo`).  Text-localization spans do carry the
    representative pair's file/line provenance, which is why collect
    mode only replays memoized entries whose provenance digest matches
    the current pair (span filenames are then the sole per-device
    field, rewritten at replay — :mod:`repro.core.replay`); other
    non-zero entries replay as *counts* or re-localize live.
    """
    return _semantic_to_dict(difference)


def structural_difference_to_dict(difference: StructuralDifference) -> Dict:
    """One structural difference as JSON-compatible dictionaries
    (hostname-free; see :func:`semantic_difference_to_dict`)."""
    return _structural_to_dict(difference)


def _semantic_to_dict(difference: SemanticDifference) -> Dict:
    action1, action2 = difference.action_pair()
    result = {
        "kind": difference.kind.value,
        "context": difference.context,
        "policy": {
            "router1": difference.class1.policy_name,
            "router2": difference.class2.policy_name,
        },
        "step": {
            "router1": difference.class1.step_name,
            "router2": difference.class2.step_name,
        },
        "action": {"router1": action1, "router2": action2},
        "text": {
            "router1": _span_to_dict(difference.class1.source),
            "router2": _span_to_dict(difference.class2.source),
        },
        "localization": _localization_to_dict(difference.localization),
        "example": dict(difference.example),
    }
    extra = {}
    for key, value in difference.extra_localizations.items():
        if value is None:
            extra[key] = None
        elif isinstance(value, Localization):
            extra[key] = _localization_to_dict(value)
        else:  # CommunityLocalization and future kinds render themselves
            extra[key] = {"rendered": value.render()}
    if extra:
        result["extra_localizations"] = extra
    return result


def _structural_to_dict(difference: StructuralDifference) -> Dict:
    return {
        "kind": difference.kind.value,
        "component": difference.component,
        "attribute": difference.attribute,
        "value": {"router1": difference.value1, "router2": difference.value2},
        "text": {
            "router1": _span_to_dict(difference.source1),
            "router2": _span_to_dict(difference.source2),
        },
    }


def report_to_dict(report: CampionReport) -> Dict:
    """The report as JSON-compatible nested dictionaries."""
    return {
        "schema_version": SCHEMA_VERSION,
        "router1": report.router1,
        "router2": report.router2,
        "equivalent": report.is_equivalent(),
        "degraded": report.is_degraded(),
        "total_differences": report.total_differences(),
        "aborted": [
            {
                "kind": a.kind.value,
                "component": a.component,
                "reason": a.reason,
                "resource": a.resource,
            }
            for a in report.aborted
        ],
        "parse_diagnostics": {
            hostname: [d.to_dict() for d in diagnostics]
            for hostname, diagnostics in sorted(report.parse_diagnostics.items())
        },
        "semantic": [_semantic_to_dict(d) for d in report.semantic],
        "structural": [_structural_to_dict(d) for d in report.structural],
        "unmatched": [
            {
                "kind": u.kind.value,
                "name": u.name,
                "present_on": u.present_on,
                "missing_on": u.missing_on,
                "context": u.context,
            }
            for u in report.unmatched
        ],
    }


def fleet_report_to_dict(report) -> Dict:
    """A :class:`~repro.core.fleet.FleetReport` as JSON-compatible dicts.

    Deliberately timing-free and deterministically ordered (matrix and
    failure entries sorted by hostname pair, notes sorted and deduped
    at the report level), so two runs over the same fleet — cold or
    cache-warm, serial or parallel, symmetry-compressed or not —
    serialize byte-identically.  CI's cache-smoke and symmetry-smoke
    jobs diff exactly this output.  Schema v4 adds ``partial`` (the
    machine-readable degradation flag), ``notes``, and per-device
    ``coverage``; symmetry-compression statistics stay out, like
    timings, precisely to preserve the byte-identity guarantee.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "reference": report.reference,
        "hostnames": list(report.hostnames),
        "partial": report.is_partial(),
        "notes": list(report.notes),
        "matrix": [
            [first, second, count]
            for (first, second), count in sorted(report.matrix.items())
        ],
        "failed_pairs": [
            [first, second, cause]
            for (first, second), cause in sorted(report.failed_pairs.items())
        ],
        "failed_reports": dict(sorted(report.failed_reports.items())),
        "outliers": report.outliers,
        "conforming": report.conforming,
        "coverage": {
            hostname: coverage.to_dict()
            for hostname, coverage in sorted(report.coverage.items())
        },
        "reports": {
            hostname: report_to_dict(pair_report)
            for hostname, pair_report in sorted(report.reports.items())
        },
    }


def report_to_json(report: CampionReport) -> str:
    """The report as a JSON string (:func:`json_text`)."""
    return json_text(report_to_dict(report))


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key: object) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        "keys must be str, int, float, bool or None, "
        f"not {key.__class__.__name__}"
    )


def _write(value: object, newline: str, append: Callable[[str], None]) -> None:
    """Append ``value``'s indented JSON; ``newline`` is ``"\n"`` plus the
    indentation of the line ``value`` starts on.

    Type checks follow :mod:`json`'s order, so subclasses (``IntEnum``,
    ``OrderedDict``, tuples) encode exactly as the stdlib encodes them.
    The loops below inline the exact-type scalar cases, which are most
    values of a report, and recurse for everything else.
    """
    if isinstance(value, str):
        append(_quote(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            append(separator)
            separator = "," + inner
            kind = type(item)
            if kind is str:
                append(_quote(item))
            elif kind is int:
                append(int.__repr__(item))
            else:
                _write(item, inner, append)
        append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                key = _key_text(key)
            append(separator + _quote(key) + ": ")
            separator = "," + inner
            kind = type(item)
            if kind is str:
                append(_quote(item))
            elif kind is int:
                append(int.__repr__(item))
            else:
                _write(item, inner, append)
        append(newline + "}")
    else:
        raise TypeError(
            f"Object of type {value.__class__.__name__} is not JSON serializable"
        )


def json_text(value: object) -> str:
    """Exactly ``json.dumps(value, indent=2)``, about three times faster.

    The stdlib encodes indented JSON with pure-Python generators (its C
    encoder only runs without ``indent``); this writer appends to one
    list and escapes strings with the stdlib's C
    ``encode_basestring_ascii``.  It is the one writer of every
    indented report the CLI prints.  Non-JSON values raise
    :class:`TypeError` as :mod:`json` does; circular structures are not
    detected and exhaust the recursion limit instead.
    """
    chunks: List[str] = []
    _write(value, "\n", chunks.append)
    return "".join(chunks)
