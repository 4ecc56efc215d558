"""Deterministic reporters for repro-lint findings.

Two renderings of one sorted finding list:

- :func:`render_text` — ``path:line:col: RLxxx message [name]`` per
  active finding, with a one-line summary (the CI log / terminal view);
- :func:`render_json` — a versioned, ``sort_keys`` JSON document the CI
  gate uploads as an artifact and tools diff across runs.

Neither embeds timestamps, hostnames, or absolute paths: two runs over
identical trees must produce byte-identical reports (the engine holds
itself to the invariants it enforces).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .engine import Finding

__all__ = ["render_text", "render_json", "JSON_SCHEMA_VERSION"]

#: Bump when the JSON document layout changes incompatibly.
JSON_SCHEMA_VERSION = 1


def _by_rule(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def render_text(findings: Sequence[Finding]) -> str:
    """Human/CI-log view: one line per active finding plus a summary
    that counts the baselined ones."""
    active = [f for f in findings if not f.baselined]
    baselined = [f for f in findings if f.baselined]
    lines: List[str] = [
        f"{f.location()}: {f.rule} {f.message} [{f.name}]" for f in active
    ]
    if not active:
        summary = "clean: no findings"
    else:
        summary = (
            f"{len(active)} finding(s): "
            + ", ".join(
                f"{rule} x{count}"
                for rule, count in sorted(_by_rule(active).items())
            )
        )
    if baselined:
        summary += f" ({len(baselined)} baselined)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding]) -> str:
    """Machine view: versioned, deterministic (sorted keys, sorted
    findings, no timestamps) — safe to diff across CI runs."""
    active = [f for f in findings if not f.baselined]
    document = {
        "version": JSON_SCHEMA_VERSION,
        "summary": {
            "total": len(findings),
            "active": len(active),
            "baselined": len(findings) - len(active),
            "by_rule": _by_rule(active),
        },
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
