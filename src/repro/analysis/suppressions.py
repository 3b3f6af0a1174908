"""``# repro:`` comment directives.

Two directives are recognized, both parsed with :mod:`tokenize` so they are
found only in real comments (never in strings), and only where the directive
opens its comment — a comment that merely quotes one (say a ``#:`` doc
comment) is not a directive:

``# repro: ignore[rule-id]`` / ``# repro: ignore[rule-a, rule-b]``
    Suppress the named rules.  A trailing comment suppresses findings on its
    own line; a standalone comment line suppresses findings on the next
    code line (so multi-target statements can carry a justification above
    them).  ``ignore[*]`` suppresses every rule.  Everything after the
    closing bracket is free-form justification — the convention is
    ``# repro: ignore[rule] -- why this is intended``.

``# repro: pickle-boundary``
    Marks the class definition on the next line as a root payload that
    crosses the sharded scheduler's process boundary; the pickle-safety
    checker walks its fields (see :mod:`repro.analysis.pickle_safety`).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set, Tuple

__all__ = ["SuppressionTable", "parse_suppressions"]

#: line number -> set of suppressed rule ids ("*" = all)
SuppressionTable = Dict[int, Set[str]]

_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]")
_BOUNDARY_RE = re.compile(r"#\s*repro:\s*pickle-boundary\b")


def parse_suppressions(source: str) -> Tuple[SuppressionTable, Set[int]]:
    """Parse one module's directives.

    Returns ``(suppressions, boundary_marker_lines)`` where suppressions map
    *effective* line numbers (the line a finding must sit on to be covered)
    to suppressed rule ids, and the marker lines are the line numbers *after*
    each standalone ``pickle-boundary`` comment.
    """
    suppressions: SuppressionTable = {}
    markers: Set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError:
        return suppressions, markers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        line_no = token.start[0]
        line_text = token.line
        standalone = line_text[: token.start[1]].strip() == ""
        target = line_no + 1 if standalone else line_no
        match = _IGNORE_RE.match(token.string)
        if match:
            rules = {
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            }
            if rules:
                suppressions.setdefault(target, set()).update(rules)
        if _BOUNDARY_RE.match(token.string) and standalone:
            markers.add(target)
    return suppressions, markers


def is_suppressed(table: SuppressionTable, line: int, rule: str) -> bool:
    rules = table.get(line)
    if not rules:
        return False
    return rule in rules or "*" in rules
