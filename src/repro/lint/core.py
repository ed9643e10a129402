"""Core types of the contract linter: findings, rules, the project view.

A :class:`Rule` inspects Python source *statically* (stdlib :mod:`ast`,
never importing the code under analysis) and reports :class:`Finding`
objects — one per contract violation, each carrying the ``file:line``
location, the rule id, a severity, and a human message.  Rules come in
two granularities:

* ``check_file`` runs once per :class:`~repro.lint.source.SourceFile`
  (purely local rules: determinism, lock discipline);
* ``check_project`` runs once over the whole :class:`Project` (the
  interprocedural rules: seed flow and lock order, on the call graph).

The engine (:mod:`repro.lint.engine`) owns pragma suppression and the
baseline (:mod:`repro.lint.baseline`); rules just report everything they
see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Severity levels, most severe first.  Only ``error`` findings gate CI;
#: ``warning`` is reserved for advisory rules.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One contract violation at a specific source location.

    ``context`` is the stripped source line the finding points at; the
    baseline matches on ``(rule, path, context)`` rather than the line
    number, so unrelated edits above a baselined finding do not
    invalidate the entry.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"
    context: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)

    def baseline_key(self) -> tuple:
        return (self.rule, self.path, self.context)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "context": self.context,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] "
                f"{self.severity}: {self.message}")


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (the pragma / baseline / CLI name) and
    ``contract`` (the one-line statement of the invariant enforced,
    surfaced by ``--list-rules`` and the README rule table), then
    override :meth:`check_file`, :meth:`check_project`, or both.
    """

    id: str = ""
    contract: str = ""

    def check_file(self, source) -> List[Finding]:
        return []

    def check_project(self, project: "Project") -> List[Finding]:
        return []

    def finding(self, source, line: int, message: str,
                severity: str = "error") -> Finding:
        """A :class:`Finding` at ``source:line`` with the context line
        filled in (clamped for out-of-range lines)."""
        context = ""
        if 1 <= line <= len(source.lines):
            context = source.lines[line - 1].strip()
        return Finding(rule=self.id, path=source.rel, line=line,
                       message=message, severity=severity, context=context)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r})"


class Project:
    """Every parsed source file of one lint run, with lookup helpers."""

    def __init__(self, sources: Sequence[object]) -> None:
        self.sources = list(sources)

    def parsed(self) -> List[object]:
        """Sources that parsed cleanly (project rules skip the rest)."""
        return [source for source in self.sources if source.tree is not None]

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return iter(self.sources)

    def __repr__(self) -> str:
        return f"Project({len(self.sources)} files)"
