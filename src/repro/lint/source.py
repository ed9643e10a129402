"""Parsed view of one Python file: AST, comments, pragmas, annotations.

Everything the rules need from a file is extracted once, up front:

* the :mod:`ast` tree (a syntax error becomes a ``parse-error`` finding
  from the engine, and every rule skips the file);
* per-line comments, via :mod:`tokenize` so ``#`` inside string
  literals is never misread as a comment;
* suppression pragmas — ``# repro-lint: disable=<rule>[,<rule>...]``
  on a line suppresses those rules for that line; on a ``def``/``class``
  line it suppresses them for the whole body;
  ``# repro-lint: disable-file=<rule>`` anywhere suppresses the rule
  for the entire file; the rule list may be the word ``all``;
* lock-discipline annotations — ``# guarded-by: <lock>[, <lock>...]``
  on a field assignment declares which lock(s) protect the field
  (several names mean "any one of these suffices": aliases of the same
  underlying lock, like a ``Condition`` wrapping it), and
  ``# requires-lock: <lock>`` on a ``def`` line declares that the
  method is only ever called with the lock already held.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

_DISABLE_RE = re.compile(
    r"repro-lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)
_GUARDED_RE = re.compile(r"guarded-by:\s*(?P<locks>[\w.]+(?:\s*,\s*[\w.]+)*)")
_REQUIRES_RE = re.compile(
    r"requires-lock:\s*(?P<locks>[\w.]+(?:\s*,\s*[\w.]+)*)"
)


def _split_names(text: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


class SourceFile:
    """One file's text, AST, comments, and lint annotations."""

    def __init__(self, text: str, rel: str,
                 path: Optional[Path] = None) -> None:
        self.text = text
        self.rel = rel.replace("\\", "/")
        self.path = path
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = exc
        #: ``{line: comment text without the leading '#'}``.
        self.comments: Dict[int, str] = {}
        self._read_comments()
        self.file_disables: Set[str] = set()
        self.line_disables: Dict[int, Set[str]] = {}
        #: ``{line: (lock, ...)}`` for guarded-by / requires-lock.
        self.guarded_by: Dict[int, Tuple[str, ...]] = {}
        self.requires_lock: Dict[int, Tuple[str, ...]] = {}
        self._read_annotations()
        #: ``(def/class line, end line)`` for every scope, used to apply
        #: a ``def``-line pragma to the whole body.
        self.scopes: List[Tuple[int, int]] = []
        if self.tree is not None:
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    self.scopes.append((node.lineno,
                                        node.end_lineno or node.lineno))

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path.read_text(encoding="utf-8"), rel, path=path)

    # -- comments and annotations ----------------------------------------------

    def _read_comments(self) -> None:
        reader = io.StringIO(self.text).readline
        try:
            for token in tokenize.generate_tokens(reader):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string.lstrip("#")
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # A file that does not tokenize will not have parsed either;
            # the parse-error finding covers it.
            pass

    def _read_annotations(self) -> None:
        for line, comment in self.comments.items():
            match = _DISABLE_RE.search(comment)
            if match:
                rules = set(_split_names(match.group("rules")))
                if match.group("scope"):
                    self.file_disables |= rules
                else:
                    self.line_disables.setdefault(line, set()).update(rules)
            match = _GUARDED_RE.search(comment)
            if match:
                self.guarded_by[line] = _split_names(match.group("locks"))
            match = _REQUIRES_RE.search(comment)
            if match:
                self.requires_lock[line] = _split_names(match.group("locks"))

    # -- suppression -----------------------------------------------------------

    def disabled_rules_at(self, line: int) -> Set[str]:
        """Rules suppressed at ``line``: file pragmas, the line's own
        pragma, and pragmas on any enclosing ``def``/``class`` line."""
        disabled = set(self.file_disables)
        disabled |= self.line_disables.get(line, set())
        for start, end in self.scopes:
            if start <= line <= end and start in self.line_disables:
                disabled |= self.line_disables[start]
        return disabled

    def is_suppressed(self, rule: str, line: int) -> bool:
        disabled = self.disabled_rules_at(line)
        return rule in disabled or "all" in disabled

    def __repr__(self) -> str:
        state = "ok" if self.tree is not None else "syntax error"
        return f"SourceFile({self.rel!r}, {len(self.lines)} lines, {state})"


# -- shared AST helpers --------------------------------------------------------


def self_attr_path(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The attribute chain of a ``self``-rooted expression.

    ``self.a`` -> ``("a",)``; ``self.registry._lock`` ->
    ``("registry", "_lock")``; anything not rooted at the name ``self``
    -> ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return tuple(reversed(parts))
    return None


def self_attr_root(node: ast.AST) -> Optional[str]:
    """The field a store/mutation target ultimately lives on: peel
    subscripts and attribute chains down to ``self.<field>`` and return
    ``field`` (``self.stats.hits`` -> ``stats``;
    ``self._memory[key]`` -> ``_memory``)."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            path = self_attr_path(node)
            if path is not None:
                return path[0]
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
