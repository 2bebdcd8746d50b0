"""The lint engine: file walking, AST parsing, suppressions, reporting.

The engine is deliberately small: it turns every ``.py`` file under
the given paths into a :class:`ModuleContext` (source + parsed AST +
package-relative module path), hands the context to each registered
:class:`~repro.analysis.rules.Rule`, and reconciles the raw findings
against inline suppressions.

Suppression grammar
-------------------
A finding on line ``L`` is suppressed by a trailing comment on that
line of the form::

    x = risky()  # repro: noqa R003 -- LP relaxation is cost-side float math

The justification after ``--`` is **mandatory**: a suppression without
one, naming an unknown rule id, or matching no finding at all is
itself reported under the meta rule :data:`META_RULE` (``R000``), so
the suppression inventory can only shrink and never rots.  This is the
policy half of the ROADMAP's "invariants enforced at lint time" goal:
opting out of an invariant is possible, but it must say *why*, in the
diff, where review sees it.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintEngine",
    "LintError",
    "LintReport",
    "META_RULE",
    "ModuleContext",
    "Suppression",
]

#: Meta rule id for malformed / unused suppressions and parse errors.
META_RULE = "R000"

#: Suppression grammar: the noqa marker, a rule-id list, then a
#: mandatory ``--``-separated justification (see the module docstring).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b"
    r"(?P<rules>(?:[ \t,]+R\d{3})*)"
    r"[ \t]*(?:--[ \t]*(?P<why>.*?))?[ \t]*$"
)


class LintError(Exception):
    """A path handed to the engine could not be linted at all."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a precise source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``file:line:col: RXXX message`` — clickable in most shells."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        """JSON-serialisable form (stable keys, used by ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa`` comment."""

    path: str
    line: int
    rules: tuple[str, ...]
    justification: str


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    #: Path relative to the ``repro`` package root (``flows/graph.py``),
    #: or the plain filename when the file lives outside the package.
    modpath: str
    source: str
    tree: ast.AST
    lines: list[str] = field(default_factory=list)

    #: Single-underscore attributes assigned on ``self`` anywhere in
    #: this module.  Module-private access (a class touching its own
    #: internals, even through another instance) is sanctioned; rules
    #: use this to distinguish it from cross-module reach-ins.
    own_private_attrs: frozenset[str] = frozenset()


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when any unsuppressed finding remains."""
        return 1 if self.findings else 0

    def stats(self) -> dict[str, object]:
        """Rule hit counts (active + suppressed) and suppression totals."""
        by_rule: dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        suppressed_by_rule: dict[str, int] = {}
        for f, _s in self.suppressed:
            suppressed_by_rule[f.rule] = suppressed_by_rule.get(f.rule, 0) + 1
        return {
            "files_checked": self.files_checked,
            "findings": len(self.findings),
            "by_rule": dict(sorted(by_rule.items())),
            "suppressed": len(self.suppressed),
            "suppressed_by_rule": dict(sorted(suppressed_by_rule.items())),
            "suppression_comments": len(self.suppressions),
        }

    def to_json(self) -> str:
        """The full report as a JSON document (``--format json``)."""
        return json.dumps(
            {
                "findings": [f.to_json() for f in self.findings],
                "stats": self.stats(),
            },
            indent=2,
            sort_keys=True,
        )


def _module_path(path: Path) -> str:
    """``path`` relative to the ``repro`` package root, ``/``-joined.

    Rules scope themselves by subpackage (``flows/``, ``service/``);
    anchoring at the last ``repro`` path component makes that work for
    both ``src/repro/...`` checkouts and installed trees.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return path.name


def _own_private_attrs(tree: ast.AST) -> frozenset[str]:
    """Single-underscore attributes this module assigns on ``self``."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and isinstance(node.ctx, ast.Store)
        ):
            found.add(node.attr)
    return frozenset(found)


def _comment_tokens(source: str) -> Iterator[tuple[int, int, str]]:
    """``(line, col, text)`` for every real comment in ``source``.

    Tokenised rather than regex-matched so that docstrings and string
    literals *mentioning* the suppression syntax (this module has a
    few) are never mistaken for suppressions.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return


def parse_suppressions(path: str, source: str, known_rules: Iterable[str]) -> tuple[list[Suppression], list[Finding]]:
    """Extract ``# repro: noqa`` comments; malformed ones become findings.

    Returns ``(valid_suppressions, meta_findings)``.  A suppression is
    valid only when it names at least one known rule id **and**
    carries a nonempty justification after ``--``.
    """
    known = set(known_rules)
    suppressions: list[Suppression] = []
    meta: list[Finding] = []
    for lineno, col, text in _comment_tokens(source):
        if "repro:" not in text or "noqa" not in text:
            continue
        m = _NOQA_RE.search(text)
        if m is None:
            meta.append(Finding(
                META_RULE, path, lineno, col,
                "unparseable suppression; use '# repro: noqa RXXX -- justification'",
            ))
            continue
        rules = tuple(re.findall(r"R\d{3}", m.group("rules") or ""))
        why = (m.group("why") or "").strip()
        if not rules:
            meta.append(Finding(
                META_RULE, path, lineno, col,
                "suppression names no rule id; spell out which RXXX it silences",
            ))
            continue
        unknown = [r for r in rules if r not in known]
        if unknown:
            meta.append(Finding(
                META_RULE, path, lineno, col,
                f"suppression names unknown rule(s) {', '.join(unknown)}",
            ))
            continue
        if not why:
            meta.append(Finding(
                META_RULE, path, lineno, col,
                "suppression without justification; append '-- <why this is safe>'",
            ))
            continue
        suppressions.append(Suppression(path, lineno, rules, why))
    return suppressions, meta


class LintEngine:
    """Run a set of rules over files and reconcile suppressions."""

    def __init__(self, rules: Sequence["object"] | None = None) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules = list(rules)

    def rule_ids(self) -> list[str]:
        """Ids of the registered rules (stable order)."""
        return [r.id for r in self.rules]

    def known_rule_ids(self) -> set[str]:
        """Rule ids suppressions may legitimately name.

        The union of this engine's rules and the shipped catalog: a
        rule-scoped run (``--select``, or a single-rule engine in a
        test) must not report a valid suppression for an unselected
        shipped rule as "unknown".
        """
        from repro.analysis.rules import default_rules

        return set(self.rule_ids()) | {r.id for r in default_rules()}

    # ------------------------------------------------------------------
    def iter_files(self, paths: Sequence[str | Path]) -> Iterator[Path]:
        """All ``.py`` files under ``paths``, sorted for determinism."""
        seen: set[Path] = set()
        for p in paths:
            root = Path(p)
            if root.is_dir():
                candidates: Iterable[Path] = sorted(root.rglob("*.py"))
            elif root.is_file():
                candidates = [root]
            else:
                raise LintError(f"no such file or directory: {root}")
            for c in candidates:
                rc = c.resolve()
                if rc not in seen:
                    seen.add(rc)
                    yield c

    def lint_file(self, path: Path) -> tuple[list[Finding], list[Suppression], list[Finding]]:
        """Lint one file: ``(raw_findings, suppressions, meta_findings)``."""
        rel = str(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            return (
                [Finding(META_RULE, rel, exc.lineno or 1, exc.offset or 0,
                         f"syntax error: {exc.msg}")],
                [],
                [],
            )
        lines = source.splitlines()
        ctx = ModuleContext(
            path=rel,
            modpath=_module_path(path),
            source=source,
            tree=tree,
            lines=lines,
            own_private_attrs=_own_private_attrs(tree),
        )
        findings: list[Finding] = []
        for rule in self.rules:
            if rule.applies(ctx.modpath):
                findings.extend(rule.check(ctx))
        suppressions, meta = parse_suppressions(rel, source, self.known_rule_ids())
        return findings, suppressions, meta

    def run(self, paths: Sequence[str | Path]) -> LintReport:
        """Lint every file under ``paths`` and return the report."""
        report = LintReport()
        for path in self.iter_files(paths):
            findings, suppressions, meta = self.lint_file(path)
            report.files_checked += 1
            report.suppressions.extend(suppressions)
            used: set[tuple[int, tuple[str, ...]]] = set()
            by_line: dict[int, list[Suppression]] = {}
            for s in suppressions:
                by_line.setdefault(s.line, []).append(s)
            for f in sorted(findings, key=lambda f: (f.line, f.col, f.rule)):
                hit = next(
                    (s for s in by_line.get(f.line, ()) if f.rule in s.rules),
                    None,
                )
                if hit is not None:
                    report.suppressed.append((f, hit))
                    used.add((hit.line, hit.rules))
                else:
                    report.findings.append(f)
            # Unused suppressions rot: they claim an invariant is being
            # waived on a line that no longer violates it.  Judged only
            # when every rule the suppression names actually ran — a
            # rule-scoped run cannot tell whether an unselected rule
            # still fires on that line.
            active = set(self.rule_ids())
            for s in suppressions:
                if not set(s.rules) <= active:
                    continue
                if (s.line, s.rules) not in used:
                    report.findings.append(Finding(
                        META_RULE, s.path, s.line, 0,
                        f"unused suppression for {', '.join(s.rules)}; "
                        "remove it (nothing on this line violates the rule)",
                    ))
            report.findings.extend(meta)
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return report
