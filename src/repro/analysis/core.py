"""caratlint core: findings, the rule registry, and the lint driver.

A rule is a small object with an id (``CL001``...), a scope predicate
over dotted module names, and a ``check`` that walks a parsed module
and yields findings.  The driver handles everything else: deriving the
module name from the file path, collecting suppression comments, and
rendering text or JSON reports.

Suppression syntax (checked by the driver, not individual rules):

- ``# caratlint: disable=CL002`` on the offending line, on the line
  directly above it, or anywhere in the contiguous comment block
  immediately preceding it silences that rule for that finding;
- ``# caratlint: disable-file=CL003`` anywhere in the file silences
  the rule for the whole file;
- multiple ids separate with commas: ``disable=CL001,CL006``.

Suppressions should carry a justification in the same comment, e.g.
``# caratlint: disable=CL002 -- polynomial steps are sequential``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "module_name_for",
    "register",
    "render_json",
    "render_text",
]

_SUPPRESS_RE = re.compile(
    r"#\s*caratlint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to inspect one parsed module."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    line_suppressions: dict[int, frozenset[str]] = field(
        default_factory=dict)
    file_suppressions: frozenset[str] = frozenset()
    comment_lines: frozenset[int] = frozenset()

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits under any dotted prefix."""
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)


class Rule:
    """Base class for caratlint rules.

    Subclasses set ``rule_id``, ``title`` and ``rationale`` class
    attributes, optionally narrow :meth:`applies`, and implement
    :meth:`check`.  Register with the :func:`register` decorator.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def applies(self, module: str) -> bool:
        """Whether the rule runs on the given dotted module at all."""
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=str(ctx.path),
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=self.rule_id, message=message)


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add the rule to the registry."""
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if instance.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    _REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Registered rules, ordered by id."""
    return tuple(r for _, r in sorted(_REGISTRY.items()))


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path.

    Anchored at the last ``repro`` path component so both
    ``src/repro/model/outer.py`` and an installed-tree path resolve to
    ``repro.model.outer``.  Paths outside a ``repro`` package fall
    back to the bare stem, which keeps scoped rules quiet on them.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[idx:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_suppressions(
        source: str) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Parse ``# caratlint:`` comments via the tokenizer.

    Using real COMMENT tokens (rather than a per-line regex) means
    directive-looking text inside string literals is ignored.
    """
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            kind, ids = match.groups()
            rules = {part.strip() for part in ids.split(",")}
            if kind == "disable-file":
                per_file |= rules
            else:
                per_line.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # the ast parse will surface the syntax problem
    return ({line: frozenset(rules) for line, rules in per_line.items()},
            frozenset(per_file))


def _is_suppressed(ctx: ModuleContext, finding: Finding) -> bool:
    if finding.rule in ctx.file_suppressions:
        return True
    for line in (finding.line, finding.line - 1):
        if finding.rule in ctx.line_suppressions.get(line, frozenset()):
            return True
    # Walk the contiguous comment block directly above the finding, so
    # a directive may sit anywhere in a multi-line justification.
    line = finding.line - 1
    while line >= 1 and line in ctx.comment_lines:
        if finding.rule in ctx.line_suppressions.get(line, frozenset()):
            return True
        line -= 1
    return False


def lint_file(path: Path | str,
              rules: Sequence[Rule] | None = None,
              module: str | None = None) -> list[Finding]:
    """Lint one file; ``module`` overrides path-derived scoping.

    A file that fails to parse produces a single ``CL000`` finding so
    broken input cannot slip through a lint gate silently.
    """
    path = Path(path)
    if rules is None:
        rules = all_rules()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path=str(path), line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, rule="CL000",
                        message=f"syntax error: {exc.msg}")]
    line_sup, file_sup = _collect_suppressions(source)
    comment_lines = frozenset(
        i for i, text in enumerate(source.splitlines(), start=1)
        if text.lstrip().startswith("#"))
    ctx = ModuleContext(
        path=path,
        module=module if module is not None else module_name_for(path),
        source=source, tree=tree,
        line_suppressions=line_sup, file_suppressions=file_sup,
        comment_lines=comment_lines)
    findings = [
        finding
        for rule in rules if rule.applies(ctx.module)
        for finding in rule.check(ctx)
        if not _is_suppressed(ctx, finding)
    ]
    return sorted(findings)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, skipping caches
    and hidden directories; nonexistent inputs raise."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(p == "__pycache__" or p.startswith(".")
                       for p in parts):
                    continue
                yield candidate
        elif path.is_file():
            yield path
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def lint_paths(paths: Iterable[Path | str],
               rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint every Python file under the given paths."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules=rules))
    return sorted(findings)


def render_text(findings: Sequence[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"caratlint: {len(findings)} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding],
                rules: Sequence[Rule] | None = None) -> str:
    if rules is None:
        rules = all_rules()
    payload = {
        "tool": "caratlint",
        "rules": [
            {"id": rule.rule_id, "title": rule.title}
            for rule in rules
        ],
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
