"""reprolint — the engine's invariant checker.

Usage::

    python -m repro.analysis.lint [paths ...]      # default: src
    python -m repro.analysis.lint --self-test      # must-flag/must-pass fixtures
    tools/reprolint [paths ...]                    # repo-root entry point

Walks every ``.py`` file under the given paths, runs the rule
catalogue (:mod:`repro.analysis.rules`), applies per-line suppressions
(:mod:`repro.analysis.suppress`), and exits non-zero on any finding.
Suppressions are load-bearing: one that is missing a justification
(SUP001), names an unknown rule token (SUP002), or matches no finding
on its line (SUP003) is itself a finding — deleting any single
suppression, or the code change that made it necessary, flips the exit
code.

When the linted tree contains the live package, every module-scope
``register_lock(..., module=__name__, attr=...)`` call is additionally
cross-checked against the *runtime* lock registry by importing the
module (CONC003): the registry that ``procpool`` replays after fork is
derived by importing it, never re-hardcoded here, so a registration
that does not actually execute (typo'd attr, import-guarded call) is
caught statically.  The same whole-package pass feeds DEAD001 and
KNOB001: the identifier uses and the field settings of ``src/`` and of
the consumer directories beside it are counted once; a ``def`` whose
name none of them uses is surface nothing reaches, and a config field
nothing outside ``tests/`` sets is a constant.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.rules import (
    RULES,
    FileContext,
    Finding,
    Rule,
    identifier_uses,
    knob_settings,
    rule_tokens,
)
from repro.analysis.suppress import scan_suppressions

__all__ = ["lint_source", "lint_paths", "lint_fixture", "main", "self_test"]

#: Who, beside ``src/`` itself, a run can start from (DEAD001): the
#: directories next to the linted ``src/``, and the part of ``tests/``
#: that is infrastructure rather than a test of one symbol.
_CONSUMER_ROOTS = (
    "benchmarks",
    "examples",
    "scripts",
    "tools",
    "tests/helpers.py",
    "tests/conftest.py",
    "tests/reference",
)


def _relpath(path: Path) -> str:
    """Tree-relative posix path: everything from the last ``repro/`` segment.

    Protocol-path scoping keys off ``repro/distributed`` / ``repro/core``
    prefixes, so files are addressed relative to the package root no
    matter where the scan was rooted.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def _iter_py_files(roots: Sequence[str]) -> Iterable[Path]:
    for root in roots:
        p = Path(root)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def _collect_register_calls(ctx: FileContext) -> List[Tuple[str, str, int]]:
    """Module-scope ``register_lock(module=__name__, attr=...)`` calls.

    Returns ``(module_name, attr, line)`` derived from the file's
    tree-relative path, for the runtime registry cross-check.
    """
    if not ctx.rel.endswith(".py"):
        return []
    module_name = ctx.rel[: -len(".py")].replace("/", ".")
    if module_name.endswith(".__init__"):
        module_name = module_name[: -len(".__init__")]
    calls: List[Tuple[str, str, int]] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name != "register_lock":
            continue
        module_kw = attr_kw = None
        for kw in node.keywords:
            if kw.arg == "module":
                module_kw = kw.value
            elif kw.arg == "attr":
                attr_kw = kw.value
        if module_kw is None or attr_kw is None:
            continue
        if not (isinstance(module_kw, ast.Name) and module_kw.id == "__name__"):
            continue
        if isinstance(attr_kw, ast.Constant) and isinstance(attr_kw.value, str):
            calls.append((module_name, attr_kw.value, node.lineno))
    return calls


def _registry_cross_check(
    calls: List[Tuple[str, str, str, int]]
) -> List[Finding]:
    """Import each registering module and verify the live registry agrees."""
    findings: List[Finding] = []
    import importlib

    try:
        from repro.analysis import registry as live_registry

        for _path, module_name, _attr, _line in calls:
            importlib.import_module(module_name)
        registered = {
            (record.module, record.attr)
            for record in live_registry.lock_records().values()
        }
    # reprolint: broad-except -- import boundary: any failure importing a linted module must become a finding, not a crash
    except Exception as exc:
        return [
            Finding(
                path=path,
                line=line,
                rule="CONC003",
                message=(
                    f"could not verify register_lock against the live "
                    f"registry (importing {module_name} failed: {exc!r})"
                ),
            )
            for path, module_name, _attr, line in calls
        ]
    for path, module_name, attr, line in calls:
        if (module_name, attr) not in registered:
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    rule="CONC003",
                    message=(
                        f"register_lock(module=__name__, attr={attr!r}) never "
                        f"landed in the live registry for {module_name} — the "
                        "call is unreachable at import time or the attr does "
                        "not match the assigned global"
                    ),
                    fixit="registration must run at module import and attr "
                    "must name the exact global the lock is bound to",
                )
            )
    return findings


def _tree_summaries(
    contexts: Sequence[FileContext],
) -> Tuple[Optional[Counter], Optional[Counter]]:
    """What the whole tree uses (DEAD001) and sets (KNOB001).

    ``(None, None)`` unless the linted files include the package root
    ``repro/__init__.py``: whether anything reaches a definition, or
    sets a field, cannot be decided from part of the tree.  Consumers
    are the package's own files (a package ``__init__``'s imports are
    re-exports, not uses) and every ``.py`` file under
    :data:`_CONSUMER_ROOTS` next to the linted ``src/`` — no flag names
    them, they are where they are.  Settings are counted outside
    ``tests/`` only: a knob only a test turns is not a knob.
    """
    root = next((c.path for c in contexts if c.rel == "repro/__init__.py"), None)
    if root is None:
        return None, None
    uses: Counter = Counter()
    sets: Counter = Counter()
    for ctx in contexts:
        if ctx.rel.startswith("repro/"):
            uses.update(
                identifier_uses(ctx.tree, imports=not ctx.rel.endswith("/__init__.py"))
            )
            sets.update(knob_settings(ctx.tree))
    repo = Path(root).resolve().parents[2]  # <repo>/src/repro/__init__.py
    for name in _CONSUMER_ROOTS:
        for path in _iter_py_files([str(repo / name)]):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses.update(identifier_uses(tree))
            if not name.startswith("tests"):
                sets.update(knob_settings(tree))
    return uses, sets


def _parse_error(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        rule="PARSE001",
        message=f"file does not parse: {exc.msg}",
    )


def lint_source(
    source: str,
    rel: str,
    path: str = "",
    select: Optional[Sequence[str]] = None,
    tree_uses: Optional[Counter] = None,
    tree_sets: Optional[Counter] = None,
) -> List[Finding]:
    """Lint one source blob as if it lived at tree-relative path *rel*.

    Without *tree_uses* / *tree_sets* (see :func:`_tree_summaries`) the
    blob is linted on its own and the tree-level rule reading the missing
    one (DEAD001 / KNOB001) stays silent, as do suppressions naming it.
    """
    path = path or rel
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_parse_error(path, exc)]
    return _lint_context(FileContext(path, rel, source, tree, tree_uses, tree_sets), select)


def _lint_context(ctx: FileContext, select: Optional[Sequence[str]]) -> List[Finding]:
    path = ctx.path
    suppressions = scan_suppressions(ctx.source)
    known_tokens = rule_tokens()

    findings: List[Finding] = []
    for sup in suppressions:
        if not sup.tokens:
            findings.append(
                Finding(
                    path=path,
                    line=sup.comment_line,
                    rule="SUP001",
                    message="suppression names no rule token",
                    fixit="write `# reprolint: <token> -- <justification>`",
                )
            )
        elif not sup.justification:
            findings.append(
                Finding(
                    path=path,
                    line=sup.comment_line,
                    rule="SUP001",
                    message="suppression carries no justification",
                    fixit="append ` -- <one-line reason this is correct>`",
                )
            )
        for token in sup.tokens:
            if token not in known_tokens:
                findings.append(
                    Finding(
                        path=path,
                        line=sup.comment_line,
                        rule="SUP002",
                        message=f"unknown suppression token {token!r}",
                        fixit=f"valid tokens: {', '.join(sorted(known_tokens))}",
                    )
                )

    rules = [r for r in RULES if not r.needs_tree or getattr(ctx, r.needs_tree) is not None]
    if select:
        wanted = set(select)
        rules = [r for r in rules if r.id in wanted or r.token in wanted]
    for rule in rules:
        for finding in rule.check(ctx):
            absorbed = False
            for sup in suppressions:
                if sup.line == finding.line and rule.token in sup.tokens:
                    sup.used_tokens.add(rule.token)
                    absorbed = True
            if not absorbed:
                findings.append(finding)

    # Only a rule that ran can prove a suppression idle.
    ran_tokens = {rule.token for rule in rules}
    for sup in suppressions:
        if sup.tokens and not sup.used and all(t in ran_tokens for t in sup.tokens):
            findings.append(
                Finding(
                    path=path,
                    line=sup.comment_line,
                    rule="SUP003",
                    message=(
                        f"suppression ({', '.join(sup.tokens)}) matches no "
                        "finding on its line — it is dead weight or hiding a "
                        "moved line"
                    ),
                    fixit="delete the comment, or re-anchor it to the line "
                    "that needs it",
                )
            )
    return findings


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    registry_check: bool = True,
) -> List[Finding]:
    """Lint every ``.py`` file under *paths*; returns all findings."""
    findings: List[Finding] = []
    contexts: List[FileContext] = []
    for path in _iter_py_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=1,
                    rule="PARSE001",
                    message=f"unreadable: {exc}",
                )
            )
            continue
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(_parse_error(str(path), exc))
            continue
        contexts.append(FileContext(str(path), _relpath(path), source, tree))
    tree_uses, tree_sets = _tree_summaries(contexts)
    register_calls: List[Tuple[str, str, str, int]] = []
    for ctx in contexts:
        ctx.tree_uses, ctx.tree_sets = tree_uses, tree_sets
        findings.extend(_lint_context(ctx, select))
        if registry_check:
            register_calls.extend(
                (ctx.path, module_name, attr, line)
                for module_name, attr, line in _collect_register_calls(ctx)
            )
    saw_registry_module = any(c.rel == "repro/analysis/registry.py" for c in contexts)
    if register_calls and saw_registry_module:
        findings.extend(_registry_cross_check(register_calls))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_fixture(rule: Rule, snippet: str) -> List[Finding]:
    """Lint one of *rule*'s fixture snippets, as ``--self-test`` does.

    A rule that needs the tree is shown the snippet as the whole tree:
    the snippet's own identifier uses are every use there is.
    """
    if not rule.needs_tree:
        return lint_source(snippet, rel=rule.snippet_rel)
    tree = ast.parse(snippet)
    return lint_source(
        snippet,
        rel=rule.snippet_rel,
        tree_uses=identifier_uses(tree),
        tree_sets=knob_settings(tree),
    )


def self_test(verbose: bool = False) -> List[str]:
    """Replay every rule's must-flag / must-pass fixture; return failures.

    This is the loud-failure guard CI runs before trusting a clean
    ``lint src`` pass: a rule that silently stopped firing (AST drift,
    refactor typo) fails here even though the tree lints clean.
    """
    failures: List[str] = []
    for rule in RULES:
        flagged = lint_fixture(rule, rule.must_flag)
        if not any(f.rule == rule.id for f in flagged):
            failures.append(f"{rule.id}: must-flag fixture produced no {rule.id} finding")
        extra = [f for f in flagged if f.rule != rule.id]
        if extra:
            failures.append(
                f"{rule.id}: must-flag fixture produced unrelated findings: "
                + ", ".join(f.rule for f in extra)
            )
        passed = lint_fixture(rule, rule.must_pass)
        if passed:
            failures.append(
                f"{rule.id}: must-pass fixture produced findings: "
                + "; ".join(f.render() for f in passed)
            )
        if verbose and not failures:
            print(f"  {rule.id} ({rule.token}): ok")
    # Suppression machinery fixtures.
    sup_cases = [
        (
            "missing justification -> SUP001",
            "import time\n\n\ndef f(m):\n    m.at = time.time()  # reprolint: wallclock\n",
            "SUP001",
        ),
        (
            "unknown token -> SUP002",
            "def f():\n    return 1  # reprolint: no-such-rule -- because\n",
            "SUP002",
        ),
        (
            "unused suppression -> SUP003",
            "def f():\n    return 1  # reprolint: wallclock -- nothing here needs it\n",
            "SUP003",
        ),
    ]
    for label, snippet, expect in sup_cases:
        got = lint_source(snippet, rel="repro/distributed/_snippet.py")
        if not any(f.rule == expect for f in got):
            failures.append(f"suppression fixture failed ({label})")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="AST-based invariant checker for the repro engine "
        "(rule catalogue: ANALYSIS.md)",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories (default: src)")
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="only run the named rule ids/tokens (repeatable)",
    )
    parser.add_argument(
        "--no-registry-check",
        action="store_true",
        help="skip the runtime register_lock cross-check (CONC003)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="replay every rule's must-flag/must-pass fixtures and exit",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="findings only, no summary")
    args = parser.parse_args(argv)

    if args.self_test:
        failures = self_test(verbose=not args.quiet)
        if failures:
            for failure in failures:
                print(f"SELF-TEST FAIL: {failure}")
            return 1
        if not args.quiet:
            print(f"self-test ok: {len(RULES)} rules, suppression machinery intact")
        return 0

    findings = lint_paths(
        args.paths, select=args.select, registry_check=not args.no_registry_check
    )
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\nreprolint: {len(findings)} finding(s)")
        return 1
    if not args.quiet:
        print("reprolint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
