"""Core lint engine: findings, configuration, suppression, file driver.

The engine is rule-agnostic: it parses each file once, hands the AST to
every registered rule (:mod:`repro.lint.rules`), collects the raw
findings, then applies inline suppressions.  Baseline filtering is a
separate, later stage (:mod:`repro.lint.baseline`) so that suppressed
findings never reach the baseline at all.

Suppression grammar (one comment silences one line, or the next line
when the comment stands alone)::

    # repro: lint-ignore[DET002] reason why this is safe
    # repro: lint-ignore[DET002,DET003] shared reason

A suppression without a reason does not suppress anything and is itself
reported as ``SUP001`` — the whole point is that every silenced finding
carries a recorded justification.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Severity",
    "Suppression",
    "apply_suppressions",
    "check_tree",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "malformed_suppression_findings",
    "module_name_for_path",
    "parse_failure_finding",
    "parse_suppressions",
    "run_lint",
    "with_select",
]


class Severity:
    """Per-rule severity labels (plain strings, ordered for display)."""

    ERROR = "error"
    WARNING = "warning"

    ORDER: Tuple[str, ...] = (ERROR, WARNING)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule firing at a specific source location.

    ``hops`` is the optional provenance trail behind an interprocedural
    finding (seed-taint paths): ``(path, line, note)`` triples ordered
    source-first, sink-last.  Hops are rendered into the message and the
    SARIF ``codeFlows`` but deliberately excluded from the fingerprint,
    which must stay stable when unrelated edits renumber the hop lines.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    hops: Tuple[Tuple[str, int, str], ...] = ()

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining, tolerant of line renumbering.

        Hashes the *content* of the flagged line (whitespace-normalised)
        rather than its number, so adding code above a grandfathered
        finding does not invalidate the baseline entry.  Hop lines are
        excluded for the same reason.
        """
        normalized = " ".join(self.snippet.split())
        payload = f"{_norm_path(self.path)}::{self.rule}::{normalized}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        """Render as ``path:line:col: RULE [severity] message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


def _norm_path(path: str) -> str:
    """Normalise a path for fingerprinting (separator- and cwd-stable)."""
    normalized = path.replace(os.sep, "/")
    for anchor in ("/src/", "/tests/"):
        index = normalized.rfind(anchor)
        if index >= 0:
            return normalized[index + 1 :]
    return normalized.lstrip("./")


# Wall-clock allowlist: the triaged measurement/scheduling modules.  The
# exec pool and supervisor read the clock for *observed* quantities
# (per-item wall time, timeout deadlines, retry backoff) that never feed
# a simulated result; profiling and span timing are measurement by
# definition.  The sampling profiler (obs.prof) exists to sample the
# wall/CPU clock — the clock is the instrument — and is provably
# passive: it only ever *reads* collector state, so profiler-off runs
# are byte-identical (pinned by tests/test_telemetry.py).  The soak
# service runs on virtual ticks and reads the clock only for its
# ``max_wall`` safety valve, which truncates the loop without changing
# any completed tick's result.  Everything else — simulation, protocol,
# graph and analysis code — must use the sim clock or an injected clock.
DEFAULT_WALLCLOCK_ALLOWLIST: Tuple[str, ...] = (
    "repro.exec.pool",
    "repro.exec.profiling",
    "repro.exec.supervisor",
    "repro.obs.prof",
    "repro.obs.spans",
    "repro.service.soak",
)

# Modules whose code runs inside worker processes' task loops, where a
# swallowed KeyboardInterrupt/SystemExit turns ^C into a hang.
DEFAULT_WORKER_MODULES: Tuple[str, ...] = ("repro.exec",)


@dataclass(frozen=True)
class LintConfig:
    """Tunable policy for a lint run.

    ``wallclock_allowlist`` and ``worker_modules`` are dotted module
    prefixes; a module matches when it equals a prefix or starts with
    ``prefix + "."``.
    """

    wallclock_allowlist: Tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOWLIST
    worker_modules: Tuple[str, ...] = DEFAULT_WORKER_MODULES
    select: Optional[Tuple[str, ...]] = None

    def allows_wallclock(self, module: str) -> bool:
        return _matches_prefix(module, self.wallclock_allowlist)

    def is_worker_module(self, module: str) -> bool:
        return _matches_prefix(module, self.worker_modules)

    def rule_selected(self, rule_id: str) -> bool:
        return self.select is None or rule_id in self.select


def _matches_prefix(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


@dataclass
class ModuleContext:
    """Everything a rule needs to know about the file under analysis."""

    path: str
    module: str
    source_lines: List[str]
    config: LintConfig

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""

    def finding(
        self,
        rule: str,
        severity: str,
        node: ast.AST,
        message: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
        )


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a file path.

    ``.../src/repro/exec/pool.py`` → ``repro.exec.pool``;
    ``.../repro/obs/spans.py`` → ``repro.obs.spans``; files outside a
    recognisable package root fall back to their stem (fixtures).
    """
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = normalized.split("/")
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    parts = parts[:-1] + [stem]
    anchor = -1
    for index, part in enumerate(parts):
        if part == "src":
            anchor = index
    if anchor < 0:
        for index, part in enumerate(parts):
            if part == "repro":
                anchor = index - 1
                break
    if anchor < 0:
        return stem
    dotted = parts[anchor + 1 :]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else stem


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ignore(?P<scope>-file)?"
    r"\[(?P<codes>[A-Z0-9_,\s]+)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: lint-ignore[...]`` comment.

    ``file_scope`` marks the ``lint-ignore-file[RULE] reason`` variant,
    which silences the named rules for the whole file instead of one
    line.  The mandatory reason is enforced for both scopes (SUP001).
    """

    line: int
    codes: Tuple[str, ...]
    reason: str
    standalone: bool
    file_scope: bool = False

    @property
    def target_line(self) -> int:
        """The source line this suppression silences."""
        return self.line + 1 if self.standalone else self.line


def parse_suppressions(
    source_lines: Sequence[str],
) -> Tuple[List[Suppression], List[int]]:
    """Scan for suppression comments (line- and file-scoped).

    Returns ``(suppressions, malformed_lines)`` where ``malformed_lines``
    are comments missing the mandatory reason (these suppress nothing).
    """
    suppressions: List[Suppression] = []
    malformed: List[int] = []
    for number, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = tuple(
            code.strip()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        reason = match.group("reason").strip()
        if not codes or not reason:
            malformed.append(number)
            continue
        standalone = text[: match.start()].strip() == ""
        suppressions.append(
            Suppression(
                line=number,
                codes=codes,
                reason=reason,
                standalone=standalone,
                file_scope=match.group("scope") is not None,
            )
        )
    return suppressions, malformed


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: Sequence[Suppression],
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into ``(kept, suppressed)`` using inline comments.

    Line-scoped comments silence their target line; file-scoped ones
    silence the named rules anywhere in the file the findings came from
    (the caller passes one file's findings at a time).
    """
    by_line: Dict[int, Set[str]] = {}
    file_codes: Set[str] = set()
    for suppression in suppressions:
        if suppression.file_scope:
            file_codes.update(suppression.codes)
        else:
            by_line.setdefault(suppression.target_line, set()).update(
                suppression.codes
            )
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        codes = by_line.get(finding.line, set())
        if finding.rule in codes or finding.rule in file_codes:
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


# ----------------------------------------------------------------------
# File / source drivers
# ----------------------------------------------------------------------


@dataclass
class LintResult:
    """Aggregate outcome of a lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Per-rule tally of live (non-suppressed, non-baselined) findings."""
        tally: Dict[str, int] = {}
        for finding in self.findings:
            tally[finding.rule] = tally.get(finding.rule, 0) + 1
        return dict(sorted(tally.items()))

    def exit_code(self) -> int:
        """The ``repro lint`` contract: 0 clean, 1 findings."""
        return 0 if self.clean else 1


def parse_failure_finding(
    exc: SyntaxError, path: str, source_lines: Sequence[str]
) -> Finding:
    """Render a ``SyntaxError`` as the PARSE001 engine diagnostic."""
    line = exc.lineno or 1
    snippet = ""
    if 1 <= line <= len(source_lines):
        snippet = source_lines[line - 1].strip()
    return Finding(
        rule="PARSE001",
        severity=Severity.ERROR,
        path=path,
        line=line,
        col=(exc.offset or 1) - 1,
        message=f"file could not be parsed: {exc.msg}",
        snippet=snippet,
    )


def check_tree(tree: ast.Module, context: ModuleContext) -> List[Finding]:
    """Run every selected per-file AST rule over a parsed module."""
    from repro.lint.rules import RULES

    raw: List[Finding] = []
    for rule in RULES:
        if context.config.rule_selected(rule.id):
            raw.extend(rule.check(tree, context))
    return raw


def malformed_suppression_findings(
    malformed: Sequence[int], context: ModuleContext
) -> List[Finding]:
    """SUP001 findings for suppression comments missing their reason."""
    if not context.config.rule_selected("SUP001"):
        return []
    return [
        Finding(
            rule="SUP001",
            severity=Severity.WARNING,
            path=context.path,
            line=line,
            col=0,
            message=(
                "suppression comment is missing its mandatory "
                "reason (or rule codes) and suppresses nothing; "
                "write '# repro: lint-ignore[RULE] reason' (or "
                "lint-ignore-file[RULE] reason for a whole file)"
            ),
            snippet=context.snippet(line),
        )
        for line in malformed
    ]


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    module: Optional[str] = None,
) -> LintResult:
    """Lint one source string; the building block for files and tests."""
    config = config or LintConfig()
    source_lines = source.splitlines()
    context = ModuleContext(
        path=path,
        module=module if module is not None else module_name_for_path(path),
        source_lines=source_lines,
        config=config,
    )
    result = LintResult(files=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        if config.rule_selected("PARSE001"):
            result.findings.append(
                parse_failure_finding(exc, path, source_lines)
            )
        return result

    raw = check_tree(tree, context)
    suppressions, malformed = parse_suppressions(source_lines)
    kept, suppressed = apply_suppressions(raw, suppressions)
    kept.extend(malformed_suppression_findings(malformed, context))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.findings = kept
    result.suppressed = suppressed
    return result


def lint_file(path: str, config: Optional[LintConfig] = None) -> LintResult:
    """Lint one file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, config=config)


def iter_python_files(
    paths: Sequence[str], exclude: Sequence[str] = ()
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``exclude`` entries are path substrings (separator-normalised);
    any file whose path contains one is skipped — used by the CI gate
    to walk ``tests/`` without tripping over the intentionally-bad
    ``tests/lint_fixtures/`` corpus.
    """
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        collected.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    if exclude:
        collected = [
            path
            for path in collected
            if not any(
                pattern in path.replace(os.sep, "/") for pattern in exclude
            )
        ]
    return sorted(dict.fromkeys(collected))


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    exclude: Sequence[str] = (),
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` and merge the results."""
    merged = LintResult()
    for path in iter_python_files(paths, exclude=exclude):
        single = lint_file(path, config=config)
        merged.findings.extend(single.findings)
        merged.suppressed.extend(single.suppressed)
        merged.files += single.files
    merged.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return merged


def run_lint(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    baseline_path: Optional[str] = None,
    project: bool = False,
    exclude: Sequence[str] = (),
) -> LintResult:
    """Lint ``paths``, then subtract the baseline file if one is given.

    ``project=True`` runs the whole-program pass (import graph, call
    graph, interprocedural seed taint, oracle conformance, API drift)
    on top of the per-file rules.  This is the function behind
    ``repro lint`` and the tier-1 self-check.
    """
    from repro.lint.baseline import apply_baseline, load_baseline

    if project:
        from repro.lint.project import lint_project

        result = lint_project(paths, config=config, exclude=exclude)
    else:
        result = lint_paths(paths, config=config, exclude=exclude)
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        apply_baseline(result, baseline)
    return result


def with_select(config: LintConfig, rules: Sequence[str]) -> LintConfig:
    """Return a copy of ``config`` restricted to ``rules``."""
    return replace(config, select=tuple(rules))
