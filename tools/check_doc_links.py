#!/usr/bin/env python3
"""Fail CI on broken intra-repo Markdown links (and stale doc tables).

Scans every ``*.md`` file in the repository for inline links and
images (``[text](target)``), and checks that:

* relative targets resolve to an existing file or directory;
* fragment links (``#anchor`` — bare, or appended to a Markdown
  target) name a heading that actually exists, using GitHub's
  heading-slug rules.

It also checks two code/doc lockstep tables:

* the telemetry counter table in ``docs/observability.md`` matches the
  canonical ``repro.obs.COUNTERS`` dict exactly — every counter the
  code can emit is documented, and no documented counter has been
  removed from the code;
* the diagnostic-code table in ``docs/analysis.md`` matches
  ``repro.analyze.CHECK_CODES`` the same way, and every string
  constant in ``src/repro/analyze/*.py`` shaped like a check code
  (``<dfg|rt|sched|regalloc|arch|mc>.<name>``) is registered there, so
  a checker cannot emit a code that ``Finding`` refuses at run time.

External schemes (``http://``, ``https://``, ``mailto:``) are ignored
— this guards the repository's own docs tree, not the internet.

Usage::

    python tools/check_doc_links.py [ROOT]

Exits 0 when every link resolves, 1 otherwise (listing each broken
link as ``file:line: message``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: ``[text](target)`` with no nesting; images share the syntax.
LINK = re.compile(r"!?\[[^\]\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE = re.compile(r"^\s*(```|~~~)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

SKIP_DIRS = {".git", ".venv", "node_modules", "__pycache__", ".pytest_cache"}


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """GitHub's anchor id for a heading text (with duplicate suffixes)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # strip code spans
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    slug = "".join(
        ch for ch in text.lower().replace(" ", "-")
        if ch.isalnum() or ch in "-_"
    )
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def markdown_files(root: Path) -> list[Path]:
    return sorted(
        path for path in root.rglob("*.md")
        if not any(part in SKIP_DIRS for part in path.parts)
    )


def anchors_of(path: Path) -> set[str]:
    """All heading anchors a Markdown file defines."""
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING.match(line)
        if match:
            anchors.add(github_slug(match.group(2), seen))
    return anchors


def check_file(path: Path, root: Path, anchor_cache: dict[Path, set[str]],
               problems: list[str]) -> None:
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK.finditer(line):
            target = match.group(1)
            if EXTERNAL.match(target):
                continue
            raw_path, _, fragment = target.partition("#")
            if raw_path:
                resolved = (path.parent / raw_path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: broken link "
                        f"target {raw_path!r}"
                    )
                    continue
            else:
                resolved = path.resolve()
            if fragment:
                if resolved.is_dir() or resolved.suffix.lower() != ".md":
                    continue  # anchors into non-Markdown: not checkable
                if resolved not in anchor_cache:
                    anchor_cache[resolved] = anchors_of(resolved)
                if fragment.lower() not in anchor_cache[resolved]:
                    try:
                        shown = resolved.relative_to(root)
                    except ValueError:  # target outside the scanned root
                        shown = resolved
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: no heading "
                        f"for anchor #{fragment} in {shown}"
                    )


#: ``| `counter.name` | meaning |`` rows of the observability doc.
COUNTER_ROW = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|")


def documented_counters(doc: Path) -> set[str]:
    """Counter names listed in the observability doc's table."""
    names: set[str] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = COUNTER_ROW.match(line)
        if match:
            names.add(match.group(1))
    return names


def check_counter_table(root: Path, problems: list[str]) -> None:
    """``docs/observability.md`` table == ``repro.obs.COUNTERS`` keys."""
    doc = root / "docs" / "observability.md"
    src = root / "src"
    if not doc.is_file() or not (src / "repro" / "obs").is_dir():
        return  # run against a tree without the package: nothing to check
    sys.path.insert(0, str(src))
    try:
        from repro.obs import COUNTERS
    finally:
        sys.path.pop(0)
    documented = documented_counters(doc)
    canonical = set(COUNTERS)
    shown = doc.relative_to(root)
    for name in sorted(canonical - documented):
        problems.append(
            f"{shown}: counter {name!r} (repro.obs.COUNTERS) is missing "
            f"from the counter table"
        )
    for name in sorted(documented - canonical):
        problems.append(
            f"{shown}: documented counter {name!r} does not exist in "
            f"repro.obs.COUNTERS"
        )


#: ``| `dfg.edge-cycle` | ... |`` rows of the analysis doc (codes may
#: contain hyphens, unlike counter names).
CODE_ROW = re.compile(r"^\|\s*`([a-z]+\.[a-z0-9-]+)`\s*\|")


def documented_codes(doc: Path) -> set[str]:
    """Check codes listed in the analysis doc's tables."""
    names: set[str] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = CODE_ROW.match(line)
        if match:
            names.add(match.group(1))
    return names


def check_code_table(root: Path, problems: list[str]) -> None:
    """``docs/analysis.md`` tables == ``repro.analyze.CHECK_CODES``, which
    holds every code the checkers in ``src/repro/analyze`` spell out."""
    doc = root / "docs" / "analysis.md"
    src = root / "src"
    if not doc.is_file() or not (src / "repro" / "analyze").is_dir():
        return
    sys.path.insert(0, str(src))
    try:
        from repro.analyze import CHECK_CODES
    finally:
        sys.path.pop(0)
    documented = documented_codes(doc)
    canonical = set(CHECK_CODES)
    shown = doc.relative_to(root)
    for name in sorted(canonical - documented):
        problems.append(
            f"{shown}: check code {name!r} (repro.analyze.CHECK_CODES) is "
            f"missing from the diagnostic tables"
        )
    for name in sorted(documented - canonical):
        problems.append(
            f"{shown}: documented check code {name!r} does not exist in "
            f"repro.analyze.CHECK_CODES"
        )
    for path in sorted((src / "repro" / "analyze").glob("*.py")):
        for line, name in spelled_codes(path):
            if name not in canonical:
                problems.append(
                    f"{path.relative_to(root)}:{line}: check code {name!r} "
                    f"is not registered in repro.analyze.CHECK_CODES"
                )


#: A string constant shaped like a check code, ``<family>.<name>``.
CODE_CONSTANT = re.compile(r"(?:dfg|rt|sched|regalloc|arch|mc)\.[a-z0-9-]+")


def spelled_codes(path: Path) -> list[tuple[int, str]]:
    """``(line, constant)`` for each string constant in a checker module
    that looks like a check code, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and CODE_CONSTANT.fullmatch(node.value))


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent
    files = markdown_files(root)
    problems: list[str] = []
    anchor_cache: dict[Path, set[str]] = {}
    for path in files:
        check_file(path, root, anchor_cache, problems)
    check_counter_table(root, problems)
    check_code_table(root, problems)
    if problems:
        print(f"{len(problems)} broken doc link(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"doc links ok: {len(files)} Markdown files checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
