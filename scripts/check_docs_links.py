#!/usr/bin/env python3
"""Docs reference checker: every link, module name and repo path must resolve.

Scans markdown files (by default ``README.md``, ``EXPERIMENTS.md``,
``DESIGN.md`` and everything under ``docs/``) for three kinds of
reference:

* ``[text](target)`` links: each relative target must exist on disk.
  External links (``http(s)://``, ``mailto:``) and pure in-page anchors
  (``#section``) are skipped; a trailing ``#anchor`` on a file target is
  stripped before the existence check.
* inline code that starts with a dotted ``repro.*`` name: the longest
  importable module prefix is imported and the rest looked up attribute
  by attribute, so a renamed or deleted module, class or function fails.
* inline code that starts with a ``src/``, ``tests/``, ``scripts/``,
  ``examples/``, ``benchmarks/`` or ``docs/`` path: the path, relative to
  the repo root and without a ``::test`` id or ``:line`` suffix, must
  exist.

Fenced code blocks are not scanned for names or paths.  Exit status: 0
when every reference resolves, 1 otherwise (one line per broken reference
on stderr).  Used by CI and ``tests/test_docs.py``.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

FENCE_RE = re.compile(r"^```.*?^```", re.S | re.M)
SPAN_RE = re.compile(r"`([^`\n]+)`")
NAME_RE = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
PATH_RE = re.compile(r"(?:src|tests|scripts|examples|benchmarks|docs)/[^\s:]*")


def broken_links(path: Path) -> List[Tuple[str, str]]:
    """All (target, reason) pairs for unresolvable links in ``path``."""
    failures: List[Tuple[str, str]] = []
    for target in LINK_RE.findall(path.read_text()):
        if target.startswith(SKIP_PREFIXES):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            failures.append((target, f"missing {resolved}"))
    return failures


def resolve_name(dotted: str) -> Optional[str]:
    """None when ``dotted`` names a module or an attribute path in one,
    else why it does not."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and module_name.startswith(exc.name):
                continue
            raise
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return f"{module_name} has no {'.'.join(parts[split:])}"
            obj = getattr(obj, attr)
        return None
    return "no such module"


def stale_references(path: Path) -> List[Tuple[str, str]]:
    """All (reference, reason) pairs for inline-code ``repro.*`` names and
    repo paths in ``path`` that do not resolve."""
    failures: List[Tuple[str, str]] = []
    text = FENCE_RE.sub("", path.read_text())
    for span in SPAN_RE.findall(text):
        name = NAME_RE.match(span)
        if name:
            reason = resolve_name(name.group(0))
            if reason:
                failures.append((name.group(0), reason))
        repo_path = PATH_RE.match(span)
        if repo_path and not (ROOT / repo_path.group(0)).exists():
            failures.append((repo_path.group(0), "no such path in the repo"))
    return failures


def default_files(root: Path) -> List[Path]:
    """The default scan set: top-level guides plus everything in docs/."""
    files = [
        root / "README.md",
        root / "EXPERIMENTS.md",
        root / "DESIGN.md",
    ]
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return [f for f in files if f.exists()]


def check(files: Iterable[Path]) -> List[str]:
    """Check every file; returns human-readable failure lines."""
    lines = []
    for path in files:
        for target, reason in broken_links(path):
            lines.append(f"{path}: broken link {target!r} ({reason})")
        for reference, reason in stale_references(path):
            lines.append(f"{path}: stale reference {reference!r} ({reason})")
    return lines


def main(argv: List[str]) -> int:
    """CLI entry point: ``check_docs_links.py [FILE ...]``."""
    files = [Path(a) for a in argv] if argv else default_files(ROOT)
    failures = check(files)
    for line in failures:
        print(line, file=sys.stderr)
    if not failures:
        print(f"ok: {len(files)} file(s), all links, names and paths resolve")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
