"""Documentation link checker.

Walks every tracked markdown file (repo root + ``docs/``) and verifies
that relative cross-links resolve:

* the link target exists on disk (only repo-relative targets are
  checked; ``http(s)://`` URLs and pure ``#fragment`` self-links are
  skipped, as are GitHub web paths like the CI badge);
* a ``file.md#anchor`` fragment matches a heading in the target file,
  using GitHub's heading-slug rules (lowercase, punctuation stripped,
  spaces to hyphens).

It also checks the ablation reference against the switch table: every
row of ``FAMILY_REGISTRY`` (:mod:`repro.objects.stats`) must appear in
the eight-family table of ``docs/ablation.md`` with its setter, context
manager, default and environment variable, and that table must have no
other rows.

Runnable directly (exit code 1 on any broken link or table mismatch)::

    python tools/check_docs.py

CI runs it in the docs job next to the example-tour smoke tests.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files to scan: the repo-root documents plus everything in docs/.
DOCUMENT_GLOBS = ("*.md", "docs/*.md")

#: File suffixes whose relative links must resolve on disk.
CHECKED_SUFFIXES = {".md", ".py", ".json"}

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: The document whose family table must match the switch table.
ABLATION_DOC = REPO_ROOT / "docs" / "ablation.md"
ABLATION_HEADING = "## The eight families"


def heading_slugs(markdown: str) -> set[str]:
    """GitHub-style anchor slugs for every heading in *markdown*."""
    slugs: set[str] = set()
    for line in markdown.splitlines():
        match = re.match(r"#{1,6}\s+(.*)", line)
        if not match:
            continue
        title = match.group(1).strip()
        title = title.replace("`", "")  # inline code joins the slug bare
        slug = re.sub(r"[^\w\- ]", "", title.lower())
        slug = slug.replace(" ", "-")
        slugs.add(slug)
    return slugs


def check_file(path: Path) -> list[str]:
    """Return broken-link messages for one markdown file (empty = ok)."""
    failures: list[str] = []
    text = path.read_text()
    for target in LINK_PATTERN.findall(text):
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        raw, _, fragment = target.partition("#")
        resolved = (path.parent / raw).resolve()
        if resolved.suffix not in CHECKED_SUFFIXES:
            continue  # badges and other web-only paths
        relative = path.relative_to(REPO_ROOT)
        if not resolved.exists():
            failures.append(f"{relative}: broken link {target!r}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in heading_slugs(resolved.read_text()):
                failures.append(
                    f"{relative}: link {target!r} names a missing anchor "
                    f"#{fragment}"
                )
    return failures


def switch_table_rows(markdown: str) -> list[list[str]]:
    """The body rows of the first table under :data:`ABLATION_HEADING`,
    as lists of stripped cells."""
    rows: list[list[str]] = []
    for line in markdown.split(ABLATION_HEADING, 1)[-1].splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # past the header and separator lines


def check_switch_table() -> list[str]:
    """Mismatches between ``FAMILY_REGISTRY`` and the docs table (empty = ok).

    Columns: family, switch (module), default, off restores, counters,
    differential suite, environment variable.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.objects.stats import FAMILY_REGISTRY

    relative = ABLATION_DOC.relative_to(REPO_ROOT)
    rows = switch_table_rows(ABLATION_DOC.read_text())
    failures: list[str] = []
    if len(rows) != len(FAMILY_REGISTRY):
        failures.append(
            f"{relative}: the family table has {len(rows)} rows, "
            f"FAMILY_REGISTRY has {len(FAMILY_REGISTRY)}"
        )
    for family, switch in FAMILY_REGISTRY.items():
        matches = [row for row in rows if f"`{switch.setter}`" in row[1]]
        if not matches:
            failures.append(f"{relative}: no family-table row for `{switch.setter}`")
            continue
        _name, switch_cell, default_cell, *_rest, env_cell = matches[0]
        expected_default = "on" if switch.default else "off"
        expected_env = f"`{switch.env}=1`" if switch.env else "—"
        if f"`{switch.context}(...)`" not in switch_cell:
            failures.append(f"{relative}: {family} row lacks `{switch.context}(...)`")
        if not default_cell.strip("*").startswith(expected_default):
            failures.append(
                f"{relative}: {family} row default {default_cell!r}, "
                f"table says {expected_default}"
            )
        if not env_cell.startswith(expected_env):
            failures.append(
                f"{relative}: {family} row env var {env_cell!r}, "
                f"table says {expected_env}"
            )
    return failures


def check_all() -> list[str]:
    failures: list[str] = []
    documents = sorted(
        document for pattern in DOCUMENT_GLOBS for document in REPO_ROOT.glob(pattern)
    )
    if not documents:
        failures.append("no markdown documents found to check")
    for document in documents:
        failures.extend(check_file(document))
    failures.extend(check_switch_table())
    return failures


def main() -> int:
    failures = check_all()
    if failures:
        for failure in failures:
            print(f"BROKEN: {failure}", file=sys.stderr)
        return 1
    count = sum(len(list(REPO_ROOT.glob(g))) for g in DOCUMENT_GLOBS)
    print(
        f"documentation links resolve across {count} markdown files; "
        "the ablation table matches FAMILY_REGISTRY"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
