#!/usr/bin/env python3
"""Documentation checks: dead relative links, undocumented subcommands and flags.

Run by CI's docs job (and runnable locally)::

    PYTHONPATH=src python tools/check_docs.py

Two checks, both against the working tree:

1. **Relative links.** Every ``[text](target)`` markdown link in README.md,
   EXPERIMENTS.md and docs/*.md that is not an absolute URL or a pure
   anchor must point at an existing file (anchors are stripped before the
   existence check). Docs that rot into 404s are worse than no docs.
2. **CLI coverage.** Every user-facing ``repro-experiments`` subcommand --
   the flat experiment choices (derived live from the experiment
   registry), the orchestration commands and ``serve`` -- and every
   experiment flag (read from the registry's ``Param`` declarations) must
   be mentioned in at least one checked document. A subcommand or flag
   nobody can discover might as well not exist; adding one means
   documenting it.

Exit status 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``[text](target)`` with the target captured; images share the syntax.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def documentation_files() -> list:
    paths = [
        os.path.join(REPO_ROOT, "README.md"),
        os.path.join(REPO_ROOT, "EXPERIMENTS.md"),
    ]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                paths.append(os.path.join(docs_dir, name))
    return paths


def check_links(paths: list) -> list:
    problems = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        base = os.path.dirname(path)
        for target in LINK_PATTERN.findall(text):
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            resolved = os.path.normpath(os.path.join(base, target.split("#")[0]))
            if not os.path.exists(resolved):
                relative = os.path.relpath(path, REPO_ROOT)
                problems.append(f"{relative}: dead link -> {target}")
    return problems


def documented_subcommands() -> set:
    """Every user-facing subcommand name, derived from the live CLIs."""
    from repro.cli import ORCHESTRATION_COMMANDS, SERVE_COMMAND, _experiment_choices

    return set(_experiment_choices()) | {"goldens", "all", SERVE_COMMAND} | set(
        ORCHESTRATION_COMMANDS
    )


def documented_flags() -> set:
    """Every experiment flag, read from the registry's Param declarations."""
    from repro.orchestration.experiments import experiment_names, get_experiment

    return {param.flag for name in experiment_names() for param in get_experiment(name).params}


def check_cli_coverage(paths: list) -> list:
    corpus = ""
    for path in paths:
        with open(path) as handle:
            corpus += handle.read()
    problems = []
    for command in sorted(documented_subcommands()):
        if command not in corpus:
            problems.append(
                f"subcommand {command!r} is not mentioned in any checked document "
                "(README.md, EXPERIMENTS.md, docs/)"
            )
    for flag in sorted(documented_flags()):
        # Whole-flag match: '--capacity' must not pass on '--capacities'.
        if not re.search(re.escape(flag) + r"(?![\w-])", corpus):
            problems.append(
                f"flag {flag!r} is not mentioned in any checked document "
                "(README.md, EXPERIMENTS.md, docs/)"
            )
    return problems


def main() -> int:
    paths = documentation_files()
    problems = check_links(paths) + check_cli_coverage(paths)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs check: {len(paths)} files, all links live, all subcommands and flags covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
