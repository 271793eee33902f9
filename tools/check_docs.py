#!/usr/bin/env python3
"""Documentation checks: dead links, undocumented subcommands and flags,
stale flags, stale code references, module-map and coverage-gate drift.

Run by CI's docs job (and runnable locally)::

    PYTHONPATH=src python tools/check_docs.py

Six checks, all against the working tree:

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
3. **No stale flags.** Every ``--flag`` a checked document names must be
   defined by a ``repro-experiments`` parser -- the flat experiment
   parser, every orchestration subparser, or ``serve`` -- or be one of the
   other tools' flags in :data:`FOREIGN_FLAGS`. Removing a flag means
   removing it from the docs too.
4. **No stale code references.** Every backticked dotted name under
   ``repro`` (```repro.engine.SearchEngine```) must import, and every
   backticked ``path.py:name`` reference (```arch/accelerator.py:shape_tiling```,
   the path relative to ``src/repro`` or the repository root) must name a
   file that defines ``name`` at its top level (``Class.attribute`` looks
   inside the class), and every backticked bare private name
   (```_simulate_python```) must be defined -- as a function, class or
   assigned name or attribute -- somewhere under ``src/``. This check also
   reads the verify skill (``.claude/skills/verify/SKILL.md``). Renaming
   or deleting code means updating the docs that point at it.
5. **Module map.** Every backticked ``name.py`` in a row of the module
   map of docs/architecture.md must exist under ``src/repro/`` or under
   one of the packages (backticked ``pkg/``) that row names. A deleted or
   moved module leaves the map too.
6. **Coverage gate.** Every ``--cov-fail-under`` number README.md quotes
   must be the one the CI workflow enforces.

Exit status 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``[text](target)`` with the target captured; images share the syntax.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: A ``--flag`` token; one glued to a preceding word (the unit id
#: ``fig13--vgg16--auto--<hash>``) is not a flag.
FLAG_PATTERN = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")

#: Flags the documents name that belong to other tools (pytest-cov).
FOREIGN_FLAGS = {"--cov", "--cov-fail-under"}

#: A backticked dotted name under the package: ```repro.engine.SearchEngine```.
DOTTED_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")

#: A backticked ``file:name`` reference: ```engine/cache.py:SHAPE_MEMO_SIZE```.
FILE_REFERENCE_PATTERN = re.compile(r"`([\w./-]+\.py):([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")

#: A backticked bare private name: ```_simulate_python```.
PRIVATE_NAME_PATTERN = re.compile(r"`(_\w+)`")

#: The verify skill: read by the code-reference check only.
SKILL_PATH = os.path.join(REPO_ROOT, ".claude", "skills", "verify", "SKILL.md")

ARCHITECTURE_PATH = os.path.join(REPO_ROOT, "docs", "architecture.md")
README_PATH = os.path.join(REPO_ROOT, "README.md")
CI_PATH = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")

#: A backticked module file (``name.py`` or ``pkg/name.py``) and a
#: backticked package (``pkg/``) in a module-map row.
MODULE_FILE_PATTERN = re.compile(r"`([\w/]+\.py)`")
PACKAGE_PATTERN = re.compile(r"`([\w/]+/)`")

COVERAGE_GATE_PATTERN = re.compile(r"--cov-fail-under=(\d+)")


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


def parser_flags() -> set:
    """Every long option a ``repro-experiments`` parser defines."""
    from repro.cli import build_parser
    from repro.orchestration.cli import build_orchestration_parser
    from repro.server.daemon import build_serve_parser

    orchestration = build_orchestration_parser()
    parsers = [build_parser(), build_serve_parser(), orchestration]
    for action in orchestration._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    return {
        option
        for parser in parsers
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def check_stale_flags(paths: list) -> list:
    known = parser_flags() | FOREIGN_FLAGS
    problems = []
    for path in paths:
        with open(path) as handle:
            named = set(FLAG_PATTERN.findall(handle.read()))
        relative = os.path.relpath(path, REPO_ROOT)
        for flag in sorted(named - known):
            problems.append(
                f"{relative}: flag {flag!r} is not defined by any repro-experiments parser"
            )
    return problems


def resolve_dotted(name: str) -> bool:
    """Whether ``repro.x.y`` imports: the longest importable module prefix,
    then attribute lookups for the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _top_level_names(body) -> dict:
    """``{name: node}`` of the definitions and assignments in ``body``."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
    return names


def resolve_file_reference(path: str, name: str) -> bool:
    """Whether ``path`` (under ``src/repro`` or the repository root) defines
    ``name`` at its top level, ``Class.attribute`` inside the class."""
    for base in (os.path.join(REPO_ROOT, "src", "repro"), REPO_ROOT):
        candidate = os.path.join(base, path)
        if os.path.isfile(candidate):
            break
    else:
        return False
    with open(candidate) as handle:
        scope = _top_level_names(ast.parse(handle.read()).body)
    parts = name.split(".")
    for index, part in enumerate(parts):
        node = scope.get(part)
        if node is None:
            return False
        if index + 1 < len(parts):
            if not isinstance(node, ast.ClassDef):
                return False
            scope = _top_level_names(node.body)
    return True


@functools.lru_cache(maxsize=None)
def source_definitions() -> frozenset:
    """Every function, class, assigned name and assigned attribute under ``src/``."""
    names = set()
    for directory, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for file_name in files:
            if not file_name.endswith(".py"):
                continue
            with open(os.path.join(directory, file_name)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
    return frozenset(names)


def check_code_references(paths: list) -> list:
    problems = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        relative = os.path.relpath(path, REPO_ROOT)
        for name in sorted(set(DOTTED_PATTERN.findall(text))):
            if not resolve_dotted(name):
                problems.append(f"{relative}: `{name}` does not resolve")
        for file_path, name in sorted(set(FILE_REFERENCE_PATTERN.findall(text))):
            if not resolve_file_reference(file_path, name):
                problems.append(f"{relative}: `{file_path}:{name}` does not resolve")
        for name in sorted(set(PRIVATE_NAME_PATTERN.findall(text)) - source_definitions()):
            problems.append(f"{relative}: `{name}` is defined nowhere under src/")
    return problems


def module_map_rows(text: str) -> list:
    """The table rows of the ``## Module map`` section of ``text``."""
    rows = []
    in_map = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_map = line.strip() == "## Module map"
        elif in_map and line.startswith("|"):
            rows.append(line)
    return rows


def check_module_map(path: str) -> list:
    with open(path) as handle:
        rows = module_map_rows(handle.read())
    source = os.path.join(REPO_ROOT, "src", "repro")
    relative = os.path.relpath(path, REPO_ROOT)
    problems = []
    for row in rows:
        packages = [""] + PACKAGE_PATTERN.findall(row)
        for name in MODULE_FILE_PATTERN.findall(row):
            if not any(os.path.isfile(os.path.join(source, package, name)) for package in packages):
                problems.append(
                    f"{relative}: module map names `{name}`, which is neither under src/repro/ "
                    f"nor under {', '.join(packages[1:]) or 'a package of its row'}"
                )
    return problems


def check_coverage_gate(readme_path: str, ci_path: str) -> list:
    with open(ci_path) as handle:
        enforced = set(COVERAGE_GATE_PATTERN.findall(handle.read()))
    with open(readme_path) as handle:
        quoted = COVERAGE_GATE_PATTERN.findall(handle.read())
    return [
        f"{os.path.relpath(readme_path, REPO_ROOT)}: --cov-fail-under={number}, but "
        f"{os.path.relpath(ci_path, REPO_ROOT)} enforces {', '.join(sorted(enforced)) or 'none'}"
        for number in quoted
        if number not in enforced
    ]


def main() -> int:
    paths = documentation_files()
    skill = [SKILL_PATH] if os.path.exists(SKILL_PATH) else []
    problems = (
        check_links(paths)
        + check_cli_coverage(paths)
        + check_stale_flags(paths)
        + check_code_references(paths + skill)
        + check_module_map(ARCHITECTURE_PATH)
        + check_coverage_gate(README_PATH, CI_PATH)
    )
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"docs check: {len(paths)} files, all links live, all subcommands and flags "
        "covered, no stale flags, code references, module-map files or coverage gates"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
