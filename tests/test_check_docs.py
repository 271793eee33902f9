"""The docs checker's code-reference, module-map and coverage-gate checks
(``tools/check_docs.py``).

A backticked ``repro.x.y`` dotted name must import, a backticked
``path.py:name`` reference must name a top-level definition and a module-map
file must exist, so a rename or a deletion cannot leave the documents
pointing at code that is gone; README's coverage gate must be CI's.
"""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def check_docs():
    path = os.path.join(REPO_ROOT, "tools", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, resolves",
    [
        ("repro.engine.SearchEngine", True),
        ("repro.engine.SearchEngine.found_minimum", True),
        ("repro.workloads.llm", True),
        ("repro.dataflows.no_such_module.found_minimum", False),
        ("repro.engine.no_such_name", False),
        ("repro.no_such_module", False),
    ],
)
def test_dotted_names(check_docs, name, resolves):
    assert check_docs.resolve_dotted(name) is resolves


@pytest.mark.parametrize(
    "path, name, resolves",
    [
        ("engine/cache.py", "SHAPE_MEMO_SIZE", True),
        ("arch/accelerator.py", "shape_tiling", True),
        ("timing/simulator.py", "TimingSimulator.run_layer", True),
        ("perfbench/tracing.py", "install", True),
        ("timing/simulator.py", "no_such_function", False),
        ("timing/simulator.py", "TimingSimulator.no_such_method", False),
        ("dataflows/no_such_module.py", "found_minimum", False),
    ],
)
def test_file_references(check_docs, path, name, resolves):
    assert check_docs.resolve_file_reference(path, name) is resolves


def test_a_stale_reference_is_reported(check_docs, tmp_path):
    document = tmp_path / "doc.md"
    document.write_text(
        "Use `repro.engine.SearchEngine` (`engine/engine.py:SearchEngine`), not\n"
        "`repro.engine.no_such_name` or `timing/simulator.py:no_such_function`.\n"
    )
    problems = check_docs.check_code_references([str(document)])
    assert len(problems) == 2
    assert "`repro.engine.no_such_name` does not resolve" in problems[0]
    assert "`timing/simulator.py:no_such_function` does not resolve" in problems[1]


def test_the_documents_hold_no_stale_reference(check_docs):
    paths = check_docs.documentation_files()
    if os.path.exists(check_docs.SKILL_PATH):
        paths.append(check_docs.SKILL_PATH)
    assert check_docs.check_code_references(paths) == []


MODULE_MAP = """# Architecture

## Module map

| Layer | Modules | Responsibility |
| --- | --- | --- |
| Dataflows | `dataflows/` | ours (`ours.py`), the baselines (`baselines.py`), search (`search.py`), the registry (`registry.py`) |
| Entry points | `cli.py`, `orchestration/cli.py` | the flat commands and the orchestration commands |

## Elsewhere

Not a module-map row: `no_such_module.py`.
"""


def test_module_map_flags_files_that_do_not_exist(check_docs, tmp_path):
    document = tmp_path / "architecture.md"
    document.write_text(MODULE_MAP)
    problems = check_docs.check_module_map(str(document))
    assert len(problems) == 2
    assert "`baselines.py`" in problems[0] and "dataflows/" in problems[0]
    assert "`search.py`" in problems[1]


def test_coverage_gate_drift_is_reported(check_docs, tmp_path):
    readme = tmp_path / "README.md"
    ci = tmp_path / "ci.yml"
    readme.write_text("a coverage gate (`pytest --cov=repro --cov-fail-under=85`)\n")
    ci.write_text("run: python -m pytest -q --cov=repro --cov-fail-under=88\n")
    problems = check_docs.check_coverage_gate(str(readme), str(ci))
    assert len(problems) == 1
    assert "--cov-fail-under=85" in problems[0] and "enforces 88" in problems[0]
    readme.write_text("a coverage gate (`pytest --cov=repro --cov-fail-under=88`)\n")
    assert check_docs.check_coverage_gate(str(readme), str(ci)) == []


def test_the_documents_hold_no_module_map_or_coverage_drift(check_docs):
    assert check_docs.check_module_map(check_docs.ARCHITECTURE_PATH) == []
    assert check_docs.check_coverage_gate(check_docs.README_PATH, check_docs.CI_PATH) == []
