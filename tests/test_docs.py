"""The documentation layer stays truthful: links resolve, CLI works.

Mirrors the CI docs job (`.github/workflows/ci.yml`) so a broken README
link or a doc pointing at a renamed file fails locally too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "architecture.md",
    REPO_ROOT / "docs" / "observability.md",
    REPO_ROOT / "docs" / "linting.md",
]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_exists_and_links_resolve(doc):
    assert doc.exists(), f"{doc} is missing"
    checker = _load_checker()
    problems = checker.broken_links(doc)
    assert not problems, "; ".join(reason for _, reason in problems)


def test_docs_mention_the_verify_command_and_store_contract():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "python -m pytest -x -q" in readme
    assert "REPRO_STORE_DIR" in readme
    assert "python -m repro list" in readme
    architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for guarantee in ("Bit-identical store hits", "Worker-count independence",
                      "Early-stop prefix property", "Telemetry non-interference"):
        assert guarantee in architecture


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_rule_codes_exist_in_registry(doc):
    checker = _load_checker()
    problems = checker.unknown_rule_codes(doc)
    assert not problems, "; ".join(reason for _, reason in problems)


def test_phantom_rule_code_is_caught(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text("RPL001 is real but RPL999 is not.\n", encoding="utf-8")
    problems = checker.unknown_rule_codes(doc)
    assert [code for code, _ in problems] == ["RPL999"]


def test_docs_catalog_covers_every_registered_rule():
    from repro.lint import RULES

    catalog = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
    for code in RULES:
        assert code in catalog, f"docs/linting.md is missing {code}"


def test_cli_list_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**__import__("os").environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stderr
    assert "town-distributed-lss" in result.stdout
    assert "ext-campaign" in result.stdout
