"""The examples/ scripts must stay runnable (regression guard).

Each example's ``main()`` is imported and executed with stdout captured;
these tests assert the narrative landmarks each script promises.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "dangerLevel" in out
    assert "NULL" in out                     # Iron has no knowledge
    # The JoinManager's combine stage is shown.
    assert "combine: JoinManager folds 1 SELECT enrichment(s)" in out


def test_pollution_personas(capsys):
    out = run_example("pollution_personas", capsys)
    assert "Researcher's view" in out
    assert "City planner's view" in out
    # Both personas produce a hazard table.
    assert out.count("hazardous_materials") == 2


def test_crowdsourced_knowledge(capsys):
    out = run_example("crowdsourced_knowledge", capsys)
    assert "Marco accepts" in out
    assert "Peers recommended to Giulia" in out
    assert "eva" in out
    assert "**Mercury**" in out              # highlighted snippet


def test_session_api(capsys):
    out = run_example("session_api", capsys)
    assert "The plan:" in out
    assert "extract" in out                  # explain shows SQM stages
    assert "Second run extraction cache hits: 1" in out
    assert "warm run shipped 0" in out       # mediator reuse


def test_streaming_api(capsys):
    out = run_example("streaming_api", capsys)
    assert "Streaming cursor columns" in out
    assert "dangerLevel" in out
    assert "page 2 (limit 5):" in out                # token round-trip
    assert "Batch statuses: [200, 200]" in out
    assert "405" in out                              # structured errors


def test_telemetry(capsys):
    out = run_example("telemetry", capsys)
    assert "One span tree" in out
    assert "sesql.query" in out
    assert out.count("federation.fragment") == 2     # one per source
    assert "# TYPE" in out                           # Prometheus render
    assert "Slow-query log captured q-" in out
    assert "/api/v1/traces/" in out and "-> 200" in out


def test_federated_databanks(capsys):
    out = run_example("federated_databanks", capsys)
    assert "Mediated EU-wide rollup" in out
    assert "rows per source" in out
    assert "Contextually-enriched view" in out
    assert "Italy" in out                    # SCHEMAREPLACEMENT fired


@pytest.mark.parametrize("name", [
    "quickstart", "pollution_personas", "crowdsourced_knowledge",
    "federated_databanks", "session_api", "streaming_api", "telemetry"])
def test_examples_exist_and_document_themselves(name):
    source = (EXAMPLES_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert source.startswith('"""')          # every example has a docstring
    assert "def main()" in source
