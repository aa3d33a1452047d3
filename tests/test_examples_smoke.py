"""Smoke tests: the example scripts stay runnable.

The examples are documentation that executes, and ``ranging_deep_dive.py``
is the only caller of ``detect_signal``.  Each test loads one example by
path (the ``examples/`` directory is not a package), runs its ``main()``
and checks one line of its output.
``distributed_deployment.py`` runs in its quick mode, which exercises
the full story — acoustic field campaign, batched local maps and
transforms, alignment, and the scenario front door — with reduced
budgets.  ``reproduce_paper.py`` is left out: it runs every experiment
driver, which ``tests/test_experiments.py`` covers.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_distributed_deployment_example_runs(capsys):
    module = _load_example("distributed_deployment")
    module.main(quick=True)
    out = capsys.readouterr().out
    assert "local maps" in out
    assert "fig 24" in out and "fig 25" in out
    assert "scenario grid-distributed-lss" in out


def test_quickstart_example_runs(capsys):
    _load_example("quickstart").main()
    assert "localized 47/47 nodes" in capsys.readouterr().out


def test_ranging_deep_dive_example_runs(capsys):
    _load_example("ranging_deep_dive").main()
    assert "detection at sample " in capsys.readouterr().out


def test_field_campaign_example_runs(capsys):
    _load_example("field_campaign").main()
    assert "LSS with min-spacing constraint (0 anchors): all 47 nodes" in capsys.readouterr().out
