"""End-to-end reproduction tests: every paper experiment's shape checks.

These are the headline tests: each driver runs its full experiment
(simulated campaign, localization, evaluation) and the test asserts all
of the driver's qualitative reproduction criteria hold.  The shared
grass campaign is cached per process, so the whole module runs in well
under a minute.
"""

import pytest

from repro.experiments import DEFAULT_SEED, all_experiments, get_experiment, run_experiment
from repro.experiments.base import ExperimentResult

EXPERIMENT_IDS = sorted(all_experiments())


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_experiment_shape_checks(experiment_id):
    result = run_experiment(experiment_id, DEFAULT_SEED)
    assert isinstance(result, ExperimentResult)
    assert result.paper, f"{experiment_id} records no paper values"
    assert result.measured, f"{experiment_id} records no measurements"
    assert result.checks, f"{experiment_id} has no shape checks"
    failed = [c for c in result.checks if not c.passed]
    detail = "; ".join(f"{c.name} ({c.detail})" for c in failed)
    assert result.passed, f"{experiment_id} failed: {detail}"


def test_registry_covers_all_figures():
    expected = {
        "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11",
        "fig12", "fig14", "fig16", "fig18", "fig19", "fig20", "fig21",
        "fig22", "fig23", "fig24", "fig25",
        "text-range", "text-sync", "text-chirp",
        "ext-xsm", "ext-protocol", "ext-scaling", "ext-aps", "ext-campaign",
        "ext-sweep", "ext-distributed",
    }
    assert set(EXPERIMENT_IDS) == expected


def test_unknown_experiment_id():
    with pytest.raises(KeyError, match="fig18"):
        get_experiment("fig99")


def test_summary_renders():
    result = run_experiment("text-sync")
    text = result.summary()
    assert "text-sync" in text
    assert "paper=" in text and "measured=" in text
    assert "PASS" in text


def test_ext_scaling_reads_its_term_counts_from_the_kernel():
    from repro import telemetry

    with telemetry.recording() as recorder:
        result = run_experiment("ext-scaling")
    measured = result.measured
    small, large = measured["terms_per_epoch_16_nodes"], measured["terms_per_epoch_64_nodes"]
    # At least every measured edge is evaluated each epoch: 42 edges on
    # the 4x4 grid, 210 on the 8x8 one (range 16 m, spacing 10 m).
    assert small >= 42 and large >= 210
    assert measured["terms_per_epoch_growth_16_to_64"] == pytest.approx(large / small)
    # The counted runs still reach an enclosing trace.
    assert recorder.counters["engine.batch.lss_solves"] == 2
    assert recorder.counters["engine.batch.lss_terms"] > 0
