"""The shape of a warm ``run_scenario`` recall, counted rather than timed.

A store hit should derive the spec's canonical form from the instance's
memo (no ``dataclasses.asdict``) and decode the entry once.  The memo
must never leak: ``canonical()`` hands out fresh dicts, and hashes are
the same whether a spec was memoized, replaced, overridden or pickled.
"""

import copy
import dataclasses
import pickle

import pytest

import repro.store.result_store as result_store
from repro._canonical import canonical_json, sha256_hex
from repro.scenarios import get_scenario, run_scenario
from repro.store import ResultStore


def _reference_hash(spec) -> str:
    """The content address computed from the fields, bypassing any memo."""
    form = dataclasses.asdict(spec)
    form.pop("scenario_id")
    return sha256_hex(canonical_json(form))


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("backend", ["filesystem", "sqlite"])
def test_warm_recall_builds_no_form_and_decodes_once(tmp_path, monkeypatch, backend):
    root = tmp_path / ("store" if backend == "filesystem" else "store.sqlite")
    store = ResultStore(root, code_version="v1")
    spec = get_scenario("uniform-multilateration")
    cold = run_scenario(spec, master_seed=2, n_trials=2, store=store)
    run_scenario(spec, master_seed=2, n_trials=2, store=store)

    asdict_calls = _counting(monkeypatch, dataclasses, "asdict")
    decode_calls = _counting(monkeypatch, result_store, "decode_payload")
    warm = run_scenario(spec, master_seed=2, n_trials=2, store=store)
    assert (len(asdict_calls), len(decode_calls)) == (0, 1)
    assert warm.records == cold.records
    assert store.stats.hits == 2


def test_canonical_returns_a_fresh_dict():
    spec = get_scenario("town-distributed-lss")
    before, digest = spec.canonical(), spec.spec_hash()
    form = spec.canonical()
    form["n_trials"] = -1
    form["solver"]["restarts"] = -1
    form["deployment"].clear()
    form.pop("ranging")
    assert spec.canonical() == before
    assert spec.spec_hash() == digest == _reference_hash(spec)


def test_hash_survives_replace_overrides_and_pickling():
    spec = get_scenario("town-lss")
    digest = spec.spec_hash()  # populates the memo
    renamed = dataclasses.replace(spec, scenario_id="renamed")
    assert renamed.spec_hash() == digest
    overridden = spec.with_overrides(**{"ranging.sigma_m": 0.1})
    assert overridden.spec_hash() == _reference_hash(overridden) != digest
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == spec and restored.spec_hash() == digest
    assert copy.deepcopy(spec).spec_hash() == digest
    assert overridden.with_overrides(**{"ranging.sigma_m": spec.ranging.sigma_m}).spec_hash() == digest


def test_pickle_carries_fields_only():
    """A memoized spec pickles to the same bytes as a fresh one."""
    fresh = get_scenario("town-lss").with_overrides(n_trials=5)
    memoized = get_scenario("town-lss").with_overrides(n_trials=5)
    memoized.canonical()
    assert pickle.dumps(memoized) == pickle.dumps(fresh)
