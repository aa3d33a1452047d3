"""Literal SHA-256 pins of the content addresses the store rests on.

Every registered scenario's :meth:`ScenarioSpec.spec_hash` and the
stored bytes of one small campaign are frozen here as literals, so a
change to the spec dataclasses, ``canonical()``, the key derivation or
the payload encoding that would orphan existing store entries fails
loudly instead of silently re-keying them.  A deliberate re-key edits
these literals and says why.
"""

import hashlib

import pytest

from repro.scenarios import all_scenarios, get_scenario, run_scenario
from repro.scenarios.runner import scenario_run_key
from repro.store import ResultStore

SPEC_HASHES = {
    "uniform-multilateration": "fdc1471813ba84adb9784bdb692cafe8a7cf238f417e41ca1e67759a3d647519",
    "town-multilateration": "3e18434e8b617148b7e8c282346e4e71b0f445f4ea9778ed4329ff628f939228",
    "town-lss": "f3f69ea234cce58ed6d2e0dc658f0b1d89329f6f7714eb3880e331043158eae3",
    "town-distributed-lss": "c217927425f09e1116204079e07580e630ff6a376c2be49135b4e123f0ff415b",
    "grid-distributed-lss": "0fb3a95bf9e7d6b86899d6cb9ecf4057ed4090437ddea550430c51c0b6ad79c7",
    "uniform-sparse-multilateration": "de792b18386ad1c072d0e324243e7cf159632670052a8b2818de79c5ce991f7c",
    "uniform-dense-multilateration": "bc44f42e5f4f1cd96fb4991f07bbbcef452ce091910c41da3038c02a9c893a1d",
    "uniform-noisy-multilateration": "ae0fddf61f01ed5bde6482ac041153b6538f15d570a2db6473d0b4b2948d062e",
    "paper-grid-multilateration": "ab5df684cdc39504d88cab41a81ee96f993468c3bb144010d37ca6f0913baa45",
    "uniform-dv-hop": "d5de0843e6c846f96bd00f3c29b562a9a6dd813f30bae24443c5c942478b7391",
    "acoustic-grass-grid": "5f537183b5374a5a8a3ba81320b1536481afe977268391e6c77f0be27d4bf492",
    "acoustic-urban-grid": "b6680078b31c0aeb8146e90a5dd54c333bf723e7d8633ba634665893aa8993ac",
}

#: Store key and SHA-256 of the stored bytes of ``uniform-multilateration``
#: run for 2 trials at master seed 0 under code version "v1".
CAMPAIGN_KEY = "9f17dedb20cd15b12d21cf4b568f99d1572350db1a8f89d63f96278f95fbbc46"
CAMPAIGN_BYTES_SHA256 = "401750545d46766262945996e66681f98779b8eef22ef420aae7917e6fbaab4b"


def test_every_registered_scenario_is_pinned():
    assert sorted(all_scenarios()) == sorted(SPEC_HASHES)


@pytest.mark.parametrize("scenario_id", sorted(SPEC_HASHES))
def test_spec_hash_pinned(scenario_id):
    assert get_scenario(scenario_id).spec_hash() == SPEC_HASHES[scenario_id]


def test_campaign_store_key_and_payload_bytes_pinned(tmp_path):
    store = ResultStore(tmp_path, code_version="v1")
    spec = get_scenario("uniform-multilateration")
    run_scenario(spec, master_seed=0, n_trials=2, store=store)
    key = store.key_for(scenario_run_key(spec, master_seed=0, n_trials=2))
    assert key == CAMPAIGN_KEY
    assert list(store.iter_keys()) == [CAMPAIGN_KEY]
    assert hashlib.sha256(store.get_bytes(key)).hexdigest() == CAMPAIGN_BYTES_SHA256
