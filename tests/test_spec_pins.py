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
    "uniform-multilateration": "3b70991fa4a74b4bd51604e84ac3b25430e31625170def15dc47c723c7ebf67c",
    "town-multilateration": "ccc2049190142536003daeebe12780bf734333ed5d161d6401373fbab90216ef",
    "town-lss": "11c77091093fe62266570f6170c7156e2f34b1878713302961484cd0a8298265",
    "town-distributed-lss": "c4ae9024c4709e0a3e6dc5e6dbde4ce592c6901c052dd7a50f03503adce01e41",
    "grid-distributed-lss": "afcb7f20b1061b75a57339ccd9dd52f0baf106a3a91a2225bd51d421c65d8358",
    "uniform-sparse-multilateration": "be75d0cb17f87a4f25e4734239322aa477f8c2a46fc2f0695d47a16023f18ce3",
    "uniform-dense-multilateration": "90a1e3a50f168ecbe774698f7591e5dcaad54b3523232072e55c217a354fbe4d",
    "uniform-noisy-multilateration": "ee9ecba6c2f49852cdb4a4947e274353fa87576e98ef7901989ab4973a9784ab",
    "paper-grid-multilateration": "9d46f9d75bac3ea4fc25f0b7b00f7a3e9a3b2b288859a7e542f157a73d6d60be",
    "uniform-dv-hop": "e9769bd09345e4d2ea5fcf7035d41b9403f45e5e5a4957f7c260d142504c3f0b",
    "acoustic-grass-grid": "10b2fe431b138424aa2f40ff0865c38ed250f79c0a53a3bb1f4bbf3060a56d4a",
    "acoustic-urban-grid": "434b147dc813c47c46cd47fd59ab00a3fea59df9024d9b7184e8feee470b5797",
}

#: Store key and SHA-256 of the stored bytes of ``uniform-multilateration``
#: run for 2 trials at master seed 0 under code version "v1".
CAMPAIGN_KEY = "2c19a8c6171425e6af2ce83ecd5c5535ed57b2b32a5ad3f0eb993dea535d875d"
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
