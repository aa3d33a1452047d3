"""Tests for the content-addressed result store.

The load-bearing guarantees: a cache hit reconstructs results
*bit-identically* (records and aggregates exactly equal to the cold
run, NaN included); any spec change or code-version bump changes the
key and forces a cold run; and concurrent writers cannot corrupt an
entry (tmp-file staging + atomic rename).
"""

import gzip
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine import CampaignResult, ConfidenceStop, TrialRecord, run_adaptive
from repro.engine.scheduler import ScheduledCampaignResult
from repro.errors import ValidationError
from repro.ranging import gaussian_ranges
from repro.store import (
    STORE_ENV_VAR,
    ResultStore,
    campaign_from_payload,
    campaign_to_payload,
    default_code_version,
    default_store_root,
    measurement_set_from_payload,
    measurement_set_to_payload,
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store", code_version="test-1")


class TestKeying:
    def test_key_is_sha256_hex(self, store):
        key = store.key_for({"a": 1})
        assert len(key) == 64 and int(key, 16) >= 0

    def test_key_depends_on_description(self, store):
        assert store.key_for({"a": 1}) != store.key_for({"a": 2})

    def test_key_ignores_dict_ordering(self, store):
        assert store.key_for({"a": 1, "b": 2.5}) == store.key_for({"b": 2.5, "a": 1})

    def test_code_version_bump_changes_key(self, tmp_path):
        a = ResultStore(tmp_path, code_version="v1")
        b = ResultStore(tmp_path, code_version="v2")
        assert a.key_for({"x": 1}) != b.key_for({"x": 1})

    def test_default_code_version_tracks_library(self):
        import repro

        assert repro.__version__ in default_code_version()

    def test_bad_key_rejected(self, store):
        with pytest.raises(ValidationError):
            store.path_for("not-a-key")
        with pytest.raises(ValidationError):
            store.get("abc")


class TestRoundTrip:
    def test_get_miss_then_put_then_hit(self, store):
        key = store.key_for({"workload": "x"})
        assert store.get(key) is None
        store.put(key, {"value": [1.5, float("nan"), 2.0]})
        payload = store.get(key)
        assert payload["value"][0] == 1.5
        assert np.isnan(payload["value"][1])
        assert store.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "invalidations": 0,
        }

    def test_floats_round_trip_bit_identically(self, store):
        values = [0.1 + 0.2, 1.0 / 3.0, 1e-300, np.nextafter(1.0, 2.0)]
        key = store.key_for("floats")
        store.put(key, {"v": values})
        assert store.get(key)["v"] == values

    def test_put_is_deterministic_bytes(self, store):
        key = store.key_for("det")
        store.put(key, {"a": 1.25, "b": "x"})
        first = store.path_for(key).read_bytes()
        store.put(key, {"b": "x", "a": 1.25})
        assert store.path_for(key).read_bytes() == first

    def test_corrupt_entry_is_a_self_healing_miss(self, store):
        key = store.key_for("corrupt")
        store.put(key, {"ok": True})
        store.path_for(key).write_bytes(b"\x1f\x8b garbage")
        assert store.get(key) is None
        assert not store.contains(key)
        store.put(key, {"ok": True})
        assert store.get(key) == {"ok": True}


class TestDefaultStoreRoot:
    _default = Path.home() / ".cache" / "repro" / "store"

    def test_unset_uses_default_location(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert default_store_root() == self._default

    def test_set_relocates(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path))
        assert default_store_root() == tmp_path

    @pytest.mark.parametrize("value", ["off", "0", "none", " OFF ", "None"])
    def test_documented_sentinels_disable(self, monkeypatch, value):
        monkeypatch.setenv(STORE_ENV_VAR, value)
        assert default_store_root() is None

    @pytest.mark.parametrize("value", ["", "   "])
    def test_empty_value_means_unset_not_disabled(self, monkeypatch, value):
        """Regression: an empty REPRO_STORE_DIR conventionally means
        *unset* (e.g. `REPRO_STORE_DIR= python -m repro ...`), and must
        fall back to the default location instead of silently disabling
        the store."""
        monkeypatch.setenv(STORE_ENV_VAR, value)
        assert default_store_root() == self._default

    def test_whitespace_padding_is_stripped_from_the_path(self, monkeypatch, tmp_path):
        """Regression: the off/empty checks ran on the *stripped* value
        but the returned path was built from the raw string, so
        `REPRO_STORE_DIR=" /data/store "` yielded a whitespace-padded
        root directory."""
        monkeypatch.setenv(STORE_ENV_VAR, f"  {tmp_path}  ")
        assert default_store_root() == tmp_path


class TestInvalidation:
    def test_invalidate_and_clear(self, store):
        keys = [store.key_for(i) for i in range(3)]
        for key in keys:
            store.put(key, {"i": 1})
        assert len(store) == 3
        assert store.invalidate(keys[0]) is True
        assert store.invalidate(keys[0]) is False
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


class TestConcurrency:
    def test_concurrent_writers_do_not_corrupt(self, store):
        """Many threads racing to publish the same key: the entry must
        always be complete and equal to the (shared) payload."""
        key = store.key_for("contended")
        payload = {"values": [float(i) * 0.1 for i in range(200)]}
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                barrier.wait()
                for _ in range(10):
                    store.put(key, payload)
                    got = store.get(key)
                    assert got == payload
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.get(key) == payload
        # Staging files must not leak.
        assert not list(store.root.rglob("*.tmp"))

    def test_heal_does_not_delete_concurrently_republished_entry(
        self, store, monkeypatch
    ):
        """Regression: the corrupt-entry heal path used a bare
        ``path.unlink()``, which could race with a concurrent writer's
        ``os.replace`` and delete the freshly republished *healthy*
        entry.  Simulate the race deterministically: the reader's first
        read fails (as if it caught a corrupt entry), but by the time it
        goes to remove the file, a writer has already republished
        healthy bytes — which must survive (and are in fact returned)."""
        import repro.store.result_store as rs

        key = store.key_for("raced")
        payload = {"values": [1.5, 2.5]}
        store.put(key, payload)

        real_decompress = rs.gzip.decompress
        failed = {"done": False}

        def torn_first_read(*args, **kwargs):
            if not failed["done"]:
                failed["done"] = True
                raise OSError("simulated torn read of a corrupt entry")
            return real_decompress(*args, **kwargs)

        monkeypatch.setattr(rs.gzip, "decompress", torn_first_read)
        assert store.get(key) == payload  # verified healthy and restored
        monkeypatch.undo()
        assert store.contains(key)
        assert store.get(key) == payload
        assert not list(store.root.rglob("*.quarantine"))

    def test_heal_removes_genuinely_corrupt_entry(self, store):
        key = store.key_for("corrupt-for-real")
        store.put(key, {"ok": True})
        store.path_for(key).write_bytes(b"\x1f\x8b not gzip")
        assert store.get(key) is None
        assert not store.contains(key)
        assert not list(store.root.rglob("*.quarantine"))

    def test_concurrent_heal_vs_publish_never_loses_the_entry(self, store):
        """Writers republishing while readers corrupt-and-heal the same
        key: whatever interleaving occurs, a final publish must land and
        read back intact, and no quarantine staging files may leak."""
        key = store.key_for("heal-race")
        payload = {"values": [float(i) * 0.25 for i in range(64)]}
        store.put(key, payload)
        path = store.path_for(key)
        stop = threading.Event()
        errors = []

        def writer():
            try:
                while not stop.is_set():
                    store.put(key, payload)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def corruptor():
            try:
                while not stop.is_set():
                    try:
                        path.write_bytes(b"\x1f\x8b torn")
                    except OSError:
                        pass
                    store.get(key)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=corruptor) for _ in range(2)
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        store.put(key, payload)
        assert store.get(key) == payload
        assert not list(store.root.rglob("*.tmp"))
        assert not list(store.root.rglob("*.quarantine"))

    def test_entry_file_is_valid_gzip_json(self, store):
        key = store.key_for("wire")
        store.put(key, {"x": 1})
        with gzip.open(store.path_for(key), "rt") as fh:
            assert json.load(fh) == {"x": 1}


class TestCampaignSerialization:
    def _campaign(self):
        records = (
            TrialRecord(index=0, metrics={"err": 1.5, "frac": 0.5}),
            TrialRecord(index=1, metrics={"err": float("nan"), "frac": 1.0}),
            TrialRecord(index=2, metrics={"err": 1.0 / 3.0}),
        )
        return CampaignResult(master_seed=7, records=records)

    def test_campaign_round_trip_exact(self):
        result = self._campaign()
        rebuilt = campaign_from_payload(campaign_to_payload(result))
        assert type(rebuilt) is CampaignResult
        assert rebuilt.master_seed == result.master_seed
        assert rebuilt.records == result.records
        assert rebuilt.aggregate() == result.aggregate()

    def test_scheduled_campaign_round_trip(self):
        result = run_adaptive(
            _echo_trial,
            12,
            stopping=ConfidenceStop(metric="x", tolerance=10.0, min_trials=4),
            master_seed=3,
        )
        rebuilt = campaign_from_payload(campaign_to_payload(result))
        assert isinstance(rebuilt, ScheduledCampaignResult)
        assert rebuilt == result

    def test_json_wire_round_trip_preserves_nan(self):
        payload = campaign_to_payload(self._campaign())
        wire = json.loads(json.dumps(payload))
        rebuilt = campaign_from_payload(wire)
        assert np.isnan(rebuilt.records[1].metrics["err"])
        assert rebuilt.aggregate() == self._campaign().aggregate()

    def test_non_campaign_payload_rejected(self):
        with pytest.raises(ValidationError):
            campaign_from_payload({"type": "measurements", "measurements": []})


class TestMeasurementSetSerialization:
    def test_round_trip_preserves_edges_exactly(self):
        rng = np.random.default_rng(11)
        positions = rng.uniform(0.0, 40.0, size=(12, 2))
        measurements = gaussian_ranges(positions, max_range_m=18.0, rng=rng)
        rebuilt = measurement_set_from_payload(
            measurement_set_to_payload(measurements)
        )
        assert len(rebuilt) == len(measurements)
        original = [
            (m.source, m.receiver, m.distance, m.true_distance, m.round_index)
            for m in measurements
        ]
        copied = [
            (m.source, m.receiver, m.distance, m.true_distance, m.round_index)
            for m in rebuilt
        ]
        assert copied == original
        a = measurements.to_edge_list()
        b = rebuilt.to_edge_list()
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.weights, b.weights)

    def test_none_truth_preserved(self):
        from repro.core.measurements import MeasurementSet

        ms = MeasurementSet()
        ms.add_distance(0, 1, 4.5)
        rebuilt = measurement_set_from_payload(measurement_set_to_payload(ms))
        assert rebuilt.get(0, 1)[0].true_distance is None


def _echo_trial(rng):
    return {"x": float(rng.normal())}
