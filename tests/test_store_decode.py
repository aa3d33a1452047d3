"""The one-pass payload decoder against its streaming reference.

``decode_payload`` must read every entry the old streaming body read,
to the same payload, and reject every entry it rejected with a member
of ``CORRUPT_ERRORS`` — the signature the read, heal and sync paths
catch.  Damage that raises outside that tuple would crash a cache read
instead of healing it, so both backends are also swept with bit flips
and truncations through ``ResultStore.get``.
"""

import gzip
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _decode_oracle
from repro._canonical import canonical_json
from repro.engine.campaign import CampaignResult, TrialRecord
from repro.engine.scheduler import ScheduledCampaignResult
from repro.engine.sharding import ShardCampaignResult, ShardSpec
from repro.store import (
    ResultStore,
    campaign_to_payload,
    decode_payload,
    encode_payload,
    push,
    shard_to_payload,
)
from repro.store.backends import CORRUPT_ERRORS

_metric = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
_metrics = st.dictionaries(st.text(min_size=1, max_size=12), _metric, max_size=4)
_records = st.lists(_metrics, max_size=6).map(
    lambda rows: tuple(TrialRecord(index=i, metrics=m) for i, m in enumerate(rows))
)


@st.composite
def _payloads(draw):
    """Campaign, scheduled-campaign and shard payloads (non-ASCII ids)."""
    records = draw(_records)
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["campaign", "scheduled", "shard"]))
    if kind == "campaign":
        return campaign_to_payload(CampaignResult(master_seed=seed, records=records))
    if kind == "scheduled":
        return campaign_to_payload(
            ScheduledCampaignResult(
                master_seed=seed,
                records=records,
                max_trials=len(records) + draw(st.integers(0, 8)),
                chunk_size=draw(st.integers(1, 8)),
                converged=draw(st.booleans()),
                stop_reason=draw(st.text(max_size=12)),
                half_width_trace=tuple(draw(st.lists(_metric, max_size=4))),
            )
        )
    n_shards = draw(st.integers(1, 4))
    shard = ShardCampaignResult(
        master_seed=seed,
        records=records,
        campaign_trials=len(records) * n_shards,
        shard=ShardSpec(index=draw(st.integers(0, n_shards - 1)), n_shards=n_shards),
    )
    context = {"scenario_id": draw(st.text(max_size=16)), "spec_hash": "ab" * 32}
    return shard_to_payload(shard, context=context)


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """*data* untouched, or with one kind of damage applied."""
    kind = draw(
        st.sampled_from(
            ["none", "flip", "truncate", "append", "zeros", "member", "blank-member"]
        )
    )
    if kind == "flip":
        out = bytearray(data)
        for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=3)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=24))
    if kind == "zeros":
        return data + bytes(draw(st.integers(1, 32)))
    if kind == "member":
        return data + encode_payload(draw(_payloads()))
    if kind == "blank-member":
        return data + gzip.compress(draw(st.sampled_from([b"", b" ", b"\n\t "])))
    return data


def _outcome(decode, data):
    try:
        return "ok", canonical_json(decode(data))
    except CORRUPT_ERRORS as exc:
        return "corrupt", type(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_matches_streaming_reference(data):
    """Equal payloads (NaN-tolerant, via canonical JSON) where either
    reads; ``CORRUPT_ERRORS`` from both where either fails."""
    entry = data.draw(_damaged(encode_payload(data.draw(_payloads()))))
    got, want = _outcome(decode_payload, entry), _outcome(_decode_oracle.decode_payload, entry)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1] == want[1]


@given(_payloads())
@settings(max_examples=60, deadline=None)
def test_round_trip_of_every_payload_kind(payload):
    assert canonical_json(decode_payload(encode_payload(payload))) == canonical_json(payload)


def _entry_payload():
    result = CampaignResult(
        master_seed=11,
        records=tuple(
            TrialRecord(
                index=i,
                metrics={"mean_error_m": 0.37 * i + 0.01, "fraction_localized": 1.0 - i / 40},
            )
            for i in range(24)
        ),
    )
    return campaign_to_payload(result)


@pytest.mark.parametrize("backend", ["filesystem", "sqlite"])
def test_damaged_entry_heals_and_never_raises(tmp_path, backend):
    """A seeded sweep of single-bit flips and truncations of a stored
    entry: ``get`` returns the payload or ``None``, never raises, and
    leaves no corrupt entry behind.  Some of the flips land in the
    deflate body and make zlib itself fail (``zlib.error``)."""
    root = tmp_path / ("store" if backend == "filesystem" else "store.sqlite")
    store = ResultStore(root, code_version="test-1")
    payload = _entry_payload()
    key = store.key_for("damaged")
    good = encode_payload(payload)
    rng = random.Random(20261020)
    damaged = []
    for _ in range(300):
        bit = rng.randrange(8 * len(good))
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(flipped))
    damaged += [good[:cut] for cut in rng.sample(range(len(good)), 40)]

    zlib_errors = 0
    for entry in damaged:
        try:
            decode_payload(entry)
        except zlib.error:
            zlib_errors += 1
        except CORRUPT_ERRORS:
            pass
        store.backend.write_bytes(key, entry)
        got = store.get(key)
        assert got is None or canonical_json(got) == canonical_json(payload)
        left = store.get_bytes(key)
        if got is None:
            assert left is None
        else:
            assert canonical_json(decode_payload(left)) == canonical_json(payload)
    assert zlib_errors > 0
    if backend == "filesystem":
        assert not list(root.rglob("*.quarantine"))


def _zlib_damaged(good: bytes) -> bytes:
    """The first single-bit flip of *good* that makes zlib itself fail."""
    for bit in range(8 * len(good)):
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            decode_payload(bytes(flipped))
        except zlib.error:
            return bytes(flipped)
        except CORRUPT_ERRORS:
            continue
    raise AssertionError("no flip damages the deflate body")


@pytest.mark.parametrize("backend", ["filesystem", "sqlite"])
def test_sync_skips_a_damaged_deflate_body(tmp_path, backend):
    root = tmp_path / ("src" if backend == "filesystem" else "src.sqlite")
    src = ResultStore(root, code_version="test-1")
    dst = ResultStore(tmp_path / "dst", code_version="test-1")
    key = src.key_for("damaged")
    src.backend.write_bytes(key, _zlib_damaged(encode_payload(_entry_payload())))
    report = push(src, dst)
    assert report.skipped_corrupt == (key,)
    assert not dst.contains(key)
