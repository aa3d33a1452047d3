"""Reference body for the store's payload decoder.

:func:`decode_payload` is the body ``repro.store.result_store.decode_payload``
had before it decoded an entry in one pass: a streaming text reader over
``gzip.open``.  ``tests/test_store_decode.py`` checks that the production
decoder returns the same payload for every entry this one reads, and
fails with a member of ``CORRUPT_ERRORS`` wherever this one fails.
"""

from __future__ import annotations

import gzip
import io
import json
from typing import Any, Dict


def decode_payload(data: bytes) -> Dict[str, Any]:
    with gzip.open(io.BytesIO(data), "rt", encoding="utf-8") as fh:
        return json.load(fh)
