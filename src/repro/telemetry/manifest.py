"""Per-run manifest: who/where/what produced a trace.

The manifest is the first line of every trace file.  This module
supplies the environment-derived base fields (host, platform,
interpreter, library versions, timestamp); run-specific fields —
scenario id, spec hash, master seed, code version, store backend —
are layered on top by the caller through
:meth:`repro.telemetry.TraceRecorder.set_manifest`.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from typing import Any, Dict, Optional

__all__ = ["base_manifest"]


def base_manifest(now: Optional[float] = None) -> Dict[str, Any]:
    """Environment fields every manifest carries.

    ``now`` injects the ``created_unix`` stamp (unix seconds) so tests
    are not time-dependent — the same seam as ``store/gc.py``; the
    default is the real clock.
    """
    import numpy

    from .. import __version__

    return {
        "created_unix": time.time() if now is None else float(now),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_version": __version__,
        "pid": os.getpid(),
    }
