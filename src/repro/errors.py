"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch a single base class.  Input-validation problems raise
:class:`ValidationError` (a subclass of :class:`ValueError` as well, for
compatibility with code that expects standard exceptions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised when an input fails validation (shape, range, type)."""


class DeploymentInfeasibleError(ValidationError):
    """Raised when a placement sampler gives up: it drew its whole
    candidate budget without placing every node at the requested
    separation.  The arguments were valid; that draw was too dense for
    random sequential placement."""


class InsufficientDataError(ReproError, ValueError):
    """Raised when an algorithm does not have enough measurements to
    produce a solution (e.g. fewer than three non-collinear anchors for
    multilateration, or an empty measurement set for LSS)."""


class GraphDisconnectedError(ReproError, RuntimeError):
    """Raised by the distributed localization pipeline when the
    measurement graph is disconnected and a full alignment flood cannot
    reach every node."""


class CalibrationError(ReproError, RuntimeError):
    """Raised when a ranging-service calibration step cannot be completed
    (e.g. no detections at any calibration distance)."""
