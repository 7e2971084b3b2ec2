"""Exception hierarchy for the repro package.

Shared infrastructure across every layer of the reproduction; not tied
to a single paper section.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid machine, mode, or algorithm configuration."""


class CapacityError(ReproError):
    """An allocation or plan exceeds a device's capacity."""


class PlanError(ReproError):
    """A timing plan is malformed (empty phase, negative bytes, ...)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class StoreError(ReproError):
    """The on-disk result store cannot satisfy a request
    (see :mod:`repro.experiments.store`)."""


class StoreMissError(StoreError):
    """A replay found cells missing from the result store.

    Replay mode (``repro-knl replay``) renders artifacts purely from
    stored results — it never invokes the engine — so a cold store is
    a hard error, not a silent recompute. The message and
    :attr:`missing` name every absent ``config_hash`` so the user can
    warm the store with the corresponding normal run.

    Parameters
    ----------
    message:
        Human-readable description naming the sweep function.
    missing:
        The ``config_hash`` keys absent from the store.
    """

    def __init__(self, message: str, missing: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.missing = tuple(missing)

