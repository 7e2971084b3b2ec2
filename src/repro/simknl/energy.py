"""Energy accounting for memory traffic.

The paper's introduction motivates multilevel memory with energy as
well as performance ("moving data is becoming relatively more costly
than arithmetic ... in terms of performance and energy efficiency").
This module attaches per-byte access energies to the devices and
converts a run's traffic counters into joules, enabling the
energy-delay comparisons in the extended experiments.

Default per-bit figures follow common architectural estimates for the
KNL generation: ~5 pJ/bit for on-package MCDRAM, ~15 pJ/bit for
off-package DDR4 (I/O + DRAM core), i.e. on-package traffic is ~3x
cheaper per byte.

Supports the introduction's (Section 1) energy motivation for
multilevel memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.simknl.engine import RunResult

#: Default access energies in joules per byte (8 bits/byte).
DEFAULT_ENERGY_PER_BYTE = {
    "mcdram": 5e-12 * 8,
    "ddr": 15e-12 * 8,
    "nvm": 60e-12 * 8,
}

#: Idle (background/refresh) power in watts charged for the run's
#: duration, per device *present in the run*.
DEFAULT_IDLE_POWER = {
    "mcdram": 5.0,
    "ddr": 8.0,
    "nvm": 1.0,
}


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one run."""

    dynamic_joules: dict[str, float]
    idle_joules: dict[str, float]
    elapsed: float

    @property
    def total_joules(self) -> float:
        """Dynamic + idle energy across all devices."""
        return sum(self.dynamic_joules.values()) + sum(
            self.idle_joules.values()
        )

    @property
    def energy_delay_product(self) -> float:
        """EDP in joule-seconds — the usual efficiency figure of merit."""
        return self.total_joules * self.elapsed


class EnergyModel:
    """Convert run traffic into energy.

    Parameters
    ----------
    energy_per_byte:
        J/byte per resource name; unknown resources cost zero.
    idle_power:
        Watts of background power per device, charged for the whole
        run duration.

    Idle power is charged only for devices *present in the run* — a
    device counts as present when it appears in ``result.traffic``
    (the engine seeds a traffic entry for every attached resource,
    moved bytes or not). A run on a node with no NVM device therefore
    pays no NVM idle power. To model always-on hardware that the run's
    resource set does not mention, pass an explicit ``devices=``
    iterable to :meth:`report`/:meth:`report_many`: exactly those
    devices (intersected with ``idle_power``) are charged.
    """

    def __init__(
        self,
        energy_per_byte: dict[str, float] | None = None,
        idle_power: dict[str, float] | None = None,
    ) -> None:
        self.energy_per_byte = dict(
            energy_per_byte
            if energy_per_byte is not None
            else DEFAULT_ENERGY_PER_BYTE
        )
        self.idle_power = dict(
            idle_power if idle_power is not None else DEFAULT_IDLE_POWER
        )
        for name, v in self.energy_per_byte.items():
            if v < 0:
                raise ConfigError(f"negative energy for {name!r}")
        for name, v in self.idle_power.items():
            if v < 0:
                raise ConfigError(f"negative idle power for {name!r}")

    def _idle_devices(
        self, result: RunResult, devices: Iterable[str] | None
    ) -> list[str]:
        """Devices to charge idle power for, in ``idle_power`` order."""
        if devices is None:
            return [d for d in self.idle_power if d in result.traffic]
        chosen = set(devices)
        return [d for d in self.idle_power if d in chosen]

    def report(
        self, result: RunResult, devices: Iterable[str] | None = None
    ) -> EnergyReport:
        """Energy breakdown for a completed run.

        ``devices`` overrides which devices pay idle power (see the
        class docstring); by default only devices present in
        ``result.traffic`` are charged.
        """
        dynamic = {
            res: nbytes * self.energy_per_byte.get(res, 0.0)
            for res, nbytes in result.traffic.items()
        }
        idle = {
            dev: self.idle_power[dev] * result.elapsed
            for dev in self._idle_devices(result, devices)
        }
        return EnergyReport(
            dynamic_joules=dynamic, idle_joules=idle, elapsed=result.elapsed
        )

    def report_many(
        self,
        results: Sequence[RunResult],
        devices: Iterable[str] | None = None,
    ) -> list[EnergyReport]:
        """:meth:`report` for each run, in order."""
        return [self.report(r, devices) for r in results]
