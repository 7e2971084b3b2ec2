"""Max-min fair bandwidth allocation over shared memory resources.

A *resource* is anything with a byte/s capacity: the DDR4 channels, the
MCDRAM stacks, or the on-die mesh. A *flow* is a pool of threads
streaming data through one or more resources — for example the paper's
copy-in pool reads DDR and writes MCDRAM, so a copy-in flow traverses
both devices.

The allocator implements *progressive filling* (water-filling): every
unfrozen flow's rate grows at the same pace until either

* the flow reaches its own cap ``threads * per_thread_rate`` — this is
  the paper's ``p * S`` term (Eqs. 3 and 5 first branch), or
* some resource saturates, freezing every flow through it at its
  current rate — the paper's bandwidth-share branch (Eqs. 3 and 5
  second branch).

The result is the unique max-min fair allocation, which coincides with
the paper's closed-form model in every regime its evaluation visits,
and extends it to arbitrarily many pools and resources.

Flows may consume resources at different *multipliers*: a flow whose
logical rate is ``r`` consumes ``r * mult[res]`` on each resource it
traverses. This expresses, e.g., cache-mode phases where each logical
byte induces 1 byte of MCDRAM traffic plus ``miss_ratio`` bytes of DDR
traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import PlanError

#: Relative tolerance used when comparing rates and capacities.
_EPS = 1e-12


@dataclass(frozen=True)
class Resource:
    """A bandwidth-capacity shared resource.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"ddr"`` or ``"mcdram"``.
    capacity:
        Sustainable bandwidth in bytes per second. ``math.inf`` models
        an unconstrained resource.
    """

    name: str
    capacity: float

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanError("resource name must be non-empty")
        if self.capacity <= 0:
            raise PlanError(
                f"resource {self.name!r} capacity must be positive, "
                f"got {self.capacity}"
            )


@dataclass(frozen=True, slots=True)
class Flow:
    """A thread pool streaming bytes through a set of resources.

    Flows are immutable values: the engine keeps its own byte counters,
    so one flow can be run any number of times, and its
    :attr:`signature` is computed once, at construction.

    Parameters
    ----------
    name:
        Display name, e.g. ``"copy-in"``.
    threads:
        Number of threads in the pool.
    per_thread_rate:
        Maximum logical rate a single thread can sustain when no
        resource is saturated (the paper's ``S_copy`` / ``S_comp``),
        in bytes/s.
    resources:
        Mapping from resource name to demand multiplier. A logical
        rate ``r`` consumes ``r * mult`` bytes/s of each resource.
    bytes_total:
        Logical bytes this flow must move before it completes.
    """

    name: str
    threads: int
    per_thread_rate: float
    resources: Mapping[str, float]
    bytes_total: float
    #: Structural signature: everything :func:`allocate_rates` reads
    #: except identity and byte demand. Two flows with equal signatures
    #: receive identical rates in identical contexts, which is what lets
    #: the engine memoize the water-filling solve across phases and
    #: runs, and what cross-cell lowering uses to detect structurally
    #: identical phases.
    signature: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.threads < 0:
            raise PlanError(f"flow {self.name!r}: negative thread count")
        if self.per_thread_rate < 0:
            raise PlanError(f"flow {self.name!r}: negative per-thread rate")
        if self.bytes_total < 0:
            raise PlanError(f"flow {self.name!r}: negative byte demand")
        for res, mult in self.resources.items():
            if mult < 0:
                raise PlanError(
                    f"flow {self.name!r}: negative multiplier for {res!r}"
                )
        object.__setattr__(
            self,
            "signature",
            (
                self.threads,
                self.per_thread_rate,
                tuple(sorted(self.resources.items())),
            ),
        )

    @property
    def rate_cap(self) -> float:
        """Aggregate cap in logical bytes/s (``threads * per_thread_rate``)."""
        return self.threads * self.per_thread_rate


def allocate_rates(
    flows: list[Flow], resources: Mapping[str, Resource]
) -> dict[int, float]:
    """Compute the max-min fair rate for each flow.

    Returns a dict keyed by ``id(flow)`` mapping to the allocated
    logical rate in bytes/s. Flows with a zero rate cap (no threads or
    zero per-thread rate) are allocated exactly zero.

    Raises
    ------
    PlanError
        If a flow references an unknown resource.
    """
    for f in flows:
        for res in f.resources:
            if res not in resources:
                raise PlanError(
                    f"flow {f.name!r} references unknown resource {res!r}"
                )

    rates: dict[int, float] = {id(f): 0.0 for f in flows}
    active = [f for f in flows if f.rate_cap > 0.0]
    # Remaining capacity per resource given currently frozen rates.
    used: dict[str, float] = {name: 0.0 for name in resources}

    while active:
        # Smallest uniform increment that freezes something.
        delta = math.inf
        for f in active:
            delta = min(delta, f.rate_cap - rates[id(f)])
        for name, res in resources.items():
            if math.isinf(res.capacity):
                continue
            weight = sum(
                f.resources.get(name, 0.0)
                for f in active
                if name in f.resources
            )
            if weight > 0.0:
                headroom = res.capacity - used[name]
                delta = min(delta, headroom / weight)
        if math.isinf(delta):
            # Only cap-free growth remains, which cannot happen because
            # every active flow has a finite cap.
            raise PlanError("unbounded allocation: flow without a cap")
        delta = max(delta, 0.0)

        for f in active:
            rates[id(f)] += delta
            for name, mult in f.resources.items():
                used[name] += delta * mult

        # Freeze flows at their cap.
        still_active = []
        saturated: set[str] = set()
        for name, res in resources.items():
            if not math.isinf(res.capacity):
                if used[name] >= res.capacity * (1.0 - _EPS) - _EPS:
                    saturated.add(name)
        for f in active:
            at_cap = rates[id(f)] >= f.rate_cap * (1.0 - _EPS)
            on_saturated = any(
                name in saturated and mult > 0.0
                for name, mult in f.resources.items()
            )
            if not (at_cap or on_saturated):
                still_active.append(f)
        if len(still_active) == len(active):
            # Numerical safety: force progress by freezing the most
            # constrained flow. Should be unreachable.
            raise PlanError("water-filling failed to make progress")
        active = still_active

    return rates


def aggregate_rate(
    threads: int, per_thread_rate: float, shared_capacity: float
) -> float:
    """The paper's Eq. 3 in closed form for a single pool on one resource.

    ``min(threads * per_thread_rate, shared_capacity)`` — the aggregate
    copy rate of ``threads`` copy threads against a device of capacity
    ``shared_capacity``.
    """
    if threads < 0:
        raise PlanError("negative thread count")
    return min(threads * per_thread_rate, shared_capacity)
