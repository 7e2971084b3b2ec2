"""Hardware design-space exploration with the Section 3.2 model.

The paper's conclusion: "using a variation of the model, we will
explore alternative configurations that may be possible in future
technologies, in hopes of suggesting more optimal design points for
both hardware and applications." This module does exactly that: sweep
hypothetical device bandwidths and thread budgets, and for each point
report the best achievable time, the optimal copy-thread split, and
whether the workload is copy- or compute-bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.model.optimizer import optimal_copy_threads
from repro.model.params import ModelParams


def pareto_front(points) -> list[bool]:
    """Mask of the minimization Pareto front of ``points``.

    ``points`` is a non-empty sequence of equal-length, NaN-free
    objective vectors, every objective minimized. A point is on the
    front when no other point is at least as good in every objective
    and strictly better in one. Duplicates of a front point are all
    kept (neither strictly dominates the other).

    The points are visited in lexicographic order and each is tested
    only against the front found so far. That is exact: dominance is
    transitive, so a dominated point has a dominator on the front, and
    a dominator sorts before the point it dominates.
    """
    vectors = [tuple(p) for p in points]
    if not vectors or not vectors[0] or any(
        len(v) != len(vectors[0]) for v in vectors
    ):
        raise ConfigError("points must be a non-empty (n, k) array")
    mask = [False] * len(vectors)
    front: list[tuple] = []
    for i in sorted(range(len(vectors)), key=vectors.__getitem__):
        v = vectors[i]
        for f in front:
            if f != v and all(map(operator.le, f, v)):
                break  # dominated
        else:
            mask[i] = True
            front.append(v)
    return mask


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated hardware configuration."""

    ddr_max: float
    mcdram_max: float
    total_threads: int
    passes: float
    best_p_in: int
    best_time: float
    copy_bound: bool

    @property
    def bandwidth_ratio(self) -> float:
        """Near-memory to far-memory bandwidth ratio."""
        return self.mcdram_max / self.ddr_max


def evaluate_point(
    params: ModelParams,
    total_threads: int = 256,
    passes: float = 1.0,
) -> DesignPoint:
    """Optimal configuration of one hardware point."""
    res = optimal_copy_threads(params, total_threads, passes)
    return DesignPoint(
        ddr_max=params.ddr_max,
        mcdram_max=params.mcdram_max,
        total_threads=total_threads,
        passes=passes,
        best_p_in=res.p_in,
        best_time=res.t_total,
        copy_bound=res.best.copy_bound,
    )


def sweep_bandwidth_ratio(
    base: ModelParams | None = None,
    ratios: list[float] | None = None,
    total_threads: int = 256,
    passes: float = 1.0,
) -> list[DesignPoint]:
    """Vary MCDRAM bandwidth at fixed DDR bandwidth.

    Reveals where extra near-memory bandwidth stops helping: once the
    pipeline is copy-bound (DDR-limited), a faster MCDRAM buys
    nothing — the co-design argument for balancing levels.
    """
    base = base or ModelParams()
    if ratios is None:
        ratios = [1.0, 2.0, 3.0, 4.44, 6.0, 8.0, 16.0]
    points = []
    for r in ratios:
        if r <= 0:
            raise ConfigError("bandwidth ratio must be positive")
        p = replace(base, mcdram_max=base.ddr_max * r)
        points.append(evaluate_point(p, total_threads, passes))
    return points


def sweep_far_bandwidth(
    base: ModelParams | None = None,
    ddr_values: list[float] | None = None,
    total_threads: int = 256,
    passes: float = 1.0,
) -> list[DesignPoint]:
    """Vary DDR bandwidth at fixed MCDRAM bandwidth.

    Shows how far-memory bandwidth sets the copy-bound floor
    ``2 B / DDR_max`` (Eq. 2) for low-intensity kernels.
    """
    base = base or ModelParams()
    if ddr_values is None:
        ddr_values = [g * 1e9 for g in (45, 90, 135, 180, 270, 400)]
    points = []
    for bw in ddr_values:
        if bw <= 0:
            raise ConfigError("bandwidth must be positive")
        p = replace(base, ddr_max=bw)
        points.append(evaluate_point(p, total_threads, passes))
    return points


def crossover_passes(
    params: ModelParams | None = None,
    total_threads: int = 256,
    lo: float = 0.1,
    hi: float = 512.0,
    tol: float = 1e-3,
) -> float:
    """The compute intensity at which the best achievable time lifts
    off the copy floor ``2 B / DDR_max`` — the design point where the
    workload stops being data-movement limited and adding copy threads
    stops paying. Found by bisection; the lift-off predicate is
    monotone in ``passes`` (unlike the optimum's raw copy/compute flag,
    which flickers at the knee where both sides tie).
    """
    params = params or ModelParams()
    if not (0 < lo < hi):
        raise ConfigError("need 0 < lo < hi")
    floor = 2.0 * params.b_copy / params.ddr_max

    def on_floor(passes: float) -> bool:
        t = evaluate_point(params, total_threads, passes).best_time
        return t <= floor * (1 + 1e-6)

    if not on_floor(lo):
        return lo
    if on_floor(hi):
        return hi
    while hi - lo > tol * max(1.0, lo):
        mid = (lo + hi) / 2
        if on_floor(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
