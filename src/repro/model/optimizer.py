"""Search for the near-optimal number of copy threads (Table 3).

The paper fixes the total thread budget (one hardware thread per
core-slot given to the kernel) and asks: how many of them should copy?
:func:`optimal_copy_threads` sweeps ``p_in`` (with ``p_out = p_in`` and
``p_comp = budget - 2 p_in``), evaluates Eq. 1 for each split, and
returns the argmin — reproducing the "Model" column of Table 3.
:func:`sweep_copy_threads` returns the full curve behind Fig. 8(a).
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.model.analytic import ModelPrediction, predict
from repro.model.params import ModelParams


@dataclass(frozen=True)
class OptimizerResult:
    """Best split found by the model sweep.

    The inputs of the sweep are kept so the full :attr:`curve` is built
    only when something reads it: the drivers read only :attr:`best`.
    """

    best: ModelPrediction
    params: ModelParams
    total_threads: int
    passes: float
    p_in_values: tuple[int, ...] | None = None

    @functools.cached_property
    def curve(self) -> tuple[ModelPrediction, ...]:
        """Every candidate's prediction, as :func:`sweep_copy_threads`."""
        return tuple(
            sweep_copy_threads(
                self.params, self.total_threads, self.passes, self.p_in_values
            )
        )

    @property
    def p_in(self) -> int:
        """Optimal copy-in thread count (same number copy out)."""
        return self.best.p_in

    @property
    def t_total(self) -> float:
        """Predicted execution time at the optimum."""
        return self.best.t_total


def _feasible_splits(
    total_threads: int, p_in_values: Sequence[int] | None
) -> list[int]:
    """The candidate ``p_in`` values that leave at least one compute
    thread."""
    if total_threads < 3:
        raise ConfigError("need at least 3 threads (1 compute + 1 in + 1 out)")
    if p_in_values is None:
        return list(range(1, (total_threads - 1) // 2 + 1))
    p_ins = [p_in for p_in in p_in_values if total_threads - 2 * p_in >= 1]
    if not p_ins:
        raise ConfigError("no feasible thread split")
    if min(p_ins) < 0:
        raise ConfigError("copy thread counts must be non-negative")
    return p_ins


def sweep_copy_threads(
    params: ModelParams,
    total_threads: int = 256,
    passes: float = 1.0,
    p_in_values: Sequence[int] | None = None,
) -> list[ModelPrediction]:
    """Model predictions for each candidate ``p_in``.

    Parameters
    ----------
    params:
        Model parameters (Table 2).
    total_threads:
        Thread budget ``p_comp + p_in + p_out``.
    passes:
        Compute passes over the data per chunk (the merge benchmark's
        ``repeats``).
    p_in_values:
        Candidate copy-in counts; default is every feasible value
        ``1 .. (total_threads - 1) // 2``.
    """
    return [
        predict(params, total_threads - 2 * p_in, p_in, passes=passes)
        for p_in in _feasible_splits(total_threads, p_in_values)
    ]


def optimal_copy_threads(
    params: ModelParams,
    total_threads: int = 256,
    passes: float = 1.0,
    p_in_values: Iterable[int] | None = None,
) -> OptimizerResult:
    """The model's predicted optimal ``p_in`` (ties go to fewer threads).

    Eq. 1 is evaluated per split in plain floats — the operations of
    :func:`repro.model.analytic.predict`, in its order, so the same
    ``t_total`` bit for bit — and only the winner becomes a
    :class:`ModelPrediction`.
    """
    if p_in_values is not None:
        p_in_values = tuple(p_in_values)
    p_ins = _feasible_splits(total_threads, p_in_values)
    if passes < 0:
        raise ConfigError("passes must be non-negative")
    s_copy = params.s_copy
    s_comp = params.s_comp
    ddr_max = params.ddr_max
    mcdram_max = params.mcdram_max
    two_b = 2.0 * params.b_copy
    two_b_passes = two_b * passes
    inf = math.inf
    total = float(total_threads)
    t_total: list[float] = []
    append = t_total.append
    # Float operands throughout: ``float(p) * x`` is what ``p * x``
    # computes for an int ``p``, and float arithmetic runs faster.
    for p_in in p_ins:
        p = p_in * 2.0
        p_comp = total - p
        ps = p * s_copy
        # Eq. 3 gives ``c_copy``; ``copied = p * c_copy`` and Eq. 2.
        if not p:  # no copy threads: nothing is copied
            copied = 0.0
            t_copy = inf
        elif ps <= ddr_max:  # c_copy = s_copy
            copied = ps
            t_copy = two_b / ps
        else:  # c_copy = ddr_max / p
            copied = p * (ddr_max / p)
            t_copy = two_b / copied
        # Eq. 5 gives ``c_comp`` (copy pools take their share first,
        # compute splits the rest), then Eq. 4.
        if not passes:
            t_comp = 0.0
        elif p_comp * s_comp + ps <= mcdram_max:  # c_comp = s_comp
            t_comp = two_b_passes / (p_comp * s_comp)
        else:
            leftover = mcdram_max - copied
            c_comp = 0.0 if leftover <= 0 else leftover / p_comp
            if c_comp > s_comp:
                c_comp = s_comp
            t_comp = two_b_passes / (p_comp * c_comp) if c_comp > 0 else inf
        # Eq. 1.
        append(t_comp if t_comp > t_copy else t_copy)
    # On the copy-bound plateau every saturating p_in yields the same
    # time up to floating-point division noise; prefer the fewest copy
    # threads among near-ties (they free compute resources), the first
    # of equal p_in, as a min() over the curve would.
    t_min = min(t_total)
    cutoff = t_min + t_min * 1e-9
    best = min(compress(p_ins, map(cutoff.__ge__, t_total)))
    return OptimizerResult(
        best=predict(params, total_threads - 2 * best, best, passes=passes),
        params=params,
        total_threads=total_threads,
        passes=passes,
        p_in_values=p_in_values,
    )
