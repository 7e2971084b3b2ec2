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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.model.analytic import ModelPrediction
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


def predict_sweep(
    params: ModelParams,
    p_comp,
    p_in,
    p_out=None,
    passes: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eqs. 1-5 over parallel arrays of thread splits, in one shot.

    Bit-identical elementwise to :func:`repro.model.analytic.predict`:
    every arithmetic step applies the same operation in the same order
    to the same IEEE-754 operands, just across whole arrays at once.
    Returns ``(c_copy, c_comp, t_copy, t_comp, t_total)`` arrays.
    """
    p_comp = np.asarray(p_comp, dtype=np.int64)
    p_in = np.asarray(p_in, dtype=np.int64)
    p_out = p_in if p_out is None else np.asarray(p_out, dtype=np.int64)
    if (p_comp < 1).any():
        raise ConfigError("compute thread counts must be >= 1")
    if (p_in < 0).any() or (p_out < 0).any():
        raise ConfigError("copy thread counts must be non-negative")
    if passes < 0:
        raise ConfigError("passes must be non-negative")
    p = p_in + p_out
    with np.errstate(divide="ignore", invalid="ignore"):
        # Eq. 3: saturated threads share DDR; p == 0 means no copying.
        c_copy = np.where(
            p == 0,
            0.0,
            np.where(
                p * params.s_copy <= params.ddr_max,
                params.s_copy,
                params.ddr_max / p,
            ),
        )
        # Eq. 2.
        t_copy = np.where(p == 0, np.inf, 2.0 * params.b_copy / (p * c_copy))
        # Eq. 5: copy pools take their share first, compute splits the rest.
        demand = p_comp * params.s_comp + p * params.s_copy
        leftover = params.mcdram_max - p * c_copy
        c_comp = np.where(
            demand <= params.mcdram_max,
            params.s_comp,
            np.where(
                leftover <= 0,
                0.0,
                np.minimum(params.s_comp, leftover / p_comp),
            ),
        )
        # Eq. 4.
        if passes == 0:
            t_comp = np.zeros_like(c_comp)
        else:
            t_comp = np.where(
                c_comp <= 0,
                np.inf,
                2.0 * params.b_copy * passes / (p_comp * c_comp),
            )
    # Eq. 1.
    t_total = np.maximum(t_copy, t_comp)
    return c_copy, c_comp, t_copy, t_comp, t_total


def _feasible_splits(
    total_threads: int, p_in_values: Sequence[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(p_comp, p_in)`` arrays of the feasible candidate splits."""
    if total_threads < 3:
        raise ConfigError("need at least 3 threads (1 compute + 1 in + 1 out)")
    if p_in_values is None:
        p_in_values = list(range(1, (total_threads - 1) // 2 + 1))
    p_ins = [p_in for p_in in p_in_values if total_threads - 2 * p_in >= 1]
    if not p_ins:
        raise ConfigError("no feasible thread split")
    p_in_arr = np.array(p_ins, dtype=np.int64)
    return total_threads - 2 * p_in_arr, p_in_arr


def _prediction(p_comp, p_in, passes, arrays, i: int) -> ModelPrediction:
    """Candidate ``i``'s :class:`ModelPrediction` from the sweep arrays."""
    c_copy, c_comp, t_copy, t_comp, t_total = arrays
    return ModelPrediction(
        p_comp=int(p_comp[i]),
        p_in=int(p_in[i]),
        p_out=int(p_in[i]),
        passes=passes,
        c_copy=float(c_copy[i]),
        c_comp=float(c_comp[i]),
        t_copy=float(t_copy[i]),
        t_comp=float(t_comp[i]),
        t_total=float(t_total[i]),
    )


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
    p_comp, p_in = _feasible_splits(total_threads, p_in_values)
    arrays = predict_sweep(params, p_comp, p_in, passes=passes)
    return [
        _prediction(p_comp, p_in, passes, arrays, i) for i in range(len(p_in))
    ]


def optimal_copy_threads(
    params: ModelParams,
    total_threads: int = 256,
    passes: float = 1.0,
    p_in_values: Iterable[int] | None = None,
) -> OptimizerResult:
    """The model's predicted optimal ``p_in`` (ties go to fewer threads).

    The argmin is taken on the sweep's ``t_total`` array; only the
    winner becomes a :class:`ModelPrediction`.
    """
    if p_in_values is not None:
        p_in_values = tuple(p_in_values)
    p_comp, p_in = _feasible_splits(total_threads, p_in_values)
    arrays = predict_sweep(params, p_comp, p_in, passes=passes)
    t_total = arrays[-1]
    # On the copy-bound plateau every saturating p_in yields the same
    # time up to floating-point division noise; prefer the fewest copy
    # threads among near-ties (they free compute resources). argmin
    # keeps the first of equal p_in, as a min() over the curve would.
    t_min = t_total.min()
    near = np.flatnonzero(t_total <= t_min + t_min * 1e-9)
    best = int(near[np.argmin(p_in[near])])
    return OptimizerResult(
        best=_prediction(p_comp, p_in, passes, arrays, best),
        params=params,
        total_threads=total_threads,
        passes=passes,
        p_in_values=p_in_values,
    )
