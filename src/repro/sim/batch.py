"""Vectorized batch primitives under the coroutine event-loop API.

The event kernel's hot paths process *cohorts*: many telemetry samples
per completion (:class:`repro.sim.contention.EventScheduler`), many
same-instant token draws (restore chunks), and many per-epoch
reductions (the execution kernel in :mod:`repro.sim.batchexec`).  This
module holds the NumPy machinery those paths share.

Every helper here is **bit-identical** to the scalar code it replaces.
The invariants that make that true:

* :func:`segment_fold_left` folds each segment with
  ``np.add.accumulate``, a sequential left fold, so it reproduces
  ``acc += x`` loops exactly, element by element, in segment order
  (unlike ``np.add.reduce``/``reduceat``, which use pairwise summation
  and are *not* used here for floats).
* Integer segment sums are order-independent and exact, so
  :func:`segment_sums_int` may use ``reduceat``'s pairwise accumulation
  (skipping the empty segments it would misbehave on).

Both take one flat column or a stacked ``(k, n)`` array of ``k`` columns
that share one segmentation, and reduce every row the same way.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..errors import ConfigError
from ..memsim.bandwidth import RESOURCES

__all__ = [
    "segment_sums_int",
    "segment_fold_left",
    "SampleBuffer",
]


def segment_sums_int(
    values: npt.NDArray[np.int32] | npt.NDArray[np.int64],
    ptr: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Per-segment int64 sums of an integer array (exact, empty segments ok).

    ``ptr`` holds the segment boundaries (length ``n_segments + 1``,
    ending at the array's length) along the last axis of ``values``; a
    stacked ``(k, n)`` input gives ``(k, n_segments)`` sums.  Integer
    addition is associative and exact, so ``reduceat``'s pairwise
    accumulation equals the per-segment loop, and it accumulates in int64
    whatever the input width, so int32 trace counts cannot overflow.
    ``reduceat`` mishandles zero-length segments, so only non-empty
    starts are passed: each such segment then runs to the next non-empty
    start, which is its true end because the skipped segments hold no
    elements.
    """
    starts = ptr[:-1]
    nonempty = starts < ptr[1:]
    out = np.zeros(values.shape[:-1] + (starts.size,), dtype=np.int64)
    if nonempty.any():
        out[..., nonempty] = np.add.reduceat(
            values, starts[nonempty], axis=-1, dtype=np.int64
        )
    return out


def segment_fold_left(
    values: npt.NDArray[np.float64], ptr: npt.NDArray[np.int64]
) -> npt.NDArray[np.float64]:
    """Per-segment left folds ``((0.0 + x0) + x1) + ...`` of float64.

    Bit-identical to running ``acc = 0.0; for x in segment: acc += x``
    per segment: the segments are laid out as the rows of one dense
    block behind a leading ``0.0`` column and zero-padded at the end,
    and ``np.add.accumulate`` along the rows is a sequential left fold —
    the same IEEE-754 additions the scalar loops perform, in the same
    order.  The padding is exact: an accumulator that starts at ``+0.0``
    never becomes ``-0.0``, and ``acc + 0.0 == acc`` for every other
    value.  Pairwise-summing reductions (``np.add.reduce``/``reduceat``)
    would *not* reproduce the scalar totals; this fold does.

    ``ptr`` segments the last axis of ``values``.  A stacked ``(k, n)``
    input folds its ``k`` rows in the same pass and returns
    ``(k, n_segments)``.
    """
    lengths = ptr[1:] - ptr[:-1]
    width = int(lengths.max(initial=0))
    block = np.zeros(values.shape[:-1] + (lengths.size, width + 1))
    if (lengths == width).all():
        block[..., 1:] = values[..., ptr[0] : ptr[-1]].reshape(
            values.shape[:-1] + (lengths.size, width)
        )
    else:
        cols = np.arange(width)
        valid = cols < lengths[:, None]
        block[..., 1:][..., valid] = values[..., (ptr[:-1, None] + cols)[valid]]
    folded: npt.NDArray[np.float64] = np.add.accumulate(block, axis=-1)[..., -1]
    return folded


class SampleBuffer:
    """Pre-sized structured-array buffer of utilization telemetry.

    Replaces per-sample dataclass churn on the replay path: one row per
    ``(event, resource)`` observation, materialized into the public
    :class:`~repro.sim.contention.UtilizationSample` tuple only when a
    caller actually reads it.  Rows are stored in emission order
    (event-major, resources in declaration order), matching the order
    the scalar loop appended samples.
    """

    _DTYPE = np.dtype(
        [("time_s", np.float64), ("rho", np.float64), ("inflation", np.float64)]
    )

    def __init__(self, n_events: int) -> None:
        if n_events < 0:
            raise ConfigError("cannot pre-size a negative event count")
        self._rows = np.zeros((n_events, len(RESOURCES)), dtype=self._DTYPE)
        self._n = 0

    def __len__(self) -> int:
        return self._n * len(RESOURCES)

    @property
    def n_events(self) -> int:
        """Events recorded so far (each carries one row per resource)."""
        return self._n

    def append_event(
        self,
        time_s: float,
        rhos: npt.NDArray[np.float64],
        inflations: npt.NDArray[np.float64],
    ) -> None:
        """Record one event's per-resource observations."""
        row = self._rows[self._n]
        row["time_s"] = time_s
        row["rho"] = rhos
        row["inflation"] = inflations
        self._n += 1

    def fill_events(
        self,
        times: npt.NDArray[np.float64],
        rhos: npt.NDArray[np.float64],
        inflations: npt.NDArray[np.float64],
    ) -> None:
        """Bulk-record ``len(times)`` events (rows ``(n_events, 5)``)."""
        n = times.size
        block = self._rows[self._n : self._n + n]
        block["time_s"] = times[:, None]
        block["rho"] = rhos
        block["inflation"] = inflations
        self._n += n

    def to_samples(self) -> tuple:
        """Materialize the public ``UtilizationSample`` tuple (lazily)."""
        from .contention import UtilizationSample

        rows = self._rows[: self._n]
        times = rows["time_s"]
        return tuple(
            UtilizationSample(
                time_s=float(times[i, j]),
                resource=RESOURCES[j],
                offered_rho=float(rows["rho"][i, j]),
                inflation=float(rows["inflation"][i, j]),
            )
            for i in range(self._n)
            for j in range(len(RESOURCES))
        )

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per-resource mean/peak summary, bit-identical to the scalar
        ``_summarize`` over :meth:`to_samples`.

        The time-weighted area is a left fold over consecutive samples of
        one resource; the products are computed elementwise (identical
        IEEE ops) and folded with the sequential ``np.add.accumulate``.
        """
        summary: dict[str, dict[str, float]] = {}
        rows = self._rows[: self._n]
        for j, name in enumerate(RESOURCES):
            if not self._n:
                summary[name] = {
                    "mean_rho": 0.0,
                    "peak_rho": 0.0,
                    "peak_inflation": 1.0,
                }
                continue
            t = rows["time_s"][:, j]
            rho = rows["rho"][:, j]
            infl = rows["inflation"][:, j]
            if self._n >= 2:
                terms = rho[:-1] * (t[1:] - t[:-1])
                area = float(np.add.accumulate(terms)[-1])
                span = float(t[-1] - t[0])
                mean = area / span if span > 0 else float(rho[-1])
            else:
                mean = float(rho[0])
            summary[name] = {
                "mean_rho": mean,
                "peak_rho": float(np.max(rho)),
                "peak_inflation": float(np.max(infl)),
            }
        return summary
