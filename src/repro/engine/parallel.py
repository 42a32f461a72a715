"""Partition-and-merge evaluation of the code kernels on a thread pool.

BMO queries are embarrassingly partitionable: for any preference ``P``,

    ``winnow(P, R1 ∪ R2)  ⊆  winnow(P, R1) ∪ winnow(P, R2)``

so a skyline over ``n`` rows can be evaluated as ``P`` local skylines over
``n / P``-row partitions followed by a **cross-filter merge**: a local
winner survives globally iff no other partition's local winner dominates
it (its own partition cannot — it already won there).  The merge touches
only local skylines, which are tiny compared to the input, so the
dominance phase — the super-linear part — parallelizes with almost no
serial residue.

:func:`parallel_skyline` is the one partitioned execution: the SFS kernel
(or the 2-d sweep) per partition on the shared thread pool, over a
rank-encoded code matrix (the representation :mod:`repro.engine.vectorized`
consumes), then the merge.  It runs only on the NumPy leg — the
broadcasted comparisons release the GIL, so threads scale; interpreted
kernels hold it, so there the serial kernel runs instead.  The planner's
cost model (:func:`repro.query.optimizer.estimate_cost`) is what asks for
partitions; the results are bit-identical to the serial kernel's.

The shared executor is process-global and sized to the visible core count
(:func:`cpu_count`); the preference server's worker pool reuses it so
concurrent clients do not oversubscribe cores with nested pools.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.engine.backend import DETECT, get_numpy
from repro.engine.vectorized import (
    DEFAULT_BLOCK,
    Matrix,
    _dominated_by_window,
    skyline_2d,
    skyline_sfs,
)

#: Below this many rows per partition, dispatch overhead beats the win.
MIN_PARTITION_ROWS = 2048

#: Strategy name -> kernel for partition-local runs.
_LOCAL_KERNELS: dict[str, Callable[..., list[int]]] = {
    "sfs": skyline_sfs,
    "2d": lambda matrix, block_size, ordered=True, np=DETECT: skyline_2d(
        matrix, ordered=ordered, np=np
    ),
}


def cpu_count() -> int:
    """Cores visible to the engine."""
    return os.cpu_count() or 1


_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def shared_executor() -> ThreadPoolExecutor:
    """The process-global worker pool all partitioned winnows share.

    One pool, sized to :func:`cpu_count`, lazily created: the planner's
    partitioned plans and the preference server's
    :class:`~repro.server.service.PreferenceService` both draw from it, so
    concurrent queries queue on one set of workers instead of
    oversubscribing cores with nested pools.  Never shut down by library
    code (interpreter exit joins it).
    """
    global _executor
    with _executor_lock:
        if _executor is None or getattr(_executor, "_shutdown", False):
            _executor = ThreadPoolExecutor(
                max_workers=cpu_count(), thread_name_prefix="repro-parallel"
            )
        return _executor


def _map_partitions(
    executor: ThreadPoolExecutor, thunks: list[Callable[[], Any]]
) -> list[Any]:
    """Run thunks with the executor's help, deadlock-free on saturation.

    The caller always runs the first thunk inline, and *steals back* any
    submitted task the pool has not started yet (``Future.cancel``
    succeeds exactly then) to run it inline too.  So even when every
    worker is busy — including the nested case where the calling task
    itself occupies the pool (the preference service shares this
    executor) — progress never depends on a queued task being scheduled:
    the caller only blocks on work some worker is actively running.
    """
    if len(thunks) <= 1:
        return [t() for t in thunks]
    futures = list(enumerate(executor.submit(t) for t in thunks[1:]))
    results: list[Any] = [None] * len(thunks)
    results[0] = thunks[0]()
    for offset, future in futures:
        i = offset + 1
        if future.cancel():
            results[i] = thunks[i]()
        else:
            results[i] = future.result()
    return results


def partition_spans(n: int, partitions: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` spans covering ``range(n)``.

    Empty spans are dropped, so asking for more partitions than rows
    degrades to one-row partitions — a degenerate but correct execution.
    """
    partitions = max(1, min(partitions, n)) if n else 0
    if not partitions:
        return []
    base, extra = divmod(n, partitions)
    spans = []
    start = 0
    for i in range(partitions):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans


def parallel_skyline(
    matrix: Matrix,
    partitions: int,
    strategy: str = "sfs",
    block_size: int = DEFAULT_BLOCK,
    np: Any = DETECT,
) -> list[int]:
    """Indices of Pareto-maximal rows via partitioned kernels + merge.

    Same contract as the kernels in :mod:`repro.engine.vectorized`: rows
    must be pairwise distinct (componentwise ``>=`` against a different
    row then implies strict dominance), values must fit int64, and the
    result is ascending and identical to the serial kernel's.  ``np`` is
    the leg the caller already chose (the module, or None for interpreted
    kernels); by default it is detected here.  The interpreted leg, and
    any input that yields one span, runs the serial kernel.
    """
    kernel = _LOCAL_KERNELS.get(strategy)
    if kernel is None:
        raise ValueError(
            f"unknown parallel strategy {strategy!r}; "
            f"known: {sorted(_LOCAL_KERNELS)}"
        )
    if np is DETECT:
        np = get_numpy()
    spans = partition_spans(len(matrix), partitions)
    if np is None or len(spans) <= 1:
        return kernel(matrix, block_size=block_size, np=np)

    m = np.ascontiguousarray(matrix, dtype=np.int64)

    def local_thunk(a: int, b: int) -> Callable[[], list[int]]:
        return lambda: kernel(m[a:b], block_size=block_size, ordered=False, np=np)

    partials = _map_partitions(
        shared_executor(), [local_thunk(a, b) for a, b in spans]
    )
    locals_ = [
        [a + i for i in picked] for (a, _), picked in zip(spans, partials)
    ]
    return _merge_locals_numpy(np, m, locals_)


def _merge_locals_numpy(
    np: Any, m: Any, locals_: list[list[int]]
) -> list[int]:
    """Cross-filter merge: a local winner survives iff no *other*
    partition's winner dominates it.  Pairwise over partitions, using the
    window-chunked dominance helper, so peak memory stays bounded."""
    survivors: list[int] = []
    all_locals = [np.asarray(idx, dtype=np.int64) for idx in locals_]
    for p, mine in enumerate(all_locals):
        if not len(mine):
            continue
        others = [idx for q, idx in enumerate(all_locals) if q != p and len(idx)]
        if not others:
            survivors.extend(mine.tolist())
            continue
        window = m[np.concatenate(others)]
        dominated = _dominated_by_window(np, window, m[mine])
        survivors.extend(mine[~dominated].tolist())
    return sorted(survivors)
