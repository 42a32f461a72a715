"""Partition-and-merge parallel execution of preference queries.

BMO queries are embarrassingly partitionable: for any preference ``P``,

    ``winnow(P, R1 ∪ R2)  ⊆  winnow(P, R1) ∪ winnow(P, R2)``

so a skyline over ``n`` rows can be evaluated as ``P`` local skylines over
``n / P``-row partitions followed by a **cross-filter merge**: a local
winner survives globally iff no other partition's local winner dominates
it (its own partition cannot — it already won there).  The merge touches
only local skylines, which are tiny compared to the input, so the
dominance phase — the super-linear part — parallelizes with almost no
serial residue.

Three executions live here, all bit-identical to their serial forms:

* :func:`parallel_skyline` — the kernel-level partition/merge over a
  rank-encoded code matrix (the representation
  :mod:`repro.engine.vectorized` consumes).  Partitions run the existing
  SFS kernel (or the 2-d sweep) on a shared thread pool when NumPy
  is live — the broadcasted comparisons release the GIL, so threads scale
  — with a process-pool + ``multiprocessing.shared_memory`` path for
  large pure-Python inputs, where threads cannot overlap.
* :func:`parallel_winnow_groupby` — grouped winnow: groups are hashed
  onto partitions and evaluated independently (groups never interact, so
  **no merge is needed**); output order matches the serial operator
  exactly (first-seen group order, input order within groups).
* :func:`parallel_k_best` — ranked top-k: each partition computes its
  local ``k`` best with ``ties="all"`` (a guaranteed superset of the
  global answer's members from that partition), and one final ``k_best``
  over the union reproduces the global cut, stable order included.

The shared executor is process-global and sized to the visible core count
(:func:`cpu_count`, overridable with ``REPRO_CPUS``); the preference
server's worker pool reuses it so concurrent clients do not oversubscribe
cores with nested pools.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.engine.backend import DETECT, get_numpy
from repro.engine.vectorized import (
    DEFAULT_BLOCK,
    Matrix,
    _dominated_by_window,
    _dominates,
    skyline_2d,
    skyline_sfs,
)

Row = dict[str, Any]

#: Below this many rows per partition, dispatch overhead beats the win.
MIN_PARTITION_ROWS = 2048

#: Pure-Python inputs smaller than this never take the process-pool path
#: (fork + shared-memory setup costs more than the sweep saves).
PROCESS_POOL_MIN_ROWS = 50_000

#: Strategy name -> kernel for partition-local runs.
_LOCAL_KERNELS: dict[str, Callable[..., list[int]]] = {
    "sfs": skyline_sfs,
    "2d": lambda matrix, block_size, ordered=True, np=DETECT: skyline_2d(
        matrix, ordered=ordered, np=np
    ),
}


def cpu_count() -> int:
    """Cores visible to the engine; ``REPRO_CPUS`` overrides detection.

    The override exists for operators pinning the engine below the
    machine (shared hosts) and for tests exercising core-count-dependent
    planner decisions deterministically.
    """
    flag = os.environ.get("REPRO_CPUS", "")
    if flag:
        try:
            return max(1, int(flag))
        except ValueError:
            pass
    return os.cpu_count() or 1


_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def shared_executor() -> ThreadPoolExecutor:
    """The process-global worker pool all parallel winnows share.

    One pool, sized to :func:`cpu_count`, lazily created: the planner's
    parallel plans, direct :func:`parallel_skyline` callers, and the
    preference server's :class:`~repro.server.service.PreferenceService`
    all draw from it, so concurrent queries queue on one set of workers
    instead of oversubscribing cores with nested pools.  Never shut down
    by library code (it is daemonic via thread names only; interpreter
    exit joins it).
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


# -- the kernel-level partition/merge -----------------------------------------------


def parallel_skyline(
    matrix: Matrix,
    partitions: int,
    strategy: str = "sfs",
    block_size: int = DEFAULT_BLOCK,
    executor: ThreadPoolExecutor | None = None,
    mode: str = "auto",
    np: Any = DETECT,
) -> list[int]:
    """Indices of Pareto-maximal rows via partitioned kernels + merge.

    Same contract as the kernels in :mod:`repro.engine.vectorized`: rows
    must be pairwise distinct (componentwise ``>=`` against a different
    row then implies strict dominance), values must fit int64, and the
    result is ascending and identical to the serial kernel's.

    ``mode`` selects the worker substrate: ``"threads"`` (the shared
    pool; the right choice whenever NumPy is live), ``"processes"``
    (fork workers reading the matrix from ``multiprocessing.
    shared_memory`` — for large pure-Python inputs, where threads
    serialize on the GIL), or ``"auto"`` (processes only when NumPy is
    absent and the input is ≥ :data:`PROCESS_POOL_MIN_ROWS`).  The
    process path degrades silently to threads when the platform refuses
    shared memory (sandboxes, exotic start methods).  ``np`` is the leg
    the caller already chose (the module, or None for interpreted
    kernels); by default it is detected here.
    """
    kernel = _LOCAL_KERNELS.get(strategy)
    if kernel is None:
        raise ValueError(
            f"unknown parallel strategy {strategy!r}; "
            f"known: {sorted(_LOCAL_KERNELS)}"
        )
    if np is DETECT:
        np = get_numpy()
    n = len(matrix)
    spans = partition_spans(n, partitions)
    if len(spans) <= 1:
        return kernel(matrix, block_size=block_size, np=np)
    if mode not in ("auto", "threads", "processes"):
        raise ValueError(f"mode must be auto/threads/processes, got {mode!r}")

    if mode == "processes" or (
        mode == "auto" and np is None and n >= PROCESS_POOL_MIN_ROWS
    ):
        # An explicit "processes" is honored regardless of NumPy (the
        # workers run the pure-Python kernels either way); "auto" only
        # reaches for processes when threads would serialize on the GIL.
        picked = _process_pool_skyline(matrix, spans, strategy, block_size)
        if picked is not None:
            return picked
    if executor is None:
        executor = shared_executor()

    def local_thunk(source: Any, a: int, b: int) -> Callable[[], list[int]]:
        return lambda: kernel(
            source[a:b], block_size=block_size, ordered=False, np=np
        )

    if np is not None:
        m = np.ascontiguousarray(matrix, dtype=np.int64)
        partials = _map_partitions(
            executor, [local_thunk(m, a, b) for a, b in spans]
        )
        locals_ = [
            [a + i for i in picked]
            for (a, _), picked in zip(spans, partials)
        ]
        return _merge_locals_numpy(np, m, locals_)

    rows = matrix if isinstance(matrix, list) else list(matrix)
    partials = _map_partitions(
        executor, [local_thunk(rows, a, b) for a, b in spans]
    )
    locals_ = [
        [a + i for i in picked] for (a, _), picked in zip(spans, partials)
    ]
    return _merge_locals_python(rows, locals_)


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


def _merge_locals_python(
    rows: Sequence[Sequence[int]], locals_: list[list[int]]
) -> list[int]:
    survivors: list[int] = []
    for p, mine in enumerate(locals_):
        others = [
            rows[i] for q, idx in enumerate(locals_) if q != p for i in idx
        ]
        for i in mine:
            candidate = rows[i]
            if not any(_dominates(o, candidate) for o in others):
                survivors.append(i)
    return sorted(survivors)


# -- the process-pool path for pure-Python inputs -----------------------------------


def _process_worker(
    shm_name: str, d: int, start: int, stop: int, strategy: str
) -> list[int]:
    """Run one partition's pure-Python kernel over the shared matrix."""
    from multiprocessing import shared_memory

    from repro.engine.vectorized import _sfs_python, _sweep_2d_python

    shm = shared_memory.SharedMemory(name=shm_name)
    view = memoryview(shm.buf).cast("q")
    try:
        rows = [
            tuple(view[i * d : (i + 1) * d]) for i in range(start, stop)
        ]
    finally:
        view.release()
        shm.close()
    fn = {"sfs": _sfs_python, "2d": _sweep_2d_python}[strategy]
    return [start + i for i in fn(rows, ordered=False)]


def _process_pool_skyline(
    matrix: Matrix,
    spans: list[tuple[int, int]],
    strategy: str,
    block_size: int,
) -> list[int] | None:
    """Partitioned kernels on a process pool over shared memory.

    Returns ``None`` when the platform refuses (no /dev/shm, forbidden
    fork, pickling trouble) — the caller falls back to threads, which are
    always correct.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import shared_memory

        n = len(matrix)
        d = len(matrix[0])
        shm = shared_memory.SharedMemory(create=True, size=8 * n * d)
    except Exception:
        return None
    try:
        view = memoryview(shm.buf).cast("q")
        try:
            k = 0
            for row in matrix:
                for v in row:
                    view[k] = v
                    k += 1
        finally:
            view.release()
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [
                pool.submit(_process_worker, shm.name, d, a, b, strategy)
                for a, b in spans
            ]
            locals_ = [f.result() for f in futures]
        rows = matrix if isinstance(matrix, list) else list(matrix)
        return _merge_locals_python(rows, locals_)
    except Exception:
        return None
    finally:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


# -- operator-level parallel executions ---------------------------------------------


def parallel_winnow(
    pref: Any,
    data: Any,
    partitions: int | None = None,
    strategy: str = "sfs",
    block_size: int = DEFAULT_BLOCK,
) -> Any:
    """``sigma[P](R)`` via the partitioned columnar engine.

    A convenience wrapper over :func:`repro.engine.columnar.
    columnar_winnow` with ``partitions`` defaulting to the visible core
    count.  Raises :class:`~repro.engine.columnar.NotColumnarError` for
    terms without a columnar evaluation — the planner only parallelizes
    eligible winnows.
    """
    from repro.engine.columnar import columnar_winnow

    return columnar_winnow(
        pref,
        data,
        strategy=strategy,
        block_size=block_size,
        partitions=partitions if partitions is not None else cpu_count(),
    )


def parallel_winnow_groupby(
    pref: Any,
    by: Sequence[str],
    data: Any,
    algorithm: Any = "bnl",
    partitions: int | None = None,
    executor: ThreadPoolExecutor | None = None,
) -> Any:
    """``sigma[P groupby A](R)`` with groups hashed onto partitions.

    Groups are independent winnows (Definition 16), so partitioning by
    group hash needs **no merge**: each worker evaluates its bucket's
    groups with the ordinary row engine and the results are reassembled
    in the serial operator's exact output order (first-seen group order,
    input order within each group) — bit-identical to
    :func:`repro.query.bmo.winnow_groupby`.
    """
    from repro.query.bmo import _bind_engine, _repack, _unpack

    rows, template = _unpack(data)
    parts = partitions if partitions is not None else cpu_count()
    names = tuple(by)
    groups: dict[tuple, list[Row]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(row[n] for n in names)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    evaluate = _bind_engine(algorithm, pref)
    parts = max(1, min(parts, len(order))) if order else 1
    if parts <= 1:
        out: list[Row] = []
        for key in order:
            out.extend(evaluate(groups[key]))
        return _repack(out, template)

    buckets: list[list[tuple]] = [[] for _ in range(parts)]
    for key in order:
        buckets[hash(key) % parts].append(key)

    def bucket_thunk(keys: list[tuple]) -> Callable[[], dict]:
        return lambda: {key: evaluate(groups[key]) for key in keys}

    if executor is None:
        executor = shared_executor()
    best: dict[tuple, list[Row]] = {}
    for partial in _map_partitions(
        executor, [bucket_thunk(bucket) for bucket in buckets]
    ):
        best.update(partial)
    out = []
    for key in order:
        out.extend(best[key])
    return _repack(out, template)


def parallel_k_best(
    pref: Any,
    data: Any,
    k: int,
    ties: str = "strict",
    partitions: int | None = None,
    executor: ThreadPoolExecutor | None = None,
) -> Any:
    """Ranked top-k over contiguous partitions, merged by a final k-best.

    Each partition returns its local ``k`` best under ``ties="all"`` — a
    superset of every globally-surviving row from that partition (a row
    in the global answer has fewer than ``k`` strictly-better rows even
    in its own partition).  Candidates concatenate in partition order, so
    rows with equal scores keep their original relative order, and the
    final :func:`~repro.query.topk.k_best` over the union reproduces the
    global answer exactly — set *and* stable order, both tie policies.
    """
    from repro.query.bmo import _repack, _unpack
    from repro.query.topk import k_best

    rows, template = _unpack(data)
    parts = partitions if partitions is not None else cpu_count()
    spans = partition_spans(len(rows), parts)
    if len(spans) <= 1:
        return _repack(k_best(pref, rows, k, ties=ties), template)
    if executor is None:
        executor = shared_executor()

    def span_thunk(a: int, b: int) -> Callable[[], list[Row]]:
        return lambda: k_best(pref, rows[a:b], k, "all")

    candidates: list[Row] = []
    for partial in _map_partitions(
        executor, [span_thunk(a, b) for a, b in spans]
    ):
        candidates.extend(partial)
    return _repack(k_best(pref, candidates, k, ties=ties), template)
