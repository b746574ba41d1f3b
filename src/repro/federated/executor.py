"""Parallel client execution engine.

Parties in a synchronous FL round are embarrassingly parallel: local
training, evaluation, and the hidden-activation forward passes of the
moment exchange touch only per-client state (model, optimizer, private
subgraph, per-client RNG).  On this NumPy substrate the BLAS matmuls
release the GIL, so a *thread* pool overlaps them without any pickling
or process spawn cost.  scipy's sparse kernel (``csr_matvecs``, behind
every ``spmm``) holds the GIL, so threads do not overlap the sparse
products (``benchmarks/gil_spmm.py`` measures it).

:class:`ClientExecutor` is the one place that knows about threads.  It
maps a function over clients and returns results **in submission
order**, so callers see exactly the list the serial loop would have
produced.  With ``num_workers <= 1`` it degrades to a plain loop — the
serial fallback — which keeps single-threaded debugging trivial and is
the default everywhere.

Determinism contract (what makes ``num_workers`` a pure speed knob):

* every client owns its own ``np.random.Generator`` (dropout) and its
  own optimizer state, so the *sequence of ops within one client* is
  identical regardless of how clients interleave;
* the autograd grad-mode switch is thread-local
  (:func:`repro.autograd.no_grad`);
* shared read-only inputs (global moments, the broadcast model state)
  are only written at round barriers, never inside worker tasks;
* anything metered (:class:`repro.federated.comm.Communicator`) uses a
  lock, and results are reduced in client order.

Given those invariants, parallel and serial runs produce bitwise
identical models and :class:`~repro.federated.history.TrainingHistory`
metrics — asserted by ``tests/federated/test_executor.py`` and the
``benchmarks/test_bench_parallel.py`` speedup bench.

A serial run starts no thread: each task, its optimizer step included,
runs on the calling thread.  With workers, a client's step runs on the
worker that ran its backward pass, beside other clients' backward
passes; a step touches only its own client's parameters, gradients and
moments, and Adam's scratch is per thread, so it is bitwise the serial
step.

The executor also owns the BLAS cap: :meth:`ClientExecutor.one_blas_thread`
holds numpy's bundled OpenBLAS at one thread (``FederatedTrainer.run``
wraps its rounds in it) and restores the previous count on exit.  The
round's GEMMs are 64 columns wide: a second BLAS thread gains nothing on
them and spin-waits, and with client workers it oversubscribes the CPUs.
The count is read and set through the library's exported
``scipy_openblas_{get,set}_num_threads64_``; under any other BLAS build
nothing is capped.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.obs import get_registry, get_tracer

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one.

    ``os.cpu_count()`` counts the machine's CPUs and ignores taskset and
    cgroup cpusets, which would oversubscribe a restricted process.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_workers(num_workers: int) -> int:
    """Effective worker count: ``0`` means auto (one per CPU), else as-is."""
    if num_workers < 0:
        raise ValueError("num_workers must be >= 0 (0 = auto)")
    if num_workers == 0:
        return available_cpus()
    return num_workers


@functools.lru_cache(maxsize=None)
def openblas_threads_api() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, or ``None``.

    Looked up in numpy's own ``numpy.libs`` copy of scipy-openblas, the
    library numpy's matmul calls; ``None`` under any other BLAS build.
    Looked up once per process: each lookup ``dlopen``s the library and
    leaves its ctypes wrappers behind as cyclic garbage.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class ClientExecutor:
    """Ordered map over clients, threaded when ``num_workers > 1``.

    The pool is created lazily on first parallel :meth:`map` and reused
    for the executor's lifetime (a federated run makes thousands of
    small submissions; re-spawning threads per round would dominate).
    Exceptions raised by a task propagate to the caller on collection,
    as they would in the serial loop.
    """

    def __init__(self, num_workers: int = 1) -> None:
        self.num_workers = resolve_workers(num_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def parallel(self) -> bool:
        return self.num_workers > 1

    @contextlib.contextmanager
    def one_blas_thread(self) -> Iterator[None]:
        """Hold OpenBLAS at one thread; restore the previous count on exit,
        also on an exception.  Without the OpenBLAS symbols nothing is capped.
        """
        api = openblas_threads_api()
        if api is None:
            yield
            return
        get, set_ = api
        previous = get()
        set_(1)
        try:
            yield
        finally:
            set_(previous)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        span: Optional[str] = None,
        attrs: Optional[Callable[[T], Dict[str, object]]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results in item order.

        When ``span`` is given and telemetry is enabled, each task runs
        inside a span of that name — parented on the *submitting*
        thread's current span, so worker-thread tasks still nest under
        the round phase that launched them — tagged with ``attrs(item)``
        (e.g. ``{"client": cid}``).  Queue wait (submit → task start) is
        recorded into the ``executor.queue_wait_s`` histogram and
        ``executor.queue_wait_s.last`` gauge.  Instrumentation wraps
        timing and bookkeeping only; ``fn`` runs unchanged, so results
        (and the determinism contract above) are unaffected.
        """
        tracer = get_tracer()
        registry = get_registry()
        if span is not None and (tracer.enabled or registry.enabled):
            fn = self._instrument(fn, span, attrs, tracer, registry)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="fl-client"
            )
        futures = [self._pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def _instrument(
        self,
        fn: Callable[[T], R],
        span: str,
        attrs: Optional[Callable[[T], Dict[str, object]]],
        tracer,
        registry,
    ) -> Callable[[T], R]:
        """Wrap ``fn`` in a task span + queue-wait metering."""
        parent = tracer.current()  # captured on the submitting thread
        t_submit = time.perf_counter()
        wait_hist = registry.histogram("executor.queue_wait_s")
        wait_gauge = registry.gauge("executor.queue_wait_s.last")

        def run(item: T) -> R:
            wait = time.perf_counter() - t_submit
            wait_hist.observe(wait)
            wait_gauge.set(wait)
            tags = attrs(item) if attrs is not None else {}
            # Carry the submitting phase onto the task span so the cost
            # model attributes worker-thread ops to the right phase.
            if "phase" not in tags and parent is not None and "phase" in parent.attrs:
                tags["phase"] = parent.attrs["phase"]
            with tracer.span(span, parent=parent, **tags):
                return fn(item)

        return run

    def shutdown(self) -> None:
        """Release pool threads (idempotent; the executor stays usable)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        mode = "parallel" if self.parallel else "serial"
        return f"ClientExecutor(num_workers={self.num_workers}, {mode})"
