"""The asyncio compression daemon behind ``secz serve``.

One event loop owns everything except the compression itself: a
stream server (unix socket or TCP) parses SECP frames and routes
verbs, a bounded :class:`~repro.service.jobs.JobQueue` orders work by
priority, and ``workers`` asyncio tasks each take one job at a time
and run its compress as one call on a thread-pool executor through
the shared :class:`~repro.service.pool.CompressorPool`.  The sqlite
:class:`~repro.service.store.JobStore` is written before a SUBMIT is
acknowledged, so every accepted job survives a crash, a SIGTERM, or a
restart — a second daemon on the same store re-queues whatever was
``queued`` or interrupted ``running``.

Lifecycle guarantees (tested by ``tests/service/test_shutdown.py``):

* SIGTERM/SIGINT stop the listener, let running jobs drain to a
  terminal state, leave queued jobs persisted as ``queued``, and exit.
* A client disconnect cancels its non-detached jobs while they are
  cancellable; the cooperative running→cancelled edge discards the
  result at completion.  A job starts no thread of its own (CTR
  keystream is made when the scheme encrypts), so none outlives it.
* ``workers=0`` is ingest-only mode: accept, persist and answer
  STATUS/STAT, but never start a job (useful for tests and staged
  restarts).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core import trace
from repro.core.schemes import get_scheme
from repro.service import jobs as jobstates
from repro.service import protocol
from repro.service.jobs import Job, JobQueue
from repro.service.pool import CompressorPool
from repro.service.store import JobStore

__all__ = ["ServiceConfig", "CompressionService", "STAT_SCHEMA"]

#: Schema identifier stamped into every STAT response document.
STAT_SCHEMA = "secp-stat/2"


@dataclass(frozen=True)
class ServiceConfig:
    """Server-side policy: scheme, key handling, and resource bounds.

    The protocol deliberately lets SUBMIT omit scheme and error bound —
    they default to this config, which is where a deployment pins its
    policy (the per-job override exists for mixed workloads).  ``seed``
    makes IVs deterministic for reproducible experiments (use with
    ``workers=1``); seeded CTR is refused at construction.
    ``job_timeout`` bounds one job's compress on the executor; a
    timed-out job fails at once, but its executor thread is left to
    finish (pure-Python compression cannot be killed mid-kernel): its
    worker takes no next job until then, and the result is discarded.
    """

    scheme: str = "encr_huffman"
    error_bound: float = 1e-3
    key: bytes | None = field(default=None, repr=False)
    cipher_mode: str = "cbc"
    workers: int = 2
    queue_limit: int = 256
    job_timeout: float | None = None
    max_payload: int = 64 * 1024 * 1024
    seed: int | None = None


class CompressionService:
    """The daemon: router + queue + workers + store, one event loop."""

    def __init__(
        self,
        config: ServiceConfig,
        store_path: str,
        *,
        pool: CompressorPool | None = None,
    ) -> None:
        if config.workers < 0:
            raise ValueError("workers must be >= 0")
        self.config = config
        # The pool first: it checks the policy (scheme, key, cipher
        # mode, seeded CTR), so a refused one creates no store.
        self.pool = pool if pool is not None else CompressorPool(
            scheme=config.scheme,
            error_bound=config.error_bound,
            key=config.key,
            cipher_mode=config.cipher_mode,
            seed=config.seed,
        )
        self.store = JobStore(store_path)
        self.jobs: dict[bytes, Job] = {}
        self.queue = JobQueue(config.queue_limit)
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._workers: list[asyncio.Task] = []
        self._running_jobs = 0
        self._stopping = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_at = 0.0
        self._counters0: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------

    async def serve(
        self,
        *,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        ready: "asyncio.Event | None" = None,
        install_signal_handlers: bool = False,
    ) -> None:
        """Run until shutdown is requested; binds exactly one endpoint."""
        if (socket_path is None) == (host is None):
            raise ValueError("pass exactly one of socket_path or host/port")
        self._loop = asyncio.get_running_loop()
        self._started_at = time.time()
        self._counters0 = trace.counters_snapshot()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_shutdown)
        self._resume_persisted()
        if self.config.workers > 0:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="secz-serve",
            )
            self._workers = [
                asyncio.ensure_future(self._worker(i))
                for i in range(self.config.workers)
            ]
        if socket_path is not None:
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
        if ready is not None:
            ready.set()
        try:
            await self._stopping.wait()
        finally:
            await self._drain_and_close(socket_path)

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (signal handlers land here)."""
        self._stopping.set()

    def shutdown_threadsafe(self) -> None:
        """Request shutdown from another thread (tests, embedders)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    async def _drain_and_close(self, socket_path: str | None) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let running jobs reach a terminal state; queued jobs are
        # already persisted as `queued` and will resume on restart.
        while self._running_jobs > 0:
            await asyncio.sleep(0.01)
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.store.close()
        if socket_path is not None and os.path.exists(socket_path):
            os.unlink(socket_path)

    def _resume_persisted(self) -> None:
        """Re-queue jobs a previous daemon left behind in this store."""
        self.store.requeue_interrupted()
        for job in self.store.queued_jobs():
            # Resumed jobs have lost their submitting connection; they
            # must survive like detached ones.
            job.detached = True
            self.jobs[job.job_id] = job
            self.queue.put_nowait(job)

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_token = object()
        try:
            while True:
                try:
                    frame = await protocol.read_frame(
                        reader, max_payload=self.config.max_payload
                    )
                except protocol.ProtocolError as exc:
                    await protocol.write_frame(
                        writer, protocol.VERB_PING, status=exc.code,
                        payload=str(exc).encode(),
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if frame is None:
                    break
                try:
                    await self._dispatch(frame, writer, conn_token)
                except ConnectionError:
                    break
        finally:
            self._cancel_owned(conn_token)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _cancel_owned(self, conn_token: object) -> None:
        """A disconnect cancels the connection's non-detached jobs."""
        for job in self.jobs.values():
            if job.owner is not conn_token or job.detached:
                continue
            if job.state == jobstates.QUEUED:
                self._finish_job(job, jobstates.CANCELLED, None,
                                 "client disconnected")
            elif job.state == jobstates.RUNNING:
                job.cancel_requested = True

    async def _dispatch(
        self,
        frame: protocol.Frame,
        writer: asyncio.StreamWriter,
        conn_token: object,
    ) -> None:
        verb = frame.verb
        if verb == protocol.VERB_PING:
            await protocol.write_frame(writer, verb)
        elif verb == protocol.VERB_SUBMIT:
            await self._handle_submit(frame, writer, conn_token)
        elif verb == protocol.VERB_STATUS:
            await self._handle_status(frame, writer)
        elif verb == protocol.VERB_FETCH:
            await self._handle_fetch(frame, writer)
        elif verb == protocol.VERB_WAIT:
            await self._handle_wait(frame, writer)
        elif verb == protocol.VERB_CANCEL:
            await self._handle_cancel(frame, writer)
        elif verb == protocol.VERB_STAT:
            await protocol.write_frame(
                writer, verb,
                payload=json.dumps(self.stats(), sort_keys=True).encode(),
            )
        else:
            await protocol.write_frame(
                writer, verb, status=protocol.ERR_VERB,
                payload=f"unknown verb {verb}".encode(),
            )

    # -- verb handlers -------------------------------------------------

    async def _handle_submit(
        self,
        frame: protocol.Frame,
        writer: asyncio.StreamWriter,
        conn_token: object,
    ) -> None:
        if self._stopping.is_set():
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_SHUTTING_DOWN,
                payload=b"server is shutting down",
            )
            return
        try:
            spec = protocol.unpack_submit(frame.payload)
        except protocol.ProtocolError as exc:
            await protocol.write_frame(
                writer, frame.verb, status=exc.code,
                payload=str(exc).encode(),
            )
            return
        scheme_id = spec["scheme_id"]
        try:
            scheme_name = (None if scheme_id == protocol.SCHEME_DEFAULT
                           else get_scheme(scheme_id).name)
        except ValueError as exc:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_PAYLOAD,
                payload=str(exc).encode(),
            )
            return
        scheme, eb = self.pool.resolve(scheme_name, spec["eb"])
        if get_scheme(scheme).requires_key and self.config.key is None:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_PAYLOAD,
                payload=f"server holds no key for scheme {scheme!r}".encode(),
            )
            return
        job = Job(
            job_id=os.urandom(protocol.JOB_ID_BYTES),
            priority=spec["priority"],
            scheme=scheme,
            eb=eb,
            dtype=spec["dtype"],
            shape=spec["shape"],
            detached=bool(spec["flags"] & protocol.FLAG_DETACHED),
            owner=conn_token,
            submitted_at=time.time(),
        )
        try:
            self.queue.put_nowait(job)
        except asyncio.QueueFull:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_QUEUE_FULL,
                payload=f"queue limit {self.config.queue_limit} reached"
                .encode(),
            )
            return
        self.jobs[job.job_id] = job
        self.store.insert(job, spec["field"])
        trace.count("service.jobs_submitted")
        await protocol.write_frame(writer, frame.verb, job_id=job.job_id)

    def _lookup(self, job_id: bytes) -> Job | None:
        job = self.jobs.get(job_id)
        if job is None:
            # Jobs from a previous daemon generation are only on disk.
            job = self.store.load(job_id)
            if job is not None:
                self.jobs[job_id] = job
        return job

    async def _handle_status(
        self, frame: protocol.Frame, writer: asyncio.StreamWriter
    ) -> None:
        job = self._lookup(frame.job_id)
        if job is None:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_UNKNOWN_JOB,
                payload=frame.job_id.hex().encode(),
            )
            return
        await protocol.write_frame(
            writer, frame.verb, job_id=job.job_id,
            payload=bytes([job.state]),
        )

    async def _handle_fetch(
        self, frame: protocol.Frame, writer: asyncio.StreamWriter
    ) -> None:
        job = self._lookup(frame.job_id)
        if job is None:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_UNKNOWN_JOB,
                payload=frame.job_id.hex().encode(),
            )
            return
        await self._send_result(frame.verb, job, writer)

    async def _handle_wait(
        self, frame: protocol.Frame, writer: asyncio.StreamWriter
    ) -> None:
        job = self._lookup(frame.job_id)
        if job is None:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_UNKNOWN_JOB,
                payload=frame.job_id.hex().encode(),
            )
            return
        await job.done_event.wait()
        await self._send_result(frame.verb, job, writer)

    async def _send_result(
        self, verb: int, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        if job.state == jobstates.DONE:
            container = self.store.container(job.job_id)
            if container is None:
                await protocol.write_frame(
                    writer, verb, status=protocol.ERR_JOB_FAILED,
                    job_id=job.job_id, payload=b"result expired from store",
                )
                return
            await protocol.write_frame(
                writer, verb, job_id=job.job_id, payload=container
            )
        elif job.state == jobstates.FAILED:
            await protocol.write_frame(
                writer, verb, status=protocol.ERR_JOB_FAILED,
                job_id=job.job_id, payload=job.error.encode(),
            )
        elif job.state == jobstates.CANCELLED:
            await protocol.write_frame(
                writer, verb, status=protocol.ERR_CANCELLED,
                job_id=job.job_id, payload=job.error.encode(),
            )
        else:
            await protocol.write_frame(
                writer, verb, status=protocol.ERR_NOT_DONE,
                job_id=job.job_id, payload=bytes([job.state]),
            )

    async def _handle_cancel(
        self, frame: protocol.Frame, writer: asyncio.StreamWriter
    ) -> None:
        job = self._lookup(frame.job_id)
        if job is None:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_UNKNOWN_JOB,
                payload=frame.job_id.hex().encode(),
            )
            return
        if job.state == jobstates.QUEUED:
            self._finish_job(job, jobstates.CANCELLED, None,
                             "cancelled by client")
            await protocol.write_frame(writer, frame.verb,
                                       job_id=job.job_id)
        elif job.state == jobstates.RUNNING:
            job.cancel_requested = True
            await protocol.write_frame(writer, frame.verb,
                                       job_id=job.job_id)
        else:
            await protocol.write_frame(
                writer, frame.verb, status=protocol.ERR_UNCANCELLABLE,
                job_id=job.job_id, payload=job.state_name.encode(),
            )

    # -- workers -------------------------------------------------------

    async def _worker(self, index: int) -> None:
        while True:
            job = self.jobs.get(await self.queue.get())
            # A job cancelled while queued left its id behind; its row
            # is already terminal.
            if job is not None and job.state == jobstates.QUEUED:
                await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        payload = self.store.payload(job.job_id)
        job.started_at = time.time()
        job.transition(jobstates.RUNNING)
        self.store.mark_running(job)
        trace.count(
            "service.queue_wait_ms",
            max(1, round((job.started_at - job.submitted_at) * 1e3)),
        )
        if payload is None:
            self._finish_job(job, jobstates.FAILED, None,
                             "payload missing from store")
            return
        dtype = np.float32 if job.dtype == "float32" else np.float64
        field = np.frombuffer(payload, dtype=dtype).reshape(job.shape)
        self._running_jobs += 1
        try:
            future = asyncio.get_running_loop().run_in_executor(
                self._executor, self.pool.compress, field, job.scheme, job.eb
            )
            if self.config.job_timeout is not None:
                container = await asyncio.wait_for(
                    asyncio.shield(future), self.config.job_timeout
                )
            else:
                container = await future
        except asyncio.TimeoutError:
            self._finish_job(
                job, jobstates.FAILED, None,
                f"job timed out after {self.config.job_timeout}s",
            )
            # The compress runs on: hold this worker until its thread is
            # free, or the next job's timeout would run while it waits
            # behind this one.  Its late result or error is dropped.
            await asyncio.wait([future])
            future.exception()
            return
        except Exception as exc:  # a compression error fails this job
            self._finish_job(job, jobstates.FAILED, None,
                             f"{type(exc).__name__}: {exc}")
            return
        finally:
            self._running_jobs -= 1
        if job.cancel_requested:
            self._finish_job(job, jobstates.CANCELLED, None,
                             "cancelled while running")
        else:
            self._finish_job(job, jobstates.DONE, container, "")

    def _finish_job(
        self,
        job: Job,
        state: int,
        container: bytes | None,
        error: str,
    ) -> None:
        job.error = error
        job.finished_at = time.time()
        job.transition(state)
        if state == jobstates.FAILED:
            trace.count("service.jobs_failed")
        self.store.finish(job, container)

    # -- STAT ----------------------------------------------------------

    def stats(self) -> dict:
        """The STAT document (docs/SERVICE.md §7): queue, counters,
        pool."""
        now = trace.counters_snapshot()
        delta = {
            name: now[name] - self._counters0.get(name, 0)
            for name in sorted(now)
            if now[name] != self._counters0.get(name, 0)
        }
        in_memory = {name: 0 for name in jobstates.STATE_NAMES.values()}
        for job in self.jobs.values():
            in_memory[job.state_name] += 1
        return {
            "schema": STAT_SCHEMA,
            "uptime_s": round(time.time() - self._started_at, 3),
            "workers": self.config.workers,
            "queue_depth": self.queue.qsize(),
            "jobs": in_memory,
            "store": {"path": self.store.path,
                      "jobs": self.store.counts_by_state()},
            "counters": delta,
            "pool": self.pool.stats(),
        }
