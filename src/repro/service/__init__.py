"""``repro.service`` — the ``secz serve`` compression daemon.

The package splits the daemon along its natural seams:

* :mod:`repro.service.protocol` — SECP/1 framing (docs/SERVICE.md is
  the normative byte spec).
* :mod:`repro.service.jobs` — the job state machine and the bounded
  priority queue.
* :mod:`repro.service.store` — the sqlite durability layer (payloads,
  results, restart/resume).
* :mod:`repro.service.pool` — the compressor pool (one key schedule
  per scheme, one compressor per configuration) that runs each job's
  compress.  A daemon saves one-shot calls their process start-up and
  imports; each job still compresses from scratch.
* :mod:`repro.service.server` — the asyncio daemon tying them together.
* :mod:`repro.service.client` — the blocking client used by examples,
  tests, and the README quickstart.

:func:`serve_in_background` runs a daemon on a private event loop in a
daemon thread — the embedding pattern used by the docs examples and the
test-suite; production deployments run ``secz serve`` as a process and
get signal-driven graceful shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

from repro.service.client import JobPending, ServiceClient, ServiceError
from repro.service.server import CompressionService, ServiceConfig

__all__ = [
    "CompressionService",
    "ServiceConfig",
    "ServiceClient",
    "ServiceError",
    "JobPending",
    "serve_in_background",
]


@contextlib.contextmanager
def serve_in_background(
    config: ServiceConfig,
    store_path: str,
    *,
    socket_path: str | None = None,
    host: str | None = None,
    port: int | None = None,
):
    """Run a :class:`CompressionService` in a daemon thread.

    Yields the service once its listener is bound; on exit requests a
    graceful shutdown and joins the thread (running jobs drain, queued
    jobs stay persisted in the store).  Signal handlers are *not*
    installed — they belong to the main thread and the CLI path.
    """
    service = CompressionService(config, store_path)
    ready = threading.Event()
    errors: list[BaseException] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        async_ready = asyncio.Event()

        async def main() -> None:
            serve_task = asyncio.ensure_future(service.serve(
                socket_path=socket_path, host=host, port=port,
                ready=async_ready,
            ))
            waiter = asyncio.ensure_future(async_ready.wait())
            await asyncio.wait({serve_task, waiter},
                               return_when=asyncio.FIRST_COMPLETED)
            if serve_task.done() and serve_task.exception() is not None:
                waiter.cancel()
                raise serve_task.exception()
            ready.set()
            await serve_task

        try:
            loop.run_until_complete(main())
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            ready.set()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="secz-serve-loop",
                              daemon=True)
    thread.start()
    ready.wait()
    if errors:
        raise errors[0]
    try:
        yield service
    finally:
        service.shutdown_threadsafe()
        thread.join(timeout=30)
        if errors:
            raise errors[0]
