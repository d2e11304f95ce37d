"""Synchronous SECP client for ``secz serve``.

A thin blocking wrapper over one socket: submit numpy fields, poll or
wait for results, fetch SECZ containers, read the STAT document.
The client is deliberately dependency-free beyond the stdlib + numpy —
``examples/serve_client.py`` shows the full round trip, and the README
"Serving" quickstart is a three-line version of the same.

Error responses raise :class:`ServiceError` carrying the wire code and
its symbolic name (docs/SERVICE.md §6); a ``FETCH`` on an unfinished
job is the one *expected* error, surfaced as ``JobPending`` so polling
loops do not have to parse codes.
"""

from __future__ import annotations

import json
import socket

import numpy as np

from repro.service import protocol

__all__ = ["ServiceClient", "ServiceError", "JobPending"]


class ServiceError(RuntimeError):
    """The server answered with a non-OK status code."""

    def __init__(self, code: int, message: str) -> None:
        name = protocol.ERRORS.get(code, f"ERR_{code}")
        super().__init__(f"{name}: {message}" if message else name)
        self.code = code
        self.error_name = name


class JobPending(ServiceError):
    """FETCH found the job still queued or running (ERR_NOT_DONE)."""


class ServiceClient:
    """One blocking SECP connection to a ``secz serve`` daemon.

    Pass a unix-socket path (``str``) or a ``(host, port)`` tuple.
    Usable as a context manager; every method is a single
    request/response exchange on the shared socket, so one client
    instance must not be shared across threads.
    """

    def __init__(self, address: "str | tuple[str, int]",
                 *, timeout: float | None = 30.0) -> None:
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(address)
        else:
            host, port = address
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        self.address = address

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------

    def _roundtrip(
        self,
        verb: int,
        *,
        job_id: bytes = protocol.NULL_JOB_ID,
        payload: bytes = b"",
    ) -> protocol.Frame:
        protocol.send_frame_blocking(self._sock, verb, job_id=job_id,
                                     payload=payload)
        frame = protocol.recv_frame_blocking(self._sock)
        if not frame.ok:
            message = frame.payload.decode("utf-8", "replace")
            if frame.status == protocol.ERR_NOT_DONE:
                raise JobPending(frame.status, message)
            raise ServiceError(frame.status, message)
        return frame

    # -- verbs ---------------------------------------------------------

    def ping(self) -> None:
        """Round-trip a PING; raises on any transport/protocol fault."""
        self._roundtrip(protocol.VERB_PING)

    def submit(
        self,
        field: np.ndarray,
        *,
        eb: float = 0.0,
        scheme_id: int = protocol.SCHEME_DEFAULT,
        priority: int = 16,
        detached: bool = False,
    ) -> bytes:
        """Submit one field for compression; returns the 8-byte job id.

        ``eb=0.0`` / the default scheme id defer to the server's
        configured policy.  ``detached=True`` lets the job outlive this
        connection (otherwise a disconnect cancels it while it is still
        cancellable).
        """
        field = np.ascontiguousarray(field)
        if field.dtype not in (np.float32, np.float64):
            raise ValueError("service accepts float32/float64 fields")
        payload = protocol.pack_submit(
            field.tobytes(),
            field.shape,
            str(field.dtype),
            eb=eb,
            scheme_id=scheme_id,
            priority=priority,
            flags=protocol.FLAG_DETACHED if detached else 0,
        )
        frame = self._roundtrip(protocol.VERB_SUBMIT, payload=payload)
        return frame.job_id

    def status(self, job_id: bytes) -> str:
        """The job's current lifecycle state name (docs/SERVICE.md §5)."""
        frame = self._roundtrip(protocol.VERB_STATUS, job_id=job_id)
        from repro.service import jobs as jobstates

        return jobstates.STATE_NAMES[frame.payload[0]]

    def fetch(self, job_id: bytes) -> bytes:
        """The finished container; raises :class:`JobPending` if not
        done yet, :class:`ServiceError` if the job failed/cancelled."""
        return self._roundtrip(protocol.VERB_FETCH, job_id=job_id).payload

    def wait(self, job_id: bytes) -> bytes:
        """Block until the job is terminal, then return its container
        (or raise like :meth:`fetch` for failed/cancelled jobs)."""
        return self._roundtrip(protocol.VERB_WAIT, job_id=job_id).payload

    def cancel(self, job_id: bytes) -> None:
        """Cancel a queued job, or request cooperative cancellation of
        a running one; terminal jobs raise ``ERR_UNCANCELLABLE``."""
        self._roundtrip(protocol.VERB_CANCEL, job_id=job_id)

    def stat(self) -> dict:
        """The server's STAT document (``secp-stat/2``)."""
        frame = self._roundtrip(protocol.VERB_STAT)
        return json.loads(frame.payload.decode())
