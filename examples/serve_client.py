#!/usr/bin/env python3
"""Round-trip the ``secz serve`` daemon with the SECP client.

Boots an in-process daemon on a unix socket (the same code path
``secz serve`` runs), submits statistically similar fields one job
each, waits for the containers, verifies a decompression round trip against
the error bound, and prints the STAT document.

Point ``--socket`` at an already-running daemon to use this as a real
client instead (the daemon must then hold the same passphrase):

Run:  python examples/serve_client.py [--socket /run/secz.sock]
"""

import argparse
import contextlib
import json
import os
import tempfile

import numpy as np

from repro import SecureCompressor
from repro.crypto.aes import derive_key
from repro.service import ServiceClient, ServiceConfig, serve_in_background

ERROR_BOUND = 1e-3
PASSPHRASE = "correct horse battery staple"


def make_fields(n: int, side: int) -> list[np.ndarray]:
    """``n`` smooth fields drawn from one statistical family."""
    x = np.linspace(0.0, 4.0 * np.pi, side, dtype=np.float64)
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    base = (np.sin(gx) * np.cos(gy) + 0.05 * gz).astype(np.float32)
    return [base + np.float32(0.5 * i) for i in range(n)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", default=None,
                        help="connect to a running daemon instead of "
                             "booting one in-process")
    parser.add_argument("--fields", type=int, default=4)
    parser.add_argument("--side", type=int, default=24,
                        help="cube side length per field")
    args = parser.parse_args()

    fields = make_fields(args.fields, args.side)
    key = derive_key(PASSPHRASE)

    with contextlib.ExitStack() as stack:
        if args.socket is None:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            socket_path = os.path.join(tmp, "secz.sock")
            config = ServiceConfig(scheme="encr_huffman",
                                   error_bound=ERROR_BOUND, key=key)
            stack.enter_context(serve_in_background(
                config, os.path.join(tmp, "jobs.sqlite"),
                socket_path=socket_path,
            ))
        else:
            socket_path = args.socket
        client = stack.enter_context(ServiceClient(socket_path))

        client.ping()
        job_ids = [client.submit(field) for field in fields]
        print(f"submitted {len(job_ids)} jobs: "
              + ", ".join(jid.hex() for jid in job_ids))

        containers = [client.wait(jid) for jid in job_ids]
        for jid, container in zip(job_ids, containers):
            kind = container[:4].decode()
            print(f"  {jid.hex()}: {kind} container, {len(container)} bytes "
                  f"(state {client.status(jid)})")

        stat = client.stat()
        print("\nSTAT:")
        print(json.dumps(stat, indent=2, sort_keys=True))

        # The served containers are ordinary SECZ blobs — decompress
        # with the library and check the error bound end to end.
        sc = SecureCompressor(scheme="encr_huffman",
                              error_bound=ERROR_BOUND, key=key)
        worst = max(
            float(np.abs(sc.decompress(container) - field).max())
            for container, field in zip(containers, fields)
        )
        print(f"\nround trip max error: {worst:.2e} "
              f"(bound {ERROR_BOUND:.0e})")
        assert worst <= ERROR_BOUND
        assert stat["jobs"]["failed"] == 0
        print(f"jobs compressed by the pool: {stat['pool']['jobs_compressed']}")


if __name__ == "__main__":
    main()
