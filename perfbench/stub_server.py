"""A one-write HTTP/1.1 stub: the load harness's own ceiling.

Answers every request on a persistent connection with a fixed small
JSON body, headers and body in a single ``sendall``, and does no other
work.  The serve workload drives it with the same client and connection
count it uses against the real server; the completed requests per
second are ``harness_ceiling_rps``, the most the client could measure.

Run: ``python3 perfbench/stub_server.py`` -- prints
``stub on http://127.0.0.1:PORT`` once listening; stops on SIGTERM.
"""

from __future__ import annotations

import signal
import socketserver
import sys

BODY = b'{"ok": true}'
REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: " + str(len(BODY)).encode() + b"\r\n\r\n" + BODY
)


class Handler(socketserver.StreamRequestHandler):
    """Read one framed request at a time; answer it in one write."""

    def handle(self) -> None:
        while True:
            line = self.rfile.readline(65537)
            if not line:
                return
            length = 0
            while True:
                header = self.rfile.readline(65537)
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            if length:
                self.rfile.read(length)
            self.wfile.write(REPLY)


class Server(socketserver.ThreadingTCPServer):
    """Threaded like the real ``--workers 0`` server."""

    daemon_threads = True
    allow_reuse_address = True


def main() -> int:
    """Serve until SIGTERM."""
    server = Server(("127.0.0.1", 0), Handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"stub on http://127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
