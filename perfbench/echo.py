"""Loopback echo peer for the benchmark's wire reference.

    python3 perfbench/echo.py

Listens on an ephemeral 127.0.0.1 port, prints the port, accepts one
connection and sends every byte back until the peer closes it.  It uses
nothing but the standard library, so its speed is the host's, never the
program's.
"""

import socket


def main() -> None:
    with socket.create_server(("127.0.0.1", 0)) as srv:
        print(srv.getsockname()[1], flush=True)
        conn, _ = srv.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = memoryview(bytearray(1 << 20))
        while True:
            got = conn.recv_into(buf)
            if not got:
                break
            conn.sendall(buf[:got])


if __name__ == "__main__":
    main()
