#!/usr/bin/env python3
"""Loopback smoke client for `dasm serve` (CI + run_experiments.sh --check).

Drives a live server through the whole front-end contract once:

  1. speaks the line protocol on one connection (header, instance
     registration, pipelined requests) and checks the greeting plus
     per-connection response numbering r 0..k-1 in submission order;
  2. scrapes GET /metrics twice around a second burst, parses both
     bodies as Prometheus text exposition, and checks that every counter
     is monotonic between scrapes (the registry-lifetime contract: a
     scrape never resets);
  3. sends one garbage line and one raw-loss request (drop without
     retransmit-after) and checks the server answers each with a
     diagnostic ERR, then serves the valid request that follows; then
     two requests that parse but whose runs fail a check (eps too small
     for the schedule; a payload dead at the retransmit cap), each
     followed by a valid request, and checks each failure is answered
     ERR in its place and the request after it is still served;
  4. sends tests/golden/batch_requests.txt on a fresh connection in one
     sendall, half-closes, and checks the stream up to the server's close
     equals tests/golden/batch_responses.txt byte for byte: the golden
     declares no file instances, so the wire must serve exactly the bytes
     `dasm batch` writes. Its instance names differ from the smoke_*
     names of the steps before, so one server serves all four.

Usage: serve_smoke.py (--port N | --port-file PATH)
Exits nonzero on the first violated expectation.
"""
import argparse
import os
import socket
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "tests", "golden")


def fail(msg):
    print("serve_smoke: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


class Lines:
    """Blocking line reader over a socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                fail("unexpected EOF from server")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def scrape(port):
    """Returns ({series name: value}, {metric name: type}) from /metrics."""
    sock = connect(port)
    sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
    body = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    sock.close()
    text = body.decode()
    status, _, rest = text.partition("\r\n")
    if "200" not in status:
        fail("scrape status: " + status)
    _, _, payload = rest.partition("\r\n\r\n")
    values, types = {}, {}
    for line in payload.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            name, mtype = line[len("# TYPE "):].split()
            types[name] = mtype
            continue
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            fail("unparseable exposition line: " + line)
        try:
            values[series] = values.get(series, 0.0) + float(value)
        except ValueError:
            fail("non-numeric sample: " + line)
    return values, types


def drive_requests(port, instance, count, seed0):
    """Pipelines `count` requests on one connection, checks the numbering."""
    sock = connect(port)
    lines = Lines(sock)
    text = "dasm-requests 1\ninstance %s gen complete 16 %d\n" % (
        instance, seed0)
    for i in range(count):
        text += "request %s asm eps 0.5 seed %d\n" % (instance, seed0 + i)
    sock.sendall(text.encode())
    if lines.read_line() != "dasm-responses 1":
        fail("bad greeting")
    for i in range(count):
        line = lines.read_line()
        if not line.startswith("r %d " % i):
            fail("response %d out of order: %s" % (i, line))
    sock.close()


def golden_over_the_wire(port):
    """The golden request file in one sendall; the answer stream must be
    the golden response file, and nothing more."""
    with open(os.path.join(GOLDEN, "batch_requests.txt"), "rb") as f:
        requests = f.read()
    with open(os.path.join(GOLDEN, "batch_responses.txt"), "rb") as f:
        expected = f.read()
    sock = connect(port)
    sock.sendall(requests)
    sock.shutdown(socket.SHUT_WR)
    got = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        got += chunk
    sock.close()
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        line = expected[:at].count(b"\n") + 1
        fail("golden stream differs from batch_responses.txt at byte %d "
             "(line %d); got %d bytes, want %d"
             % (at, line, len(got), len(expected)))
    return expected.count(b"\n") - 1


def main():
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--port", type=int)
    group.add_argument("--port-file")
    args = parser.parse_args()
    port = args.port
    if port is None:
        with open(args.port_file) as f:
            port = int(f.read().strip())

    drive_requests(port, "smoke_a", count=4, seed0=1)
    first_values, first_types = scrape(port)
    if first_values.get("dasm_svc_requests") != 4.0:
        fail("first scrape: dasm_svc_requests != 4: %r"
             % first_values.get("dasm_svc_requests"))

    drive_requests(port, "smoke_b", count=3, seed0=50)
    second_values, second_types = scrape(port)
    if second_values.get("dasm_svc_requests") != 7.0:
        fail("second scrape: dasm_svc_requests != 7: %r"
             % second_values.get("dasm_svc_requests"))
    for name, mtype in first_types.items():
        if mtype != "counter":
            continue
        if name not in second_values:
            fail("counter %s vanished between scrapes" % name)
        if second_values[name] < first_values[name]:
            fail("counter %s went backwards: %r -> %r"
                 % (name, first_values[name], second_values[name]))
    for name in second_types:
        if "_us" in name and not name.startswith("dasm_time_"):
            fail("wall-clock metric outside time.* namespace: " + name)

    # Malformed input and raw loss answer ERR and the stream keeps working.
    sock = connect(port)
    lines = Lines(sock)
    sock.sendall(b"dasm-requests 1\nfrobnicate\n"
                 b"request smoke_a asm eps 0.5 seed 1 drop 0.1\n"
                 b"request smoke_a asm eps 0.5 seed 1\n")
    if lines.read_line() != "dasm-responses 1":
        fail("bad greeting on malformed-input connection")
    for what in ("garbage line", "raw-loss request"):
        err = lines.read_line()
        if not err.startswith("ERR "):
            fail(what + " not answered with ERR: " + err)
    if not lines.read_line().startswith("r 0 "):
        fail("valid request after the ERR lines not served")

    # A run that fails a check answers ERR in its place (and takes its
    # sequence number); the server keeps serving.
    sock.sendall(b"instance smoke_c gen chain 16 7\n"
                 b"request smoke_c asm eps 0.000000001\n"
                 b"request smoke_c asm eps 0.5\n"
                 b"request smoke_c asm eps 0.5 drop 0.5 retransmit-after 1"
                 b" max-retransmits 1\n"
                 b"request smoke_c asm eps 0.5 seed 2\n")
    for seq, what in ((2, "k >= 1 schedule check"), (4, "dead payload")):
        err = lines.read_line()
        if not err.startswith("ERR ") or "check failed" in err or ".cpp:" in err:
            fail(what + " not answered with a clean ERR: " + err)
        if not lines.read_line().startswith("r %d " % seq):
            fail("valid request after the %s not served" % what)
    sock.close()

    golden = golden_over_the_wire(port)

    print("serve_smoke: OK (7 requests, 2 scrapes, 4 ERR recoveries, "
          "%d golden answers byte-identical)" % golden)


if __name__ == "__main__":
    main()
