#!/usr/bin/env python3
"""End-to-end smoke for hyperrec_serve, the persistent solve daemon.

Starts the daemon on a private Unix socket and walks the whole protocol:

  1. solve: four fresh-shape generated jobs; each daemon response must be
     bit-identical (modulo timing fields) to a one-shot hyperrec_cli solve
     of the same job — same rng derivation, same machine, same winner,
     same schedule cost.  Then two inline traces, one with its "steps"
     before its "universes": each is also written as a hyperrec-trace v1
     file, and the daemon's answer must equal `hyperrec_cli --trace=FILE`.
  2. repeat round: the same four jobs again; /statz must show the shared
     cache serving them (hits >= 4) — the whole point of a daemon.
  3. quotas: a tenant with a one-request budget gets reject="rate" with a
     positive retry_after_ms while the default tenant keeps completing.
  4. streaming: open a stream, append steps, flush, read the drained
     summary; malformed and mismatched trigger specs are rejected loudly.
  5. /statz: accounting identity received == admitted + rejected_* holds
     per tenant and fleet-wide; queue drains to depth 0.
  6. shutdown: graceful drain acks, the daemon exits 0.

Usage: serve_smoke.py --serve=BIN --cli=BIN [--socket=PATH]
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import time


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)


class Client:
    """One line-delimited JSON connection to the daemon."""

    def __init__(self, path, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buffer = b""

    def request(self, payload):
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                fail("daemon closed the connection mid-request")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            fail(f"daemon answered a non-JSON line: {line!r}")

    def close(self):
        self.sock.close()


def strip_volatile(doc):
    """Drops timing/cache-context fields so solve payloads can be compared
    bit-for-bit across daemon and CLI runs."""
    volatile = {"elapsed_us", "cache", "warm_started"}
    if isinstance(doc, dict):
        return {k: strip_volatile(v) for k, v in doc.items()
                if k not in volatile}
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


def cli_reference_job(cli, shape):
    """Solves the same generated job one-shot through hyperrec_cli.

    The daemon certifies solves by default, so the CLI reference passes
    --certify to keep the documents bit-identical (the bound is a
    deterministic function of the instance).
    """
    out = subprocess.run(
        [cli, "--batch=1", "--certify", f"--workload={shape['workload']}",
         f"--tasks={shape['tasks']}", f"--steps={shape['steps']}",
         f"--universe={shape['universe']}", f"--seed={shape['seed']}"],
        capture_output=True, text=True, timeout=300)
    check(out.returncode == 0, f"hyperrec_cli failed: {out.stderr}")
    doc = json.loads(out.stdout)
    check(doc["job_count"] == 1, "CLI reference must solve exactly one job")
    return doc["jobs"][0]


def random_trace(seed, universes, steps):
    """Rows of (sorted bit list, demand), one per task per step."""
    rng = random.Random(seed)
    return [[(sorted(rng.sample(range(u), rng.randint(0, u))),
              rng.choice((0, 0, 1, 3))) for u in universes]
            for _ in range(steps)]


def write_trace_file(path, universes, rows):
    """Writes rows as hyperrec-trace v1 (src/io/trace_io.hpp)."""
    with open(path, "w") as out:
        out.write(f"hyperrec-trace v1\n{len(universes)}\n{len(rows)}\n")
        out.write(" ".join(str(u) for u in universes) + "\n")
        for j, universe in enumerate(universes):
            for row in rows:
                bits, demand = row[j]
                out.write("".join("1" if b in bits else "0"
                                  for b in range(universe)))
                out.write(f" {demand}\n")


def inline_job(universes, rows, name, steps_first):
    """The same trace as an inline job; member order is free on the wire."""
    if steps_first:
        steps = [[{"demand": demand, "bits": bits} for bits, demand in row]
                 for row in rows]
        trace = {"steps": steps, "universes": universes}
    else:
        steps = [[{"bits": bits, "demand": demand} for bits, demand in row]
                 for row in rows]
        trace = {"universes": universes, "steps": steps}
    return {"trace": trace, "name": name}


def cli_trace_job(cli, path):
    """Solves a trace file one-shot through hyperrec_cli (the job's name is
    the file path, so the daemon request carries the same name)."""
    out = subprocess.run([cli, "--batch=1", "--certify", f"--trace={path}"],
                         capture_output=True, text=True, timeout=300)
    check(out.returncode == 0, f"hyperrec_cli failed: {out.stderr}")
    doc = json.loads(out.stdout)
    check(doc["job_count"] == 1, "CLI reference must solve exactly one job")
    return doc["jobs"][0]


def wait_for_socket(path, process, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if process.poll() is not None:
            fail(f"daemon exited early with status {process.returncode}")
        if os.path.exists(path):
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(path)
                probe.close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    fail("daemon socket never came up")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", required=True)
    parser.add_argument("--cli", required=True)
    parser.add_argument("--socket", default="")
    args = parser.parse_args()

    sock_path = args.socket or os.path.join(
        tempfile.mkdtemp(prefix="hyperrec-smoke-"), "serve.sock")

    # --- 0. malformed flags are startup errors, never silent policy ------
    for bad in ("--tenant-quota=limited:0.5:1junk",
                "--tenant-quota=limited:0.5:1:9",
                "--tenant-quota=limited:fast:1",
                "--trigger=spkie:2.0"):
        probe = subprocess.run(
            [args.serve, f"--socket={sock_path}.probe", bad],
            capture_output=True, text=True, timeout=30)
        check(probe.returncode == 1,
              f"daemon accepted malformed flag {bad!r} "
              f"(exit {probe.returncode})")
        check("tenant-quota" in probe.stderr or "trigger" in probe.stderr,
              f"startup error for {bad!r} should name the flag, "
              f"got: {probe.stderr!r}")
    print("serve_smoke: malformed flags rejected loudly ok")

    trace_dir = tempfile.mkdtemp(prefix="hyperrec-smoke-traces-")
    daemon = subprocess.Popen(
        [args.serve, f"--socket={sock_path}", "--workers=2",
         "--queue-capacity=32", "--cache-capacity=64",
         "--tenant-quota=limited:0.000001:1", "--trigger=steps:16",
         "--window=64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        wait_for_socket(sock_path, daemon)
        client = Client(sock_path)

        # --- 1. fresh-shape solves, bit-identical to the CLI -------------
        # Distinct shapes on purpose: a fresh shape has an empty warm-start
        # index in the daemon, so its solve is exactly the CLI's solve.
        shapes = [
            {"workload": "phased", "tasks": 2, "steps": 24, "universe": 12,
             "seed": 7},
            {"workload": "random", "tasks": 2, "steps": 25, "universe": 12,
             "seed": 7},
            {"workload": "bursty", "tasks": 3, "steps": 20, "universe": 10,
             "seed": 11},
            {"workload": "periodic", "tasks": 2, "steps": 30, "universe": 8,
             "seed": 3},
        ]
        for shape in shapes:
            response = client.request(
                {"op": "solve", "tenant": "acme", "priority": 1,
                 "id": shape["workload"], "job": dict(shape)})
            check(response.get("schema") == "hyperrec-batch-result",
                  f"solve answered {response}")
            check(response["version"] == 6, "result schema must be v6")
            check(response["tenant"] == "acme", "tenant echo missing")
            check(response["queue"]["priority"] == 1, "queue envelope missing")
            check(response["job_count"] == 1, "daemon solves one job per request")
            got = strip_volatile(response["jobs"][0])
            want = strip_volatile(cli_reference_job(args.cli, shape))
            check(got == want,
                  f"daemon/CLI divergence for {shape['workload']}:\n"
                  f"  daemon: {json.dumps(got, sort_keys=True)}\n"
                  f"  cli:    {json.dumps(want, sort_keys=True)}")
        print("serve_smoke: 4 fresh solves bit-identical to hyperrec_cli")

        # Inline traces: the path serve_cold drives.  Equal universes keep
        # them on the exact fast path, and their shapes are fresh too.
        for seed, universes, steps, steps_first in (
                (5, [5, 5], 7, False), (6, [6, 6, 6], 9, True)):
            rows = random_trace(seed, universes, steps)
            path = os.path.join(trace_dir, f"inline-{seed}.trace")
            write_trace_file(path, universes, rows)
            response = client.request(
                {"op": "solve", "tenant": "acme", "id": f"inline-{seed}",
                 "job": inline_job(universes, rows, path, steps_first)})
            check(response.get("schema") == "hyperrec-batch-result",
                  f"inline solve answered {response}")
            got = strip_volatile(response["jobs"][0])
            want = strip_volatile(cli_trace_job(args.cli, path))
            check(got == want,
                  f"daemon/CLI divergence for inline trace {path}:\n"
                  f"  daemon: {json.dumps(got, sort_keys=True)}\n"
                  f"  cli:    {json.dumps(want, sort_keys=True)}")
        print("serve_smoke: 2 inline traces (one steps-first) bit-identical "
              "to hyperrec_cli --trace")

        # --- 2. repeat round must be served by the shared cache ----------
        for shape in shapes:
            response = client.request(
                {"op": "solve", "tenant": "acme", "job": dict(shape)})
            check(response["jobs"][0]["cache"] == "hit",
                  f"repeat of {shape['workload']} was not a cache hit")
        statz = client.request({"op": "statz"})
        check(statz["cache"]["hits"] >= 4,
              f"expected >=4 shared-cache hits, statz says {statz['cache']}")
        print(f"serve_smoke: repeat round hit the shared cache "
              f"({statz['cache']['hits']} hits)")

        # --- 3. tenant quota: limited tenant rejected, others fine -------
        first = client.request(
            {"op": "solve", "tenant": "limited", "id": "q1",
             "job": dict(shapes[0])})
        check(first.get("schema") == "hyperrec-batch-result",
              f"limited tenant's first request should be admitted: {first}")
        rejected = client.request(
            {"op": "solve", "tenant": "limited", "id": "q2",
             "job": dict(shapes[0])})
        check(rejected.get("reject") == "rate",
              f"limited tenant's second request should hit the quota: "
              f"{rejected}")
        check(rejected.get("retry_after_ms", 0) > 0,
              "rate rejection must suggest a positive retry_after_ms")
        ok_again = client.request(
            {"op": "solve", "tenant": "acme", "job": dict(shapes[1])})
        check(ok_again.get("schema") == "hyperrec-batch-result",
              "default-quota tenant must keep completing during rejections")
        print(f"serve_smoke: quota rejection ok "
              f"(retry_after_ms={rejected['retry_after_ms']})")

        # --- 4. streaming tenant through the shared multiplexer ----------
        bad = client.request(
            {"op": "stream_open", "universes": [6, 6],
             "trigger": "spkie:2.0"})
        check("error" in bad and "spkie" in bad["error"],
              f"malformed trigger spec must be rejected loudly: {bad}")
        mismatched = client.request(
            {"op": "stream_open", "universes": [6, 6], "trigger": "steps:4"})
        check("error" in mismatched and "fleet-wide" in mismatched["error"],
              f"mismatched trigger spec must be an explicit error: "
              f"{mismatched}")
        opened = client.request(
            {"op": "stream_open", "tenant": "acme", "universes": [6, 6],
             "trigger": "steps:16"})
        check(opened.get("ok") is True and "stream" in opened,
              f"stream_open failed: {opened}")
        stream = opened["stream"]
        for i in range(40):
            ack = client.request(
                {"op": "stream_append", "stream": stream,
                 "step": [{"bits": [i % 6]}, {"bits": [(i + 1) % 6, 2]}]})
            check(ack.get("ok") is True, f"append {i} failed: {ack}")
        check(client.request(
            {"op": "stream_flush", "stream": stream}).get("ok") is True,
            "stream_flush failed")
        summary = client.request({"op": "stream_result", "stream": stream})
        check(summary.get("ok") is True and summary["steps"] == 40,
              f"stream summary wrong: {summary}")
        check(summary["resolves"] >= 2 and not summary["poisoned"],
              f"stream should have re-solved without poisoning: {summary}")
        print(f"serve_smoke: stream {stream} ran 40 steps, "
              f"{summary['resolves']} resolves")

        # --- 5. /statz accounting identity -------------------------------
        statz = client.request({"op": "statz"})
        req = statz["requests"]
        check(req["received"] == req["admitted"] + req["rejected_rate"]
              + req["rejected_backpressure"] + req["rejected_draining"],
              f"fleet accounting identity broken: {req}")
        for tenant in statz["tenants"]:
            check(tenant["received"] == tenant["admitted"]
                  + tenant["rejected_rate"] + tenant["rejected_backpressure"]
                  + tenant["rejected_draining"],
                  f"tenant accounting identity broken: {tenant}")
        check(statz["queue"]["depth"] == 0, "queue must drain between bursts")
        check(statz["latency"]["solve"]["count"] >= 10,
              "solve latency sketch must have recorded the solves")
        check(statz["latency"]["solve"]["p99_us"]
              >= statz["latency"]["solve"]["p50_us"],
              "latency quantiles must be monotone")
        names = [t["name"] for t in statz["tenants"]]
        check("acme" in names and "limited" in names,
              f"tenants missing from statz: {names}")
        print("serve_smoke: statz accounting identity holds")

        # --- 6. graceful shutdown ----------------------------------------
        bye = client.request({"op": "shutdown", "id": "bye"})
        check(bye.get("ok") is True, f"shutdown not acked: {bye}")
        client.close()
        status = daemon.wait(timeout=60)
        check(status == 0, f"daemon exited with status {status}")
        print("serve_smoke: graceful shutdown, daemon exited 0")
        print("serve_smoke: OK")
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
        shutil.rmtree(trace_dir, ignore_errors=True)
        if os.path.exists(sock_path) and not args.socket:
            try:
                os.unlink(sock_path)
                os.rmdir(os.path.dirname(sock_path))
            except OSError:
                pass


if __name__ == "__main__":
    main()
