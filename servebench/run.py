#!/usr/bin/env python3
"""End-to-end benchmark of `dasm serve`, with a traced per-layer replay.

    python3 servebench/run.py --workload hot|cold|churn --seed N \
        --seconds S --trace 0|1
    python3 servebench/run.py --self-test     # harness arithmetic
    python3 servebench/run.py --smoke         # every workload, briefly

Run from the repository root. The first run builds the server, the load
generator and the replay from source into .bench_build/servebench.

One run of a workload:
  1. writes the plan: every line the workload sends, made from --seed
     (servebench/design.json holds the fixed rates, bursts and reasons);
  2. starts `dasm serve --threads 2 --preload servebench/corpus.txt`
     several times, timing each from spawn to the answer to one probe
     request (setup_s is their median), and keeps the last server;
  3. gives each server thread one of the server's two CPUs, keeps both
     from idling with idle-priority spinners, and drives the server over
     loopback with servebench_load, on a CPU apart from the server's two:
     a warm-up burst; a paced open-loop phase (Poisson arrivals, latency
     taken from each request's scheduled send time, server CPU read from
     /proc, both as medians over ten windows of the phase); untimed ramp
     bursts; and a replay phase of bursts, whose answers per second inside
     the bursts are max_rps. GET /metrics is scraped only between phases;
  4. stops the server with SIGTERM, which must exit 0;
  5. replays the same plan in-process with servebench_replay, whose answer
     lines every wire answer must equal; with --trace 1 it replays once
     with spans and once without, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""
import argparse
import bisect
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PHASES = ("warmup", "paced", "ramp", "replay")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
WORK = BUILD / "run"
DESIGN = json.loads((HERE / "design.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# The 12 distinct lines of `hot` (bench A12's mix on the corpus's k48).
HOT_LINES = []
for _c in range(12):
    _algo = ["asm eps %s" % ["0.25", "0.3", "0.35", "0.4"][_c // 3 % 4],
             "rand-asm", "mm backend ii"][_c % 3]
    HOT_LINES.append("request k48 %s seed %d" % (_algo, _c + 1))

ANSWER_RE = re.compile(
    r"^r (\d+) inst (\S+) algo (asm|rand-asm|mm) key ([0-9a-f]{16})"
    r" matched (\d+) (blocking|maximal) (\d+) rounds (\d+) messages (\d+)"
    r" bits (\d+)$")


def log(*parts):
    print(*parts, flush=True)


# --------------------------------------------------------------------------
# Arithmetic (checked by --self-test).

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    sample at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def parse_prometheus(text):
    """Sample values by series name (histogram buckets keep their label,
    as in `dasm_time_x_us_bucket{le="7"}`)."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = int(value)
    return samples


def delta(before, after, name):
    """Growth of a counter, histogram _sum or _count between two scrapes;
    a series absent from a scrape has not been observed yet (0)."""
    return after.get(name, 0) - before.get(name, 0)


def self_test():
    ok = True

    def check(what, got, want):
        nonlocal ok
        if got != want:
            ok = False
            log("FAIL %s: got %r, want %r" % (what, got, want))

    sample = [15, 20, 35, 40, 50]
    check("p30", percentile(sample, 30), 20)
    check("p40", percentile(sample, 40), 20)
    check("p50", percentile(sample, 50), 35)
    check("p100", percentile(sample, 100), 50)
    check("p0", percentile(sample, 0), 15)
    check("p99.9 of 1000", percentile(list(range(1, 1001)), 99.9), 999)
    before = parse_prometheus(
        "# TYPE dasm_svc_cache_hits counter\ndasm_svc_cache_hits 5\n"
        "# TYPE dasm_time_x_us histogram\n"
        'dasm_time_x_us_bucket{le="3"} 2\n'
        'dasm_time_x_us_bucket{le="+Inf"} 3\n'
        "dasm_time_x_us_sum 25\ndasm_time_x_us_count 3\n")
    after = parse_prometheus(
        "# TYPE dasm_svc_cache_hits counter\ndasm_svc_cache_hits 12\n"
        "# TYPE dasm_svc_shed counter\ndasm_svc_shed 4\n"
        "# TYPE dasm_time_x_us histogram\n"
        'dasm_time_x_us_bucket{le="3"} 2\n'
        'dasm_time_x_us_bucket{le="7"} 6\n'
        'dasm_time_x_us_bucket{le="+Inf"} 9\n'
        "dasm_time_x_us_sum 80\ndasm_time_x_us_count 9\n")
    check("counter delta", delta(before, after, "dasm_svc_cache_hits"), 7)
    check("new counter", delta(before, after, "dasm_svc_shed"), 4)
    check("absent counter", delta(before, after, "dasm_nope"), 0)
    check("histogram sum delta",
          delta(before, after, "dasm_time_x_us_sum"), 55)
    check("histogram count delta",
          delta(before, after, "dasm_time_x_us_count"), 6)
    check("bucket delta", delta(
        before, after, 'dasm_time_x_us_bucket{le="+Inf"}'), 6)
    if not ok:
        return False
    log("harness arithmetic self-test passed")
    return run_checked([str(BUILD / "servebench_replay"), "--self-test"]) == 0


# --------------------------------------------------------------------------
# Build.

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "dasm_main.cpp").is_file():
        sys.exit("run.py: no dasm sources at %s; run from a repository "
                 "checkout" % ROOT)
    # The compiler's scratch files stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                    quiet=True, what="configure")
    run_checked(["cmake", "--build", str(BUILD), "-j", "4"], quiet=True,
                what="build")


def run_checked(cmd, quiet=False, what=None):
    out = subprocess.run(cmd, cwd=ROOT, capture_output=quiet, text=True)
    if out.returncode != 0:
        if quiet:
            sys.stderr.write(out.stdout + out.stderr)
        if what:
            sys.exit("run.py: %s failed" % what)
    return out.returncode


# --------------------------------------------------------------------------
# Plans.

def make_plan(workload, seed, seconds):
    """Rows (phase, batch, offset_ns, line). The seed moves the schedule,
    the fresh request seeds and churn's instance seeds; rates, bursts, eps
    and instance targets are fixed by the workload."""
    cfg = DESIGN["workloads"][workload]
    rng = random.Random("%s/%d" % (workload, seed))
    base = rng.randrange(1, 1 << 40)
    counter = [0]

    def cold_line():
        # A cycle of six: asm, rand-asm and mm on the dense k96, one more
        # k96 and one sparse i768 request whose algorithm rotates per cycle,
        # and a lossy asm on k64. The sparse requests take about three
        # times as long; at one in six the median stays inside the dense
        # requests' latency mode instead of in the gap between the two.
        i = counter[0]
        counter[0] += 1
        algos = ["asm eps 0.25", "rand-asm eps 0.25", "mm backend ii"]
        slot, rotated = i % 6, algos[i // 6 % 3]
        line = ["k96 " + algos[0], "k96 " + algos[1], "k96 " + algos[2],
                "k96 " + rotated, "i768 " + rotated,
                "k64 asm eps 0.25 drop 0.05 retransmit-after 2"][slot]
        return "request %s seed %d" % (line, base + i)

    def churn_group():
        k = counter[0]
        counter[0] += 1
        return ["instance u%d gen incomplete 512 %d" % (k, base + k),
                "request u%d asm eps 0.5 seed 1" % k,
                "request u%d mm backend ii seed 1" % k]

    def lines(n):
        """The next n lines of the workload's stream."""
        if workload == "hot":
            return [rng.choice(HOT_LINES) for _ in range(n)]
        if workload == "cold":
            return [cold_line() for _ in range(n)]
        out = []
        while len(out) < n:
            out += churn_group()
        return out

    # One warm-up burst; hot's runs each of its 12 lines once.
    warmup = HOT_LINES if workload == "hot" else lines(cfg["burst"])
    rows, batch = [("warmup", 0, 0, line) for line in warmup], 1
    # Whole churn groups in each of the load generator's ten windows.
    n_paced = round(cfg["paced_rate"] * cfg["paced_share"] * seconds)
    n_paced = max(30, n_paced - n_paced % 30)
    # A churn group arrives as one unit: its asm and mm then share a batch
    # and both wait for the registration, so the latency mode is one.
    group = 3 if workload == "churn" else 1
    paced = lines(n_paced)
    t = 0.0
    for g in range(0, n_paced, group):
        t += rng.expovariate(cfg["paced_rate"] / group)
        rows += [("paced", batch, round(t * 1e9), line)
                 for line in paced[g:g + group]]
        batch += 1
    # Untimed bursts first: cores that sat nearly idle through the paced
    # phase run slow for the first few hundred ms of full load.
    n_replay = max(1, round(cfg["replay_bursts_per_s"] * seconds))
    for phase, n in (("ramp", cfg["ramp_bursts"]), ("replay", n_replay)):
        for _ in range(n):
            rows += [(phase, batch, 0, line) for line in lines(cfg["burst"])]
            batch += 1
    return rows


def write_plan(rows, path):
    with open(path, "w") as f:
        f.write("servebench-plan 1\n")
        for phase, batch, offset, line in rows:
            f.write("%s %d %d %s\n" % (phase, batch, offset, line))


# --------------------------------------------------------------------------
# Server runs.

class Server:
    """One `dasm serve` process; construction is the timed setup."""

    def __init__(self, index):
        server = DESIGN["server"]
        self.stderr = open(WORK / ("server%d.err" % index), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(BUILD / "dasm"), "serve", "--port", "0", "--threads",
             str(server["threads"]), "--preload", server["corpus"]],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            preexec_fn=pin(SERVER_CPUS))
        try:
            buf = self._probe(server["probe"])
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        answer = buf.decode().split("\n")[1] if buf.count(b"\n") >= 2 else ""
        m = ANSWER_RE.match(answer)
        self.probe_ok = bool(m) and m.group(6) == "maximal" and \
            m.group(7) == "1"

    def _probe(self, probe):
        """Waits for the listening line, then sends one request and returns
        the bytes up to its answer."""
        port = None
        for line in self.proc.stdout:
            if line.startswith("serving on "):
                port = int(line.split()[2].rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError("dasm serve did not start")
        self.port = port
        with socket.create_connection(("127.0.0.1", port), timeout=20) as s:
            s.sendall(("dasm-requests 1\n%s\n" % probe).encode())
            buf = b""
            while buf.count(b"\n") < 2:
                chunk = s.recv(4096)
                if not chunk:
                    break
                buf += chunk
        return buf

    def stop(self):
        """SIGTERM; returns the exit code (graceful drain exits 0)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        self.stderr.close()
        return self.proc.returncode

    def kill(self):
        self.proc.kill()
        self.proc.communicate()
        self.stderr.close()


# With at least three CPUs the server gets two and the load generator (and
# the replay) a third of its own, so placement cannot change between runs.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = _CPUS[:2] if len(_CPUS) >= 3 else None
CLIENT_CPUS = _CPUS[2:3] if SERVER_CPUS else None


def pin(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def spread_threads(pid):
    """Gives each thread of a started server one of the server's CPUs, in
    turn. Left to the scheduler, the poll thread and the sweep worker at
    times shared one CPU for a whole run while the other stayed idle (each
    waited over a second to run); churn's latency then read about 40%
    higher."""
    if not SERVER_CPUS:
        return
    tids = sorted(int(t) for t in os.listdir("/proc/%d/task" % pid))
    for i, tid in enumerate(tids):
        os.sched_setaffinity(tid, [SERVER_CPUS[i % len(SERVER_CPUS)]])


class Spinners:
    """servebench_spin at idle priority on each of the server's CPUs while
    the load runs. Without them the host's delay in waking a halted CPU
    landed in request latencies whenever it took steal time: in runs with
    1-3 s of steal, churn's p50 read up to 40% higher and hot's up to 60%
    (six A/B pairs of hot: p50 25.6-27.9 us with them, 29.7-42.3 without)."""

    def __enter__(self):
        self.procs = [subprocess.Popen(
            [str(BUILD / "servebench_spin"), "180"], preexec_fn=idle_on(c))
            for c in SERVER_CPUS or []]
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.kill()
            proc.wait()


def idle_on(cpu):
    def setup():
        os.sched_setaffinity(0, [cpu])
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    return setup


def read_steal_s():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def build_type():
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def replay(plan_path, out, spans, probes):
    """Runs servebench_replay on the plan; returns its exit code."""
    return subprocess.run(
        [str(BUILD / "servebench_replay"), "--corpus",
         DESIGN["server"]["corpus"], "--plan", str(plan_path), "--out",
         str(out), "--spans", str(spans), "--probes", str(probes)],
        cwd=ROOT, preexec_fn=pin(CLIENT_CPUS)).returncode


def drive(plan_path):
    """Times the setups, runs the load generator against the last server
    and stops it. Returns the setups, the problems seen and the steal time
    the host took meanwhile."""
    problems, setups, exits = [], [], []
    steal0 = read_steal_s()
    for k in range(DESIGN["server"]["setups_per_run"]):
        server = Server(k)
        setups.append(server.setup_s)
        if not server.probe_ok:
            problems.append("probe answer of setup %d malformed" % k)
        if k + 1 < DESIGN["server"]["setups_per_run"]:
            exits.append(server.stop())
    try:
        spread_threads(server.proc.pid)
        with Spinners():
            load = subprocess.run(
                [str(BUILD / "servebench_load"), "--port", str(server.port),
                 "--pid", str(server.proc.pid), "--plan", str(plan_path),
                 "--out", str(WORK / "wire")], cwd=ROOT,
                preexec_fn=pin(CLIENT_CPUS), timeout=150)
    finally:
        exits.append(server.stop())
    if load.returncode != 0:
        problems.append("load generator exited %d" % load.returncode)
    if any(code != 0 for code in exits):
        problems.append("server exit codes on SIGTERM: %s" % exits)
    return setups, problems, read_steal_s() - steal0


def check_answers(rows, answers, oracle, edges):
    """Per-phase answer accounting. Every wire answer must be well formed,
    equal the replay's line, and meet its quality bound: blocking <=
    eps*|E| for asm and rand-asm, maximal 1 for mm. Returns the per-phase
    counts and the sums behind blocking_eps_ratio."""
    plan_lines = [r[3] for r in rows if r[3].startswith("request ")]
    per_phase = {p: {"attempted": 0, "answered": 0, "err": 0, "mismatch": 0}
                 for p in PHASES}
    for r in rows:
        if r[3].startswith("request "):
            per_phase[r[0]]["attempted"] += 1
    blocking_sum, eps_edges_sum = 0, 0.0
    for seq, (phase, _recv, line) in enumerate(answers):
        stats = per_phase[phase]
        stats["answered"] += 1
        if line.startswith("ERR"):
            stats["err"] += 1
            continue
        m = ANSWER_RE.match(line)
        if not m or seq >= len(oracle) or line != oracle[seq] or \
                int(m.group(1)) != seq:
            stats["mismatch"] += 1
            continue
        if m.group(3) == "mm":
            stats["mismatch"] += m.group(6) != "maximal" or m.group(7) != "1"
            continue
        req = plan_lines[seq].split()
        eps = float(req[req.index("eps") + 1]) if "eps" in req else 0.25
        bound = eps * edges[m.group(2)]
        blocking_sum += int(m.group(7))
        eps_edges_sum += bound
        stats["mismatch"] += m.group(6) != "blocking" or int(m.group(7)) > bound
    for stats in per_phase.values():
        stats["missing"] = max(0, stats["attempted"] - stats["answered"])
    return per_phase, blocking_sum, eps_edges_sum


def run_workload(workload, seed, seconds, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    rows = make_plan(workload, seed, seconds)
    plan_path = WORK / "plan.txt"
    write_plan(rows, plan_path)
    setups, problems, steal_s = drive(plan_path)

    wire = WORK / "wire"
    sent = read_tsv(wire / "requests.tsv")
    answers = read_tsv(wire / "answers.tsv")
    bounds = [[int(x) for x in row] for row in read_tsv(wire / "boundaries.tsv")]
    scrapes = [parse_prometheus((wire / ("scrape%d.prom" % i)).read_text())
               for i in range(len(bounds))]
    if len(bounds) < len(PHASES) + 1:
        # The generator gave up on a stalled phase; the phases it never
        # ran count as missing answers and add nothing to the scrapes.
        problems.append("load generator stopped after %d of %d phases"
                        % (len(bounds) - 1, len(PHASES)))
        scrapes += [scrapes[-1]] * (len(PHASES) + 1 - len(bounds))
        bounds += [bounds[-1]] * (len(PHASES) + 1 - len(bounds))

    # The oracle: the in-process replay of the same plan. With --trace 1
    # it also runs the engine probes, so that its wall time is comparable
    # with the traced replay's.
    oracle_dir = WORK / "replay_off"
    if replay(plan_path, oracle_dir, 0, trace) != 0:
        problems.append("replay failed")
    oracle = (oracle_dir / "answers.txt").read_text().splitlines()
    edges = {name: int(e) for name, e in read_tsv(oracle_dir / "instances.tsv")}
    per_phase, blocking_sum, eps_edges_sum = check_answers(
        rows, answers, oracle, edges)

    # Scrape deltas per phase: nothing shed; hot is all hits after its
    # warm-up, and cold and churn never hit.
    failed = 0
    for i, p in enumerate(PHASES):
        stats = per_phase[p]
        for key, name in (("hits", "dasm_svc_cache_hits"),
                          ("misses", "dasm_svc_cache_misses"),
                          ("shed", "dasm_svc_shed")):
            stats[key] = delta(scrapes[i], scrapes[i + 1], name)
        failed += stats["err"] + stats["missing"]
        if stats["mismatch"]:
            problems.append("%d bad answers in %s" % (stats["mismatch"], p))
        if stats["shed"]:
            problems.append("%d shed in %s" % (stats["shed"], p))
        if workload == "hot" and p != "warmup" and stats["misses"]:
            problems.append("%d cache misses in hot %s" % (stats["misses"], p))
        if workload != "hot" and stats["hits"]:
            problems.append("%d cache hits in %s %s" % (stats["hits"],
                                                        workload, p))

    # End-to-end metrics. The paced figures are medians over ten windows of
    # the phase's lines, so a stall of the shared host in part of the phase
    # moves them little. Throughput counts the replay phase's bursts only,
    # not the generator's turnaround between them.
    win_edges = [[int(x) for x in row]
                 for row in read_tsv(wire / "windows.tsv")]
    win_starts = [e[0] for e in win_edges[:-1]]
    win_lat = [[] for _ in win_starts]
    paced_begin = next(i for i, r in enumerate(rows) if r[0] == "paced")
    paced_late, bursts = [], {}
    for seq, (phase, recv, line) in enumerate(answers):
        if seq >= len(sent) or line.startswith("ERR"):
            continue
        _, plan_line, sched, sent_ns = sent[seq]
        recv, sched, sent_ns = int(recv), int(sched), int(sent_ns)
        if phase == "paced" and win_starts:
            w = bisect.bisect_right(win_starts, int(plan_line) - paced_begin)
            win_lat[w - 1].append((recv - sched) / 1e6)
            paced_late.append((sent_ns - sched) / 1e6)
        elif phase == "replay":
            b = bursts.setdefault(rows[int(plan_line)][1], [sent_ns, recv, 0])
            b[0], b[1], b[2] = min(b[0], sent_ns), max(b[1], recv), b[2] + 1
    win_cpu = [(win_edges[i + 1][1] - win_edges[i][1]) / 1e3 / len(lat)
               for i, lat in enumerate(win_lat) if lat]
    paced_lat = [x for lat in win_lat for x in lat]
    replay_ns = sum(last - first for first, last, _ in bursts.values())
    e2e = {
        "max_rps": sum(n for _, _, n in bursts.values()) * 1e9 / replay_ns
        if bursts else 0.0,
        "lat_p50_ms": statistics.median(percentile(lat, 50)
                                        for lat in win_lat if lat)
        if paced_lat else 0.0,
        "cpu_us_per_req": statistics.median(win_cpu) if win_cpu else 0.0,
        "setup_s": statistics.median(setups),
        "server_rss_mb": bounds[-1][2] / 1024.0,
        "blocking_eps_ratio": blocking_sum / eps_edges_sum
        if eps_edges_sum else 0.0,
    }

    log("servebench %s seed %d seconds %d trace %d" % (workload, seed,
                                                       seconds, trace))
    log("host: git %s, build %s, nproc %d, server threads %d, steal %.2f s"
        % (git_sha(), build_type(), os.cpu_count(),
           DESIGN["server"]["threads"], steal_s))
    log("setups (s): %s" % " ".join("%.4f" % s for s in setups))
    for p in PHASES:
        s = per_phase[p]
        log("phase %-6s attempted %6d answered %6d err %d missing %d "
            "bad %d hits %d misses %d shed %d"
            % (p, s["attempted"], s["answered"], s["err"], s["missing"],
               s["mismatch"], s["hits"], s["misses"], s["shed"]))
    if paced_lat:
        n = len(paced_lat)
        log("paced latency ms: p50 %.4f  p99 %.4f (%d beyond)  p99.9 %.4f "
            "(%d beyond)  n=%d" % (
                percentile(paced_lat, 50), percentile(paced_lat, 99),
                n - math.ceil(Fraction(99, 100) * n),
                percentile(paced_lat, 99.9),
                n - math.ceil(Fraction(999, 1000) * n), n))
        log("generator lateness ms: p50 %.4f  p99 %.4f"
            % (percentile(paced_late, 50), percentile(paced_late, 99)))
    for name, value in e2e.items():
        log("e2e %-20s %.6g" % (name, value))

    result = {"correct": False, "attempted": sum(
        s["attempted"] for s in per_phase.values()), "failed": failed}
    if trace:
        result["metrics"], layer_problems = per_layer(
            workload, rows, plan_path, scrapes, bounds, e2e)
        problems += layer_problems
        for name, m in result["metrics"].items():
            log("layer %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in e2e.items()}
    for p in problems:
        log("PROBLEM: %s" % p)
    result["correct"] = not problems and failed == 0
    return result


def per_layer(workload, rows, plan_path, scrapes, bounds, e2e):
    """The per-layer table: traced replay (spans on) against an identical
    untraced replay for the overhead, plus scrape deltas of the wire run."""
    problems = []
    on_dir = WORK / "replay_on"
    if replay(plan_path, on_dir, 1, 1) != 0:
        problems.append("traced replay failed")
    wall_on = int(dict(read_tsv(on_dir / "summary.tsv"))["wall_ns"])
    wall_off = int(dict(read_tsv(WORK / "replay_off" / "summary.tsv"))
                   ["wall_ns"])
    if (on_dir / "answers.txt").read_text() != \
            (WORK / "replay_off" / "answers.txt").read_text():
        problems.append("traced and untraced replays answered differently")

    agg = {}  # (phase, layer) -> [calls, self_ns, total_ns]
    for phase, layer, calls, self_ns, total_ns in read_tsv(
            on_dir / "layers.tsv"):
        agg[(phase, layer)] = [int(calls), int(self_ns), int(total_ns)]

    timed = ("paced", "replay")
    everywhere = ("setup",) + PHASES

    def total(layer, phases, field=1):
        return sum(v[field] for (p, l), v in agg.items()
                   if p in phases and (l == layer or l.startswith(layer + ".")))

    def per_call(layer, phases, scale):
        calls = total(layer, phases, 0)
        return total(layer, phases) / scale / calls if calls else 0.0

    engine = ("engine.cell", "core.asm", "core.rand_asm", "mm.run",
              "stable.certify")
    lines_in = {p: sum(1 for r in rows if r[0] == p) for p in everywhere}
    reqs_in = {p: sum(1 for r in rows if r[0] == p and
                      r[3].startswith("request ")) for p in everywhere}
    instances_in = {p: lines_in[p] - reqs_in[p] for p in everywhere}
    all_self = {p: sum(v[1] for (ph, l), v in agg.items()
                       if ph == p and l != "svc.cells") for p in everywhere}
    engine_self = sum(total(l, timed) for l in engine)
    timed_self = all_self["paced"] + all_self["replay"]

    probes = read_tsv(on_dir / "probes.tsv") if (
        on_dir / "probes.tsv").is_file() else []
    rounds = sum(int(r[4]) for r in probes)
    messages = sum(int(r[5]) for r in probes)
    sm_rounds = sum(int(r[4]) for r in probes if r[2] != "mm")
    sm_mm_rounds = sum(int(r[6]) for r in probes if r[2] != "mm")
    lossy = [r for r in probes if r[3] == "1"]
    lossy_msgs = sum(int(r[5]) for r in lossy)

    at = {p: i for i, p in enumerate(PHASES)}  # scrape/bound before phase p

    def sd(phases, name):
        return sum(delta(scrapes[at[p]], scrapes[at[p] + 1], name)
                   for p in phases)

    hits = sd(timed, "dasm_svc_cache_hits")
    misses = sd(timed, "dasm_svc_cache_misses")
    batch_n = sd(("replay",), "dasm_svc_batch_requests_count")
    net_batch_us = sd(("replay",), "dasm_time_net_batch_us_sum")
    rss_grow_kb = bounds[at["replay"] + 1][1] - bounds[at["replay"]][1]
    answered_paced = reqs_in["paced"]
    threads = DESIGN["server"]["threads"]

    layers = {
        "net.frame_us": total("net.frame", ("replay",)) / 1e3 /
        max(1, lines_in["replay"]),
        "net.serialize_us": per_call("net.serialize", timed, 1e3),
        "net.flushes_per_resp": sd(timed, "dasm_time_net_write_us_count") /
        max(1, sd(timed, "dasm_net_responses")),
        "net.reads_per_req": sd(timed, "dasm_time_net_read_us_count") /
        max(1, sd(timed, "dasm_net_requests")),
        "net.unattributed_us": e2e["cpu_us_per_req"] -
        all_self["paced"] / 1e3 / max(1, answered_paced),
        "svc.parse_us": per_call("svc.parse", timed, 1e3),
        "svc.submit_us": per_call("svc.submit", timed, 1e3),
        "svc.batch_self_us": total("svc.batch", timed) / 1e3 /
        max(1, reqs_in["paced"] + reqs_in["replay"]),
        "svc.cache_hit_ratio": hits / max(1, hits + misses),
        "svc.batch_size": sd(("replay",), "dasm_svc_batch_requests_sum") /
        max(1, batch_n),
        "svc.queue_wait_ms": sd(("paced",), "dasm_time_svc_queue_wait_us_sum")
        / 1e3 / max(1, sd(("paced",), "dasm_time_svc_queue_wait_us_count")),
        "svc.register_ms": per_call("svc.register", everywhere, 1e6),
        "svc.instance_kb": rss_grow_kb / instances_in["replay"]
        if instances_in["replay"] else 0.0,
    }
    families = sorted({l.split(".", 2)[2] for (_, l) in agg
                       if l.startswith("gen.build.")})
    for family in families:
        layers["gen.build_ms." + family] = per_call(
            "gen.build." + family, everywhere, 1e6)
    layers.update({
        "gen.build_calls": total("gen.build", timed, 0),
        "core.asm_ms": per_call("core.asm", everywhere, 1e6),
        "core.rand_asm_ms": per_call("core.rand_asm", everywhere, 1e6),
        "mm.run_ms": per_call("mm.run", everywhere, 1e6),
        "congest.rounds_per_req": rounds / max(1, len(probes)),
        "congest.messages_per_req": messages / max(1, len(probes)),
        "core.mm_round_share": sm_mm_rounds / max(1, sm_rounds),
        "congest.retx_ratio": sum(int(r[7]) + int(r[8]) for r in lossy) /
        lossy_msgs if lossy_msgs else 0.0,
        "stable.certify_us": per_call("stable.certify", everywhere, 1e3),
        "stable.certify_share": total("stable.certify", everywhere) /
        max(1, total("engine.cell", everywhere, 2)),
        "par.sweep_util": sd(("replay",), "dasm_time_svc_execute_us_sum") /
        (threads * net_batch_us) if net_batch_us else 0.0,
        "trace.overhead_pct": (wall_on - wall_off) * 100.0 / wall_off,
        "engine.calls_timed": total("engine.cell", timed, 0),
        "engine.attributed_share": engine_self / timed_self
        if timed_self else 0.0,
    })

    # The premises each workload was chosen for.
    if workload == "hot":
        if layers["engine.calls_timed"] != 0:
            problems.append("hot made engine calls in its timed phases")
        if layers["svc.cache_hit_ratio"] != 1:
            problems.append("hot cache-hit ratio is not 1")
    elif layers["svc.cache_hit_ratio"] != 0:
        problems.append("%s cache-hit ratio is not 0" % workload)
    if workload == "cold" and layers["engine.attributed_share"] < 0.9:
        problems.append("cold engine share of self time below 0.9")
    if layers["gen.build_calls"] != instances_in["paced"] + \
            instances_in["replay"]:
        problems.append("gen.build calls differ from instance lines")

    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    out = {}
    for name, value in layers.items():
        out[name] = {"value": value, "unit": units.get(name, "")}
        if name not in units and BENCH["per_layer"]:
            problems.append("metric %s missing from BENCHMARK.json" % name)
    return out, problems


def smoke():
    """Every workload, briefly, with the per-layer pass; all must pass the
    answer checks."""
    saved = DESIGN["server"]["setups_per_run"]
    DESIGN["server"]["setups_per_run"] = 1
    ok = True
    for workload in DESIGN["workloads"]:
        result = run_workload(workload, 1, 1, 1)
        log("smoke %s: %s" % (workload, "ok" if result["correct"] and
                              result["failed"] == 0 else "FAILED"))
        ok = ok and result["correct"] and result["failed"] == 0
    DESIGN["server"]["setups_per_run"] = saved
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(DESIGN["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        return 0 if self_test() else 1
    if args.smoke:
        return 0 if smoke() else 1
    if not args.workload:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
