#!/usr/bin/env bash
# Regenerates every experiment table in EXPERIMENTS.md.
#
#   ./run_experiments.sh [output-file] [--threads N]
#   ./run_experiments.sh --check     # sanitizer gate (ASan+UBSan, then TSan)
#                                    # + observability suite + trace smoke
#
# --threads N sets the sweep worker count of every bench binary (the one
# parallel layer, DESIGN.md §6); absent or 0 selects hardware
# concurrency, and every value prints the same tables.
#
# DASM_BENCH_LARGE=1 enlarges the sweeps (slower, same shapes).
#
# Every stage propagates its exit code: `set -e` aborts on the first
# failing command and `set -o pipefail` keeps a failing bench from being
# masked by the `tee` it pipes into.
set -euo pipefail

jobs="$(nproc 2>/dev/null || echo 4)"

if [ "${1:-}" = "--check" ]; then
  # Sanitizer gate 1: the arena engine's pointer-flipping delivery path and
  # every protocol on top of it run under ASan+UBSan.
  cmake --preset asan
  cmake --build --preset asan
  ctest --preset asan -j "$jobs"
  # The observability suite (recorder, exporters, determinism) by label,
  # so a filter change in the preset cannot silently drop it.
  ctest --test-dir build-asan -L obs --output-on-failure -j "$jobs"
  # Sanitizer gate 2: the one parallel layer (thread pool, sweep runner,
  # service batches) runs under TSan; the preset filters to the suites
  # that drive every multi-threaded code path.
  cmake --preset tsan
  cmake --build --preset tsan
  ctest --preset tsan -j "$jobs"
  ctest --test-dir build-tsan -L obs --output-on-failure -j "$jobs"
  # Trace smoke: a bench emits a JSONL trace, dasm-trace must load it,
  # print the rollups, and convert it to Chrome trace-event JSON that a
  # real JSON parser accepts.
  cmake -B build -G Ninja
  cmake --build build --target bench_e8_eps_blocking dasm_trace dasm_cli \
    bench_a9_service_throughput
  smoke="$(mktemp -d)"
  trap 'rm -rf "$smoke"' EXIT
  build/bench/bench_e8_eps_blocking --trace-out "$smoke/e8.jsonl" >/dev/null
  build/tools/dasm-trace "$smoke/e8.jsonl" >/dev/null
  build/tools/dasm-trace "$smoke/e8.jsonl" --chrome "$smoke/e8.json" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$smoke/e8.json" >/dev/null
  fi
  echo "trace smoke OK"
  # Service smoke: the same request file served at 1 and 4 threads must
  # produce byte-identical response logs (the svc determinism contract),
  # and the batch trace must load in dasm-trace.
  cat > "$smoke/reqs.txt" <<'EOF'
dasm-requests 1
instance g gen complete 16 3
request g asm eps 0.5
request g asm eps 0.5
request g mm backend ii
request g rand-asm seed 2
EOF
  build/tools/dasm batch --requests "$smoke/reqs.txt" \
    --out "$smoke/resp1.txt" --trace-out "$smoke/svc.jsonl" --threads 1 \
    >/dev/null
  build/tools/dasm batch --requests "$smoke/reqs.txt" \
    --out "$smoke/resp4.txt" --threads 4 >/dev/null
  cmp "$smoke/resp1.txt" "$smoke/resp4.txt"
  build/tools/dasm-trace "$smoke/svc.jsonl" >/dev/null
  echo "service smoke OK"
  # Bench A9 one-cell smoke: the service-vs-naive comparison runs end to
  # end and the byte-equality cross-check inside it passes.
  build/bench/bench_a9_service_throughput --n 32 --distinct 3 --repeat 6 \
    >/dev/null
  echo "bench_a9 smoke OK"
  # Bench A10 smoke: the certifier-throughput bench cross-checks the
  # flat-arena scans against the map reference (identity DASM_CHECKs and
  # the >= 3x verdict) and its JSON must parse.
  cmake --build build --target bench_a10_certifier_throughput
  build/bench/bench_a10_certifier_throughput --n 300 \
    --json-out "$smoke/a10.json" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$smoke/a10.json" >/dev/null
  fi
  echo "bench_a10 smoke OK"
  # Metrics smoke (ISSUE 9): a run emits a JSONL metrics snapshot that a
  # real JSON parser accepts, `dasm-trace metrics` summarizes it, `diff`
  # exits 0 on a self-compare and nonzero on a genuinely regressed
  # candidate (a larger instance inflates every logical metric), and the
  # batch path writes a snapshot too.
  build/tools/dasm run --algo asm --family complete --n 24 \
    --metrics-out "$smoke/m_base.jsonl" >/dev/null
  build/tools/dasm run --algo asm --family complete --n 48 \
    --metrics-out "$smoke/m_reg.jsonl" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$smoke/m_base.jsonl"
  fi
  build/tools/dasm-trace metrics "$smoke/m_base.jsonl" >/dev/null
  build/tools/dasm-trace diff "$smoke/m_base.jsonl" "$smoke/m_base.jsonl" \
    >/dev/null
  if build/tools/dasm-trace diff "$smoke/m_base.jsonl" "$smoke/m_reg.jsonl" \
    --threshold 10 >/dev/null; then
    echo "metrics diff gate failed to flag a regressed candidate" >&2
    exit 1
  fi
  build/tools/dasm batch --requests "$smoke/reqs.txt" \
    --out "$smoke/resp_m.txt" --metrics-out "$smoke/m_svc.jsonl" >/dev/null
  build/tools/dasm-trace metrics "$smoke/m_svc.jsonl" >/dev/null
  # A Prometheus snapshot and the overhead bench (identity DASM_CHECKs of
  # the instrumented-vs-null runs; its JSON must parse).
  cmake --build build --target bench_a11_metrics_overhead
  build/bench/bench_a11_metrics_overhead --n 48 \
    --json-out "$smoke/a11.json" --metrics-out "$smoke/m_a11.prom" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$smoke/a11.json" >/dev/null
  fi
  grep -q '^# TYPE dasm_engine_runs counter$' "$smoke/m_a11.prom"
  echo "metrics smoke OK"
  # Serve smoke (ISSUE 10): a live `dasm serve` on an ephemeral port must
  # serve a loopback client (protocol conversation + per-connection
  # response numbering), answer two /metrics scrapes with monotonic
  # counters, survive a garbage line with a diagnostic ERR, and exit 0 on
  # SIGTERM after a graceful drain that flushes its final snapshot.
  if command -v python3 >/dev/null 2>&1; then
    build/tools/dasm serve --port 0 --port-file "$smoke/port" \
      --metrics-out "$smoke/serve.prom" >/dev/null &
    serve_pid=$!
    for _ in $(seq 100); do [ -s "$smoke/port" ] && break; sleep 0.1; done
    python3 tools/serve_smoke.py --port-file "$smoke/port"
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    grep -q '^# TYPE dasm_net_requests counter$' "$smoke/serve.prom"
    echo "serve smoke OK"
  else
    echo "serve smoke skipped (no python3)"
  fi
  # Bench A12 smoke: the wire byte-identity cross-check against the direct
  # service always runs, the pipelined >= 1.2x closed-loop verdict must
  # hold at smoke size, and the JSON must parse.
  cmake --build build --target bench_a12_serve_throughput
  build/bench/bench_a12_serve_throughput --json-out "$smoke/a12.json" \
    >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$smoke/a12.json" >/dev/null
  fi
  echo "bench_a12 smoke OK"
  exit 0
fi

usage() {
  echo "usage: $0 [output-file] [--threads N] | $0 --check" >&2
  exit 2
}

out=""
threads=0
while [ $# -gt 0 ]; do
  case "$1" in
    --threads)
      [ $# -ge 2 ] || { echo "$0: --threads needs a value" >&2; usage; }
      threads="$2"
      shift 2
      ;;
    --threads=*)
      threads="${1#--threads=}"
      shift
      ;;
    --*)
      # A typo'd flag (e.g. --theads 4) must abort, not silently become
      # the output file and run serial.
      echo "$0: unknown flag $1" >&2
      usage
      ;;
    *)
      [ -z "$out" ] || { echo "$0: unexpected argument '$1'" >&2; usage; }
      out="$1"
      shift
      ;;
  esac
done
case "$threads" in
  ''|*[!0-9]*) echo "$0: --threads expects a non-negative integer, got '$threads'" >&2; usage ;;
esac
out="${out:-experiments_output.txt}"

cmake -B build -G Ninja
cmake --build build
: > "$out"
for b in build/bench/bench_*; do
  echo "##### $b" | tee -a "$out"
  case "$b" in
    # google-benchmark binaries reject flags they don't know.
    *bench_e12*) "$b" 2>&1 | tee -a "$out" ;;
    *) "$b" --threads "$threads" 2>&1 | tee -a "$out" ;;
  esac
done
echo "wrote $out"
