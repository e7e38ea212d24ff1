#!/usr/bin/env bash
# Full pre-merge check: build and test the Release configuration, an
# ASan/UBSan-instrumented configuration, a TSan configuration running the
# concurrency suite (TSan and ASan are mutually exclusive, hence the
# separate build dir), and a tracing-disabled (HS_TRACE=OFF)
# configuration; then smoke-test the hsi-profile and hsi-served CLIs and
# run the loopback TCP end-to-end smokes: single-process (hsi-served
# --listen driven by hsi-loadgen, witness-checked against file mode) and
# sharded (--shards 2 spawning worker processes, same witness check, then
# a SIGTERM drain).
#
# Usage: tools/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

run_config() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j "${CTEST_ARGS[@]}"
}

# Runs hsi-profile from the given build dir on a small synthetic scene and
# checks the emitted JSON documents have the expected top-level shape.
# (hsi-profile already re-parses both files with the bundled strict JSON
# parser and exits nonzero on failure; this adds an independent check.)
smoke_profile() {
  local dir="$1"
  local out
  out="$(mktemp -d)"
  "$dir/tools/hsi-profile" --synthetic --size 24 --bands 16 \
    --trace "$out/trace.json" --metrics "$out/metrics.json" > /dev/null
  grep -q '"traceEvents"' "$out/trace.json"
  grep -q '"results"' "$out/metrics.json"
  rm -rf "$out"
}

# Runs the sample request batch through hsi-served and checks the report
# and metrics documents. hsi-served validates both with the bundled strict
# JSON parser and exits nonzero when any job fails to reach a terminal
# state, so a zero exit plus the shape greps is a full smoke.
smoke_served() {
  local dir="$1"
  local out
  out="$(mktemp -d)"
  "$dir/tools/hsi-served" --requests examples/serve_requests.jsonl \
    --workers 2 --max-bytes 32000000 \
    --report "$out/report.json" --metrics "$out/metrics.json" > /dev/null
  grep -q '"jobs"' "$out/report.json"
  grep -q '"results"' "$out/metrics.json"
  rm -rf "$out"
}

# Runs the sample batch twice through one hsi-served process with the
# result cache on: the second pass must report cache hits, and hsi-served
# itself exits nonzero if any repeated job's witness hash drifts between
# the live and cached runs.
smoke_cache() {
  local dir="$1"
  local out
  out="$(mktemp -d)"
  "$dir/tools/hsi-served" --requests examples/serve_requests.jsonl \
    --workers 1 --repeat 2 --cache-mb 64 \
    --report "$out/report.json" > /dev/null
  grep -q '"cached": true' "$out/report.json"
  rm -rf "$out"
}

# Telemetry smoke: a fault-injected batch must leave the full observability
# trail -- a registry snapshot hsi-top can render, per-job timelines, and a
# flight-recorder dump for the failed job -- and every document must pass
# the bundled strict-JSON validators (hsi-served exits nonzero otherwise).
# Works in HS_TRACE=OFF builds too: the snapshot degrades to a valid empty
# registry while timelines and flight dumps (serve-layer data) remain.
smoke_telemetry() {
  local dir="$1"
  local out
  out="$(mktemp -d)"
  "$dir/tools/hsi-served" --requests examples/serve_requests.jsonl \
    --workers 2 --max-bytes 32000000 \
    --fault unmix --retry-backoff-ms 1 \
    --timelines "$out/timelines" \
    --snapshot "$out/snapshot.json" \
    --flight-dir "$out/flight" \
    --report "$out/report.json" > /dev/null
  # The injected fault exhausts the retry budget: a validated flight dump
  # must exist for the failed job.
  ls "$out"/flight/flight_job*.json > /dev/null
  grep -q '"hs.flight.v1"' "$out"/flight/flight_job*.json
  # One timeline per job in the batch.
  [ "$(ls "$out"/timelines/timeline_job*.json | wc -l)" -ge 6 ]
  grep -q '"hs.snapshot.v1"' "$out/snapshot.json"
  # hsi-top renders the snapshot (one-shot mode).
  "$dir/tools/hsi-top" "$out/snapshot.json" | grep -q 'export #'
  rm -rf "$out"
}

# Loopback end-to-end smoke for the TCP front door. A file-mode run over
# the deterministic net batch writes the witness report; then hsi-served
# --listen on an ephemeral port (discovered via --port-file) is driven by
# hsi-loadgen, which exits nonzero unless every request got exactly one
# terminal response and every completed job's output hash matches the
# file-mode report byte for byte. Finally SIGTERM must drain the server
# to a clean zero exit whose exit summary -- fed by the backend's
# counters, not by retained job records -- accounts for all 24 jobs.
smoke_net() {
  local dir="$1"
  local out
  out="$(mktemp -d)"
  "$dir/tools/hsi-served" --requests examples/net_requests.jsonl \
    --workers 2 --report "$out/file_report.json" > /dev/null
  "$dir/tools/hsi-served" --listen 0 --port-file "$out/port" --workers 2 \
    > "$out/served.log" 2>&1 &
  local served_pid=$!
  local ok=0
  for _ in $(seq 1 100); do
    [ -s "$out/port" ] && break
    sleep 0.1
  done
  if [ -s "$out/port" ] \
     && "$dir/tools/hsi-loadgen" --port "$(cat "$out/port")" \
          --requests examples/net_requests.jsonl --clients 3 --count 8 \
          --expect-report "$out/file_report.json" > "$out/loadgen.log" \
     && kill -TERM "$served_pid" \
     && wait "$served_pid" \
     && grep -q '^24/24 done, 24/24 terminal$' "$out/served.log"; then
    ok=1
  fi
  if [ "$ok" != 1 ]; then
    kill "$served_pid" 2>/dev/null || true
    echo "net smoke failed" >&2
    cat "$out/served.log" "$out/loadgen.log" >&2 2>/dev/null || true
    return 1
  fi
  rm -rf "$out"
}

# Sharded loopback smoke: the same witness discipline as smoke_net, but
# through the multi-process tier -- hsi-served --listen 0 --shards 2
# fork/execs two of itself in --worker mode and consistent-hashes jobs
# across them. hsi-loadgen must see every request answered exactly once
# with hashes equal to the single-process file-mode report (bit-identical
# outputs for any shard count), and SIGTERM must drain the router, its
# workers, and the front door to a clean zero exit whose counter-fed exit
# summary accounts for all 24 jobs.
smoke_shard() {
  local dir="$1"
  local out
  out="$(mktemp -d)"
  "$dir/tools/hsi-served" --requests examples/net_requests.jsonl \
    --workers 2 --report "$out/file_report.json" > /dev/null
  "$dir/tools/hsi-served" --listen 0 --shards 2 --port-file "$out/port" \
    --shard-dir "$out/state" > "$out/served.log" 2>&1 &
  local served_pid=$!
  local ok=0
  for _ in $(seq 1 100); do
    [ -s "$out/port" ] && break
    sleep 0.1
  done
  if [ -s "$out/port" ] \
     && "$dir/tools/hsi-loadgen" --port "$(cat "$out/port")" \
          --requests examples/net_requests.jsonl --clients 3 --count 8 \
          --expect-report "$out/file_report.json" > "$out/loadgen.log" \
     && kill -TERM "$served_pid" \
     && wait "$served_pid" \
     && grep -q '^24/24 done, 24/24 terminal$' "$out/served.log"; then
    ok=1
  fi
  if [ "$ok" != 1 ]; then
    kill "$served_pid" 2>/dev/null || true
    echo "shard smoke failed" >&2
    cat "$out/served.log" "$out/loadgen.log" "$out"/state/shard*.log >&2 \
      2>/dev/null || true
    return 1
  fi
  rm -rf "$out"
}

# Every bench runs once per check, so none can rot unseen: each must exit
# 0 and write JSON stamped with host_cpus. The list comes from
# bench/*.cpp, so a stale binary left in an old build dir is not run.
# micro_kernels compares the interpreter's and the SoA engine's output
# texels and pass statistics and exits non-zero on any mismatch, so it
# doubles as an end-to-end engine smoke (=NONE skips the google-benchmark
# timings). table3_accuracy runs on a reduced scene; the rest take a few
# seconds each at their defaults.
smoke_benches() {
  local dir="$1"
  local out src name json
  local -a args jsons
  out="$(mktemp -d)"
  for src in bench/*.cpp; do
    name="$(basename "$src" .cpp)"
    [ "$name" != bench_common ] || continue
    case "$name" in
      micro_kernels) args=(--benchmark_filter=NONE) ;;
      table3_accuracy) args=(--size 32 --bands 16 --classes 4) ;;
      *) args=() ;;
    esac
    mkdir "$out/$name"
    if ! "$dir/bench/$name" "${args[@]}" --json "$out/$name" > "$out/$name.log" 2>&1; then
      echo "bench smoke: $name failed" >&2
      cat "$out/$name.log" >&2
      return 1
    fi
    jsons=("$out/$name"/*.json)
    if [ ! -f "${jsons[0]}" ]; then
      echo "bench smoke: $name wrote no JSON" >&2
      return 1
    fi
    for json in "${jsons[@]}"; do
      if ! grep -q '"host_cpus"' "$json"; then
        echo "bench smoke: $json records no host_cpus" >&2
        return 1
      fi
    done
  done
  grep -q '"wall_seconds_soa"' "$out/micro_kernels/BENCH_micro_kernels.json"
  grep -q '"bit_identical": 1' "$out/micro_kernels/BENCH_micro_kernels.json"
  rm -rf "$out"
}

CTEST_ARGS=("$@")

echo "==> Release"
run_config build-release -DCMAKE_BUILD_TYPE=Release
# The soak battery again, explicitly by label: per-request memory growth
# of a long-running front door must fail the check even when extra ctest
# args filtered the soak tests out of the run above. Its RSS bound only
# means something in an uninstrumented build, so this is its home.
ctest --test-dir build-release --output-on-failure -L soak
smoke_profile build-release
smoke_benches build-release
smoke_served build-release
smoke_cache build-release
smoke_telemetry build-release
smoke_net build-release
smoke_shard build-release

echo "==> Sanitizers (address,undefined)"
run_config build-sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHS_SANITIZE=address,undefined
# The socket battery again, explicitly by label: an fd or buffer bug in
# the front door must fail fast under ASan/UBSan even when extra ctest
# args filtered the net tests out of the run above.
ctest --test-dir build-sanitize --output-on-failure -L 'net|slow' -j

echo "==> SoA engine (two-way fuzz oracle + parallel determinism, ASan/UBSan)"
# The fuzz oracle diffs interpreter vs soa bit for bit on randomized
# programs; the ParallelPipeline.Soa* tests pin the SoA engine to the
# sequential interpreter across worker counts {1,2,4,7}. Re-run them
# by name under ASan/UBSan so an out-of-bounds lane loop or a stale plane
# read in the SoA executor fails fast even when extra ctest args filtered
# them out of the main sanitizer pass.
ctest --test-dir build-sanitize --output-on-failure \
  -R 'ProgramFuzz|ParallelPipeline\.Soa' -j

echo "==> ThreadSanitizer (concurrency suite)"
# TSan slows execution ~10x, so run the tests that exercise real
# concurrency: the chunk-parallel pipeline/scheduler determinism suite,
# the serving-layer suite (worker threads + concurrent clients), the
# caching layer (LRU eviction under contention, the shared program store,
# the server result cache), the thread-pool/task-group stress tests, the
# executor cross-contamination tests, the multithreaded trace,
# histogram-shard and flight-recorder-ring tests, and the TCP front door
# battery (event loop vs serve worker hooks, concurrent socket clients).
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHS_SANITIZE=thread
cmake --build build-tsan -j
ctest --test-dir build-tsan --output-on-failure \
  -R 'ParallelPipeline|ChunkScheduler|ProgramFuzz|Serve|Cache|ThreadPool|TaskGroup|StreamExecutor|Trace\.|Histogram|FlightRecorder|Timeline|Net' \
  -j "${CTEST_ARGS[@]}"
# The sharded tier under TSan: the router's event-loop thread vs
# submit/wait/kill callers, with real worker processes behind it.
ctest --test-dir build-tsan --output-on-failure -L shard -j

echo "==> Tracing compiled out (HS_TRACE=OFF)"
run_config build-notrace -DCMAKE_BUILD_TYPE=Release -DHS_TRACE=OFF
smoke_profile build-notrace
smoke_served build-notrace
smoke_cache build-notrace
smoke_telemetry build-notrace
smoke_net build-notrace
smoke_shard build-notrace

echo "==> All checks passed"
