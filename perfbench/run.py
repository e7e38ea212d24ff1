#!/usr/bin/env python3
"""End-to-end benchmark for the hyperspectral stack, with a per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload amc_scene --seed 1 --seconds 20 --trace 0

Builds the repository (Release, into $CARGO_TARGET_DIR or .bench_build),
runs one workload, checks its outputs, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Everything else (build logs, the metric table, notes) goes to stderr.
README.md next to this file says why each workload exists and what each
metric should move.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Set-ups per run; setup_s is their median. The measured window follows
# the middle one, so the set-ups span the whole run: the host switches
# between fast and slow spells of several seconds (set-up time moves about
# 50% between them), and set-ups taken in one burst caught one spell.
SETUP_REPS = 21
TIMED_REP = SETUP_REPS // 2
RUN_DEADLINE_S = 170    # after the build, the whole run must end by then
TEARDOWN_S = 20         # SIGTERM drain allowance before SIGKILL

# Fixed workload shapes. Rates are absolute and never recalibrated.
WORKLOADS = {
    "amc_scene": {
        "size": 128, "bands": 64, "chunk_texels": 4096, "tail_slice": 40,
    },
    "serve_miss": {
        "size": 48, "bands": 16, "rate": 20.0, "conns": 4, "shards": 0,
        "warm": 6, "witness_sample": 12, "tail_slice": 100,
    },
    "serve_hot_sharded": {
        "size": 48, "bands": 16, "rate": 2000.0, "conns": 4, "window": 2,
        "shards": 2, "tail_slice": 100, "one_cpu_window": True,
    },
}

# The hot set of serve_hot_sharded, pinned: the shard ring routes on the job
# fingerprint (kind and scene seed among its fields), and these eight split
# 4/4 across two shards (traced runs report shard.jobs_max_over_mean = 1).
# Seed-derived jobs split 4/4 to 8/0 from seed to seed, which moved per-shard
# load and with it latency and CPU per job.
HOT_SET = (("morphology", 1000), ("classify", 1004), ("unmix", 1003),
           ("morphology", 1001), ("classify", 1000), ("unmix", 1000),
           ("morphology", 1004), ("classify", 1010))

KINDS = ("morphology", "classify", "unmix")

E2E_UNITS = {
    "setup_s": "s",
    "throughput_jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "hsi.scene_gen_ms": "ms",
    "core.morphology_ms": "ms",
    "core.unmix_ms": "ms",
    "gpusim.host_ns_per_fragment": "ns",
    "gpusim.replay_share": "ratio",
    "gpusim.passes": "count",
    "gpusim.fragments": "count",
    "gpusim.alu_instr": "count",
    "gpusim.tex_fetches": "count",
    "gpusim.texcache_hit_rate": "ratio",
    "gpusim.modeled_gpu_ms": "ms",
    "stream.chunks_per_job": "count",
    "stream.chunk_ms": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.exec_ms_p50": "ms",
    "cache.result_hit_rate": "ratio",
    "cache.program_hit_rate": "ratio",
    "cache.scene_hit_rate": "ratio",
    "net.overhead_ms_p50": "ms",
    "shard.hop_ms_p50": "ms",
    "shard.jobs_max_over_mean": "ratio",
    "loadgen.lateness_ms_p99": "ms",
    "trace.overhead_pct": "%",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------- processes

class Processes:
    """Every child this run starts, each in its own session, so one signal
    reaches a server and the shard workers it forks."""

    def __init__(self, env):
        self.env = env
        self.live = []

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, env=self.env, start_new_session=True, **kw)
        self.live.append(p)
        return p

    def reap(self, p, term_first=True):
        """Stops p's whole process group and waits for it; returns the
        names of anything still alive afterwards."""
        if p.poll() is None and term_first:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(TEARDOWN_S)
            except subprocess.TimeoutExpired:
                pass
        if p.poll() is None:
            p.kill()
        p.wait()
        # Group members outlive the leader only by a leak; give them a
        # moment (a drained shard may still be exiting), then kill.
        for _ in range(100):
            if not group_members(p.pid):
                break
            time.sleep(0.05)
        left = group_members(p.pid)
        if left:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if p in self.live:
            self.live.remove(p)
        return left

    def reap_all(self):
        for p in list(self.live):
            self.reap(p, term_first=False)


def pin_to_one_cpu(pids):
    """Moves every thread of `pids` onto the last CPU this run may use.

    For the timed window of serve_hot_sharded only, after set-up ran with
    every CPU. Each request there hops load generator -> router -> shard
    and back; across CPUs each hop wakes a halted vCPU, whose wake-up time
    on a shared host follows the host's load (three interleaved 10 s runs
    each: p50 0.137-0.249 ms unpinned, 0.168-0.173 ms on one CPU). On one
    CPU the hops are context switches. The window runs no pipeline (every
    request is a cache hit), so the idle device pools compete for nothing.
    """
    cpu = {max(os.sched_getaffinity(0))}
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpu)
            except ProcessLookupError:
                pass  # a thread that just ended


def group_members(pgid):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                text = f.read()
        except OSError:
            continue
        fields = text[text.rfind(")") + 2:].split()
        if len(fields) > 2 and int(fields[2]) == pgid:
            members.append(f"pid {entry} ({fields[0]})")
    return members


def children_of(pid):
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids += [int(x) for x in f.read().split()]
    except OSError:
        pass
    return kids


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def listening_ports():
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                next(f)
                for line in f:
                    cols = line.split()
                    if cols[3] == "0A":  # TCP_LISTEN
                        ports.add(int(cols[1].rsplit(":", 1)[1], 16))
        except OSError:
            continue
    return ports


def wait_line(p, expect, what):
    """Blocks until child p prints `expect` on stdout."""
    for line in p.stdout:
        if line.strip() == expect:
            return
    p.wait()
    raise BenchError(f"{what} exited with {p.returncode} before {expect}")


def wait_file(path, p, what, timeout_s=30):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as f:
                text = f.read().strip()
            if text:
                return text
        if p.poll() is not None:
            raise BenchError(f"{what} exited with {p.returncode} at start-up")
        time.sleep(0.0005)
    raise BenchError(f"{what} wrote no {os.path.basename(path)}")


# ----------------------------------------------------------------- build

def build(build_dir, env):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"{ROOT} holds no repository sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    hs_dir = os.path.join(build_dir, "hs")
    probe_dir = os.path.join(build_dir, "probe")
    steps = []
    if not os.path.exists(os.path.join(hs_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", hs_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", hs_dir, "--target", "hsi-served",
                  "-j", jobs])
    if not os.path.exists(os.path.join(probe_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", probe_dir,
                      "-DCMAKE_BUILD_TYPE=Release", f"-DHS_BUILD_DIR={hs_dir}"])
    steps.append(["cmake", "--build", probe_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    served = os.path.join(hs_dir, "tools", "hsi-served")
    probe = os.path.join(probe_dir, "perfbench-probe")
    for binary in (served, probe):
        if not os.access(binary, os.X_OK):
            raise BenchError(f"build produced no {binary}")
    return served, probe


# ----------------------------------------------------------------- inputs

def spec_line(name, kind, seed, size, bands):
    return json.dumps({"name": name, "kind": kind, "width": size,
                       "height": size, "bands": bands, "seed": seed},
                      separators=(",", ":"))


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def balanced_kinds(rng, n):
    """Kinds in equal shares: each block of three holds one of each."""
    out = []
    while len(out) < n:
        block = list(KINDS)
        rng.shuffle(block)
        out += block
    return out[:n]


def serve_inputs(name, cfg, seed, seconds, run_dir):
    """Writes the spec, warm-up and (open loop) schedule files.

    In serve_miss --seed picks every scene's content; in serve_hot_sharded
    it picks the order in which the pinned hot set is cycled. The arrival
    times, the kind sequence and the hot set itself are pinned: they are
    the workload's shape, and letting them vary made the queueing, not the
    code, set the tail.
    """
    rng = random.Random(f"{name}:shape")
    size, bands = cfg["size"], cfg["bands"]
    base = 1_000_000 + seed * 100_000
    files = {"specs": os.path.join(run_dir, "specs.jsonl"),
             "warm": os.path.join(run_dir, "warm.jsonl")}
    if name == "serve_miss":
        # Open loop: a Poisson process at the fixed rate, conditioned on
        # exactly rate x seconds arrivals so every seed offers equal work.
        n = round(cfg["rate"] * seconds)
        due = sorted(rng.uniform(0, seconds) for _ in range(n))
        kinds = balanced_kinds(rng, n)
        specs = [spec_line(f"m{i}", kinds[i], base + i, size, bands)
                 for i in range(n)]
        warm = [spec_line(f"w{j}", KINDS[j % 3], base - 1 - j, size, bands)
                for j in range(cfg["warm"])]
        files["schedule"] = os.path.join(run_dir, "schedule.txt")
        write_lines(files["schedule"], [f"{t:.6f} {i}" for i, t in
                                        enumerate(due)])
    else:
        # The hot set: every timed request repeats one of these, and
        # set-up runs each once so the result caches hold them.
        order = list(range(len(HOT_SET)))
        random.Random(seed).shuffle(order)
        specs = [spec_line(f"h{i}", *HOT_SET[i], size, bands) for i in order]
        warm = list(specs)
    write_lines(files["specs"], specs)
    write_lines(files["warm"], warm)
    return files, specs


# ---------------------------------------------------------------- metrics

def job_columns(doc):
    j = doc["jobs"]
    return [dict(zip(j, row)) for row in zip(*j.values())]


def spans_for_jobs(jobs):
    spans = []
    for i, j in enumerate(jobs):
        spans.append((i, "job", None, j["start_ms"], j["end_ms"]))
        spans.append((i, "hsi.generate", "job", j["start_ms"], j["gen_end_ms"]))
        if j["kind"] != 2:
            spans.append((i, "core.morphology", "job", j["gen_end_ms"],
                          j["morph_end_ms"]))
        if j["kind"] != 0:
            spans.append((i, "core.unmix", "job", j["morph_end_ms"],
                          j["end_ms"]))
    return spans


def spans_for_requests(reqs):
    """Root span per request, with the worker's reported queue and run time
    as children placed at the end of the root (the frame says how long,
    not when)."""
    spans = []
    for i, q in enumerate(reqs):
        if q["outcome"] != 1:
            continue
        end = q["recv_ms"]
        run_start = end - q["run_ms"]
        spans.append((i, "request", None, q["sent_ms"], end))
        spans.append((i, "serve.queue", "request", run_start - q["queue_ms"],
                      run_start))
        spans.append((i, "serve.run", "request", run_start, end))
    return spans


def write_spans(path, spans):
    with open(path, "w") as f:
        json.dump([{"req": r, "name": n, "parent": p, "start_ms": s,
                    "dur_ms": e - s} for r, n, p, s, e in spans], f)


def self_times(spans):
    """Median self time per span name (duration minus covered children)."""
    by_req = {}
    for r, n, p, s, e in spans:
        by_req.setdefault(r, []).append((n, p, s, e))
    out = {}
    for items in by_req.values():
        for n, _, s, e in items:
            kids = [(cs, ce) for cn, cp, cs, ce in items if cp == n]
            out.setdefault(n, []).append(stats.self_time((s, e), kids))
    return {n: statistics.median(v) for n, v in out.items()}


def in_process_layers(doc, m):
    """hsi/core/gpusim/stream metrics from timed direct pipeline calls."""
    jobs = [j for j in job_columns(doc) if j["traced"]]
    c = doc["job0"]
    kinds = max(1.0, doc.get("probe_kinds", 1.0))
    pipeline = [j["end_ms"] - j["gen_end_ms"] for j in jobs]
    m["hsi.scene_gen_ms"] = statistics.median(
        j["gen_end_ms"] - j["start_ms"] for j in jobs)
    m["core.morphology_ms"] = statistics.median(
        j["morph_end_ms"] - j["gen_end_ms"] for j in jobs if j["kind"] != 2)
    m["core.unmix_ms"] = statistics.median(
        j["end_ms"] - j["morph_end_ms"] for j in jobs if j["kind"] != 0)
    per_job_fragments = c["fragments"] / kinds
    per_job_chunks = c["chunks"] / kinds
    m["gpusim.host_ns_per_fragment"] = (statistics.median(pipeline) * 1e6
                                        / per_job_fragments)
    m["gpusim.replay_share"] = 1.0 - doc["replay_off_ms"] / doc["replay_on_ms"]
    m["gpusim.passes"] = c["passes"]
    m["gpusim.fragments"] = c["fragments"]
    m["gpusim.alu_instr"] = c["alu"]
    m["gpusim.tex_fetches"] = c["tex"]
    m["gpusim.texcache_hit_rate"] = c["tex_hits"] / c["tex_accesses"]
    m["gpusim.modeled_gpu_ms"] = c["modeled_ms"]
    m["stream.chunks_per_job"] = per_job_chunks
    m["stream.chunk_ms"] = statistics.median(pipeline) / per_job_chunks


def setup_note(setups):
    return "set-ups s: " + " ".join(f"{x:.4f}" for x in setups)


def overhead_pct(traced, untraced):
    """Extra mean time per operation when traced, in percent."""
    return 100.0 * (statistics.fmean(traced) / statistics.fmean(untraced) - 1)


# --------------------------------------------------------------- workloads

def run_amc(cfg, args, served, probe, procs, run_dir):
    out = os.path.join(run_dir, "amc.json")
    base = [probe, "amc", "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--out", out,
            "--size", str(cfg["size"]), "--bands", str(cfg["bands"]),
            "--chunk-texels", str(cfg["chunk_texels"])]
    setups = []
    for rep in range(SETUP_REPS):
        timed = rep == TIMED_REP
        t0 = time.monotonic()
        p = procs.spawn(base + ([] if timed else ["--warm-only"]),
                        stdout=subprocess.PIPE, text=True)
        wait_line(p, "WARM", "perfbench-probe amc")
        setups.append(time.monotonic() - t0)
        p.wait()
        left = procs.reap(p)
        if p.returncode != 0 or left:
            raise BenchError(f"probe amc exited {p.returncode}; left {left}")
    with open(out) as f:
        doc = json.load(f)

    jobs = job_columns(doc)
    n = len(jobs)
    if n < 2:
        raise BenchError("amc window ran fewer than two jobs")
    lat = [j["end_ms"] - j["start_ms"] for j in jobs]
    tail, tail_p = stats.sliced_tail(lat, cfg["tail_slice"])
    result = {"attempted": n + doc["checks"], "failed": doc["mismatches"],
              "notes": [f"{n} jobs; tail = p{tail_p}",
                        f"witness mismatches {doc['mismatches']} of "
                        f"{doc['checks']} checks", setup_note(setups)]}
    m = {}
    if args.trace == 0:
        m["setup_s"] = statistics.median(setups)
        m["throughput_jobs_per_s"] = n / (doc["window_ms"] / 1e3)
        m["latency_p50_ms"] = statistics.median(lat)
        m["latency_tail_ms"] = tail
        m["cpu_ms_per_job"] = doc["cpu_ms"] / n
        m["peak_rss_mb"] = doc["peak_rss_mb"]
    else:
        spans = spans_for_jobs(jobs)
        write_spans(os.path.join(run_dir, "spans.json"), spans)
        result["notes"].append(f"self times ms: {self_times(spans)}")
        in_process_layers(doc, m)
        gaps = [b["start_ms"] - a["end_ms"] for a, b in zip(jobs, jobs[1:])]
        m["loadgen.lateness_ms_p99"] = stats.percentile(gaps, 99)
        m["trace.overhead_pct"] = overhead_pct(
            [x for x, j in zip(lat, jobs) if j["traced"]],
            [x for x, j in zip(lat, jobs) if not j["traced"]])
        # No server, queue, wire or router in this workload.
        for name in ("serve.queue_ms_p50", "serve.exec_ms_p50",
                     "cache.result_hit_rate", "cache.program_hit_rate",
                     "cache.scene_hit_rate", "net.overhead_ms_p50",
                     "shard.hop_ms_p50"):
            m[name] = 0.0
        m["shard.jobs_max_over_mean"] = 1.0
    result["metrics"] = m
    return result


def start_server(cfg, served, procs, run_dir, rep):
    state = os.path.join(run_dir, f"server{rep}")
    os.makedirs(state, exist_ok=True)
    port_file = os.path.join(state, "port")
    cmd = [served, "--listen", "0", "--port-file", port_file,
           "--workers", "1", "--metrics", os.path.join(state, "metrics.json")]
    if cfg["shards"]:
        cmd += ["--shards", str(cfg["shards"]), "--shard-dir",
                os.path.join(state, "shards")]
    log_file = open(os.path.join(state, "server.log"), "w")
    try:
        p = procs.spawn(cmd, stdout=log_file, stderr=log_file)
    finally:
        log_file.close()
    port = int(wait_file(port_file, p, "hsi-served"))
    pids = [p.pid] + children_of(p.pid)
    if len(pids) != 1 + cfg["shards"]:
        raise BenchError(f"expected {cfg['shards']} shard processes, "
                         f"found {len(pids) - 1}")
    return p, port, pids, state


def stop_server(p, port, pids, state, procs):
    """Drains the server, then insists nothing it started is left."""
    shard_ports = []
    shard_dir = os.path.join(state, "shards")
    if os.path.isdir(shard_dir):
        for fn in sorted(os.listdir(shard_dir)):
            if fn.endswith(".port"):
                with open(os.path.join(shard_dir, fn)) as f:
                    shard_ports.append(int(f.read().strip()))
    left = procs.reap(p)
    still = set([port] + shard_ports) & listening_ports()
    problems = []
    if p.returncode != 0:
        problems.append(f"hsi-served exited {p.returncode}")
    if left:
        problems.append(f"processes left: {left}")
    if still:
        problems.append(f"ports still listening: {sorted(still)}")
    return problems


def run_serve(name, cfg, args, served, probe, procs, run_dir):
    files, specs = serve_inputs(name, cfg, args.seed, args.seconds, run_dir)
    out = os.path.join(run_dir, "load.json")
    setups, problems = [], []
    for rep in range(SETUP_REPS):
        timed = rep == TIMED_REP
        t0 = time.monotonic()
        p, port, pids, state = start_server(cfg, served, procs, run_dir, rep)
        cmd = [probe, "load", "--port", str(port), "--specs", files["specs"],
               "--warm", files["warm"], "--conns", str(cfg["conns"]),
               "--out", out, "--pids", ",".join(map(str, pids))]
        if "schedule" in files:
            cmd += ["--schedule", files["schedule"]]
        else:
            cmd += ["--rate", str(cfg["rate"]), "--seconds",
                    str(args.seconds), "--window", str(cfg["window"])]
        if not timed:
            cmd.append("--warm-only")
        load = procs.spawn(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           text=True)
        wait_line(load, "WARM", "perfbench-probe load")
        setups.append(time.monotonic() - t0)
        if timed:
            if cfg.get("one_cpu_window"):
                pin_to_one_cpu(pids + [load.pid])
            try:
                load.stdin.write("GO\n")
                load.stdin.close()
            except BrokenPipeError:
                pass  # the probe died; its exit status says so below
        else:
            load.stdin.close()
        load.wait()
        left = procs.reap(load)
        if load.returncode != 0 or left:
            problems.append(f"load probe exited {load.returncode}; left {left}")
        if timed:
            rss = sum(peak_rss_mb(pid) for pid in pids)
        problems += stop_server(p, port, pids, state, procs)
        if problems:
            raise BenchError("; ".join(problems))
    with open(out) as f:
        doc = json.load(f)

    reqs = []
    fatal, protocol_errors = [], 0
    for conn in doc["conns"]:
        if conn["fatal"]:
            fatal.append(conn["fatal"])
        protocol_errors += int(conn["protocol_errors"])
        cols = {k: v for k, v in conn.items()
                if isinstance(v, list)}
        reqs += [dict(zip(cols, row)) for row in zip(*cols.values())]
    reqs.sort(key=lambda q: q["due_ms"])
    sent = [q for q in reqs if q["sent_ms"] >= 0]
    done = [q for q in sent if q["outcome"] == 1]
    rejected = sum(1 for q in sent if q["outcome"] == 2)
    other = sum(1 for q in sent if q["outcome"] == 3)
    missing = sum(1 for q in sent if q["recv_ms"] < 0)

    # Witness gate: served output_hash and modeled_ms must equal an
    # in-process serve::Server's for the same spec.
    if name == "serve_miss":
        stride = max(1, len(specs) // cfg["witness_sample"])
        sample = list(range(0, len(specs), stride))[:cfg["witness_sample"]]
    else:
        sample = list(range(len(specs)))
    wfile = os.path.join(run_dir, "witness.jsonl")
    write_lines(wfile, [specs[i] for i in sample])
    wout = os.path.join(run_dir, "witness.json")
    wcmd = [probe, "witness", "--specs", wfile, "--out", wout]
    if args.trace:
        wcmd.append("--probe")
    w = procs.spawn(wcmd)
    w.wait()
    if procs.reap(w) or w.returncode != 0:
        raise BenchError(f"witness probe exited {w.returncode}")
    with open(wout) as f:
        wdoc = json.load(f)
    expect = {i: r for i, r in zip(sample, wdoc["results"])}
    checked = mismatches = 0
    for q in done:
        want = expect.get(int(q["spec"]))
        if want is None:
            continue
        checked += 1
        if (want["state"] != "done" or q["hash"] != want["hash"]
                or q["modeled_ms"] != want["modeled_ms"]):
            mismatches += 1
    # A sampled spec that never came back Done is a mismatch too.
    mismatches += len(set(sample) - {int(q["spec"]) for q in done})

    window_s = max(q["recv_ms"] for q in done) / 1e3 if done else 0.0
    failed = (rejected + other + missing + protocol_errors + mismatches
              + len(fatal))
    result = {"attempted": len(sent), "failed": failed,
              "notes": [f"{len(sent)} sent, {len(done)} done, {rejected} "
                        f"rejected, {other} other, {missing} missing, "
                        f"{protocol_errors} protocol errors",
                        f"witness: {mismatches} mismatches over {checked} "
                        f"checked responses"] + fatal}
    if not done:
        raise BenchError("no request completed: " + "; ".join(fatal))
    open_loop = "schedule" in files
    # Open loop: latency from the scheduled send; closed loop: from the send.
    lat = [q["recv_ms"] - (q["due_ms"] if open_loop else q["sent_ms"])
           for q in done]
    tail, tail_p = stats.sliced_tail(lat, cfg["tail_slice"])
    result["notes"][0] += f"; tail = p{tail_p} per {cfg['tail_slice']}"
    result["notes"].append(setup_note(setups))
    m = {}
    if args.trace == 0:
        m["setup_s"] = statistics.median(setups)
        m["throughput_jobs_per_s"] = len(done) / window_s
        m["latency_p50_ms"] = statistics.median(lat)
        m["latency_tail_ms"] = tail
        m["cpu_ms_per_job"] = doc["cpu_ms"] / len(done)
        m["peak_rss_mb"] = rss
    else:
        spans = spans_for_requests(reqs)
        write_spans(os.path.join(run_dir, "spans.json"), spans)
        result["notes"].append(f"self times ms: {self_times(spans)}")
        in_process_layers(wdoc, m)
        m["serve.queue_ms_p50"] = statistics.median(q["queue_ms"] for q in done)
        m["serve.exec_ms_p50"] = statistics.median(q["exec_ms"] for q in done)
        m["cache.result_hit_rate"] = (sum(q["cached"] for q in done)
                                      / len(done))
        hop = statistics.median(
            stats.overhead_ms(q["recv_ms"] - q["sent_ms"], q["queue_ms"],
                              q["run_ms"]) for q in done)
        m["net.overhead_ms_p50"] = hop
        m["shard.hop_ms_p50"] = hop if cfg["shards"] else 0.0
        state = os.path.join(run_dir, f"server{TIMED_REP}")
        counters = served_counters(os.path.join(state, "metrics.json"))
        m["cache.program_hit_rate"] = hit_rate(counters, "cache.programs")
        m["cache.scene_hit_rate"] = hit_rate(counters, "cache.scenes")
        m["shard.jobs_max_over_mean"] = shard_balance(
            os.path.join(state, "shards"), cfg["shards"])
        m["loadgen.lateness_ms_p99"] = stats.percentile(
            [q["sent_ms"] - q["due_ms"] for q in sent], 99)
        # Alternate requests form the two halves; hsi-served traces every
        # job in both, so this is the measurement floor (README.md).
        m["trace.overhead_pct"] = overhead_pct(
            [x for i, x in enumerate(lat) if i % 2],
            [x for i, x in enumerate(lat) if not i % 2])
    result["metrics"] = m
    return result


def served_counters(path):
    """Counter/gauge values from an hsi-served --metrics document."""
    with open(path) as f:
        doc = json.load(f)
    counters = {}
    for row in doc.get("results", []):
        for k, v in row.items():
            if isinstance(v, (int, float)) and "." in k:
                counters[k] = v
    return counters


def hit_rate(counters, prefix):
    hits = counters.get(prefix + ".hit", 0)
    total = hits + counters.get(prefix + ".miss", 0)
    return hits / total if total else 0.0


def shard_balance(shard_dir, shards):
    if not shards:
        return 1.0  # one process carries every job
    jobs = []
    for k in range(shards):
        with open(os.path.join(shard_dir, f"shard{k}.stats.json")) as f:
            jobs.append(json.load(f)["jobs"])
    mean = statistics.fmean(jobs)
    return max(jobs) / mean if mean else 0.0


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    run_dir = os.path.join(build_dir, "runs", args.workload)
    env = dict(os.environ, TMPDIR=tmp)
    cfg = WORKLOADS[args.workload]
    procs = Processes(env)

    def on_signal(signum, _frame):
        raise BenchError(f"interrupted by signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    try:
        os.makedirs(tmp, exist_ok=True)
        served, probe = build(build_dir, env)
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        signal.signal(signal.SIGALRM, on_signal)
        signal.alarm(RUN_DEADLINE_S)
        if args.workload == "amc_scene":
            result = run_amc(cfg, args, served, probe, procs, run_dir)
        else:
            result = run_serve(args.workload, cfg, args, served, probe, procs,
                               run_dir)
        signal.alarm(0)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        procs.reap_all()

    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = result["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        log(f"perfbench: metrics not produced: {sorted(missing)}")
        return 1
    for note in result["notes"]:
        log(f"perfbench: {note}")
    for name in units:
        log(f"  {name:30s} {metrics[name]:>16.6f} {units[name]}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
