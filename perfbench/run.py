#!/usr/bin/env python3
"""BrickSim benchmark: end-to-end and per-layer metrics over four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds `bricksim` and `perfbench_driver` (Release only) under
.bench_build/, runs workload W for about S seconds, checks every output
against perfbench/golden.json, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones, from a traced repeat of
the workload's work through each layer's public functions
(perfbench/driver.cpp), whose artifacts (Chrome trace, self-time table,
per-config cost table, tracing overhead) land in .bench_runs/<run>/.

Workloads (the seed orders submissions and the serve request mix, never the
amount of work):
  paper256    cold `bricksim run fig3 fig4 fig5 fig6 table3 table5 fig7
              check --n 256 --jobs nproc`: replay and how 108 configs of
              30x-varying cost pack onto nproc workers.
  kernel512   harness::run_sweep on one 512^3 config at a time (three
              kernels, jobs = nproc): only intra-kernel replay moves it.
              Runnable, but not listed in BENCHMARK.json: its sharded replay
              needs every core at once, so on a shared 4-core host its wall
              time swung with core availability (ten-seed quartile spread
              0.08-0.49 of the median) while its CPU time stayed flat.
  all64       cold `bricksim all --n 64 --jobs nproc`: per-config fixed
              costs (front end, decode, mixbench, shard/cache writes,
              emitters, autotune).  Its input is fixed; the seed is recorded.
  serve_warm  `bricksim serve` over a disk cache pre-warmed in set-up, memo
              budget below the working set, one closed-loop client process
              mixing sweep and experiment ops.  Runnable, but not listed in
              BENCHMARK.json: on a shared 4-core host its ten-seed quartile
              spread reached 0.26-0.36 of the median, past the 0.25 bound.
              Its request mix still drives every traced run's serve phase.

Other modes:
  --record-golden   rewrite perfbench/golden.json from the current program
  --rebase          re-measure the legacy BENCH_replay.json reference points
                    into perfbench/legacy_rebase.json (not gating)

Failures (failed configs, failed experiments, non-ok replies, golden-digest
mismatches) are reported as `failed` out of `attempted`: fail_frac is
failed / attempted.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden.json"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
RUNS = ROOT / ".bench_runs"
BRICKSIM = BUILD / "bricksim" / "bench" / "bricksim"
DRIVER = BUILD / "perfbench_driver"
NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 170

WORKLOADS = ["paper256", "kernel512", "all64", "serve_warm"]
PAPER_EXPS = ["fig3", "fig4", "fig5", "fig6", "table3", "table5", "fig7", "check"]
KERNELS = [
    "A100/CUDA;13pt;bricks codegen",
    "MI250X-GCD/HIP;25pt;bricks codegen",
    "PVC-Stack/SYCL;125pt;array",
]
SERVE_NS = [64, 128]
SERVE_SWEEPS = [(kind, n) for kind in ("main", "cpu") for n in SERVE_NS]
SERVE_EXPS = ["fig3", "fig4", "fig5", "fig6", "table3", "table5", "fig7",
              "check", "mixbench", "cpu_crossplatform"]
# Serialized sweep entries: main ~116 KB, cpu ~37 KB, so the four pre-warmed
# sweeps total ~306 KB; this budget keeps about two thirds of them.
SERVE_MEMO_BYTES = 200_000
SERVE_SETUPS = 3
# One connection: with more, an experiment op can fail (std::bad_alloc) or
# return a wrong table, because SweepProvider keeps references into memo
# entries that a concurrent request's disk reload evicts.  That is a defect
# of the program, not of the workload; see CHANGES.md.
SERVE_CONNS = 1
CLI_SETUPS = 15
TRACE_SERVE_REQUESTS = 2000

E2E_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "req_p50_ms": "ms", "req_p99_ms": "ms", "req_per_s": "1/s",
}
LAYER_UNITS = {
    "simt.replay_s": "s", "simt.insts_per_s": "1/s",
    "simt.l1_bytes_per_s": "B/s", "simt.lumped_frac": "ratio",
    "simt.decode_s": "s", "simt.intra_speedup": "ratio",
    "harness.config_s_max": "s", "harness.config_s_p50": "s",
    "harness.tail_s": "s", "harness.sched_eff": "ratio",
    "model.prepare_s": "s", "codegen.lower_s": "s", "ir.regalloc_s": "s",
    "analysis.brickcheck_s": "s", "analysis.brickperf_s": "s",
    "roofline.mixbench_s": "s", "harness.autotune_s": "s",
    "harness.shard_write_s": "s", "harness.cache_store_s": "s",
    "harness.cache_load_s": "s", "harness.cache_bytes": "B",
    "harness.emit_s": "s", "serve.warm_memo_frac": "ratio",
    "serve.warm_disk_frac": "ratio", "serve.memo_evictions": "count",
    "serve.server_p50_ms": "ms", "serve.wire_ms": "ms",
    "memsim.l1_bytes": "B", "memsim.l2_bytes": "B", "memsim.hbm_bytes": "B",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fnv1a(data: bytes) -> str:
    """FNV-1a 64 as 16 hex digits (perfbench_driver uses the same)."""
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def median(xs):
    return statistics.median(xs)


def nearest_rank(xs, q):
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * len(s)))]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- build and provenance ----------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "bench/bricksim.cpp"):
        if not (ROOT / need).exists():
            raise BenchError(f"BrickSim sources missing: {need} not found "
                             f"next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                                  *gen, "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed; see {build_log}")
        rc = subprocess.call(["cmake", "--build", str(BUILD), "-j", str(NPROC),
                              "--target", "bricksim", "perfbench_driver"],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError(f"build failed; see {build_log}")
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = next((ln.split("=", 1)[1] for ln in cache.splitlines()
                       if ln.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise BenchError(f"refusing to time a '{build_type}' build; "
                         f"the benchmark needs CMAKE_BUILD_TYPE=Release")
    info = json.loads(subprocess.check_output([str(DRIVER), "info"]))
    if not (info["optimized"] and info["ndebug"]):
        raise BenchError(f"refusing to time an unoptimized build: {info}")
    return info


def source_revision():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    files = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(p.relative_to(ROOT).as_posix().encode() + p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


# --- processes ---------------------------------------------------------------

def spawn(argv, stdout=subprocess.DEVNULL, stderr=None):
    """Runs argv to completion: (rc, wall_s, cpu_s, maxrss_mb)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=stdout,
                         stderr=stderr if stderr is not None else subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def spawn_checked(argv, what, err_path):
    with open(err_path, "w") as err:
        rc, wall, cpu, rss = spawn(argv, stderr=err)
    if rc != 0:
        tail = Path(err_path).read_text()[-2000:]
        raise BenchError(f"{what} exited {rc}:\n{tail}")
    return wall, cpu, rss


def frame_call(sock_path, request, timeout=60.0):
    payload = json.dumps(request).encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(str(sock_path))
        s.sendall(struct.pack(">I", len(payload)) + payload)
        head = recv_exact(s, 4)
        return json.loads(recv_exact(s, struct.unpack(">I", head)[0]))


def recv_exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise BenchError("serve connection closed mid-reply")
        buf += chunk
    return buf


class Daemon:
    """A `bricksim serve` child on a socket relative to the checkout root."""

    def __init__(self, rundir, cache, memo_bytes=0):
        self.sock = (rundir / "d.sock").relative_to(ROOT)
        self.err = open(rundir / "daemon.err", "w")
        argv = [BRICKSIM, "serve", "--socket", self.sock, "--cache-dir", cache,
                "--workers", NPROC]
        if memo_bytes:
            argv += ["--memo-bytes", memo_bytes]
        self.proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                                     stdout=subprocess.DEVNULL, stderr=self.err)
        deadline = time.monotonic() + 30
        while True:
            try:
                if frame_call(self.sock, {"op": "healthz"}, timeout=5)["ok"]:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("bricksim serve did not become healthy")
            time.sleep(0.005)

    def call(self, request):
        return frame_call(self.sock, request)

    def stop(self):
        """Shuts the daemon down; returns its (cpu_s, maxrss_mb)."""
        if self.proc.poll() is None:
            try:
                frame_call(self.sock, {"op": "shutdown"}, timeout=10)
            except (OSError, BenchError, ValueError):
                self.proc.terminate()
        killer = threading.Timer(30, self.proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            ru = None
        finally:
            killer.cancel()
            self.err.close()
        if ru is None:
            return 0.0, 0.0
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


# --- golden digests ----------------------------------------------------------

class Golden:
    """perfbench/golden.json: expected digests per workload and key."""

    def __init__(self, record):
        self.record = record
        self.data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

    def check(self, workload, group, key, digest):
        """True when `digest` is the golden one (records it when recording)."""
        table = self.data.setdefault(workload, {}).setdefault(group, {})
        if self.record:
            table[key] = digest
            return True
        return table.get(key) == digest

    def expected(self, workload, group):
        return {} if self.record else self.data.get(workload, {}).get(group, {})

    def save(self):
        GOLDEN.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)
            log(f"perfbench: FAILED: {note}")


def check_cli_outputs(out_dir, exps, golden, workload, tally):
    """Run summary, experiment statuses and output digests of one CLI run."""
    summary = json.loads((out_dir / "run_summary.json").read_text())
    failures = summary.get("failures", [])
    tally.add(summary["cache"]["configs_simulated"],
              sum(1 for f in failures if f["site"] in ("launch", "roofline")),
              f"config failures {failures}")
    statuses = summary.get("experiment_status", {})
    tally.add(len(exps), sum(1 for e in exps if statuses.get(e) != "ok"),
              f"experiment statuses {statuses}")
    bad = []
    for e in exps:
        for fname in ("output.txt", "tables.json"):
            path = out_dir / e / fname
            digest = fnv1a(path.read_bytes()) if path.exists() else "missing"
            if not golden.check(workload, "outputs", f"{e}/{fname}", digest):
                bad.append(f"{e}/{fname}")
    tally.add(2 * len(exps), len(bad), f"golden digest mismatch: {bad}")
    return summary


def check_client(result, golden, workload, tally):
    """Non-ok replies and digest mismatches of one client run."""
    tally.add(result["sent"], result["non_ok"] + result["mismatch"],
              f"serve replies: {result['non_ok']} not ok, "
              f"{result['mismatch']} digest mismatches {result['bad']}")
    if golden.record:
        for key, digest in result["observed"].items():
            golden.check(workload, "serve", key, digest)


def request_file(path, workload, seed, golden):
    """The serve phase's request list: blocks of requests against one sweep
    each, in a fixed cyclic order of sweeps, so every seed does the same
    memo and disk work; the seed orders the requests within each block."""
    if workload == "serve_warm":
        sweeps, exps = SERVE_SWEEPS, SERVE_EXPS
    elif workload == "paper256":
        sweeps, exps = [("main", 256)], PAPER_EXPS
    elif workload == "all64":
        sweeps = [("main", 64), ("cpu", 64)]
        exps = SERVE_EXPS + ["table1", "table2", "table4"]
    else:  # kernel512 has no paper sweep; serve a small pre-warmed one
        sweeps, exps = [("main", 64)], ["fig3", "table1"]
    rng = random.Random(seed)
    expect = golden.expected(workload, "serve")
    doc = []
    for _ in range(8):
        for kind, n in sweeps:
            block = [(f"sweep:{kind}:{n}", {"op": "sweep", "kind": kind, "n": n})]
            block += [(f"experiment:{e}:{n}", {"op": "experiment", "name": e, "n": n})
                      for e in exps
                      if (e == "cpu_crossplatform") == (kind == "cpu")]
            rng.shuffle(block)
            for key, req in block:
                entry = {"key": key, "req": req}
                if not golden.record:
                    entry["expect"] = expect.get(key, "no-golden-digest")
                doc.append(entry)
    path.write_text(json.dumps(doc))
    return path


# --- measurement loops -------------------------------------------------------

def timed_loop(seconds, one):
    """Calls one(k) until the budget is used (at least once)."""
    t0 = time.perf_counter()
    samples = []
    while True:
        samples.append(one(len(samples)))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(samples) >= seconds:
            return samples


def spawn_setup(rundir, argv):
    """CLI set-up: a fresh cache directory plus one process spawn."""
    times = []
    for k in range(CLI_SETUPS):
        t0 = time.perf_counter()
        fresh_dir(rundir / f"setup{k}" / "cache")
        rc, _, _, _ = spawn(argv)
        if rc != 0:
            raise BenchError(f"set-up spawn {argv} exited {rc}")
        times.append(time.perf_counter() - t0)
    return median(times)


def cli_argv(workload, seed, out, cache):
    if workload == "all64":
        head = ["all", "--n", 64]
    else:
        exps = list(PAPER_EXPS)
        random.Random(seed).shuffle(exps)
        head = ["run", *exps, "--n", 256]
    return [BRICKSIM, *head, "--jobs", NPROC, "--out", out, "--cache-dir", cache]


def cli_exps(workload):
    if workload == "all64":
        listing = json.loads(subprocess.check_output([str(BRICKSIM), "list", "--json"]))
        return [e["name"] for e in listing]
    return PAPER_EXPS


def cli_iteration(workload, seed, rundir, k, golden, tally, keep=False):
    d = fresh_dir(rundir / f"it{k}")
    wall, cpu, rss = spawn_checked(
        cli_argv(workload, seed, d / "out", d / "cache"), workload,
        d / "stderr.txt")
    check_cli_outputs(d / "out", cli_exps(workload), golden, workload, tally)
    if not keep:
        shutil.rmtree(d / "cache", ignore_errors=True)
    return {"wall": wall, "cpu": cpu, "rss": rss, "ops": [wall],
            "cache": d / "cache"}


def kernel_iteration(seed, rundir, k, golden, tally):
    d = fresh_dir(rundir / f"it{k}")
    kernels = list(KERNELS)
    random.Random(seed).shuffle(kernels)
    _, cpu, rss = spawn_checked(
        [DRIVER, "kernel512", "--kernels", "|".join(kernels), "--jobs", NPROC,
         "--out", d / "kernels.json", "--cache", d / "cache"],
        "kernel512", d / "stderr.txt")
    rows = json.loads((d / "kernels.json").read_text())
    tally.add(len(rows), sum(r["failures"] for r in rows),
              f"kernel512 config failures {rows}")
    bad = [r["kernel"] for r in rows
           if not golden.check("kernel512", "measurements", r["kernel"], r["digest"])]
    tally.add(len(rows), len(bad), f"kernel512 measurement digest mismatch: {bad}")
    ops = [r["seconds"] for r in rows]
    return {"wall": sum(ops), "cpu": cpu, "rss": rss, "ops": ops,
            "cache": d / "cache"}


def cli_e2e(workload, seed, seconds, rundir, golden, tally):
    if workload == "kernel512":
        setup_s = spawn_setup(rundir, [DRIVER, "info"])
        samples = timed_loop(seconds, lambda k: kernel_iteration(
            seed, rundir, k, golden, tally))
    else:
        setup_s = spawn_setup(rundir, [BRICKSIM, "list", "--json"])
        samples = timed_loop(seconds, lambda k: cli_iteration(
            workload, seed, rundir, k, golden, tally))
    ops = [x for s in samples for x in s["ops"]]
    # Operation percentiles are taken per iteration, then the median across
    # iterations: kernel512's three kernels differ 3x in cost, and a pooled
    # percentile would jump between them.
    return {
        "wall_s": median([s["wall"] for s in samples]),
        "cpu_s": median([s["cpu"] for s in samples]),
        "peak_rss_mb": median([s["rss"] for s in samples]),
        "setup_s": setup_s,
        "req_p50_ms": 1e3 * median([median(s["ops"]) for s in samples]),
        "req_p99_ms": 1e3 * median([nearest_rank(s["ops"], 0.99) for s in samples]),
        "req_per_s": len(ops) / sum(ops),
    }, {"iterations": len(samples), "ops": ops}


def serve_setup(rundir, k, tally):
    """Daemon start, healthz and the disk pre-warm: (seconds, cache, wall)."""
    d = fresh_dir(rundir / f"setup{k}")
    t0 = time.perf_counter()
    daemon = Daemon(d, d / "cache")
    try:
        prewarm0 = time.perf_counter()
        for kind, n in SERVE_SWEEPS:
            reply = daemon.call({"op": "sweep", "kind": kind, "n": n})
            tally.add(1, 0 if reply.get("ok") and reply.get("status") == "simulated"
                      and reply.get("failures") == 0 else 1,
                      f"pre-warm sweep {kind}:{n}: {reply}")
        prewarm = time.perf_counter() - prewarm0
        elapsed = time.perf_counter() - t0
    finally:
        daemon.stop()
    return elapsed, d / "cache", prewarm


def serve_e2e(seed, seconds, rundir, golden, tally):
    setups = [serve_setup(rundir, k, tally) for k in range(SERVE_SETUPS)]
    cache = setups[-1][1]
    reqs = request_file(rundir / "requests.json", "serve_warm", seed, golden)
    daemon = Daemon(rundir, cache, SERVE_MEMO_BYTES)
    try:
        _, client_cpu, _ = spawn_checked(
            [DRIVER, "client", "--socket", daemon.sock, "--requests", reqs,
             "--conns", SERVE_CONNS, "--seconds", seconds, "--out",
             rundir / "client.json"], "serve client", rundir / "client.err")
        counters = daemon.call({"op": "counters"})["counters"]
    finally:
        daemon_cpu, daemon_rss = daemon.stop()
    res = json.loads((rundir / "client.json").read_text())
    check_client(res, golden, "serve_warm", tally)
    if counters["simulated"] or counters["failed"]:
        tally.add(0, counters["simulated"] + counters["failed"],
                  f"warm daemon simulated or failed: {counters}")
    per_s = res["sent"] / res["elapsed_s"]
    # A closed loop keeps one request in flight for the whole window, so
    # wall and CPU are reported per 1000 requests, not per window.
    return {
        "wall_s": 1000.0 / per_s,
        "cpu_s": 1000.0 * (client_cpu + daemon_cpu) / res["sent"],
        "peak_rss_mb": daemon_rss,
        "setup_s": median([s[0] for s in setups]),
        "req_p50_ms": res["p50_ms"],
        "req_p99_ms": res["p99_ms"],
        "req_per_s": per_s,
    }, {"requests": res["sent"], "counters": counters}


# --- traced run --------------------------------------------------------------

def traced(workload, seed, rundir, golden, tally):
    """One untraced reference pass, then the traced layer walk."""
    trace_dir = rundir / "trace"
    args = [DRIVER, "trace", "--out", trace_dir, "--cache", rundir / "trace_cache"]
    jobs = NPROC
    if workload == "serve_warm":
        _, ref_cache, ref_wall = serve_setup(rundir, 0, tally)
        args += ["--sweeps", ",".join(f"{k}:{n}" for k, n in SERVE_SWEEPS),
                 "--memo-bytes", SERVE_MEMO_BYTES]
    elif workload == "kernel512":
        ref = kernel_iteration(seed, rundir, 0, golden, tally)
        ref_cache, ref_wall = ref["cache"], ref["wall"]
        jobs = 1  # serial replay: the numerator of simt.intra_speedup
        serve_dir = rundir / "serve_prewarm"
        spawn_checked([BRICKSIM, "run", "fig3", "--n", 64, "--jobs", NPROC,
                       "--out", serve_dir / "out", "--cache-dir", serve_dir / "cache"],
                      "serve pre-warm", rundir / "prewarm.err")
        args += ["--kernels", "|".join(KERNELS), "--serve-cache", serve_dir / "cache"]
    else:
        ref = cli_iteration(workload, seed, rundir, 0, golden, tally, keep=True)
        ref_cache, ref_wall = ref["cache"], ref["wall"]
        args += ["--sweeps", "main:256" if workload == "paper256" else "main:64,cpu:64"]
        if workload == "all64":
            args += ["--extras", "all64"]
    reqs = request_file(rundir / "requests.json", workload, seed, golden)
    args += ["--ref-cache", ref_cache, "--jobs", jobs, "--requests", reqs,
             "--socket", (rundir / "t.sock").relative_to(ROOT),
             "--conns", SERVE_CONNS if workload == "serve_warm" else NPROC,
             "--serve-requests", TRACE_SERVE_REQUESTS]
    spawn_checked(args, "traced walk", rundir / "trace.err")
    doc = json.loads((trace_dir / "trace_metrics.json").read_text())
    tally.add(doc["tasks"], doc["failed_tasks"], "traced walk task failures")
    tally.add(doc["sweeps_compared"], doc["sweeps_mismatched"],
              "traced KernelReports differ from the untraced run")
    check_client(doc["serve"], golden, workload, tally)

    m = dict(doc["metrics"])
    # Σconfig_s is measured in the walk; wall and jobs are the untraced run's.
    m["harness.tail_s"] = ref_wall - doc["config_s_sum"] / NPROC
    m["harness.sched_eff"] = doc["config_s_sum"] / (NPROC * ref_wall)
    m["simt.intra_speedup"] = m["simt.replay_s"] / ref_wall
    c = doc["serve"]["counters"]
    requests = max(1, c["requests"])
    m["serve.warm_memo_frac"] = c["warm_memo"] / requests
    m["serve.warm_disk_frac"] = c["warm_disk"] / requests
    m["serve.memo_evictions"] = c["memo_evictions"]
    m["serve.server_p50_ms"] = c["p50_ms"]
    m["serve.wire_ms"] = doc["serve"]["p50_ms"] - c["p50_ms"]
    overhead = {
        "untraced_wall_s": ref_wall,
        "traced_walk_s": doc["walk_s"],
        "traced_jobs": jobs,
        "overhead_frac": doc["walk_s"] / ref_wall - 1.0,
        "note": ("traced walk vs the untraced run of the same work; kernel512 "
                 "walks serially against a jobs=nproc run, so its ratio is "
                 "the intra-kernel speedup, not span cost")
                if workload == "kernel512" else
                "traced walk vs the untraced run of the same work",
    }
    (trace_dir / "overhead.json").write_text(json.dumps(overhead, indent=1) + "\n")
    return m, {"overhead": overhead, "trace_dir": str(trace_dir.relative_to(ROOT))}


# --- entry points ------------------------------------------------------------

def metrics_block(values, units):
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(args):
    info = build()
    os.chdir(ROOT)
    golden = Golden(record=False)
    if not golden.data:
        raise BenchError(f"{GOLDEN} missing; run with --record-golden first")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    rundir = fresh_dir(RUNS / tag)
    prov = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": NPROC,
        "loadavg_start": os.getloadavg(), "compiler": info["compiler"],
        "build_type": "Release", "revision": source_revision(),
    }
    tally = Tally()
    if args.trace:
        values, detail = traced(args.workload, args.seed, rundir, golden, tally)
        units = LAYER_UNITS
    elif args.workload == "serve_warm":
        values, detail = serve_e2e(args.seed, args.seconds, rundir, golden, tally)
        units = E2E_UNITS
    else:
        values, detail = cli_e2e(args.workload, args.seed, args.seconds, rundir,
                                 golden, tally)
        units = E2E_UNITS
    prov["loadavg_end"] = os.getloadavg()
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics_block(values, units),
    }
    (rundir / "result.json").write_text(json.dumps(
        {"provenance": prov, "detail": detail, "failures": tally.notes,
         "fail_frac": tally.failed / max(1, tally.attempted), "result": result},
        indent=1, default=str) + "\n")
    print("provenance: " + json.dumps(prov, default=str))
    print(json.dumps(result))


def record_golden():
    """Rewrites golden.json from one untraced and one traced pass of each
    workload on the current program."""
    build()
    os.chdir(ROOT)
    golden = Golden(record=True)
    golden.data = {}
    tally = Tally()
    for w in ("paper256", "all64", "kernel512", "serve_warm"):
        log(f"perfbench: recording {w}")
        rundir = fresh_dir(RUNS / f"golden-{w}")
        traced(w, 1, rundir, golden, tally)
    if tally.failed:
        raise BenchError(f"recording saw failures: {tally.notes}")
    golden.save()
    log(f"perfbench: wrote {GOLDEN}")


def rebase():
    """The legacy BENCH_replay.json reference points, re-measured here."""
    build()
    os.chdir(ROOT)
    rundir = fresh_dir(RUNS / "rebase")
    rows = []

    def one(name, argv_tail, reps):
        walls = []
        for k in range(reps):
            d = fresh_dir(rundir / f"{name}-{k}")
            wall, cpu, _ = spawn_checked(
                [BRICKSIM, "run", *argv_tail, "--out", d / "out",
                 "--cache-dir", d / "cache"], name, d / "stderr.txt")
            walls.append((wall, cpu))
        walls.sort()
        rows.append({"config": name, "argv": " ".join(map(str, argv_tail)),
                     "median_wall_s": walls[len(walls) // 2][0],
                     "min_wall_s": walls[0][0], "max_wall_s": walls[-1][0],
                     "median_cpu_s": walls[len(walls) // 2][1], "reps": reps})
        log(f"perfbench: {rows[-1]}")

    load0 = os.getloadavg()
    one("fig3_n128_jobs1", ["fig3", "--n", 128, "--jobs", 1], 3)
    one(f"fig3_n128_jobs{NPROC}", ["fig3", "--n", 128, "--jobs", NPROC], 3)
    one(f"five_experiments_n512_jobs{NPROC}",
        ["fig3", "fig5", "fig6", "table3", "table5", "--n", 512, "--jobs", NPROC], 1)
    doc = {
        "note": ("Non-gating re-measurement of the reference points in "
                 "BENCH_replay.json (recorded on a 1-thread host), cold cache, "
                 "Release build; BENCH_replay.json itself is left unchanged."),
        "nproc": NPROC, "loadavg_start": load0, "loadavg_end": os.getloadavg(),
        "revision": source_revision(),
        "stale_1thread_values_s": {"fig3_n128_jobs1": 4.055,
                                   "fig3_n128_jobs4": 4.137,
                                   "fig3_n512_jobs4": 260.573},
        "results": rows,
    }
    (BENCH / "legacy_rebase.json").write_text(json.dumps(doc, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--rebase", action="store_true")
    args = ap.parse_args()
    try:
        if args.record_golden:
            record_golden()
        elif args.rebase:
            rebase()
        elif args.workload:
            run(args)
        else:
            ap.error("--workload is required")
    except (BenchError, OSError, subprocess.CalledProcessError, KeyError,
            ValueError) as e:
        log(f"perfbench: error: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
