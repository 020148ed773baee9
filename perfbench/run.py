#!/usr/bin/env python3
"""City-scale /route benchmark for altroute.

    python3 perfbench/run.py --workload short_trips --seed 1 --seconds 40 \
        --trace 0

Builds altroute_cli and perfbench_tool from the checkout into .bench_build,
draws seeded (s, t) pools with a reference Dijkstra, starts the real
`altroute_cli serve` at --scale 4 with one worker per core, and drives it
over loopback HTTP: an open-loop phase at the workload's fixed offered rate
(route traffic, each served route rated at once), then a closed-loop
capacity phase, then timed reloads with no traffic. Every response is
checked against the reference optimum.

--trace 1 additionally replays the open-loop schedule in-process through
the serving layers (perfbench_tool replay), a first quarter of it untraced,
then all of it with spans, and reports the per-layer metrics instead of the
end-to-end ones. Spans, metrics and the run report are written under
.bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import collections
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of build droppings

import loadgen  # noqa: E402
import measure  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CONNECTIONS = os.cpu_count() or 4
SCALE = 4  # every city at citygen scale 4; perfbench_tool assumes it too
RELOAD_CITY = "melbourne"
SETUP_TIMEOUT_S = 120.0
# A failed request (non-200, refused, timed out) counts as taking the
# client's whole timeout: it misses every latency limit, and percentiles
# over it stay finite.
FAILED_MS = loadgen.CLIENT_TIMEOUT_S * 1e3
# Untimed closed-loop /route traffic between set-up and the open loop: the
# first requests a fresh server serves ran up to 5x slower than the rest,
# which users of a long-running server do not see.
WARMUP_S = 1.0
# A load generator that starts requests this late (p99, beyond the later of
# their due time and a free connection) is starved: its latencies would be
# its own, not the server's, so the run is invalid.
MAX_GENERATOR_LATENESS_MS = 20.0

BUCKETS = ("small", "medium", "long")

# Per-layer metrics that must read non-zero on the workload meant to
# exercise them. Failure counters (shed, expired, deadline_exceeded,
# breaker_open) are absent: a healthy run may legitimately read 0. So are
# commercial's and dissimilarity's p95 on study_mix: an open breaker skips
# their runs, and below 200 traced runs a p95 is not reported (reads 0).
_ENGINE_WORK = ("ms_p50", "nodes_settled", "edges_relaxed", "heap_pushes",
                "paths_generated", "yield")
_COMMON_NONZERO = (
    ["http.queue_wait_ms_p50", "http.queue_wait_ms_p95",
     "snapshot.acquire_ms_p95", "snapshot.build_s.melbourne",
     "qp.snap_ms", "qp.render_ms", "qp.serialize_ms",
     "route.nodes_settled_per_n", "ratings.add_ms",
     "server.cpu_ms_per_route", "server.rss_mb_after_setup"]
    + ["engine.%s.%s" % (e, k) for e in ("commercial", "dissimilarity")
       for k in _ENGINE_WORK + ("paths_rejected",)])
EXPECT_NONZERO = {
    "short_trips": _COMMON_NONZERO
    + ["engine.%s.%s" % (e, k) for e in ("plateau", "penalty")
       for k in _ENGINE_WORK]
    + ["engine.%s.ms_p95" % e for e in ("commercial", "plateau",
                                        "dissimilarity", "penalty")],
    "study_mix": _COMMON_NONZERO
    + ["snapshot.build_s.dhaka", "snapshot.build_s.copenhagen"]
    + ["ch.build_s." + c for c in measure.CITIES]
    + ["engine.%s.%s" % (e, k) for e in ("plateau_ch", "penalty_ch")
       for k in _ENGINE_WORK + ("ms_p95",)],
}


def log(msg):
    print(msg, flush=True)


class RunError(Exception):
    """A failure that stops the run before it can report a result."""


# ------------------------------------------------------------ build


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RunError("altroute sources not found next to perfbench/")
    build_log = os.path.join(out_dir, "build.log")
    tmp = os.path.join(out_dir, "tmp")  # compiler scratch stays in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(build_log, "a") as f:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=f, stderr=f, env=env)
            if rc != 0:
                raise RunError("cmake configure failed; see " + build_log)
        rc = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "-j", str(CONNECTIONS),
             "--target", "altroute_cli", "perfbench_tool"],
            stdout=f, stderr=f, env=env)
        if rc != 0:
            raise RunError("build failed; see " + build_log)
    return (os.path.join(BUILD_DIR, "altroute", "tools", "altroute_cli"),
            os.path.join(BUILD_DIR, "perfbench_tool"))


# ------------------------------------------------------------ inputs


def make_pools(tool, cfg, seed, out_dir):
    """{city: pool json} drawn by perfbench_tool pairs, one process per city."""
    procs = {}
    for i, city in enumerate(cfg["cities"]):
        path = os.path.join(out_dir, "pairs-%s.json" % city)
        procs[city] = (path, subprocess.Popen(
            [tool, "pairs", "--city", city, "--seed", str(seed * 1000 + i),
             "--per-bucket", str(cfg["pool_per_bucket"]), "--out", path],
            stderr=subprocess.PIPE))
    pools = {}
    for city, (path, p) in procs.items():
        _, err = p.communicate()
        if p.returncode != 0:
            raise RunError("pair generation for %s failed: %s"
                           % (city, err.decode(errors="replace")))
        with open(path) as f:
            pools[city] = json.load(f)
    return pools


def stratified(weights, count, rng):
    """`count` keys in exact proportion to `weights` (largest remainder),
    each key's occurrences spread evenly over the sequence: every stretch
    of the run sees the whole mix, so heavy requests do not bunch up by
    chance. Keys with equal counts (one bucket in several cities) are
    staggered evenly against each other from a random offset."""
    total = float(sum(weights.values()))
    exact = {k: count * w / total for k, w in weights.items()}
    out = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: out[k] - exact[k])[
            :count - sum(out.values())]:
        out[k] += 1
    by_count = {}
    for k, n in sorted(out.items()):
        if n:
            by_count.setdefault(n, []).append(k)
    slots = []
    for n, keys in sorted(by_count.items()):
        base = rng.random()
        for i, k in enumerate(keys):
            offset = (base + i / len(keys)) % 1.0
            slots += [((j + offset) / n, rng.random(), k) for j in range(n)]
    return [k for _, _, k in sorted(slots)]


GOLDEN = 0.6180339887498949


class PairSource:
    """Hands out pool pairs per (city, bucket) cell. Each cell's pool is
    sorted by free-flow optimum and read at golden-ratio quasi-random
    quantiles from a seeded offset, so any prefix of a cell's requests
    covers its trip lengths evenly. `phases` is a list of {cell: m}: each
    phase's next m pairs of a cell are moved to the midpoints of m equal
    quantile strata, keeping their golden-ratio order, so every seed's
    phase sees the same spread of trip lengths. Request cost grows steeply
    with trip length, so this keeps the work per run steady across seeds.
    The cities' cells of one bucket, which stratified() interleaves in
    time, read their quantiles a 1/len(cities) apart: the heaviest trip of
    one city never arrives next to the heaviest of another."""

    def __init__(self, pools, phases, rng):
        self.cells = {}
        cities = sorted(pools)
        for b in BUCKETS:
            base = rng.random()
            for i, city in enumerate(cities):
                by_length = sorted(pools[city]["buckets"][b],
                                   key=lambda p: p[6])
                self.cells[(city, b)] = [by_length,
                                         (base + i / len(cities)) % 1.0, 0,
                                         []]
        for strata in phases:
            for cell, m in strata.items():
                offset = self.cells[cell][1]
                points = [(offset + k * GOLDEN) % 1.0 for k in range(m)]
                midpoints = [0.0] * m
                for rank, k in enumerate(
                        sorted(range(m), key=points.__getitem__)):
                    midpoints[k] = (rank + 0.5) / m
                self.cells[cell][3] += midpoints

    def take(self, cell):
        by_length, offset, k, midpoints = self.cells[cell]
        self.cells[cell][2] = k + 1
        q = midpoints[k] if k < len(midpoints) else (offset + k * GOLDEN) % 1.0
        index = int(q * len(by_length))
        city, bucket = cell
        return "%s/%s/%d" % (city, bucket, index), by_length[index]


RELOAD_PATH = "/admin/reload?city=" + RELOAD_CITY


def route_path(city, pair):
    return "/route?city=%s&slat=%r&slng=%r&tlat=%r&tlng=%r" % (
        city, pair[2], pair[3], pair[4], pair[5])


def even_arrivals(count, span):
    """`count` arrival times evenly spaced over [0, span): a fixed rate and
    sample size without bunching. Poisson arrivals, and even uniform
    jitter within equal slots, let requests overlap by chance, and that
    queueing made the latency tails of two runs of the same program
    disagree by more than any usable bound."""
    return [(k + 0.5) * span / count for k in range(count)]


def make_schedule(cfg, pools, seed, seconds):
    """The open-loop schedule (route arrivals with the ratings each
    participant submits) and generators of warm-up and closed-loop
    requests, all from `seed`. The closed loop's first `closed_pairs`
    requests, about as many as a run completes, are stratified like the
    open loop's, so its window holds the same spread of trip lengths on
    every seed."""
    rng = random.Random(seed)
    cells = {(c, b): w for c in cfg["cities"] for b, w in cfg["mix"].items()}
    t_open = cfg["open_share"] * seconds
    n_route = int(round(cfg["route_rate_per_s"] * t_open))
    open_cells = stratified(cells, n_route, rng)
    closed_cells = stratified(cells, 4096, rng)
    pairs = PairSource(pools, [
        collections.Counter(open_cells),
        collections.Counter(closed_cells[:cfg["closed_pairs"]])], rng)
    schedule = []
    for due, cell in zip(even_arrivals(n_route, t_open), open_cells):
        pair_id, pair = pairs.take(cell)
        ratings = [rng.randint(1, 5) for _ in range(4)]
        schedule.append({"kind": "route", "due_s": due, "city": cell[0],
                         "pair_id": pair_id, "pair": pair, "method": "GET",
                         "path": route_path(cell[0], pair),
                         "ratings": ratings})

    def generator(source):
        order = itertools.cycle(closed_cells)

        def next_item():
            cell = next(order)
            pair_id, pair = source.take(cell)
            return {"kind": "route", "city": cell[0], "pair_id": pair_id,
                    "pair": pair, "method": "GET",
                    "path": route_path(cell[0], pair)}
        return next_item

    return (schedule, generator(PairSource(pools, [], rng)), generator(pairs),
            t_open)


def write_replay_schedule(schedule, cfg, t_open, path):
    """The open-loop schedule in perfbench_tool's format, followed by the
    workload's reloads, which an untraced HTTP run sends after its
    traffic."""
    with open(path, "w") as f:
        for item in schedule:
            p = item["pair"]
            f.write("route %r %s %s %r %r %r %r %d %d %d %d\n" % (
                (item["due_s"], item["city"], item["pair_id"],
                 p[2], p[3], p[4], p[5]) + tuple(item["ratings"])))
        for k in range(cfg["reloads"]):
            f.write("reload %r %s\n" % (t_open + 1.0 + k, RELOAD_CITY))


# ------------------------------------------------------------ server


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def proc_status(pid, key):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith(key + ":"):
                return float(line.split()[1])  # kB
    raise RunError("no %s in /proc/%d/status" % (key, pid))


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One `altroute_cli serve` process; stop() terminates and reaps it."""

    def __init__(self, cli, cfg, out_dir, tag):
        self.port = free_port()
        args = [cli, "serve", "--scale", str(SCALE),
                "--threads", str(CONNECTIONS), "--port", str(self.port)]
        for city in cfg["cities"]:
            args += ["--city", city]
        if cfg["ch"]:
            args.append("--ch")
        if cfg["ratings_file"]:
            ratings = os.path.join(out_dir, "ratings.jsonl")
            if os.path.exists(ratings):
                os.remove(ratings)
            args += ["--ratings-file", ratings]
        self.log = open(os.path.join(out_dir, "server-%s.log" % tag), "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(args, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self):
        """Seconds from exec until /readyz answers 200."""
        while True:
            if self.proc.poll() is not None:
                raise RunError("server exited during setup (code %d)"
                               % self.proc.returncode)
            try:
                if loadgen.request(self.port, "GET", "/readyz")[0] == 200:
                    return time.monotonic() - self.started
            except (OSError, http.client.HTTPException):
                pass
            if time.monotonic() - self.started > SETUP_TIMEOUT_S:
                raise RunError("server not ready after %.0f s"
                               % SETUP_TIMEOUT_S)
            time.sleep(0.005)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ------------------------------------------------------------ phases


class Phase:
    """Failure accounting for one phase of one request kind."""

    def __init__(self, name):
        self.name = name
        self.sent = self.ok = self.degraded = self.failed = 0

    def line(self):
        return "%-18s sent %5d  succeeded %5d  degraded %4d  failed %4d" % (
            self.name, self.sent, self.ok, self.degraded, self.failed)


def rate_after_route(item, result):
    """A participant rates the four route sets as soon as they arrive, on
    the connection that brought them."""
    if item["kind"] != "route" or result.status != 200:
        return None
    return {"kind": "rate", "method": "GET",
            "path": "/rate?a=%d&b=%d&c=%d&d=%d" % tuple(item["ratings"])}


def judge_routes(results, phase, violations):
    """Counts and gates /route results; returns parsed bodies of 200s."""
    bodies = []
    for r in results:
        phase.sent += 1
        if r.status != 200:
            phase.failed += 1
            bodies.append(None)
            continue
        try:
            body = json.loads(r.body)
        except ValueError:
            violations.append("unparseable /route body")
            bodies.append(None)
            continue
        errs = measure.check_route_body(body, r.item["pair"])
        violations.extend("%s: %s" % (r.item["pair_id"], e) for e in errs)
        phase.ok += 1
        phase.degraded += bool(body.get("degraded"))
        bodies.append(body)
    return bodies


def run_http(cli, cfg, schedule, next_warmup, next_closed, t_open, seconds,
             out_dir, violations, traced):
    """Set-up, open-loop, closed-loop and reload phases against a real
    server; a traced run, which reports neither capacity_rps nor reload_s,
    stops after the open loop. Returns (end-to-end metrics, server-side
    per-layer metrics, phases, report)."""
    setups = []
    server = None
    try:
        for k in range(cfg["setups"]):
            server = Server(cli, cfg, out_dir, "setup%d" % k)
            setups.append(server.wait_ready())
            if k + 1 < cfg["setups"]:
                server.stop()
                server = None
        pid, port = server.proc.pid, server.port
        rss_after_setup_mb = proc_status(pid, "VmRSS") / 1024.0
        warmup_results, _ = loadgen.closed_loop(port, next_warmup,
                                                CONNECTIONS, WARMUP_S)
        metrics_before = measure.parse_prometheus(
            loadgen.request(port, "GET", "/metrics")[1].decode())
        base = json.loads(
            loadgen.request(port, "GET", "/stats")[1])["submissions"]
        cpu_before = proc_cpu_s(pid)

        open_results = loadgen.open_loop(port, schedule, CONNECTIONS,
                                         rate_after_route)
        closed_results, window, reloads = [], None, []
        if not traced:
            closed_results, window = loadgen.closed_loop(
                port, next_closed, CONNECTIONS, seconds - t_open)
        # The serving peak: a reload briefly holds two networks, and where
        # its peak lands varied from run to run by a quarter.
        peak_rss_mb = proc_status(pid, "VmHWM") / 1024.0
        if not traced:
            reloads = [loadgen.timed_request(port, "POST", RELOAD_PATH)
                       for _ in range(cfg["reloads"])]

        cpu_used = proc_cpu_s(pid) - cpu_before
        metrics_after = measure.parse_prometheus(
            loadgen.request(port, "GET", "/metrics")[1].decode())
        final_submissions = json.loads(
            loadgen.request(port, "GET", "/stats")[1])["submissions"]
    finally:
        if server is not None:
            server.stop()

    phases = {k: Phase(n) for k, n in (("warmup", "warm-up /route"),
                                       ("route", "open-loop /route"),
                                       ("rate", "open-loop /rate"),
                                       ("reload", "reload (no traffic)"),
                                       ("closed", "closed-loop /route"))}
    judge_routes(warmup_results, phases["warmup"], violations)
    by_kind = {"route": [], "rate": []}
    for r in open_results:
        by_kind[r.item["kind"]].append(r)

    route_bodies = judge_routes(by_kind["route"], phases["route"], violations)
    limit_s = cfg["p95_limit_ms"] / 1e3
    route_lat = [r.latency * 1e3 if b is not None else FAILED_MS
                 for r, b in zip(by_kind["route"], route_bodies)]
    served = [b for b in route_bodies if b is not None]

    accepted = []
    for r in by_kind["rate"]:
        phases["rate"].sent += 1
        if r.status == 200:
            phases["rate"].ok += 1
            accepted.append((r.sent, r.done,
                             json.loads(r.body)["total_submissions"]))
        else:
            phases["rate"].failed += 1
    violations.extend(measure.check_rate_totals(accepted, base))
    if final_submissions != base + phases["rate"].ok:
        violations.append("/stats counts %d submissions, expected %d"
                          % (final_submissions, base + phases["rate"].ok))
    for r in reloads:
        phases["reload"].sent += 1
        if r.status == 200:
            phases["reload"].ok += 1
        else:
            phases["reload"].failed += 1
            violations.append("reload answered %s" % (r.status or r.error))

    closed_bodies = judge_routes(closed_results, phases["closed"], violations)
    good = [r for r, b in zip(closed_results, closed_bodies)
            if b is not None and not b.get("degraded")
            and r.latency <= limit_s]

    lateness = [r.lateness * 1e3 for r in open_results]
    lateness_p99 = sorted(lateness)[int(0.99 * (len(lateness) - 1))]
    if lateness_p99 > MAX_GENERATOR_LATENESS_MS:
        violations.append("load generator starved: p99 lateness %.1f ms"
                          % lateness_p99)

    attempts = phases["route"].sent
    e2e = {
        "setup_s": (measure.median(setups), "s"),
        "route_p50_ms": (measure.median(route_lat), "ms"),
        "route_p95_ms": (measure.percentile(route_lat, 95), "ms"),
        "capacity_rps": (loadgen.completions_in(good, *window)
                         / (window[1] - window[0]) if window else None,
                         "req/s"),
        "route_ok_ratio": (phases["route"].ok / attempts, "ratio"),
        "route_intact_ratio": (
            (phases["route"].ok - phases["route"].degraded) / attempts,
            "ratio"),
        "routes_per_response": (
            sum(len(a.get("routes", [])) for b in served
                for a in b["approaches"]) / (4.0 * len(served))
            if served else 0.0, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rate_p50_ms": (measure.median(
            [r.latency * 1e3 if r.status == 200 else FAILED_MS
             for r in by_kind["rate"]]), "ms"),
        "rate_p95_ms": (measure.percentile(
            [r.latency * 1e3 if r.status == 200 else FAILED_MS
             for r in by_kind["rate"]], 95), "ms"),
        "reload_s": (measure.median(
            [r.latency for r in reloads]), "s"),
    }
    if traced:
        del e2e["capacity_rps"], e2e["reload_s"]
    completed = phases["route"].ok + phases["closed"].ok
    server_layer = {
        "http.queue_wait_ms_p50": measure.histogram_quantile(
            metrics_before, metrics_after, "altroute_request_phase_seconds",
            0.5, phase="queue_wait"),
        "http.queue_wait_ms_p95": measure.histogram_quantile(
            metrics_before, metrics_after, "altroute_request_phase_seconds",
            0.95, phase="queue_wait"),
        "http.shed_total": measure.counter_delta(
            metrics_before, metrics_after, "altroute_http_requests_shed_total"),
        "http.expired_total": measure.counter_delta(
            metrics_before, metrics_after, "altroute_queue_rejected_total",
            reason="expired"),
        "server.cpu_ms_per_route": cpu_used * 1e3 / max(completed, 1),
        "server.rss_mb_after_setup": rss_after_setup_mb,
    }
    for k in ("http.queue_wait_ms_p50", "http.queue_wait_ms_p95"):
        server_layer[k] = (server_layer[k] or 0.0) * 1e3
    report = {
        "phases": [p.line() for p in phases.values()],
        "setups_s": setups,
        "generator_lateness_ms": {"p99": lateness_p99, "max": max(lateness)},
        "route_fail_ratio": phases["route"].failed / attempts,
        "degraded_ratio": phases["route"].degraded / attempts,
        "route_latencies_ms": route_lat,
        "rate_samples": len(by_kind["rate"]),
        "closed_completions": len(closed_results),
        "closed_good": len(good),
        # (pair, seconds from the window's start to sent and to done, good)
        "closed_requests": [
            (r.item["pair_id"], r.sent - window[0], r.done - window[0],
             b is not None and not b.get("degraded")
             and r.latency <= limit_s)
            for r, b in zip(closed_results, closed_bodies)] if window else [],
    }
    return e2e, server_layer, phases, report


def run_replay(tool, cfg, schedule, t_open, pools, out_dir, violations):
    """In-process replay of the open-loop schedule: an untraced pass over
    its first quarter, then the traced pass over all of it. Returns (spans,
    per-layer metrics, tracing overhead in ms, routes it was measured on)."""
    sched_path = os.path.join(out_dir, "replay-schedule.txt")
    spans_path = os.path.join(out_dir, "spans.jsonl")
    untraced_path = os.path.join(out_dir, "untraced.jsonl")
    write_replay_schedule(schedule, cfg, t_open, sched_path)
    args = [tool, "replay", "--schedule", sched_path,
            "--ch", "1" if cfg["ch"] else "0", "--spans", spans_path,
            "--untraced", untraced_path]
    for city in cfg["cities"]:
        args += ["--city", city]
    if cfg["ratings_file"]:
        ratings = os.path.join(out_dir, "replay-ratings.jsonl")
        if os.path.exists(ratings):
            os.remove(ratings)
        args += ["--ratings-file", ratings]
    with open(os.path.join(out_dir, "replay.log"), "w") as f:
        if subprocess.call(args, stdout=f, stderr=f) != 0:
            raise RunError("in-process replay failed; see replay.log")
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    with open(untraced_path) as f:
        untraced = [json.loads(line) for line in f]

    # The replay schedule lists the routes first, in due-time order, so a
    # route's index in it is its index in `schedule`.
    def latency_ms(index, pair_id, status, body, ms, tag):
        item = schedule[index]
        if item["pair_id"] != pair_id:
            raise RunError("replay route %d is %s, expected %s"
                           % (index, pair_id, item["pair_id"]))
        if status != 200 or body is None:
            return FAILED_MS
        errs = measure.check_route_body(body, item["pair"])
        violations.extend("%s %s: %s" % (tag, item["pair_id"], e)
                          for e in errs)
        return ms

    traced = {}
    for s in spans:
        if s["parent"] == 0 and s["attrs"].get("kind") == "route":
            a = s["attrs"]
            traced[a["index"]] = latency_ms(
                a["index"], a["pair"], a.get("status"), a.get("body"),
                (s["end_ns"] - s["start_ns"]) / 1e6, "replay")
    untraced_ms = [latency_ms(u["index"], u["pair"], u["status"],
                              u.get("body"), u["ms"], "untraced replay")
                   for u in untraced]
    overhead = (measure.median([traced[u["index"]] for u in untraced])
                - measure.median(untraced_ms))
    nodes = {c: p["nodes"] for c, p in pools.items()}
    return (spans, measure.layer_metrics(spans, nodes), overhead,
            len(untraced))


# ------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        raise RunError("unknown workload %r (have: %s)"
                       % (args.workload, ", ".join(sorted(workloads))))
    cfg = workloads[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)

    out_dir = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cli, tool = build(OUT_DIR)
    pools = make_pools(tool, cfg, args.seed, out_dir)
    schedule, next_warmup, next_closed, t_open = make_schedule(
        cfg, pools, args.seed, args.seconds)
    log("workload %s seed %d: %d routes (each rated) over %.1f s open loop, "
        "then %s"
        % (args.workload, args.seed, len(schedule), t_open,
           "the in-process replay" if args.trace else
           "%.1f s closed loop and %d reloads" % (args.seconds - t_open,
                                                  cfg["reloads"])))

    violations = []
    e2e, server_layer, phases, report = run_http(
        cli, cfg, schedule, next_warmup, next_closed, t_open, args.seconds,
        out_dir, violations, args.trace)
    for line in report["phases"]:
        log(line)
    log("generator lateness p99 %.2f ms, max %.2f ms; route_fail_ratio %.4f, "
        "degraded_ratio %.4f; setups %s s"
        % (report["generator_lateness_ms"]["p99"],
           report["generator_lateness_ms"]["max"], report["route_fail_ratio"],
           report["degraded_ratio"],
           ", ".join("%.3f" % s for s in report["setups_s"])))
    for name, (value, unit) in e2e.items():
        log("  %-22s %12s %s" % (name, "n/a" if value is None
                                 else "%.4f" % value, unit))

    attempted = sum(p.sent for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    missing = [k for k, (v, _) in e2e.items() if v is None]
    if missing:
        violations.append("too few samples to report %s" % ", ".join(missing))

    if args.trace:
        spans, layer, overhead, compared = run_replay(
            tool, cfg, schedule, t_open, pools, out_dir, violations)
        layer.update(server_layer)
        layer.update((k, v) for k, (v, _) in e2e.items())
        log("tracing overhead: traced minus untraced in-process "
            "route_p50_ms over the same %d routes = %+.3f ms (spans: %s)"
            % (compared, overhead,
               os.path.relpath(os.path.join(out_dir, "spans.jsonl"), ROOT)))
        self_ms = measure.layer_self_time_ms(spans)
        for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1])[:12]:
            log("  self time %-32s %12.1f ms" % (name, ms))
        zeros = measure.zero_counter_violations(
            layer, EXPECT_NONZERO.get(args.workload, []))
        if zeros:
            violations.append("per-layer counters read 0: " + ", ".join(zeros))
        metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in declared["per_layer"]}
        with open(os.path.join(out_dir, "per_layer.json"), "w") as f:
            json.dump({"tracing_overhead_ms": overhead,
                       "self_time_ms": self_ms, "metrics": metrics}, f,
                      indent=1, sort_keys=True)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0],
                               "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    for v in violations[:20]:
        log("VIOLATION: " + v)
    correct = not violations
    if not correct or any(m["value"] is None for m in metrics.values()):
        correct = False
        for m in metrics.values():
            if m["value"] is None:
                m["value"] = 0.0
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump({"report": report, "violations": violations}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
