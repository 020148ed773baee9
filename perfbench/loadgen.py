"""Loopback HTTP load generation: one process, at most `connections`
threads, one connection per request (the server answers Connection: close).

open_loop() sends a precomputed schedule and times every request from the
instant it was due, so a stall also charges the requests queued behind it.
A follow-up request (a rating after its route) is due when the response
that triggers it arrives and goes out at once on the same connection.
closed_loop() keeps `connections` requests in flight back to back.
"""

import heapq
import http.client
import threading
import time

CLIENT_TIMEOUT_S = 30.0


class Result:
    __slots__ = ("item", "due", "sent", "done", "status", "body", "error",
                 "lateness")

    def __init__(self, item, due):
        self.item = item
        self.due = due
        self.sent = self.done = None
        self.status = None  # HTTP status, or None on a transport error
        self.body = b""
        self.error = None
        self.lateness = 0.0  # generator delay beyond max(due, worker free)

    @property
    def latency(self):
        return self.done - self.due


def request(port, method, path):
    """(status, body) of one request; raises on transport errors."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=CLIENT_TIMEOUT_S)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _send(port, res):
    try:
        res.status, res.body = request(port, res.item["method"],
                                       res.item["path"])
    except (OSError, http.client.HTTPException) as e:
        res.error = "%s: %s" % (type(e).__name__, e)
    res.done = time.monotonic()


def timed_request(port, method, path):
    """One request on its own, timed from when it was sent."""
    res = Result({"method": method, "path": path}, time.monotonic())
    res.sent = res.due
    _send(port, res)
    return res


def open_loop(port, schedule, connections, follow_up=None):
    """Sends every item of `schedule` (dicts with due_s, method, path) at
    its due time, relative to a start instant shortly after the call, and
    for each, the request follow_up(item, result) returns, if any. Returns
    the Results: the schedule's in order, then the follow-ups."""
    start = time.monotonic() + 0.2
    results = [Result(item, start + item["due_s"]) for item in schedule]
    pending = [(r.due, i) for i, r in enumerate(results)]
    heapq.heapify(pending)
    followed = []
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                if not pending:
                    return
                _, i = heapq.heappop(pending)
            res = results[i]
            picked = time.monotonic()
            wait = res.due - picked
            if wait > 0:
                time.sleep(wait)
            res.sent = time.monotonic()
            res.lateness = res.sent - max(res.due, picked)
            _send(port, res)
            item = follow_up(res.item, res) if follow_up else None
            if item is not None:
                extra = Result(item, res.done)
                extra.sent = time.monotonic()
                extra.lateness = extra.sent - res.done
                _send(port, extra)
                with lock:
                    followed.append(extra)

    _run_threads(worker, connections)
    return results + followed


def closed_loop(port, next_item, connections, seconds):
    """Keeps `connections` requests in flight, starting new ones for
    `seconds`; next_item() yields the next request dict. Returns (every
    Result, including those still running at the end, and the window as a
    (start, end) pair of monotonic times)."""
    start = time.monotonic()
    end = start + seconds
    lock = threading.Lock()
    done = []

    def worker():
        while True:
            with lock:
                item = next_item()
            now = time.monotonic()
            if now >= end:
                return
            res = Result(item, now)
            res.sent = now
            _send(port, res)
            with lock:
                done.append(res)

    _run_threads(worker, connections)
    return done, (start, end)


def completions_in(results, start, end):
    """Completions inside [start, end], counting a request that straddles
    an edge by the share of its time inside the window: a steady estimate
    of throughput even when a window holds only tens of requests."""
    total = 0.0
    for r in results:
        inside = min(r.done, end) - max(r.sent, start)
        if inside > 0:
            total += inside / (r.done - r.sent)
    return total


def _run_threads(worker, count):
    """Runs `worker` on `count` threads, the calling thread being one."""
    threads = [threading.Thread(target=worker) for _ in range(count - 1)]
    for t in threads:
        t.start()
    try:
        worker()
    finally:
        for t in threads:
            t.join()
