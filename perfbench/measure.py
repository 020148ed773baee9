"""Measurement helpers for the /route benchmark: percentiles, the output
correctness gate, Prometheus scrapes and the span-derived per-layer metrics.

Everything here is pure (no I/O besides the arguments), so
perfbench/tests/test_measure.py can check it without a server.
"""

import bisect
import math
import re

# A percentile is only meaningful when enough samples lie beyond it: p95
# needs at least 10 of them, hence at least 200 samples.
MIN_TAIL_SAMPLES = 10

ENGINES = ("commercial", "plateau", "dissimilarity", "penalty",
           "plateau_ch", "penalty_ch")
CITIES = ("melbourne", "dhaka", "copenhagen")


def percentile(values, q):
    """The q-th percentile (0 < q < 100) of `values` by the Harrell-Davis
    estimator, or None when fewer than MIN_TAIL_SAMPLES samples lie beyond
    its nearest rank. Harrell-Davis weights each order statistic by the
    Beta((n+1)p, (n+1)(1-p)) mass of its rank's interval: on a heavy tail
    it varies much less between samples than the single nearest-rank value
    does."""
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(q / 100.0 * n)  # 1-based nearest rank
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total = below = 0.0
    for i, v in enumerate(sorted(values), 1):
        upto = _beta_cdf(i / n, a, b)
        if upto > below:
            total += (upto - below) * v
        below = upto
    return total


def _beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (Numerical Recipes, betai)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(x, a, b) / a
    return 1.0 - front * _beta_fraction(1.0 - x, b, a) / b


def _beta_fraction(x, a, b):
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def median(values):
    if not values:
        return None
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


# ------------------------------------------------------------ correctness


def check_route_body(body, pair):
    """Correctness gate for one 200 /route body. `pair` is the pool entry
    [s, t, slat, slng, tlat, tlng, optimum_s] from the reference Dijkstra.
    Returns a list of violations (empty when the body is correct)."""
    errors = []
    s, t, opt_s = pair[0], pair[1], pair[6]
    if body.get("snapped_source") != s or body.get("snapped_target") != t:
        errors.append("snapped to (%s, %s), expected (%d, %d)" % (
            body.get("snapped_source"), body.get("snapped_target"), s, t))
    approaches = body.get("approaches")
    if not isinstance(approaches, list) or len(approaches) != 4:
        return errors + ["expected 4 approaches, got %r" % (approaches,)]
    labels = [a.get("label") for a in approaches]
    if labels != ["A", "B", "C", "D"]:
        errors.append("approach labels %r" % (labels,))
    # Rounding of the optimum may tip either way on a float-summation tie.
    opt_lo = round_half_away((opt_s - 1e-6) / 60.0)
    opt_hi = round_half_away((opt_s + 1e-6) / 60.0)
    for a in approaches:
        if not isinstance(a.get("status"), str) or not a["status"]:
            errors.append("approach %s has no status" % a.get("label"))
        for r in a.get("routes", []):
            if r.get("travel_time_min", -1) < opt_lo:
                errors.append("approach %s route of %s min beats the %d min "
                              "optimum" % (a.get("label"),
                                           r.get("travel_time_min"), opt_lo))
    if body.get("degraded") is False:
        b_routes = approaches[1].get("routes") or []
        if not b_routes:
            errors.append("approach B served no route")
        elif b_routes[0].get("travel_time_min") not in (opt_lo, opt_hi):
            errors.append("approach B first route %s min != optimum %d min"
                          % (b_routes[0].get("travel_time_min"), opt_lo))
    return errors


def round_half_away(x):
    """std::lround semantics (the server's rounding), not banker's."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def check_rate_totals(accepted, base):
    """/rate's total_submissions must count every accepted submission
    exactly once. `accepted` holds (sent, done, total_submissions) per
    accepted /rate, `base` the count before the first. The server reads the
    total after its own append, so a response must count at least every
    submission that completed before it was sent, plus itself, and at most
    every submission sent before it completed. (Two concurrent responses may
    report the same total: the value is the store's size, not a receipt.)"""

    dones = sorted(d for _, d, _ in accepted)
    sents = sorted(s for s, _, _ in accepted)
    errors = []
    for sent, done, total in accepted:
        lo = base + bisect.bisect_left(dones, sent) + 1
        hi = base + bisect.bisect_left(sents, done)
        if not lo <= total <= hi:
            errors.append("total_submissions %d outside [%d, %d]"
                          % (total, lo, hi))
    return errors[:5]


# ------------------------------------------------------------ /metrics

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """{(name, frozenset(labels)): value} for every sample line."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line.strip())
        if not m:
            continue
        labels = frozenset(_LABEL.findall(m.group(2) or ""))
        out[(m.group(1), labels)] = float(m.group(3))
    return out


def counter_delta(before, after, name, **labels):
    """Sum over every series of `name` whose labels include `labels`."""
    want = set(labels.items())
    total = 0.0
    for (n, ls), v in after.items():
        if n == name and want <= ls:
            total += v - before.get((n, ls), 0.0)
    return total


def histogram_quantile(before, after, name, q, **labels):
    """Quantile q (0..1) of the observations a histogram gained between two
    scrapes, linearly interpolated inside its bucket (Prometheus'
    histogram_quantile). None when nothing was observed."""
    want = set(labels.items())
    buckets = {}
    for (n, ls), v in after.items():
        if n != name + "_bucket" or not want <= ls:
            continue
        le = dict(ls)["le"]
        bound = math.inf if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + v - before.get((n, ls), 0.0)
    if not buckets:
        return None
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total <= 0:
        return None
    rank = q * total
    prev_bound, prev_count = 0.0, 0.0
    for b in bounds:
        if buckets[b] >= rank:
            if math.isinf(b):
                return prev_bound
            width = buckets[b] - prev_count
            frac = (rank - prev_count) / width if width > 0 else 1.0
            return prev_bound + (b - prev_bound) * frac
        prev_bound, prev_count = b, buckets[b]
    return prev_bound


# ------------------------------------------------------------ spans


def self_times(spans):
    """{span id: self time in ns}: each span's duration minus the part of
    its interval that its children cover (overlapping children count
    once, and a child's time outside its parent is ignored)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            c_lo, c_hi = max(c["start_ns"], lo), min(c["end_ns"], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def _ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _tail(values, q):
    """A per-layer percentile: 0 when there is no sample or too few samples
    beyond it (see percentile())."""
    v = percentile(values, q)
    return 0.0 if v is None else v


def layer_metrics(spans, nodes_by_city):
    """Per-layer metrics of an in-process traced replay (spans as written by
    perfbench_tool replay). Counters are means per engine run; latency
    figures are percentiles in ms; build times are seconds."""
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    m = {}
    for city in CITIES:
        build = [s for s in spans if s["name"] == "NetworkManager::AddCity"
                 and s["attrs"].get("city") == city]
        m["snapshot.build_s." + city] = _ms(build[0]) / 1e3 if build else 0.0
        m["ch.build_s." + city] = (build[0]["attrs"].get("ch_build_s", 0.0)
                                   if build else 0.0)

    acquire, snap, render, serialize, add = [], [], [], [], []
    settled_per_n = []
    engine_ms = {e: [] for e in ENGINES}
    engine_runs = {e: 0 for e in ENGINES}
    totals = {e: {"nodes_settled": 0, "edges_relaxed": 0, "heap_pushes": 0,
                  "paths_generated": 0, "paths_rejected": 0, "routes": 0,
                  "deadline_exceeded": 0, "breaker_open": 0}
              for e in ENGINES}
    for root in kids.get(0, []):
        kind = root["attrs"].get("kind")
        if kind == "rate":
            add += [_ms(c) for c in kids.get(root["id"], [])
                    if c["name"] == "RatingStore::Add"]
            continue
        if kind != "route":
            continue
        settled = 0
        pre = 0.0
        for c in kids.get(root["id"], []):
            if c["name"] in ("NetworkManager::GetSnapshot",
                             "QueryProcessorPool::Acquire"):
                pre += _ms(c)
            elif c["name"] == "QueryProcessor::ToJson":
                serialize.append(_ms(c))
            elif c["name"] == "QueryProcessor::Process":
                if "render_ms" in c["attrs"]:
                    render.append(c["attrs"]["render_ms"])
                for q in kids.get(c["id"], []):  # the obs::Trace "query" span
                    for g in kids.get(q["id"], []):
                        if g["name"] == "snap":
                            snap.append(_ms(g))
                            continue
                        if not g["name"].startswith("generate:"):
                            continue
                        e = g["name"][len("generate:"):]
                        if e not in totals:
                            continue
                        status = g["attrs"].get("status", "ok")
                        t = totals[e]
                        if status == "breaker_open":
                            t["breaker_open"] += 1
                            continue
                        if status == "deadline_exceeded":
                            t["deadline_exceeded"] += 1
                        st = g["attrs"].get("stats", {})
                        engine_runs[e] += 1
                        engine_ms[e].append(_ms(g))
                        t["nodes_settled"] += st.get("nodes_settled", 0)
                        t["edges_relaxed"] += st.get("edges_relaxed", 0)
                        t["heap_pushes"] += st.get("heap_pushes", 0)
                        t["paths_generated"] += st.get("paths_generated", 0)
                        t["paths_rejected"] += (
                            st.get("paths_rejected_stretch", 0)
                            + st.get("paths_rejected_similarity", 0)
                            + st.get("paths_rejected_filter", 0))
                        t["routes"] += int(g["attrs"].get("routes", "0"))
                        settled += st.get("nodes_settled", 0)
        acquire.append(pre)
        n = nodes_by_city.get(root["attrs"].get("city"))
        if n:
            settled_per_n.append(settled / n)

    m["snapshot.acquire_ms_p95"] = _tail(acquire, 95)
    m["qp.snap_ms"] = median(snap) or 0.0
    m["qp.render_ms"] = median(render) or 0.0
    m["qp.serialize_ms"] = median(serialize) or 0.0
    m["ratings.add_ms"] = median(add) or 0.0
    m["route.nodes_settled_per_n"] = (
        sum(settled_per_n) / len(settled_per_n) if settled_per_n else 0.0)
    for e in ENGINES:
        runs = engine_runs[e]
        t = totals[e]
        m["engine.%s.ms_p50" % e] = median(engine_ms[e]) or 0.0
        m["engine.%s.ms_p95" % e] = _tail(engine_ms[e], 95)
        for k in ("nodes_settled", "edges_relaxed", "heap_pushes",
                  "paths_generated", "paths_rejected"):
            m["engine.%s.%s" % (e, k)] = t[k] / runs if runs else 0.0
        m["engine.%s.yield" % e] = (t["routes"] / t["paths_generated"]
                                    if t["paths_generated"] else 0.0)
        m["engine.%s.deadline_exceeded" % e] = float(t["deadline_exceeded"])
        m["engine.%s.breaker_open" % e] = float(t["breaker_open"])
    return m


def layer_self_time_ms(spans):
    """{span name: total self time in ms} over every span of the replay."""
    st = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + st[s["id"]] / 1e6
    return out


def zero_counter_violations(metrics, expected_nonzero):
    """Names in `expected_nonzero` whose value reads 0 (or is missing): a
    counter that should see work on this workload but reads 0 is a
    measurement bug, not a fast program."""
    return sorted(k for k in expected_nonzero if not metrics.get(k))
