// perfbench_tool: the benchmark's in-process helper.
//
//   perfbench_tool pairs --city NAME --seed N --per-bucket K --out FILE
//     Builds the citygen network the server builds for NAME at scale 4 and
//     draws K (s, t) pairs per trip-length bucket of the paper (small
//     <= 10 min, medium (10, 25], long (25, 80] free-flow minutes). Each pair
//     is classified with the benchmark's own Dijkstra over free-flow weights,
//     independent of the routing library under test.
//
//   perfbench_tool replay --schedule FILE --city NAME [--city NAME ...]
//                         --ch 0|1 [--ratings-file FILE] --spans OUT
//                         --untraced OUT
//     Replays a benchmark schedule in-process through the serving layers'
//     public entry points (NetworkManager, QueryProcessorPool,
//     QueryProcessor, RatingStore) with one worker per core and the serve
//     request deadline. It first replays the first quarter of the routes
//     without any tracing, writing one JSON line per route to --untraced,
//     then the whole schedule with each call wrapped in a span. Spans stay
//     in memory and are written to --spans as JSON lines when the replay
//     ends. The per-layer metrics are computed from them by
//     perfbench/measure.py.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "citygen/city_generator.h"
#include "citygen/city_spec.h"
#include "obs/phase_timer.h"
#include "obs/trace.h"
#include "server/json.h"
#include "server/network_manager.h"
#include "server/rating_store.h"
#include "util/json_parse.h"
#include "util/string_util.h"

namespace {

using altroute::NodeId;
using Clock = std::chrono::steady_clock;

// The benchmark's fixed serve configuration: city scale and the
// `altroute_cli serve` default request deadline (--request-timeout-ms).
constexpr double kScale = 4.0;
constexpr std::chrono::milliseconds kRequestTimeout(10000);

// ---------------------------------------------------------------- flags

struct Flags {
  std::multimap<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> out;
    auto [lo, hi] = values.equal_range(key);
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
    return out;
  }
  /// The flag as a number in [lo, hi], or `fallback` when absent. Prints
  /// why and returns false when it does not parse or is out of range.
  bool Int(const std::string& key, int64_t fallback, int64_t lo, int64_t hi,
           int64_t* out) const {
    auto it = values.find(key);
    auto v = it == values.end() ? altroute::Result<int64_t>(fallback)
                                : altroute::ParseInt64(it->second);
    return InRange(key, v, lo, hi, out);
  }

 private:
  template <typename T>
  static bool InRange(const std::string& key, const altroute::Result<T>& v,
                      T lo, T hi, T* out) {
    if (!v.ok() || *v < lo || *v > hi) {
      std::fprintf(stderr, "--%s: expected a number in [%s, %s]\n",
                   key.c_str(), std::to_string(lo).c_str(),
                   std::to_string(hi).c_str());
      return false;
    }
    *out = *v;
    return true;
  }
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad flag near '%s'\n", argv[i]);
      return false;
    }
    flags->values.emplace(argv[i] + 2, argv[i + 1]);
  }
  return true;
}

altroute::Result<altroute::citygen::CitySpec> SpecFor(const std::string& city) {
  altroute::citygen::CitySpec spec;
  if (city == "melbourne") {
    spec = altroute::citygen::MelbourneSpec();
  } else if (city == "dhaka") {
    spec = altroute::citygen::DhakaSpec();
  } else if (city == "copenhagen") {
    spec = altroute::citygen::CopenhagenSpec();
  } else {
    return altroute::Status::InvalidArgument("unknown city: " + city);
  }
  return altroute::citygen::Scaled(spec, kScale);
}

// ---------------------------------------------------------------- pairs

/// splitmix64: a fixed, portable generator so a seed names the same pool on
/// every standard library.
struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
};

/// Reference one-to-all Dijkstra over free-flow travel times, stopped once
/// the frontier passes `limit_s`. Deliberately the textbook lazy-deletion
/// binary-heap form: it shares no code with the library's kernels, so the
/// correctness gate compares the engines against an independent optimum.
std::vector<double> ReferenceDijkstra(const altroute::RoadNetwork& net,
                                      NodeId source, double limit_s) {
  std::vector<double> dist(net.num_nodes(),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (d > limit_s) break;
    for (const altroute::EdgeId e : net.OutEdges(u)) {
      const NodeId v = net.head(e);
      const double nd = d + net.travel_time_s(e);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace(nd, v);
      }
    }
  }
  return dist;
}

struct Bucket {
  const char* name;
  double lo_s;  // exclusive
  double hi_s;  // inclusive
};
constexpr Bucket kBuckets[] = {
    {"small", 0.0, 600.0}, {"medium", 600.0, 1500.0}, {"long", 1500.0, 4800.0}};

int CmdPairs(const Flags& flags) {
  const std::string city = flags.Get("city", "melbourne");
  const std::string out_path = flags.Get("out", "");
  int64_t seed = 0;
  int64_t per_bucket_flag = 0;
  if (!flags.Int("seed", 1, 0, std::numeric_limits<int64_t>::max(), &seed) ||
      !flags.Int("per-bucket", 300, 1, 100000, &per_bucket_flag)) {
    return 2;
  }
  const auto per_bucket = static_cast<size_t>(per_bucket_flag);
  auto spec = SpecFor(city);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto net_or = altroute::citygen::BuildCityNetwork(*spec);
  if (!net_or.ok()) {
    std::fprintf(stderr, "%s\n", net_or.status().ToString().c_str());
    return 1;
  }
  const altroute::RoadNetwork& net = **net_or;
  const size_t n = net.num_nodes();

  // Only vertices whose coordinate no other vertex shares: the server snaps
  // a click to the nearest vertex, so a shared coordinate could snap to a
  // different vertex than the one the reference optimum was computed for.
  std::unordered_map<uint64_t, int> coord_count;
  auto coord_key = [&](NodeId v) {
    uint64_t a = 0;
    uint64_t b = 0;
    const double lat = net.coord(v).lat;
    const double lng = net.coord(v).lng;
    std::memcpy(&a, &lat, sizeof(a));
    std::memcpy(&b, &lng, sizeof(b));
    return a * 0x9e3779b97f4a7c15ULL ^ b;
  };
  for (NodeId v = 0; v < n; ++v) ++coord_count[coord_key(v)];
  std::vector<NodeId> eligible;
  std::vector<char> is_eligible(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (coord_count[coord_key(v)] == 1) {
      eligible.push_back(v);
      is_eligible[v] = 1;
    }
  }

  // Four targets per bucket per source keeps the pool spread over many
  // origins while one tree classifies every candidate target.
  constexpr size_t kTargetsPerSource = 4;
  SplitMix64 rng{static_cast<uint64_t>(seed) * 0x2545f4914f6cdd1dULL + 17};
  std::vector<std::vector<std::pair<NodeId, std::pair<NodeId, double>>>> pools(
      std::size(kBuckets));
  size_t sources = 0;
  const size_t max_sources = 40 * per_bucket + 100;
  auto full = [&] {
    for (const auto& p : pools) {
      if (p.size() < per_bucket) return false;
    }
    return true;
  };
  while (!full() && sources < max_sources) {
    ++sources;
    const NodeId s = eligible[rng.Below(eligible.size())];
    const std::vector<double> dist =
        ReferenceDijkstra(net, s, kBuckets[std::size(kBuckets) - 1].hi_s);
    for (size_t b = 0; b < std::size(kBuckets); ++b) {
      if (pools[b].size() >= per_bucket) continue;
      std::vector<NodeId> candidates;
      for (NodeId v = 0; v < n; ++v) {
        if (v != s && is_eligible[v] && dist[v] > kBuckets[b].lo_s &&
            dist[v] <= kBuckets[b].hi_s) {
          candidates.push_back(v);
        }
      }
      for (size_t k = 0; k < kTargetsPerSource && !candidates.empty() &&
                         pools[b].size() < per_bucket;
           ++k) {
        const size_t pick = rng.Below(candidates.size());
        const NodeId t = candidates[pick];
        candidates[pick] = candidates.back();
        candidates.pop_back();
        pools[b].push_back({s, {t, dist[t]}});
      }
    }
  }
  if (!full()) {
    std::fprintf(stderr, "could not fill every bucket after %zu sources\n",
                 sources);
    return 1;
  }

  altroute::JsonWriter w;
  w.BeginObject();
  w.Key("city").String(city);
  w.Key("nodes").Int(static_cast<int64_t>(n));
  w.Key("edges").Int(static_cast<int64_t>(net.num_edges()));
  w.Key("sources").Int(static_cast<int64_t>(sources));
  w.Key("buckets").BeginObject();
  for (size_t b = 0; b < std::size(kBuckets); ++b) {
    w.Key(kBuckets[b].name).BeginArray();
    for (const auto& [s, td] : pools[b]) {
      const NodeId t = td.first;
      w.BeginArray();
      w.Int(s).Int(t);
      // Full precision: a rounded coordinate could snap to a neighbour.
      for (const double v : {net.coord(s).lat, net.coord(s).lng,
                             net.coord(t).lat, net.coord(t).lng, td.second}) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        w.RawValue(buf);
      }
      w.EndArray();
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();
  std::ofstream out(out_path);
  out << w.TakeString() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- replay

/// One recorded span. Times are nanoseconds since the replay's base instant.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string req;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Attribute values are pre-rendered JSON values.
  std::vector<std::pair<std::string, std::string>> attrs;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point base) : base_(base) {}

  int64_t Ns(Clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - base_)
        .count();
  }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  bool WriteTo(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (const Span& s : spans_) {
      altroute::JsonWriter w;
      w.BeginObject();
      w.Key("id").Int(static_cast<int64_t>(s.id));
      w.Key("parent").Int(static_cast<int64_t>(s.parent));
      w.Key("req").String(s.req);
      w.Key("name").String(s.name);
      w.Key("start_ns").Int(s.start_ns);
      w.Key("end_ns").Int(s.end_ns);
      w.Key("attrs").BeginObject();
      for (const auto& [key, json_value] : s.attrs) {
        w.Key(key).RawValue(json_value);
      }
      w.EndObject();
      w.EndObject();
      out << w.TakeString() << "\n";
    }
    out.close();
    return static_cast<bool>(out);
  }
  static std::string Quote(std::string_view s) {
    return "\"" + altroute::JsonWriter::Escape(s) + "\"";
  }

 private:
  Clock::time_point base_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint64_t parent, std::string req, std::string name)
      : log_(log) {
    span_.id = log->NextId();
    span_.parent = parent;
    span_.req = std::move(req);
    span_.name = std::move(name);
    span_.start_ns = log->Ns(Clock::now());
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void SetStart(Clock::time_point tp) { span_.start_ns = log_->Ns(tp); }
  void Attr(std::string key, std::string json_value) {
    span_.attrs.emplace_back(std::move(key), std::move(json_value));
  }
  void End() {
    if (done_) return;
    done_ = true;
    span_.end_ns = log_->Ns(Clock::now());
    log_->Add(std::move(span_));
  }

 private:
  SpanLog* log_;
  Span span_;
  bool done_ = false;
};

/// Re-parents an obs::Trace span forest (rendered by Trace::ToJson, times in
/// ms since `trace_epoch`) under `parent` in the benchmark's span log. The
/// engine spans keep their attributes and SearchStats.
void GraftTrace(SpanLog* log, uint64_t parent, const std::string& req,
                Clock::time_point trace_epoch,
                const altroute::JsonValue& nodes) {
  if (!nodes.is_array()) return;
  const int64_t epoch_ns = log->Ns(trace_epoch);
  for (const altroute::JsonValue& node : nodes.AsArray()) {
    Span span;
    span.id = log->NextId();
    span.parent = parent;
    span.req = req;
    span.name = node.GetString("name", "?");
    const double start_ms = node.GetNumber("start_ms", 0.0);
    const double dur_ms = node.GetNumber("duration_ms", 0.0);
    span.start_ns = epoch_ns + static_cast<int64_t>(std::llround(start_ms * 1e6));
    span.end_ns =
        epoch_ns + static_cast<int64_t>(std::llround((start_ms + dur_ms) * 1e6));
    if (const altroute::JsonValue* attrs = node.Find("attrs");
        attrs != nullptr && attrs->is_object()) {
      for (const auto& [k, v] : attrs->AsObject()) {
        if (v.is_string()) span.attrs.emplace_back(k, SpanLog::Quote(v.AsString()));
      }
    }
    if (const altroute::JsonValue* stats = node.Find("stats");
        stats != nullptr && stats->is_object()) {
      altroute::JsonWriter w;
      w.BeginObject();
      for (const auto& [k, v] : stats->AsObject()) {
        w.Key(k).Int(static_cast<int64_t>(v.AsNumber()));
      }
      w.EndObject();
      span.attrs.emplace_back("stats", w.TakeString());
    }
    const uint64_t id = span.id;
    log->Add(std::move(span));
    if (const altroute::JsonValue* children = node.Find("children")) {
      GraftTrace(log, id, req, trace_epoch, *children);
    }
  }
}

struct Item {
  enum Kind { kRoute, kReload } kind = kRoute;
  double due_s = 0.0;
  std::string city;
  altroute::LatLng source;
  altroute::LatLng target;
  std::string pair;  // opaque pair id, echoed into the span
  size_t index = 0;  // position in the due-time ordered schedule
  std::array<int, altroute::kNumApproaches> ratings{};
};

/// Schedule lines, due-time ordered:
///   route <due_s> <city> <pair_id> <slat> <slng> <tlat> <tlng> <a> <b> <c> <d>
///   reload <due_s> <city>
/// A route's ratings a-d are submitted as soon as it is served.
bool ReadSchedule(const std::string& path, std::vector<Item>* items) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    Item item;
    ls >> kind >> item.due_s;
    if (kind == "route") {
      item.kind = Item::kRoute;
      ls >> item.city >> item.pair >> item.source.lat >> item.source.lng >>
          item.target.lat >> item.target.lng;
      for (int& r : item.ratings) ls >> r;
    } else if (kind == "reload") {
      item.kind = Item::kReload;
      ls >> item.city;
    } else {
      return false;
    }
    if (ls.fail()) return false;
    items->push_back(std::move(item));
  }
  std::stable_sort(items->begin(), items->end(),
                   [](const Item& a, const Item& b) { return a.due_s < b.due_s; });
  for (size_t i = 0; i < items->size(); ++i) (*items)[i].index = i;
  return true;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Runs `handle(item, due, picked)` for each of `items` on `threads`
/// workers, open loop: each worker takes the earliest unstarted item and
/// starts it at its due time (or at once, if it is already late). Due times
/// count from 200 ms after the call; `picked` is when a worker took the
/// item.
template <typename Handler>
void OpenLoop(const std::vector<const Item*>& items, size_t threads,
              const Handler& handle) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(200);
  std::mutex next_mu;
  size_t next = 0;
  auto worker = [&] {
    for (;;) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(next_mu);
        if (next >= items.size()) return;
        index = next++;
      }
      const Item& item = *items[index];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(item.due_s));
      const Clock::time_point picked = Clock::now();
      std::this_thread::sleep_until(due);
      handle(item, due, picked);
    }
  };
  std::vector<std::thread> pool;
  for (size_t i = 1; i < threads; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

int CmdReplay(const Flags& flags) {
  const std::vector<std::string> cities = flags.GetAll("city");
  const bool build_ch = flags.Get("ch", "0") == "1";
  const std::string ratings_file = flags.Get("ratings-file", "");
  const std::string spans_path = flags.Get("spans", "");
  const std::string untraced_path = flags.Get("untraced", "");
  std::vector<Item> items;
  if (cities.empty() || spans_path.empty() || untraced_path.empty() ||
      !ReadSchedule(flags.Get("schedule", ""), &items)) {
    std::fprintf(stderr,
                 "replay: need --city, --spans, --untraced and a readable "
                 "--schedule\n");
    return 2;
  }
  // One worker (and query context) per core, as `altroute_cli serve
  // --threads <nproc>` runs.
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());

  SpanLog log(Clock::now());

  // The serve data plane, configured as `altroute_cli serve` configures it:
  // one query context per worker, breakers and reload retry on with their
  // serve defaults.
  altroute::NetworkManager::Options mopts;
  mopts.contexts_per_city = threads;
  mopts.build_ch = build_ch;
  mopts.enable_breakers = true;
  mopts.breaker.consecutive_failures_to_open = 5;
  mopts.breaker.open_cooldown = std::chrono::milliseconds(5000);
  mopts.breaker.half_open_successes_to_close = 2;
  mopts.retry_failed_reloads = true;
  mopts.reload_backoff.initial_delay = std::chrono::milliseconds(500);
  altroute::NetworkManager manager(mopts);
  for (const std::string& city : cities) {
    auto spec = SpecFor(city);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    ScopedSpan span(&log, 0, "setup", "NetworkManager::AddCity");
    span.Attr("city", SpanLog::Quote(city));
    const altroute::Status st = manager.AddCity(
        city, [s = *spec] { return altroute::citygen::BuildCityNetwork(s); });
    if (!st.ok()) {
      std::fprintf(stderr, "AddCity(%s): %s\n", city.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    // ContractionHierarchy::Build runs inside AddCity; the snapshot records
    // its wall time, which stands in for a span of its own rather than
    // paying for a second build.
    auto snapshot = manager.GetSnapshot(city);
    if (snapshot.ok() && (*snapshot)->ch != nullptr) {
      span.Attr("ch_build_s", Num((*snapshot)->ch_build_seconds));
    }
  }
  altroute::RatingStore ratings;
  if (!ratings_file.empty()) {
    const altroute::Status st = ratings.AttachFile(ratings_file);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Untraced pass, for the tracing overhead: the first quarter of the routes
  // through the same calls with a null Trace and RequestProfile and no
  // spans, timed from each due instant. It runs before the traced pass, so
  // the traced one keeps the schedule's reloads at its end.
  std::vector<const Item*> routes;
  std::vector<const Item*> all;
  for (const Item& item : items) {
    all.push_back(&item);
    if (item.kind == Item::kRoute) routes.push_back(&item);
  }
  routes.resize(routes.size() / 4);
  std::mutex untraced_mu;
  std::vector<std::string> untraced;
  OpenLoop(routes, threads, [&](const Item& item, Clock::time_point due,
                                Clock::time_point) {
    int status = 404;
    std::string body;
    auto snapshot = manager.GetSnapshot(item.city);
    if (snapshot.ok()) {
      altroute::QueryProcessorPool::Lease processor =
          (*snapshot)->pool->Acquire();
      auto response = processor->Process(
          item.source, item.target, nullptr,
          altroute::Deadline::At(due + kRequestTimeout), nullptr);
      if (response.ok()) {
        status = 200;
        body = processor->ToJson(*response);
      } else {
        status = response.status().IsDeadlineExceeded() ? 504 : 500;
      }
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    altroute::JsonWriter w;
    w.BeginObject();
    w.Key("index").Int(static_cast<int64_t>(item.index));
    w.Key("pair").String(item.pair);
    w.Key("status").Int(status);
    w.Key("ms").RawValue(Num(ms));
    if (status == 200) w.Key("body").RawValue(body);
    w.EndObject();
    std::lock_guard<std::mutex> lock(untraced_mu);
    untraced.push_back(w.TakeString());
  });

  // Traced pass over the whole schedule. Every request is timed from its
  // due instant, as the HTTP load generator does.
  std::atomic<uint64_t> request_seq{0};
  OpenLoop(all, threads, [&](const Item& item, Clock::time_point due,
                             Clock::time_point picked) {
    const Clock::time_point began = Clock::now();
    const std::string req = "r" + std::to_string(request_seq.fetch_add(1) + 1);
    ScopedSpan root(&log, 0, req, "request");
    root.SetStart(due);
    root.Attr("lateness_ms",
              Num(std::chrono::duration<double, std::milli>(
                      began - std::max(due, picked))
                      .count()));
    if (item.kind == Item::kReload) {
      root.Attr("kind", "\"reload\"");
      root.Attr("city", SpanLog::Quote(item.city));
      ScopedSpan reload(&log, root.id(), req, "NetworkManager::Reload");
      reload.Attr("city", SpanLog::Quote(item.city));
      const altroute::Status st = manager.Reload(item.city);
      reload.End();
      root.Attr("status", st.ok() ? "200" : "500");
      return;
    }
    root.Attr("kind", "\"route\"");
    root.Attr("city", SpanLog::Quote(item.city));
    root.Attr("pair", SpanLog::Quote(item.pair));
    root.Attr("index", std::to_string(item.index));
    const altroute::Deadline deadline =
        altroute::Deadline::At(due + kRequestTimeout);
    ScopedSpan get(&log, root.id(), req, "NetworkManager::GetSnapshot");
    auto snapshot = manager.GetSnapshot(item.city);
    get.End();
    if (!snapshot.ok()) {
      root.Attr("status", "404");
      return;
    }
    ScopedSpan acquire(&log, root.id(), req, "QueryProcessorPool::Acquire");
    altroute::QueryProcessorPool::Lease processor =
        (*snapshot)->pool->Acquire();
    acquire.End();
    altroute::obs::RequestProfile profile;
    ScopedSpan process(&log, root.id(), req, "QueryProcessor::Process");
    const Clock::time_point trace_epoch = Clock::now();
    altroute::obs::Trace trace;
    auto response = processor->Process(item.source, item.target, &trace,
                                       deadline, &profile);
    for (const auto& phase : profile.phases()) {
      if (phase.name == "render") {
        process.Attr("render_ms", Num(phase.seconds * 1e3));
      }
    }
    process.End();
    auto parsed = altroute::ParseJson(trace.ToJson());
    if (parsed.ok()) GraftTrace(&log, process.id(), req, trace_epoch, *parsed);
    if (!response.ok()) {
      root.Attr("status", response.status().IsDeadlineExceeded() ? "504"
                                                                 : "500");
      root.Attr("error", SpanLog::Quote(response.status().ToString()));
      return;
    }
    ScopedSpan to_json(&log, root.id(), req, "QueryProcessor::ToJson");
    std::string body = processor->ToJson(*response, nullptr, nullptr, req);
    to_json.End();
    root.Attr("status", "200");
    root.Attr("body", std::move(body));
    root.End();

    // The participant rates the routes as soon as they arrive.
    const std::string rate_req =
        "r" + std::to_string(request_seq.fetch_add(1) + 1);
    ScopedSpan rate_root(&log, 0, rate_req, "request");
    rate_root.Attr("kind", "\"rate\"");
    altroute::RatingSubmission submission;
    submission.ratings = item.ratings;
    ScopedSpan add(&log, rate_root.id(), rate_req, "RatingStore::Add");
    const altroute::Status st = ratings.Add(submission);
    add.End();
    rate_root.Attr("status", st.ok() ? "200" : "500");
  });

  if (!log.WriteTo(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::ofstream out(untraced_path);
  for (const std::string& line : untraced) out << line << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", untraced_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (argc < 2 || !ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: perfbench_tool pairs|replay --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "pairs") return CmdPairs(flags);
  if (command == "replay") return CmdReplay(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
