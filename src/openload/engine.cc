#include "src/openload/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/openload/heap_sched.h"
#include "src/openload/timing_wheel.h"
#include "src/shard/shard_runtime.h"

namespace sled {
namespace {

constexpr char kLoadPath[] = "/data/load";

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t base, uint64_t salt) { return SplitMix64(base ^ SplitMix64(salt)); }

// The kKernel service rig: one world's simulated machine, its load file, and
// the station process every request is charged to. Requests are serviced one
// at a time (the engine models a FIFO single-server station per world), so a
// single fd cursor is enough.
struct WorldRig {
  Testbed tb;
  Process* station = nullptr;
  int fd = -1;
  int64_t file_bytes = 0;
  std::vector<char> buf;
};

WorldRig BuildRig(const OpenLoadConfig& c, uint64_t world_seed, int64_t world_id) {
  TestbedConfig tc;
  tc.kind = c.kind;
  tc.cache_pages = c.cache_pages;
  tc.seed = world_seed | 1;
  WorldRig rig;
  rig.tb = MakeTestbed(tc);
  SimKernel& k = *rig.tb.kernel;
  rig.file_bytes = c.file_mb * kMiB;

  Process& gen = k.CreateProcess("ol-gen-" + std::to_string(world_id));
  auto fd = k.Create(gen, kLoadPath);
  SLED_CHECK(fd.ok(), "openload: create %s failed", kLoadPath);
  std::string chunk(64 * kKiB, 'x');
  for (int64_t written = 0; written < rig.file_bytes;) {
    const int64_t n =
        std::min<int64_t>(static_cast<int64_t>(chunk.size()), rig.file_bytes - written);
    auto w = k.Write(gen, fd.value(), std::span<const char>(chunk.data(), static_cast<size_t>(n)));
    SLED_CHECK(w.ok(), "openload: populate write failed");
    written += w.value();
  }
  SLED_CHECK(k.Close(gen, fd.value()).ok(), "openload: close failed");
  rig.tb.FinishMastering();
  k.DropCaches();

  rig.station = &k.CreateProcess("ol-station-" + std::to_string(world_id));
  auto sfd = k.Open(*rig.station, kLoadPath);
  SLED_CHECK(sfd.ok(), "openload: open %s failed", kLoadPath);
  rig.fd = sfd.value();
  rig.buf.resize(static_cast<size_t>(std::max<int64_t>(c.request_bytes, 64 * kKiB)));
  return rig;
}

// Issue one read of [offset, offset+length) and return the kernel-clock delta
// in ns (>= 1) plus whether every syscall succeeded. This is the service-time
// oracle: the delta includes cache hits/misses, readahead, device service,
// and injected faults, exactly as the closed-loop harness would pay them.
struct ServiceSample {
  uint64_t ns = 1;
  bool ok = true;
};

ServiceSample ServiceRead(WorldRig& rig, int64_t offset, int64_t length) {
  SimKernel& k = *rig.tb.kernel;
  const TimePoint before = k.clock().Now();
  ServiceSample s;
  auto seek = k.Lseek(*rig.station, rig.fd, offset, Whence::kSet);
  if (!seek.ok()) {
    s.ok = false;
  } else {
    const size_t n = static_cast<size_t>(std::min<int64_t>(
        length, static_cast<int64_t>(rig.buf.size())));
    auto r = k.Read(*rig.station, rig.fd, std::span<char>(rig.buf.data(), n));
    s.ok = r.ok();
  }
  const int64_t delta = (k.clock().Now() - before).nanos();
  s.ns = delta < 1 ? 1 : static_cast<uint64_t>(delta);
  return s;
}

// Probe the world's mean service time, in ns, after arranging the cache the
// way steady state will see it: the hot region warmed (it stays resident),
// the cold region cold. Deterministic — fixed probe offsets, no RNG.
double ProbeMeanServiceNs(const OpenLoadConfig& c, WorldRig& rig) {
  if (c.pattern == ArrivalPattern::kTrace) {
    // Probe the real request stream: a deterministic sample spread through
    // the recorded ops, so calibration reflects the trace's own byte ranges
    // (a sequential scan's cold misses, not the synthetic hot/cold mix).
    const auto& ops = *c.trace_ops;
    const size_t n = std::min<size_t>(ops.size(), 32);
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      const ReadOp& op = ops[ops.size() * i / n];
      const int64_t length = std::clamp<int64_t>(op.length, 1, rig.file_bytes);
      const int64_t offset = std::clamp<int64_t>(op.offset, 0, rig.file_bytes - length);
      total += ServiceRead(rig, offset, length).ns;
    }
    const double mean = static_cast<double>(total) / static_cast<double>(n);
    return mean < 1.0 ? 1.0 : mean;
  }
  const int64_t hot_bytes = std::max<int64_t>(rig.file_bytes / 8, c.request_bytes);
  // Warm the hot region once, sequentially.
  for (int64_t off = 0; off + c.request_bytes <= hot_bytes; off += c.request_bytes) {
    (void)ServiceRead(rig, off, c.request_bytes);
  }
  constexpr int kHotProbes = 16;
  constexpr int kColdProbes = 8;
  uint64_t hot_total = 0;
  for (int i = 0; i < kHotProbes; ++i) {
    const int64_t span = std::max<int64_t>(hot_bytes - c.request_bytes, 1);
    const int64_t off = (span * i / kHotProbes) / kPageSize * kPageSize;
    hot_total += ServiceRead(rig, off, c.request_bytes).ns;
  }
  uint64_t cold_total = 0;
  const int64_t cold_span = std::max<int64_t>(rig.file_bytes - hot_bytes - c.request_bytes, 1);
  for (int i = 0; i < kColdProbes; ++i) {
    const int64_t off = (hot_bytes + cold_span * i / kColdProbes) / kPageSize * kPageSize;
    cold_total += ServiceRead(rig, off, c.request_bytes).ns;
  }
  const double mean_hot = static_cast<double>(hot_total) / kHotProbes;
  const double mean_cold = static_cast<double>(cold_total) / kColdProbes;
  const double mean = c.hot_fraction * mean_hot + (1.0 - c.hot_fraction) * mean_cold;
  return mean < 1.0 ? 1.0 : mean;
}

// Per-client engine state: the arrival stream, an independent request-shape
// stream, and (kTrace) the client's cursor into the shared op stream. Kept
// deliberately small — a million of these exist at once.
struct Client {
  ArrivalState arrival;
  uint64_t req_rng = 0;
  uint32_t cursor = 0;
};

struct Request {
  int64_t offset = 0;
  int64_t length = 0;
};

Request PickRequest(const OpenLoadConfig& c, Client* cl, int64_t file_bytes) {
  if (c.pattern == ArrivalPattern::kTrace) {
    const auto& ops = *c.trace_ops;
    const ReadOp& op = ops[cl->cursor % ops.size()];
    ++cl->cursor;
    const int64_t length = std::clamp<int64_t>(op.length, 1, file_bytes);
    const int64_t offset = std::clamp<int64_t>(op.offset, 0, file_bytes - length);
    return {offset, length};
  }
  const int64_t length = std::min(c.request_bytes, file_bytes);
  const int64_t hot_bytes = std::max<int64_t>(file_bytes / 8, length);
  const double u = OpenLoadUniform(&cl->req_rng);
  const double v = OpenLoadUniform(&cl->req_rng);
  int64_t offset;
  if (u < c.hot_fraction || hot_bytes >= file_bytes) {
    offset = static_cast<int64_t>(v * static_cast<double>(hot_bytes - length));
  } else {
    const int64_t cold_span = file_bytes - hot_bytes - length;
    offset = hot_bytes + (cold_span > 0 ? static_cast<int64_t>(v * static_cast<double>(cold_span))
                                        : 0);
  }
  offset = offset / kPageSize * kPageSize;
  return {offset, length};
}

// The engine core, templated over the scheduler so the wheel and the heap
// oracle run the exact same code path — the differential guarantee is about
// the scheduler, not about two divergent drivers.
template <typename Sched>
OpenLoadWorldResult RunWorldWith(const OpenLoadConfig& c, int64_t world_id, ObsAccumulator* acc) {
  OpenLoadWorldResult res;
  res.world_id = world_id;
  const int64_t base = c.clients / c.worlds;
  const int64_t extra = c.clients % c.worlds;
  const int64_t clients_n = base + (world_id < extra ? 1 : 0);
  res.clients = clients_n;
  if (clients_n == 0) {
    return res;
  }
  const uint64_t world_seed = DeriveSeed(c.seed, static_cast<uint64_t>(world_id) ^ 0x0be71ull);

  std::unique_ptr<WorldRig> rig;
  double mean_service_ns =
      static_cast<double>(c.synthetic_base_ns) + static_cast<double>(c.synthetic_jitter_mask) / 2.0;
  if (c.service == ServiceModel::kKernel) {
    rig = std::make_unique<WorldRig>(BuildRig(c, world_seed, world_id));
    mean_service_ns = ProbeMeanServiceNs(c, *rig);
  }

  ArrivalParams params;
  params.pattern = c.pattern;
  if (c.per_client_rps > 0) {
    params.mean_gap_ns = 1e9 / c.per_client_rps;
  } else {
    // Calibrated: the world's aggregate offered rate is `utilization` of the
    // station's capacity (1/mean_service), split evenly over its clients.
    params.mean_gap_ns =
        static_cast<double>(clients_n) * mean_service_ns / std::max(c.utilization, 1e-6);
  }
  if (params.mean_gap_ns < 1.0) {
    params.mean_gap_ns = 1.0;
  }

  std::vector<Client> clients(static_cast<size_t>(clients_n));
  Sched sched;
  sched.Reserve(static_cast<size_t>(clients_n));
  const uint64_t horizon_ns = static_cast<uint64_t>(std::llround(c.horizon_s * 1e9));
  SLED_CHECK(horizon_ns >= 1, "openload: degenerate horizon");
  for (int64_t i = 0; i < clients_n; ++i) {
    Client& cl = clients[static_cast<size_t>(i)];
    cl.arrival.rng = DeriveSeed(world_seed, 0xA0000000ull + static_cast<uint64_t>(i));
    cl.req_rng = DeriveSeed(world_seed, 0xB0000000ull + static_cast<uint64_t>(i));
    if (c.pattern == ArrivalPattern::kTrace) {
      cl.cursor = static_cast<uint32_t>((static_cast<uint64_t>(i) * 7919ull) %
                                        c.trace_ops->size());
    }
    // Every client keeps exactly one pending arrival in the scheduler at all
    // times — a population of N clients is N concurrent timers, even for the
    // ones whose next arrival lies past the horizon.
    sched.Schedule(NextArrivalNs(params, &cl.arrival, 0), static_cast<int32_t>(i));
  }

  uint64_t busy_until_ns = 0;  // FIFO single-server station per world
  auto fire = [&](uint64_t at_ns, int32_t ci) {
    Client& cl = clients[static_cast<size_t>(ci)];
    ++res.arrivals;
    uint64_t service_ns;
    bool ok = true;
    if (rig != nullptr) {
      const Request rq = PickRequest(c, &cl, rig->file_bytes);
      const ServiceSample s = ServiceRead(*rig, rq.offset, rq.length);
      service_ns = s.ns;
      ok = s.ok;
    } else {
      service_ns = c.synthetic_base_ns + (OpenLoadRandom(&cl.req_rng) & c.synthetic_jitter_mask);
      if (service_ns == 0) {
        service_ns = 1;
      }
    }
    const uint64_t start_ns = std::max(at_ns, busy_until_ns);
    const uint64_t done_ns = start_ns + service_ns;
    busy_until_ns = done_ns;
    ++res.completions;
    if (!ok) {
      ++res.errors;
    }
    const int64_t queue_ns = static_cast<int64_t>(start_ns - at_ns);
    const int64_t latency_ns = static_cast<int64_t>(done_ns - at_ns);
    res.latency_sum_ns += latency_ns;
    res.queue_sum_ns += queue_ns;
    res.service_sum_ns += static_cast<int64_t>(service_ns);
    res.max_latency_ns = std::max(res.max_latency_ns, latency_ns);
    res.last_completion_ns = static_cast<int64_t>(done_ns);  // completions are monotone
    res.latency.Record(Duration(latency_ns));
    res.queue_wait.Record(Duration(queue_ns));
    res.checksum = SplitMix64(res.checksum ^ (done_ns + 0x9e3779b97f4a7c15ull *
                                                             static_cast<uint64_t>(ci + 1)));
    sched.Schedule(NextArrivalNs(params, &cl.arrival, at_ns), ci);
  };
  // Arrivals occur in [0, horizon): the expiry sweep is inclusive.
  sched.ExpireUpTo(horizon_ns - 1, fire);
  SLED_CHECK(sched.size() == static_cast<size_t>(clients_n),
             "openload: client population leaked timers");

  if (acc != nullptr) {
    acc->metrics.MergeHistogram("openload.latency", res.latency);
    acc->metrics.MergeHistogram("openload.queue_wait", res.queue_wait);
    acc->metrics.Add("openload.arrivals", res.arrivals);
    acc->metrics.Add("openload.completions", res.completions);
    acc->metrics.Add("openload.errors", res.errors);
    if (rig != nullptr) {
      acc->Absorb(rig->tb.kernel->obs());
    }
  }
  return res;
}

void AppendF(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[160];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

}  // namespace

std::vector<ReadOp> ExtractReadOps(const Trace& trace) {
  std::vector<ReadOp> ops;
  std::map<int, int64_t> cursor;  // per-descriptor file offset
  for (const TraceEvent& ev : trace) {
    switch (ev.op) {
      case TraceOp::kOpen:
        cursor[ev.fd] = 0;
        break;
      case TraceOp::kClose:
        cursor.erase(ev.fd);
        break;
      case TraceOp::kLseek:
        cursor[ev.fd] = ev.offset;
        break;
      case TraceOp::kRead:
        if (ev.length > 0) {
          int64_t& off = cursor[ev.fd];
          ops.push_back(ReadOp{off, ev.length});
          off += ev.length;
        }
        break;
      case TraceOp::kMmapRead:
        if (ev.length > 0) {
          ops.push_back(ReadOp{ev.offset, ev.length});
        }
        break;
      case TraceOp::kWrite:
        // Writes advance the cursor but produce no replayable read.
        cursor[ev.fd] += ev.length;
        break;
    }
  }
  return ops;
}

OpenLoadWorldResult RunOpenLoadWorld(const OpenLoadConfig& config, int64_t world_id,
                                     ObsAccumulator* acc) {
  SLED_CHECK(config.clients >= 1 && config.worlds >= 1 && world_id >= 0 &&
                 world_id < config.worlds,
             "openload: bad world shape");
  SLED_CHECK(config.pattern != ArrivalPattern::kTrace ||
                 (config.trace_ops != nullptr && !config.trace_ops->empty()),
             "openload: kTrace requires a non-empty op stream");
  if (config.scheduler == SchedulerKind::kHeap) {
    return RunWorldWith<HeapScheduler<int32_t>>(config, world_id, acc);
  }
  return RunWorldWith<TimingWheel<int32_t>>(config, world_id, acc);
}

ScenarioResult RunOpenLoadScenario(const OpenLoadConfig& config) {
  ScenarioResult out;
  out.horizon_s = config.horizon_s;
  out.clients = config.clients;
  out.worlds.resize(static_cast<size_t>(config.worlds));

  ShardRuntime rt(ShardConfig{.shards = config.shards});
  std::vector<ObsAccumulator> accs(static_cast<size_t>(rt.shards()));
  rt.Run(config.worlds, [&](WorldContext& ctx) {
    OpenLoadWorldResult r =
        RunOpenLoadWorld(config, ctx.world_id(), &accs[static_cast<size_t>(ctx.shard_id())]);
    ctx.Progress(r.last_completion_ns, r.arrivals, r.completions);
    out.worlds[static_cast<size_t>(ctx.world_id())] = std::move(r);
  });

  // Scalar merge from the per-world results; histogram merge through the
  // ObsAccumulator path (commutative, so any shard count and absorb order
  // yields the same buckets — the property openload_diff_test pins down).
  int64_t last_completion_ns = 0;
  for (const OpenLoadWorldResult& w : out.worlds) {
    out.arrivals += w.arrivals;
    out.completions += w.completions;
    out.errors += w.errors;
    out.checksum ^= w.checksum;
    last_completion_ns = std::max(last_completion_ns, w.last_completion_ns);
  }
  ObsAccumulator merged;
  for (ObsAccumulator& a : accs) {
    merged.Absorb(a);
  }
  if (const LatencyHistogram* h = merged.metrics.histogram("openload.latency")) {
    out.latency = *h;
  }
  if (const LatencyHistogram* h = merged.metrics.histogram("openload.queue_wait")) {
    out.queue_wait = *h;
  }
  const double horizon_ns = config.horizon_s * 1e9;
  const double span_ns = std::max(horizon_ns, static_cast<double>(last_completion_ns));
  out.offered_rps = static_cast<double>(out.arrivals) / (horizon_ns * 1e-9);
  out.achieved_rps =
      span_ns <= 0 ? 0 : static_cast<double>(out.completions) / (span_ns * 1e-9);
  return out;
}

std::string ScenarioJson(const ScenarioResult& result) {
  std::string out;
  AppendF(&out, "\"clients\": %lld, ", static_cast<long long>(result.clients));
  AppendF(&out, "\"worlds\": %lld, ", static_cast<long long>(result.worlds.size()));
  AppendF(&out, "\"arrivals\": %lld, ", static_cast<long long>(result.arrivals));
  AppendF(&out, "\"completions\": %lld, ", static_cast<long long>(result.completions));
  AppendF(&out, "\"errors\": %lld, ", static_cast<long long>(result.errors));
  AppendF(&out, "\"horizon_s\": %.3f, ", result.horizon_s);
  AppendF(&out, "\"offered_rps\": %.1f, ", result.offered_rps);
  AppendF(&out, "\"achieved_rps\": %.1f, ", result.achieved_rps);
  const LatencyHistogram& h = result.latency;
  AppendF(&out, "\"p50_ns\": %lld, ", static_cast<long long>(h.Quantile(0.50).nanos()));
  AppendF(&out, "\"p95_ns\": %lld, ", static_cast<long long>(h.Quantile(0.95).nanos()));
  AppendF(&out, "\"p99_ns\": %lld, ", static_cast<long long>(h.Quantile(0.99).nanos()));
  AppendF(&out, "\"p999_ns\": %lld, ", static_cast<long long>(h.Quantile(0.999).nanos()));
  AppendF(&out, "\"mean_ns\": %lld, ", static_cast<long long>(h.mean().nanos()));
  AppendF(&out, "\"max_ns\": %lld, ", static_cast<long long>(h.max().nanos()));
  AppendF(&out, "\"queue_p99_ns\": %lld, ",
          static_cast<long long>(result.queue_wait.Quantile(0.99).nanos()));
  out += "\"cdf\": [";
  int64_t cumulative = 0;
  bool first = true;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const int64_t n = h.buckets()[static_cast<size_t>(i)];
    if (n == 0) {
      continue;
    }
    cumulative += n;
    AppendF(&out, "%s[%lld, %lld]", first ? "" : ", ",
            static_cast<long long>(LatencyHistogram::BucketUpperBound(i)),
            static_cast<long long>(cumulative));
    first = false;
  }
  out += "]";
  return out;
}

}  // namespace sled
