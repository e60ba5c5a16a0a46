#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "probes.h"
#include "src/apps/fimgbin.h"
#include "src/apps/fimhisto.h"
#include "src/apps/grep.h"
#include "src/apps/wc.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/obs/merge.h"
#include "src/shard/shard_runtime.h"
#include "src/workload/fits_gen.h"
#include "src/workload/shard_world.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace perfbench {
namespace {

using sled::kKiB;
using sled::kMiB;
using sled::Process;
using sled::Rng;
using sled::SimKernel;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// An independent stream per purpose, all derived from the workload seed.
uint64_t Derive(uint64_t seed, uint64_t salt) { return SplitMix64(seed ^ SplitMix64(salt)); }

Tracer* TracerOf(TraceSink* trace) { return trace == nullptr ? nullptr : &trace->tracer; }

double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-6; }

// Shared shape of the three app workloads: a testbed holding one input file,
// ops that each run one app variant in a fresh process, and a warm-up round
// that is run and discarded at the end of set-up.
class AppWorkload : public Workload {
 public:
  AppWorkload(WorkloadOptions options, std::vector<std::string> variants, int64_t sample_ops)
      : options_(options), variants_(std::move(variants)), sample_ops_(sample_ops) {}

  const std::vector<std::string>& variants() const override { return variants_; }
  int64_t batch_ops() const override { return static_cast<int64_t>(variants_.size()); }
  int64_t cycle_ops() const override { return batch_ops(); }
  int64_t sample_ops() const override { return sample_ops_; }

  SetupTimes Setup(Tracer* tracer) override {
    SetupTimes t;
    SpanScope total(tracer, "setup");
    tb_.kernel.reset();  // free the previous set-up's machine first
    ResetState();
    {
      SpanScope s(tracer, "workload.testbed");
      tb_ = BuildTestbed();
      t.testbed = s.seconds();
    }
    {
      SpanScope s(tracer, GeneratorSpan());
      Process& gen = tb_.kernel->CreateProcess("gen");
      Rng rng(Derive(options_.seed, 1));
      t.generated_bytes = Generate(gen, rng);
      tb_.kernel->DropCaches();
      t.generate = s.seconds();
      t.generator = GeneratorSpan();
    }
    {
      SpanScope s(tracer, "workload.warmup");
      std::vector<OpRecord> discarded;
      RunBatch(nullptr, &discarded);
      for (const OpRecord& r : discarded) {
        t.warmup_failed += r.failed ? 1 : 0;
      }
      t.warmup = s.seconds();
    }
    t.total = total.seconds();
    return t;
  }

  void RunBatch(TraceSink* trace, std::vector<OpRecord>* out) override {
    BeginRound();
    for (int v = 0; v < static_cast<int>(variants_.size()); ++v) {
      out->push_back(RunOp(v, trace));
    }
  }

  ProbeResults Probe() override { return RunProbes(*tb_.kernel, Probes()); }

 protected:
  virtual sled::Testbed BuildTestbed() = 0;
  virtual const char* GeneratorSpan() const = 0;
  // Write the input file; returns its size in bytes.
  virtual int64_t Generate(Process& gen, Rng& rng) = 0;
  virtual void ResetState() {}
  virtual void BeginRound() {}
  // Per-op harness work before the app runs (grep's marker move).
  virtual bool BeforeApp(int64_t /*op*/, TraceSink* /*trace*/) { return true; }
  // Run variant `v` in `p`, timing only the app call into rec->wall_ms, then
  // check its output. Returns false on an error or a failed check.
  virtual bool RunApp(int v, Process& p, Tracer* tracer, int64_t op, OpRecord* rec) = 0;
  virtual ProbeSpec Probes() const = 0;

  SimKernel& kernel() { return *tb_.kernel; }

  // Time `call` (the app run) as the op's wall time, under a span named
  // after the app.
  template <typename F>
  auto TimeApp(Tracer* tracer, int v, int64_t op, OpRecord* rec, F&& call) {
    const std::string& name = variants_[static_cast<size_t>(v)];
    SpanScope s(tracer, "apps." + name.substr(0, name.find('.')), op);
    const int64_t t0 = NowNs();
    auto result = call();
    rec->wall_ms = MsSince(t0);
    return result;
  }

  WorkloadOptions options_;
  sled::Testbed tb_;

 private:
  OpRecord RunOp(int v, TraceSink* trace) {
    const int64_t op = next_op_++;
    Tracer* tracer = TracerOf(trace);
    SpanScope op_span(tracer, "op", op);
    Counters before;
    if (trace != nullptr) {
      SnapshotKernel(kernel(), &before);
    }
    OpRecord rec;
    rec.variant = v;
    bool ok = BeforeApp(op, trace);
    Process& p = kernel().CreateProcess(variants_[static_cast<size_t>(v)]);
    ok = RunApp(v, p, tracer, op, &rec) && ok;
    rec.sim_ms = p.stats().elapsed().ToMillis();
    rec.failed = !ok;
    if (trace != nullptr) {
      Counters after;
      SnapshotKernel(kernel(), &after);
      SnapshotProcess(p, &after);  // a fresh process: its totals are the op's deltas
      AccumulateDelta(before, after, &trace->sums);
    }
    return rec;
  }

  std::vector<std::string> variants_;
  int64_t sample_ops_;
  int64_t next_op_ = 0;
};

// ---- wc_nfs: paper Fig 7 ----

class WcNfs : public AppWorkload {
 public:
  explicit WcNfs(WorkloadOptions o)
      : AppWorkload(o, {"wc.read", "wc.sleds", "wc.mmap_sleds", "wc.program"}, 48),
        bytes_(o.tiny ? 2 * kMiB : 64 * kMiB) {}

 protected:
  sled::Testbed BuildTestbed() override {
    sled::TestbedConfig c;
    c.kind = sled::StorageKind::kNfs;
    c.seed = options_.seed;
    if (options_.tiny) {
      c.cache_pages = bytes_ / sled::kPageSize * 5 / 8;  // keep the 1.6x file/cache ratio
    }
    return sled::MakeTestbed(c);
  }
  const char* GeneratorSpan() const override { return "workload.textgen"; }
  int64_t Generate(Process& gen, Rng& rng) override {
    auto lines = sled::GenerateTextFile(kernel(), gen, kPath, bytes_, rng);
    SLED_CHECK(lines.ok(), "wc_nfs: text generation failed");
    lines_ = lines.value();
    return bytes_;
  }
  void ResetState() override { reference_.reset(); }

  bool RunApp(int v, Process& p, Tracer* tracer, int64_t op, OpRecord* rec) override {
    sled::WcOptions o;
    o.use_sleds = v == 1 || v == 2;
    o.use_mmap = v == 2;
    o.kernel_program = v == 3;
    auto r = TimeApp(tracer, v, op, rec, [&] { return sled::WcApp::Run(kernel(), p, kPath, o); });
    rec->bytes = bytes_;
    SpanScope check(tracer, "check", op);
    if (!r.ok()) {
      return false;
    }
    if (!reference_) {
      reference_ = r.value();  // the first plain-read result
    }
    return r.value() == *reference_ && r->lines == lines_ && r->bytes == bytes_;
  }

  ProbeSpec Probes() const override { return {kPath, {}, 0}; }

 private:
  static constexpr const char* kPath = "/data/file.txt";
  int64_t bytes_;
  int64_t lines_ = 0;
  std::optional<sled::WcResult> reference_;
};

// ---- grep_q_ext2: paper Fig 11 ----

class GrepQExt2 : public AppWorkload {
 public:
  explicit GrepQExt2(WorkloadOptions o)
      : AppWorkload(o, {"grep.read", "grep.sleds", "grep.program"}, 3 * kStrata),
        bytes_(o.tiny ? 2 * kMiB : 64 * kMiB) {}

  int64_t cycle_ops() const override { return 3 * kStrata; }

 protected:
  sled::Testbed BuildTestbed() override {
    sled::TestbedConfig c;
    c.kind = sled::StorageKind::kDisk;
    c.seed = options_.seed;
    if (options_.tiny) {
      c.cache_pages = bytes_ / sled::kPageSize * 5 / 8;
    }
    return sled::MakeTestbed(c);
  }
  const char* GeneratorSpan() const override { return "workload.textgen"; }
  int64_t Generate(Process& gen, Rng& rng) override {
    SLED_CHECK(sled::GenerateTextFile(kernel(), gen, kPath, bytes_, rng).ok(),
               "grep_q_ext2: text generation failed");
    return bytes_;
  }
  void ResetState() override {
    marker_ = -1;
    round_ = -1;
    rng_ = Rng(Derive(options_.seed, 2));
    rotation_ = static_cast<int64_t>(Derive(options_.seed, 3) % kStrata);
  }
  void BeginRound() override {
    ++round_;
    variant_in_round_ = 0;
  }

  // Marker placement follows a fixed stratified schedule: the file is cut
  // into kStrata equal slices and each variant visits the centre of every
  // slice once per kStrata rounds, in a fixed stride order. The seed picks
  // where in that cycle a run starts. Random positions would make grep's
  // per-op cost (set by where the marker lands relative to the cached pages)
  // so spread out that the median of a 100-op run moved ~15% between seeds;
  // with the schedule it moves well under 1%. The schedule also repeats, so
  // every op of the cycle is timed several times in one run.
  bool BeforeApp(int64_t op, TraceSink* trace) override {
    const int64_t v = variant_in_round_++;
    const int64_t stratum = (round_ + rotation_ + 11 * v) * 13 % kStrata;
    const int64_t span = bytes_ - sled::kGenLineLen;
    const int64_t where = (2 * stratum + 1) * span / (2 * kStrata);
    SpanScope s(TracerOf(trace), "workload.marker_move", op);
    Process& mover = kernel().CreateProcess("marker");
    auto placed = sled::MoveMarkerScrubbed(kernel(), mover, kPath, marker_, where, rng_);
    if (trace != nullptr) {
      trace->marker_move_ms.push_back(s.seconds() * 1e3);
    }
    if (!placed.ok()) {
      return false;
    }
    marker_ = placed.value();
    return true;
  }

  bool RunApp(int v, Process& p, Tracer* tracer, int64_t op, OpRecord* rec) override {
    sled::GrepOptions o;
    o.quiet_first_match = true;
    o.use_sleds = v >= 1;
    o.kernel_program = v == 2;
    const int64_t examined0 = kernel().obs().metrics().counter("progs.bytes_examined");
    auto r = TimeApp(tracer, v, op, rec, [&] {
      return sled::GrepApp::Run(kernel(), p, kPath, sled::kGrepMarker, o);
    });
    rec->bytes = p.stats().bytes_read +
                 kernel().obs().metrics().counter("progs.bytes_examined") - examined0;
    SpanScope check(tracer, "check", op);
    return r.ok() && r->found;
  }

  ProbeSpec Probes() const override {
    sled::PickerOptions picker;
    picker.record_oriented = true;
    return {kPath, picker, 0};
  }

 private:
  static constexpr const char* kPath = "/data/file.txt";
  static constexpr int64_t kStrata = 34;  // coprime to the stride 13
  int64_t bytes_;
  int64_t marker_ = -1;
  int64_t round_ = -1;
  int64_t rotation_ = 0;
  int variant_in_round_ = 0;
  Rng rng_{1};  // filler text for the line a moved marker leaves
};

// ---- fits_rw: paper Figs 14-15 ----

class FitsRw : public AppWorkload {
 public:
  explicit FitsRw(WorkloadOptions o)
      : AppWorkload(o,
                    {"fimgbin.plain", "fimgbin.sleds", "fimhisto.plain", "fimhisto.sleds",
                     "fimhisto.program"},
                    50),
        approx_bytes_(o.tiny ? 2 * kMiB : 48 * kMiB) {}

 protected:
  sled::Testbed BuildTestbed() override {
    if (!options_.tiny) {
      return sled::MakeLheasoftTestbed(options_.seed);
    }
    // MakeLheasoftTestbed fixes a 40 MiB cache; a tiny image must still
    // overflow the cache, so the self-test uses a Table 2 machine with the
    // Table 3 memory and a cache of 5/8 of the image.
    sled::TestbedConfig c;
    c.seed = options_.seed;
    c.memory = sled::DeviceCharacteristics{sled::Nanoseconds(210), 87.0e6, {}};
    c.cache_pages = approx_bytes_ / sled::kPageSize * 5 / 8;
    return sled::MakeTestbed(c);
  }
  const char* GeneratorSpan() const override { return "workload.fitsgen"; }
  int64_t Generate(Process& gen, Rng& rng) override {
    auto header = sled::GenerateFitsImage(kernel(), gen, kInput, approx_bytes_, -32, rng);
    SLED_CHECK(header.ok() && header->naxis.size() == 2, "fits_rw: image generation failed");
    header_ = header.value();
    auto attr = kernel().Stat(gen, kInput);
    SLED_CHECK(attr.ok(), "fits_rw: stat failed");
    input_bytes_ = attr->size;
    return input_bytes_;
  }
  void ResetState() override { reference_bins_.clear(); }

  bool RunApp(int v, Process& p, Tracer* tracer, int64_t op, OpRecord* rec) override {
    rec->bytes = input_bytes_;
    if (v < 2) {
      sled::FimgbinOptions o;
      o.use_sleds = v == 1;
      o.boxcar = 2;
      auto r = TimeApp(tracer, v, op, rec,
                       [&] { return sled::FimgbinApp::Run(kernel(), p, kInput, kBinned, o); });
      SpanScope check(tracer, "check", op);
      return r.ok() && BinnedHeaderOk();
    }
    sled::FimhistoOptions o;
    o.use_sleds = v == 3;
    o.kernel_program = v == 4;
    auto r = TimeApp(tracer, v, op, rec,
                     [&] { return sled::FimhistoApp::Run(kernel(), p, kInput, kHisto, o); });
    SpanScope check(tracer, "check", op);
    if (!r.ok()) {
      return false;
    }
    if (reference_bins_.empty()) {
      reference_bins_ = r->bins;  // the first plain fimhisto result
    }
    const int64_t total = std::accumulate(r->bins.begin(), r->bins.end(), int64_t{0});
    return r->bins == reference_bins_ && total == header_.element_count();
  }

  ProbeSpec Probes() const override {
    sled::PickerOptions picker;
    picker.element_size = header_.element_size();
    picker.element_base = header_.data_offset;
    return {kInput, picker, header_.data_offset};
  }

 private:
  // The rebinned output's header must hold half the input's dimensions.
  bool BinnedHeaderOk() {
    Process& checker = kernel().CreateProcess("check");
    auto fd = kernel().Open(checker, kBinned);
    if (!fd.ok()) {
      return false;
    }
    auto h = sled::FitsReadHeader(kernel(), checker, fd.value());
    const bool closed = kernel().Close(checker, fd.value()).ok();
    return closed && h.ok() && h->naxis.size() == 2 && h->naxis[0] * 2 == header_.naxis[0] &&
           h->naxis[1] * 2 == header_.naxis[1];
  }

  static constexpr const char* kInput = "/data/image.fits";
  static constexpr const char* kBinned = "/data/binned.fits";
  static constexpr const char* kHisto = "/data/histo.fits";
  int64_t approx_bytes_;
  int64_t input_bytes_ = 0;
  sled::FitsHeader header_;
  std::vector<int64_t> reference_bins_;
};

// ---- mixed_rw_shards: RunShardWorld worlds on the ShardRuntime ----

class MixedRwShards : public Workload {
 public:
  explicit MixedRwShards(WorkloadOptions o)
      : options_(o),
        worlds_(o.tiny ? 6 : 240),
        // Half the hardware threads: the workers and the spinning control
        // thread leave a core free, so a pass does not wait on whatever else
        // the host schedules.
        shards_(std::max(1, sled::HardwareThreads() / 2)) {
    world_.base_seed = Derive(o.seed, 3);
    world_.processes = 3;
    world_.files_per_process = 3;
    world_.file_kib = 192;
    world_.ops_per_process = o.tiny ? 40 : 640;
    world_.cache_pages = 1024;  // holds the 432-page footprint
  }

  const std::vector<std::string>& variants() const override { return variants_; }
  int64_t batch_ops() const override { return worlds_; }
  int64_t cycle_ops() const override { return worlds_; }
  int64_t sample_ops() const override { return worlds_; }

  SetupTimes Setup(Tracer* tracer) override {
    SetupTimes t;
    SpanScope total(tracer, "setup");
    probe_tb_.kernel.reset();
    {
      // A world-shaped machine (ext2 at /data, flash at /ssd) for the probes.
      SpanScope s(tracer, "workload.testbed");
      sled::TestbedConfig c;
      c.kind = sled::StorageKind::kDisk;
      c.cache_pages = world_.cache_pages;
      c.seed = Derive(options_.seed, 4) | 1;
      probe_tb_ = sled::MakeTestbed(c);
      sled::SsdDeviceConfig ssd;
      ssd.capacity_bytes = 64 * kMiB;
      ssd.seed = Derive(options_.seed, 5);
      SLED_CHECK(probe_tb_.kernel
                     ->Mount("/ssd", std::make_unique<sled::ExtFs>(
                                         "ssd", std::make_unique<sled::SsdDevice>(ssd)))
                     .ok(),
                 "mixed_rw_shards: mounting /ssd failed");
      Process& gen = probe_tb_.kernel->CreateProcess("gen");
      auto fd = probe_tb_.kernel->Create(gen, kProbePath);
      SLED_CHECK(fd.ok(), "mixed_rw_shards: probe file create failed");
      const std::string chunk(64 * kKiB, 'x');
      for (int64_t written = 0; written < kProbeBytes;) {
        auto w = probe_tb_.kernel->Write(gen, fd.value(), std::span(chunk.data(), chunk.size()));
        SLED_CHECK(w.ok(), "mixed_rw_shards: probe file write failed");
        written += w.value();
      }
      SLED_CHECK(probe_tb_.kernel->Close(gen, fd.value()).ok(), "close failed");
      t.testbed = s.seconds();
    }
    {
      // The single-shard oracle pass, which also warms the allocator.
      SpanScope s(tracer, "shard.oracle");
      oracle_ = RunPass(1, nullptr, nullptr);
      t.oracle = s.seconds();
    }
    t.total = total.seconds();
    return t;
  }

  void RunBatch(TraceSink* trace, std::vector<OpRecord>* out) override {
    const Pass pass = RunPass(shards_, trace, out);
    const bool pass_ok = pass.merged_json == oracle_.merged_json && pass.report_ok;
    for (size_t w = 0; w < pass.results.size(); ++w) {
      OpRecord& rec = (*out)[out->size() - pass.results.size() + w];
      rec.failed = !pass_ok || !(pass.results[w] == oracle_.results[w]);
    }
  }

  ProbeResults Probe() override { return RunProbes(*probe_tb_.kernel, {kProbePath, {}, 0}); }

 private:
  struct Pass {
    std::vector<sled::ShardWorldResult> results;
    std::string merged_json;
    bool report_ok = true;
  };

  // One ShardRuntime::Run over every world. Appends an op record per world
  // when `out` is given; records spans, counters and the pass's shard
  // timings when `trace` is given.
  Pass RunPass(int shards, TraceSink* trace, std::vector<OpRecord>* out) {
    sled::ShardRuntime rt(sled::ShardConfig{.shards = shards});
    const size_t n = static_cast<size_t>(worlds_);
    Pass pass;
    pass.results.resize(n);
    std::vector<int64_t> start(n), end(n);
    std::vector<int> shard_of(n);
    // Traced passes keep one accumulator per world, so each world's counters
    // can be read on their own; untraced passes keep one per shard.
    std::vector<sled::ObsAccumulator> accs(trace != nullptr ? n
                                                            : static_cast<size_t>(rt.shards()));
    Tracer* tracer = TracerOf(trace);
    const int run_span = tracer != nullptr ? tracer->Begin("shard.run") : -1;
    const int64_t t0 = NowNs();
    const sled::RuntimeReport report = rt.Run(worlds_, [&](sled::WorldContext& ctx) {
      const size_t w = static_cast<size_t>(ctx.world_id());
      sled::ShardWorldConfig c = world_;
      c.world_id = ctx.world_id();
      c.shard_id = ctx.shard_id();
      sled::ObsAccumulator* acc =
          &accs[trace != nullptr ? w : static_cast<size_t>(ctx.shard_id())];
      start[w] = NowNs();
      pass.results[w] = sled::RunShardWorld(c, acc);
      end[w] = NowNs();
      shard_of[w] = ctx.shard_id();
      ctx.Progress(pass.results[w].sim_ns, pass.results[w].syscalls,
                   pass.results[w].pages_paged_in);
    });
    const double run_ms = MsSince(t0);
    if (tracer != nullptr) {
      tracer->End(run_span);
    }

    sled::ObsAccumulator merged;
    int64_t sim_ns_sum = 0;
    for (const sled::ObsAccumulator& acc : accs) {
      merged.Absorb(acc);
    }
    for (const sled::ShardWorldResult& r : pass.results) {
      sim_ns_sum += r.sim_ns;
    }
    pass.merged_json = merged.MetricsJson();
    pass.report_ok = report.worlds == worlds_ && report.sim_ns_sum == sim_ns_sum;

    if (out != nullptr) {
      for (size_t w = 0; w < n; ++w) {
        const sled::ShardWorldResult& r = pass.results[w];
        OpRecord rec;
        rec.wall_ms = static_cast<double>(end[w] - start[w]) * 1e-6;
        rec.sim_ms = static_cast<double>(r.sim_ns) * 1e-6;
        out->push_back(rec);
      }
    }
    if (trace != nullptr) {
      TraceSink::ShardPass sp;
      sp.run_ms = run_ms;
      sp.busy_ms.assign(static_cast<size_t>(rt.shards()), 0.0);
      sp.acquire_waits = report.acquire_waits;
      for (size_t w = 0; w < n; ++w) {
        const int64_t op = next_op_++;
        tracer->AddFinished("shard.world", start[w], end[w], run_span, op);
        sp.busy_ms[static_cast<size_t>(shard_of[w])] +=
            static_cast<double>(end[w] - start[w]) * 1e-6;
        const sled::ShardWorldResult& r = pass.results[w];
        Counters c;
        SnapshotRegistry(accs[w].metrics, &c);
        c["trace.total"] = accs[w].trace_total;
        c["proc.syscalls"] = r.syscalls;
        c["proc.major_faults"] = r.major_faults;
        c["kstat.pages_paged_in"] = r.pages_paged_in;
        c["kstat.pages_written_back"] = r.pages_written_back;
        AccumulateDelta({}, c, &trace->sums);
      }
      trace->shard_passes.push_back(std::move(sp));
    }
    return pass;
  }

  static constexpr const char* kProbePath = "/data/probe.dat";
  static constexpr int64_t kProbeBytes = 8 * kMiB;
  WorkloadOptions options_;
  int64_t worlds_;
  int shards_;
  sled::ShardWorldConfig world_;
  std::vector<std::string> variants_{"shard.world"};
  sled::Testbed probe_tb_;
  Pass oracle_;
  int64_t next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& options) {
  if (name == "wc_nfs") {
    return std::make_unique<WcNfs>(options);
  }
  if (name == "grep_q_ext2") {
    return std::make_unique<GrepQExt2>(options);
  }
  if (name == "fits_rw") {
    return std::make_unique<FitsRw>(options);
  }
  if (name == "mixed_rw_shards") {
    return std::make_unique<MixedRwShards>(options);
  }
  return nullptr;
}

}  // namespace perfbench
