// Tests for completion programs (src/progs + SimKernel::InstallProgram /
// RunProgram). The contract under test, in order of importance:
//
//   1. Results are *identical* to the userspace oracle — programs may only
//      change where the work runs, never what it computes.
//   2. The sandbox holds: resource caps abort the program, not the kernel,
//      and a malformed chain faults the program, not the kernel.
//   3. Simulated time is deterministic (including across shard ids) and the
//      program path is never slower than the oracle it replaces.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/find.h"
#include "src/apps/fimhisto.h"
#include "src/apps/grep.h"
#include "src/apps/wc.h"
#include "src/common/rng.h"
#include "src/device/disk_device.h"
#include "src/device/network_device.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/replica/replicated_fs.h"
#include "src/workload/chain_gen.h"
#include "src/workload/fits_gen.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(IoMode mode = IoMode::kFifoSync, int64_t cache_pages = 2048,
                int shard_id = 0) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  config.io.mode = mode;
  config.shard_id = shard_id;
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

void WriteFile(SimKernel& k, Process& p, const std::string& path, const std::string& data) {
  const int fd = k.Create(p, path).value();
  ASSERT_TRUE(k.Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(k.Close(p, fd).ok());
}

std::string MakeText(uint64_t seed, int64_t target) {
  Rng rng(seed);
  std::string data;
  while (static_cast<int64_t>(data.size()) < target) {
    const int64_t word = rng.Uniform(1, 12);
    for (int64_t i = 0; i < word; ++i) {
      data.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
    }
    data.push_back(rng.Bernoulli(0.2) ? '\n' : ' ');
  }
  return data;
}

std::string ReadWholeFile(SimKernel& k, Process& p, const std::string& path) {
  const int fd = k.Open(p, path).value();
  std::string out;
  std::vector<char> buf(static_cast<size_t>(64 * kKiB));
  while (true) {
    const int64_t n = k.Read(p, fd, std::span<char>(buf.data(), buf.size())).value();
    if (n == 0) {
      break;
    }
    out.append(buf.data(), static_cast<size_t>(n));
  }
  EXPECT_TRUE(k.Close(p, fd).ok());
  return out;
}

// ---- result identity: program == oracle, in both engine modes ----

class ProgsModeTest : public ::testing::TestWithParam<IoMode> {};

TEST_P(ProgsModeTest, WcProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  const int64_t size = 48 * kPageSize + 1234;
  // Random bytes cover every byte value, and their long words cross chunk
  // seams, so the program's in_word carry and the oracle's seam merge meet.
  Rng rng(102);
  std::string random_bytes;
  for (int64_t i = 0; i < size; ++i) {
    random_bytes.push_back(static_cast<char>(static_cast<uint8_t>(rng.Uniform(0, 255))));
  }
  WriteFile(*w.kernel, *w.proc, "/text", MakeText(101, size));
  WriteFile(*w.kernel, *w.proc, "/bytes", random_bytes);

  WcOptions plain;
  plain.buffer_bytes = 3 * kPageSize;  // word seams off page boundaries
  WcOptions prog = plain;
  prog.kernel_program = true;
  for (const char* path : {"/text", "/bytes"}) {
    SCOPED_TRACE(path);
    const WcResult oracle = WcApp::Run(*w.kernel, *w.proc, path, plain).value();
    // Warm cache (the oracle above populated it), then cold.
    EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, path, prog).value(), oracle);
    w.kernel->DropCaches();
    EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, path, prog).value(), oracle);
  }
}

TEST_P(ProgsModeTest, GrepProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  Process& p = *w.proc;
  Rng rng(7);
  ASSERT_TRUE(GenerateTextFile(*w.kernel, p, "/t.txt", 2 * kMiB, rng).ok());
  ASSERT_TRUE(PlaceMarker(*w.kernel, p, "/t.txt", 1200 * kKiB).ok());
  w.kernel->DropCaches();

  GrepOptions oracle_opts;
  oracle_opts.quiet_first_match = true;
  GrepOptions prog_opts = oracle_opts;
  prog_opts.kernel_program = true;
  for (bool use_sleds : {false, true}) {
    oracle_opts.use_sleds = use_sleds;
    prog_opts.use_sleds = use_sleds;
    const bool expect =
        GrepApp::Run(*w.kernel, p, "/t.txt", kGrepMarker, oracle_opts).value().found;
    EXPECT_TRUE(expect);
    EXPECT_EQ(GrepApp::Run(*w.kernel, p, "/t.txt", kGrepMarker, prog_opts).value().found,
              expect);
    // A pattern that is not in the file: both say no.
    EXPECT_FALSE(GrepApp::Run(*w.kernel, p, "/t.txt", "ZMISSINGZ", oracle_opts).value().found);
    EXPECT_FALSE(GrepApp::Run(*w.kernel, p, "/t.txt", "ZMISSINGZ", prog_opts).value().found);
  }
}

TEST_P(ProgsModeTest, GrepProgramFindsChunkStraddlingMatch) {
  World w = MakeWorld(GetParam());
  // The only occurrence straddles the plan-chunk boundary: the program's
  // pattern_len-1 chunk overlap must catch it.
  const int64_t chunk = 2 * kPageSize;
  std::string data(static_cast<size_t>(3 * chunk), 'a');
  const std::string needle = "XSTRADDLEX";
  data.replace(static_cast<size_t>(chunk) - 4, needle.size(), needle);
  WriteFile(*w.kernel, *w.proc, "/s.txt", data);
  w.kernel->DropCaches();

  GrepOptions opts;
  opts.quiet_first_match = true;
  opts.buffer_bytes = chunk;
  opts.kernel_program = true;
  EXPECT_TRUE(GrepApp::Run(*w.kernel, *w.proc, "/s.txt", needle, opts).value().found);
}

TEST_P(ProgsModeTest, ChainProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  Rng rng(42);
  ChainGenOptions gen;
  gen.num_blocks = 512;
  gen.marker_every = 19;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  ChainOptions opts;
  opts.name_contains = std::string(kChainMarker);
  ChainOptions prog = opts;
  prog.kernel_program = true;
  // Cold, then warm: the answers never depend on the cache.
  w.kernel->DropCaches();
  const ChainResult oracle_cold = FindApp::RunChain(*w.kernel, *w.proc, "/chain", opts).value();
  w.kernel->DropCaches();
  const ChainResult prog_cold = FindApp::RunChain(*w.kernel, *w.proc, "/chain", prog).value();
  EXPECT_EQ(oracle_cold, prog_cold);
  EXPECT_EQ(oracle_cold.blocks_visited, gen.num_blocks);
  EXPECT_EQ(oracle_cold.names_matched, gen.num_blocks / gen.marker_every);
  const ChainResult oracle_warm = FindApp::RunChain(*w.kernel, *w.proc, "/chain", opts).value();
  const ChainResult prog_warm = FindApp::RunChain(*w.kernel, *w.proc, "/chain", prog).value();
  EXPECT_EQ(oracle_cold, oracle_warm);
  EXPECT_EQ(oracle_cold, prog_warm);
}

TEST_P(ProgsModeTest, ChainHopBudgetCutsBothPathsEqually) {
  World w = MakeWorld(GetParam());
  Rng rng(43);
  ChainGenOptions gen;
  gen.num_blocks = 256;
  gen.marker_every = 5;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  ChainOptions opts;
  opts.name_contains = std::string(kChainMarker);
  opts.max_hops = 77;
  ChainOptions prog = opts;
  prog.kernel_program = true;
  const ChainResult a = FindApp::RunChain(*w.kernel, *w.proc, "/chain", opts).value();
  const ChainResult b = FindApp::RunChain(*w.kernel, *w.proc, "/chain", prog).value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.blocks_visited, 77);
}

TEST_P(ProgsModeTest, FimhistoProgramMatchesOracle) {
  World w = MakeWorld(GetParam());
  Rng rng(11);
  ASSERT_TRUE(GenerateFitsImage(*w.kernel, *w.proc, "/img.fits", kMiB, -32, rng).ok());
  w.kernel->DropCaches();

  FimhistoOptions opts;
  opts.num_bins = 32;
  const FimhistoResult oracle =
      FimhistoApp::Run(*w.kernel, *w.proc, "/img.fits", "/out_oracle", opts).value();
  FimhistoOptions prog = opts;
  prog.kernel_program = true;
  w.kernel->DropCaches();
  const FimhistoResult kernelside =
      FimhistoApp::Run(*w.kernel, *w.proc, "/img.fits", "/out_prog", prog).value();

  EXPECT_EQ(oracle.min_value, kernelside.min_value);
  EXPECT_EQ(oracle.max_value, kernelside.max_value);
  EXPECT_EQ(oracle.bins, kernelside.bins);
  // The output files (copy + appended histogram extension) must be
  // byte-identical too.
  EXPECT_EQ(ReadWholeFile(*w.kernel, *w.proc, "/out_oracle"),
            ReadWholeFile(*w.kernel, *w.proc, "/out_prog"));
}

INSTANTIATE_TEST_SUITE_P(EngineModes, ProgsModeTest,
                         ::testing::Values(IoMode::kFifoSync, IoMode::kElevator));

// ---- sandbox: caps and faults hit the program, never the kernel ----

TEST(ProgsSandboxTest, StepCapAbortsProgramNotKernel) {
  World w = MakeWorld();
  const std::string data = MakeText(5, 16 * kPageSize);
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);

  ProgSpec spec;
  spec.kind = ProgKind::kCount;
  spec.chunk_bytes = kPageSize;
  spec.limits.max_step_bytes = 3 * kPageSize;  // far smaller than the file
  const int fd = w.kernel->Open(*w.proc, "/f.txt").value();
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  const ProgResult r = w.kernel->RunProgram(*w.proc, fd).value();
  EXPECT_EQ(r.status, ProgStatus::kAbortedSteps);
  // The cap is checked after the offending chunk is counted, so the program
  // can overshoot by at most one chunk before it is killed.
  EXPECT_LE(r.bytes_examined, spec.limits.max_step_bytes + spec.chunk_bytes);

  // The kernel is fine: the same fd still reads, and a fresh (unbounded)
  // program on the same fd completes.
  char b = 0;
  EXPECT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  EXPECT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  spec.limits = ProgLimits{};
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  EXPECT_EQ(w.kernel->RunProgram(*w.proc, fd).value().status, ProgStatus::kOk);
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  // The app wrapper surfaces the abort as an error.
  WcOptions opts;
  opts.kernel_program = true;
  opts.buffer_bytes = kPageSize;
  // (app uses default limits, so it succeeds; the abort path was covered
  // above via the raw syscalls.)
  EXPECT_TRUE(WcApp::Run(*w.kernel, *w.proc, "/f.txt", opts).ok());
}

TEST(ProgsSandboxTest, ResubmitCapAbortsProgramNotKernel) {
  World w = MakeWorld();
  Rng rng(9);
  ChainGenOptions gen;
  gen.num_blocks = 64;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  ProgSpec spec;
  spec.kind = ProgKind::kChainWalk;
  spec.block_bytes = gen.block_bytes;
  spec.limits.max_resubmits = 4;
  const int fd = w.kernel->Open(*w.proc, "/chain").value();
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  const ProgResult r = w.kernel->RunProgram(*w.proc, fd).value();
  EXPECT_EQ(r.status, ProgStatus::kAbortedResubmits);
  EXPECT_EQ(r.blocks_visited, 5);  // head + 4 chained reads
  EXPECT_EQ(r.resubmits, 4);
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(ProgsSandboxTest, BadChainPointerFaultsProgramNotKernel) {
  World w = MakeWorld();
  Rng rng(10);
  ChainGenOptions gen;
  gen.num_blocks = 8;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());
  // Corrupt the head block's next pointer to point past EOF.
  {
    const int fd = w.kernel->Open(*w.proc, "/chain").value();
    char next[8];
    const int64_t bogus = gen.num_blocks * gen.block_bytes + kPageSize;
    for (int i = 0; i < 8; ++i) {
      next[i] = static_cast<char>((static_cast<uint64_t>(bogus) >> (8 * i)) & 0xff);
    }
    ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(next, 8)).ok());
    ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  }

  ProgSpec spec;
  spec.kind = ProgKind::kChainWalk;
  spec.block_bytes = gen.block_bytes;
  const int fd = w.kernel->Open(*w.proc, "/chain").value();
  ASSERT_TRUE(w.kernel->InstallProgram(*w.proc, fd, spec).ok());
  const ProgResult r = w.kernel->RunProgram(*w.proc, fd).value();
  EXPECT_EQ(r.status, ProgStatus::kFaulted);
  EXPECT_EQ(r.blocks_visited, 1);
  // Kernel is unharmed: normal reads on the same fd still work.
  char b = 0;
  EXPECT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  EXPECT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(ProgsSandboxTest, InstallRejectsInvalidSpecs) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", "hello");
  const int fd = w.kernel->Open(*w.proc, "/f").value();

  ProgSpec no_pattern;
  no_pattern.kind = ProgKind::kFindFirst;  // find-first requires a pattern
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, no_pattern).error(), Err::kInval);

  ProgSpec tiny_block;
  tiny_block.kind = ProgKind::kChainWalk;
  tiny_block.block_bytes = 8;  // below the 16-byte chain header
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, tiny_block).error(), Err::kInval);

  ProgSpec many_bins;
  many_bins.kind = ProgKind::kHistogram;
  many_bins.num_bins = kProgMaxBins + 1;
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, many_bins).error(), Err::kInval);

  ProgSpec huge_pattern;
  huge_pattern.kind = ProgKind::kFindFirst;
  huge_pattern.pattern.assign(kProgMaxPattern + 1, 'x');
  EXPECT_EQ(w.kernel->InstallProgram(*w.proc, fd, huge_pattern).error(), Err::kInval);

  // Running with nothing installed is invalid too.
  EXPECT_EQ(w.kernel->RunProgram(*w.proc, fd).error(), Err::kInval);
  EXPECT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

// ---- timing: deterministic, shard-independent, and never slower ----

TEST(ProgsTimingTest, ProgramNeverSlowerThanOracleAndDeterministic) {
  Duration oracle_time;
  Duration prog_time;
  Duration prog_time_repeat;
  const std::string data = MakeText(77, 96 * kPageSize);
  for (int round = 0; round < 3; ++round) {
    World w = MakeWorld();
    WriteFile(*w.kernel, *w.proc, "/f.txt", data);
    w.kernel->DropCaches();
    Process& runner = w.kernel->CreateProcess("runner");
    WcOptions opts;
    opts.kernel_program = round > 0;
    ASSERT_TRUE(WcApp::Run(*w.kernel, runner, "/f.txt", opts).ok());
    (round == 0 ? oracle_time : round == 1 ? prog_time : prog_time_repeat) =
        runner.stats().elapsed();
  }
  EXPECT_EQ(prog_time, prog_time_repeat);  // bit-identical replay
  EXPECT_LT(prog_time, oracle_time);       // the whole point of the PR
}

TEST(ProgsTimingTest, IdenticalAcrossShardIds) {
  ChainResult results[2];
  Duration times[2];
  for (int shard = 0; shard < 2; ++shard) {
    World w = MakeWorld(IoMode::kFifoSync, 2048, shard);
    Rng rng(123);
    ChainGenOptions gen;
    gen.num_blocks = 300;
    gen.marker_every = 7;
    ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());
    w.kernel->DropCaches();
    Process& runner = w.kernel->CreateProcess("runner");
    ChainOptions opts;
    opts.name_contains = std::string(kChainMarker);
    opts.kernel_program = true;
    results[shard] = FindApp::RunChain(*w.kernel, runner, "/chain", opts).value();
    times[shard] = runner.stats().elapsed();
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(times[0], times[1]);
}

TEST(ProgsTimingTest, InstallAloneChargesOnlyTheInstaller) {
  // A process that installs (but never runs) a program must not change
  // another process's observed costs.
  Duration other_elapsed[2];
  const std::string data = MakeText(3, 8 * kPageSize);
  for (int with_install = 0; with_install < 2; ++with_install) {
    World w = MakeWorld();
    WriteFile(*w.kernel, *w.proc, "/f.txt", data);
    w.kernel->DropCaches();
    if (with_install == 1) {
      Process& installer = w.kernel->CreateProcess("installer");
      const int fd = w.kernel->Open(installer, "/f.txt").value();
      ProgSpec spec;
      spec.kind = ProgKind::kCount;
      ASSERT_TRUE(w.kernel->InstallProgram(installer, fd, spec).ok());
      ASSERT_TRUE(w.kernel->Close(installer, fd).ok());
      w.kernel->DropCaches();
    }
    Process& other = w.kernel->CreateProcess("other");
    ASSERT_TRUE(WcApp::Run(*w.kernel, other, "/f.txt", WcOptions{}).ok());
    other_elapsed[with_install] = other.stats().elapsed();
  }
  EXPECT_EQ(other_elapsed[0], other_elapsed[1]);
}

TEST(ProgsTimingTest, ChainProgramEliminatesPerHopSyscalls) {
  World w = MakeWorld();
  Rng rng(55);
  ChainGenOptions gen;
  gen.num_blocks = 400;
  ASSERT_TRUE(GenerateChainFile(*w.kernel, *w.proc, "/chain", gen, rng).ok());

  int64_t syscalls[2];
  for (int use_prog = 0; use_prog < 2; ++use_prog) {
    Process& runner = w.kernel->CreateProcess(use_prog ? "prog" : "oracle");
    ChainOptions opts;
    opts.kernel_program = use_prog == 1;
    ASSERT_TRUE(FindApp::RunChain(*w.kernel, runner, "/chain", opts).ok());
    syscalls[use_prog] = runner.stats().syscalls;
  }
  // Acceptance: at least a 2x reduction in kernel crossings (in practice it
  // is ~hops/1: two per hop down to a constant handful).
  EXPECT_GE(syscalls[0], 2 * syscalls[1]);
}

// ---- programs run against any mounted file system ----

TEST(ProgsFsTest, RunsOnReplicatedFs) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = 2048;
  w.kernel = std::make_unique<SimKernel>(config);
  std::vector<std::unique_ptr<StorageDevice>> replicas;
  replicas.push_back(std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  SsdDeviceConfig sc;
  replicas.push_back(std::make_unique<SsdDevice>(sc));
  NetworkDeviceConfig nc;
  replicas.push_back(std::make_unique<NetworkDevice>(nc));
  auto fs = std::make_unique<ReplicatedFs>("repl", std::move(replicas), ReplicatedFsConfig{});
  ASSERT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");

  const std::string data = MakeText(21, 24 * kPageSize);
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  const WcResult oracle = WcApp::Run(*w.kernel, *w.proc, "/f.txt", WcOptions{}).value();
  WcOptions prog;
  prog.kernel_program = true;
  w.kernel->DropCaches();
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", prog).value(), oracle);
}

TEST(ProgsFsTest, GrepProgramRequiresQuiet) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f", "needle\n");
  GrepOptions opts;
  opts.kernel_program = true;  // but not -q: the program cannot return lines
  EXPECT_EQ(GrepApp::Run(*w.kernel, *w.proc, "/f", "needle", opts).error(), Err::kInval);
}

}  // namespace
}  // namespace sled
