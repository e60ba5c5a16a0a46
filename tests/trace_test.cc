// Tests for I/O trace capture and replay.
#include <gtest/gtest.h>

#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"
#include "src/workload/trace.h"

namespace sled {
namespace {

Testbed MakeSmallTestbed(uint64_t seed) {
  TestbedConfig config;
  config.cache_pages = 2048;  // 8 MiB
  config.seed = seed;
  return MakeTestbed(config);
}

Trace RecordLinearScan(Testbed& tb, const std::string& path, int64_t chunk) {
  Process& p = tb.kernel->CreateProcess("rec");
  TraceRecorder rec(*tb.kernel, p);
  const int fd = rec.Open(path).value();
  std::vector<char> buf(static_cast<size_t>(chunk));
  while (rec.Read(fd, std::span<char>(buf.data(), buf.size())).value() > 0) {
  }
  EXPECT_TRUE(rec.Close(fd).ok());
  return rec.TakeTrace();
}

TEST(TraceTest, RecorderCapturesSyscalls) {
  Testbed tb = MakeSmallTestbed(1);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng rng(1);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/f.txt", MiB(1), rng).ok());
  const Trace trace = RecordLinearScan(tb, "/data/f.txt", 64 * 1024);
  // open + 16 reads + close.
  ASSERT_EQ(trace.size(), 18u);
  EXPECT_EQ(trace.front().op, TraceOp::kOpen);
  EXPECT_EQ(trace.front().path, "/data/f.txt");
  EXPECT_EQ(trace.back().op, TraceOp::kClose);
  const TraceStats stats = SummarizeTrace(trace);
  EXPECT_EQ(stats.bytes_read, MiB(1));
  EXPECT_EQ(stats.opens, 1);
  EXPECT_EQ(stats.seeks, 0);
}

TEST(TraceTest, FormatParseRoundTrip) {
  Trace trace;
  trace.push_back({TraceOp::kOpen, 3, "/data/x", 0, 0});
  trace.push_back({TraceOp::kLseek, 3, "", 4096, 0});
  trace.push_back({TraceOp::kRead, 3, "", 0, 65536});
  trace.push_back({TraceOp::kMmapRead, 3, "", 8192, 100});
  trace.push_back({TraceOp::kWrite, 3, "", 0, 12});
  trace.push_back({TraceOp::kClose, 3, "", 0, 0});
  const std::string text = FormatTrace(trace);
  EXPECT_NE(text.find("open 3 /data/x"), std::string::npos);
  EXPECT_NE(text.find("lseek 3 4096"), std::string::npos);
  EXPECT_NE(text.find("mmap_read 3 8192 100"), std::string::npos);
  auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(static_cast<int>(parsed.value()[i].op), static_cast<int>(trace[i].op));
    EXPECT_EQ(parsed.value()[i].length, trace[i].length);
  }
  EXPECT_FALSE(ParseTrace("bogus 1 2\n").ok());
  EXPECT_FALSE(ParseTrace("read x\n").ok());
  EXPECT_TRUE(ParseTrace("# comment only\n").value().empty());
}

TEST(TraceTest, VerbatimReplayReproducesCosts) {
  Testbed tb = MakeSmallTestbed(2);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng rng(2);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/f.txt", MiB(4), rng).ok());
  tb.kernel->DropCaches();
  const Trace trace = RecordLinearScan(tb, "/data/f.txt", 64 * 1024);

  // Replay on a fresh identical testbed: same faults, similar elapsed.
  Testbed tb2 = MakeSmallTestbed(2);
  Process& gen2 = tb2.kernel->CreateProcess("gen");
  Rng rng2(2);
  ASSERT_TRUE(GenerateTextFile(*tb2.kernel, gen2, "/data/f.txt", MiB(4), rng2).ok());
  tb2.kernel->DropCaches();
  const ReplayResult r = ReplayTrace(*tb2.kernel, trace).value();
  EXPECT_EQ(r.major_faults, MiB(4) / kPageSize);
  EXPECT_GT(r.elapsed.ToSeconds(), 0.1);
}

TEST(TraceTest, ReorderedReplayBeatsVerbatimOnWarmTail) {
  Testbed tb = MakeSmallTestbed(3);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng rng(3);
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/f.txt", MiB(12), rng).ok());
  const Trace trace = RecordLinearScan(tb, "/data/f.txt", 64 * 1024);

  auto measure = [&](bool reorder) {
    Testbed t = MakeSmallTestbed(3);
    Process& g = t.kernel->CreateProcess("gen");
    Rng r(3);
    EXPECT_TRUE(GenerateTextFile(*t.kernel, g, "/data/f.txt", MiB(12), r).ok());
    t.kernel->DropCaches();
    // Warm pass leaves the tail cached (the Figure 3 state).
    (void)ReplayTrace(*t.kernel, trace).value();
    ReplayOptions options;
    options.reorder_reads_with_sleds = reorder;
    return ReplayTrace(*t.kernel, trace, options).value();
  };
  const ReplayResult verbatim = measure(false);
  const ReplayResult reordered = measure(true);
  EXPECT_LT(reordered.major_faults, verbatim.major_faults / 2);
  EXPECT_LT(reordered.elapsed, verbatim.elapsed);
}

TEST(TraceTest, ReplayWithWritesStaysVerbatim) {
  Testbed tb = MakeSmallTestbed(4);
  Process& p = tb.kernel->CreateProcess("rec");
  TraceRecorder rec(*tb.kernel, p);
  const int fd = tb.kernel->Create(p, "/data/out").value();
  // Record a mixed session by hand (Create is not traced; use open on an
  // existing file).
  ASSERT_TRUE(tb.kernel->Close(p, fd).ok());
  const int rfd = rec.Open("/data/out").value();
  const std::string data(8192, 'x');
  ASSERT_TRUE(rec.Write(rfd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(rec.Lseek(rfd, 0, Whence::kSet).ok());
  std::vector<char> buf(4096);
  ASSERT_TRUE(rec.Read(rfd, std::span<char>(buf.data(), buf.size())).ok());
  ASSERT_TRUE(rec.Close(rfd).ok());
  const Trace trace = rec.TakeTrace();
  EXPECT_EQ(SummarizeTrace(trace).bytes_written, 8192);

  // Replays fine in both modes (write session is never re-planned).
  Testbed tb2 = MakeSmallTestbed(4);
  Process& g = tb2.kernel->CreateProcess("gen");
  const int ofd = tb2.kernel->Create(g, "/data/out").value();
  ASSERT_TRUE(tb2.kernel->Close(g, ofd).ok());
  ReplayOptions options;
  options.reorder_reads_with_sleds = true;
  EXPECT_TRUE(ReplayTrace(*tb2.kernel, trace, options).ok());
  EXPECT_EQ(tb2.kernel->Stat(g, "/data/out").value().size, 8192);
}

TEST(TraceTest, ReplayErrorsOnBadTrace) {
  Testbed tb = MakeSmallTestbed(5);
  Trace bad;
  bad.push_back({TraceOp::kRead, 9, "", 0, 100});  // read before open
  EXPECT_EQ(ReplayTrace(*tb.kernel, bad).error(), Err::kBadF);
  Trace missing;
  missing.push_back({TraceOp::kOpen, 1, "/data/nope", 0, 0});
  EXPECT_EQ(ReplayTrace(*tb.kernel, missing).error(), Err::kNoEnt);
  // Negative lengths and offsets are refused at parse time; replay would
  // otherwise size a buffer from them.
  for (const char* text : {"open 3 /f\nread 3 -1\n", "open 3 /f\nwrite 3 -5\n",
                           "open 3 /f\nlseek 3 -1\n", "open 3 /f\nmmap_read 3 -1 10\n",
                           "open 3 /f\nmmap_read 3 0 -10\n"}) {
    const Result<Trace> parsed = ParseTrace(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error(), Err::kInval) << text;
  }
}

}  // namespace
}  // namespace sled
