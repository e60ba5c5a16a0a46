// Tests for SLED locks (paper §3.4's proposed lock/reservation mechanism):
// page pinning in the cache and the FSLEDS_LOCK/FSLEDS_UNLOCK ioctls.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/device/disk_device.h"
#include "src/fs/extent_file_system.h"
#include "src/kernel/sim_kernel.h"
#include "src/sleds/picker.h"

namespace sled {
namespace {

PageKey K(FileId f, int64_t p) { return PageKey{f, p}; }

TEST(PagePinTest, PinnedPagesSurviveEvictionPressure) {
  PageCache cache({.capacity_pages = 8});
  for (int64_t p = 0; p < 4; ++p) {
    cache.Insert(K(1, p), false);
    ASSERT_TRUE(cache.Pin(K(1, p)));
  }
  // Flood with 20 more pages: the pinned four must survive.
  for (int64_t p = 100; p < 120; ++p) {
    cache.Insert(K(2, p), false);
  }
  for (int64_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(cache.Contains(K(1, p))) << p;
  }
  EXPECT_LE(cache.size_pages(), 8);
}

TEST(PagePinTest, PinBudgetIsHalfCapacity) {
  PageCache cache({.capacity_pages = 8});
  for (int64_t p = 0; p < 8; ++p) {
    cache.Insert(K(1, p), false);
  }
  int pinned = 0;
  for (int64_t p = 0; p < 8; ++p) {
    if (cache.Pin(K(1, p))) {
      ++pinned;
    }
  }
  EXPECT_EQ(pinned, 4);
  EXPECT_EQ(cache.pinned_pages(), 4);
}

TEST(PagePinTest, PinNonResidentFails) {
  PageCache cache({.capacity_pages = 8});
  EXPECT_FALSE(cache.Pin(K(1, 0)));
}

TEST(PagePinTest, UnpinAndRemoveMaintainCount) {
  PageCache cache({.capacity_pages = 8});
  cache.Insert(K(1, 0), false);
  cache.Insert(K(1, 1), false);
  ASSERT_TRUE(cache.Pin(K(1, 0)));
  ASSERT_TRUE(cache.Pin(K(1, 1)));
  EXPECT_EQ(cache.pinned_pages(), 2);
  cache.Unpin(K(1, 0));
  EXPECT_EQ(cache.pinned_pages(), 1);
  EXPECT_FALSE(cache.IsPinned(K(1, 0)));
  cache.Remove(K(1, 1));  // removing a pinned page releases its pin
  EXPECT_EQ(cache.pinned_pages(), 0);
  cache.Insert(K(2, 0), false);
  ASSERT_TRUE(cache.Pin(K(2, 0)));
  cache.Clear();
  EXPECT_EQ(cache.pinned_pages(), 0);
}

TEST(PagePinTest, ClockPolicySkipsPinnedToo) {
  PageCache cache({.capacity_pages = 4, .policy = ReplacementPolicy::kClock});
  for (int64_t p = 0; p < 4; ++p) {
    cache.Insert(K(1, p), false);
  }
  ASSERT_TRUE(cache.Pin(K(1, 0)));
  ASSERT_TRUE(cache.Pin(K(1, 1)));
  for (int64_t p = 10; p < 20; ++p) {
    cache.Insert(K(2, p), false);
  }
  EXPECT_TRUE(cache.Contains(K(1, 0)));
  EXPECT_TRUE(cache.Contains(K(1, 1)));
}

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(int64_t cache_pages = 64) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

void WriteFile(World& w, const std::string& path, int64_t size) {
  const int fd = w.kernel->Create(*w.proc, path).value();
  const std::string data(static_cast<size_t>(size), 'l');
  ASSERT_TRUE(w.kernel->Write(*w.proc, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(SledsLockTest, LockKeepsPlannedSledsValidUnderPressure) {
  World w = MakeWorld(64);
  WriteFile(w, "/a", 16 * kPageSize);
  WriteFile(w, "/b", 200 * kPageSize);
  w.kernel->DropCaches();
  // Warm file a fully.
  const int fd = w.kernel->Open(*w.proc, "/a").value();
  std::vector<char> buf(static_cast<size_t>(16 * kPageSize));
  ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());

  // Lock a's pages (16 <= 32 = half of 64).
  const int64_t pinned =
      w.kernel->IoctlSledsLock(*w.proc, fd, 0, 16 * kPageSize).value();
  EXPECT_EQ(pinned, 16);

  // Another process floods the cache.
  Process& other = w.kernel->CreateProcess("flood");
  const int bfd = w.kernel->Open(other, "/b").value();
  std::vector<char> bbuf(static_cast<size_t>(64 * kKiB));
  while (w.kernel->Read(other, bfd, std::span<char>(bbuf.data(), bbuf.size())).value() > 0) {
  }
  ASSERT_TRUE(w.kernel->Close(other, bfd).ok());

  // a's SLEDs still read "memory": the plan survived.
  SledVector sleds = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  ASSERT_EQ(sleds.size(), 1u);
  EXPECT_EQ(sleds[0].level, kMemoryLevel);

  // Unlock; flood again; now the pages go.
  EXPECT_EQ(w.kernel->IoctlSledsUnlock(*w.proc, fd, 0, -1).value(), 16);
  const int bfd2 = w.kernel->Open(other, "/b").value();
  while (w.kernel->Read(other, bfd2, std::span<char>(bbuf.data(), bbuf.size())).value() > 0) {
  }
  ASSERT_TRUE(w.kernel->Close(other, bfd2).ok());
  sleds = w.kernel->IoctlSledsGet(*w.proc, fd).value();
  EXPECT_NE(sleds[0].level, kMemoryLevel);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(SledsLockTest, LockSkipsNonResidentPages) {
  World w = MakeWorld(64);
  WriteFile(w, "/a", 16 * kPageSize);
  w.kernel->DropCaches();
  const int fd = w.kernel->Open(*w.proc, "/a").value();
  EXPECT_EQ(w.kernel->IoctlSledsLock(*w.proc, fd, 0, 16 * kPageSize).value(), 0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(SledsLockTest, CloseReleasesLocks) {
  World w = MakeWorld(64);
  WriteFile(w, "/a", 8 * kPageSize);
  const int fd = w.kernel->Open(*w.proc, "/a").value();
  std::vector<char> buf(static_cast<size_t>(8 * kPageSize));
  ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  EXPECT_GT(w.kernel->IoctlSledsLock(*w.proc, fd, 0, 8 * kPageSize).value(), 0);
  EXPECT_GT(w.kernel->cache().pinned_pages(), 0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
  EXPECT_EQ(w.kernel->cache().pinned_pages(), 0);
}

TEST(SledsLockTest, LockBudgetEnforcedThroughIoctl) {
  World w = MakeWorld(32);  // half = 16 pages pinnable
  WriteFile(w, "/a", 24 * kPageSize);
  const int fd = w.kernel->Open(*w.proc, "/a").value();
  std::vector<char> buf(static_cast<size_t>(24 * kPageSize));
  ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, 0, Whence::kSet).ok());
  ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  const int64_t pinned = w.kernel->IoctlSledsLock(*w.proc, fd, 0, 24 * kPageSize).value();
  EXPECT_EQ(pinned, 16);
  EXPECT_EQ(w.kernel->IoctlSledsLock(*w.proc, fd, -1, 8).error(), Err::kInval);
  EXPECT_EQ(w.kernel->IoctlSledsLock(*w.proc, fd, 0, 0).error(), Err::kInval);
  // A range whose end overflows (or passes kMaxFileBytes) is refused, not
  // wrapped.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(w.kernel->IoctlSledsLock(*w.proc, fd, kPageSize, kMax).error(), Err::kInval);
  EXPECT_EQ(w.kernel->IoctlSledsGet(*w.proc, fd, kPageSize, kMax).error(), Err::kInval);
  EXPECT_EQ(w.kernel->IoctlSledsGet(*w.proc, fd, kMaxFileBytes, 1).error(), Err::kInval);
  EXPECT_EQ(w.kernel->IoctlSledsGet(*w.proc, fd, kMaxFileBytes, 0).value().size(), 0u);
  EXPECT_EQ(w.kernel->cache().pinned_pages(), 16);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

TEST(SledsLockTest, UnlockRejectsEmptyAndNegativeRanges) {
  World w = MakeWorld(64);
  WriteFile(w, "/a", 16 * kPageSize);
  const int fd = w.kernel->Open(*w.proc, "/a").value();
  std::vector<char> buf(static_cast<size_t>(16 * kPageSize));
  ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).ok());
  ASSERT_EQ(w.kernel->IoctlSledsLock(*w.proc, fd, 0, 16 * kPageSize).value(), 16);
  // An empty range names no page; it must not release the one holding
  // `offset`.
  EXPECT_EQ(w.kernel->IoctlSledsUnlock(*w.proc, fd, 100, 0).error(), Err::kInval);
  EXPECT_EQ(w.kernel->IoctlSledsUnlock(*w.proc, fd, -1, 8).error(), Err::kInval);
  EXPECT_EQ(w.kernel->IoctlSledsUnlock(*w.proc, fd, kPageSize, std::numeric_limits<int64_t>::max())
                .error(),
            Err::kInval);
  EXPECT_EQ(w.kernel->cache().pinned_pages(), 16);
  EXPECT_EQ(w.kernel->IoctlSledsUnlock(*w.proc, fd, 100, 1).value(), 1);
  EXPECT_EQ(w.kernel->IoctlSledsUnlock(*w.proc, fd, 0, -1).value(), 15);
  EXPECT_EQ(w.kernel->cache().pinned_pages(), 0);
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());
}

}  // namespace
}  // namespace sled
