// Tests for the FS layer: namespace, content plane, extent allocation, the
// concrete file systems, and VFS path resolution.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>

#include "src/common/rng.h"
#include "src/device/cdrom_device.h"
#include "src/device/disk_device.h"
#include "src/device/network_device.h"
#include "src/fs/extent_file_system.h"
#include "src/fs/vfs.h"
#include "src/kernel/sim_kernel.h"

namespace sled {
namespace {

std::unique_ptr<ExtFs> MakeExtFs() {
  return std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
}

TEST(FileSystemTest, NamespaceBasics) {
  auto fs = MakeExtFs();
  auto dir = fs->CreateDir(fs->root(), "data");
  ASSERT_TRUE(dir.ok());
  auto file = fs->CreateFile(dir.value(), "a.txt");
  ASSERT_TRUE(file.ok());

  EXPECT_EQ(fs->Lookup(fs->root(), "data").value(), dir.value());
  EXPECT_EQ(fs->Lookup(dir.value(), "a.txt").value(), file.value());
  EXPECT_EQ(fs->Lookup(dir.value(), "missing").error(), Err::kNoEnt);

  const auto attr = fs->GetAttr(file.value()).value();
  EXPECT_FALSE(attr.is_dir);
  EXPECT_EQ(attr.size, 0);

  auto listing = fs->List(fs->root()).value();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].name, "data");
  EXPECT_TRUE(listing[0].is_dir);
}

TEST(FileSystemTest, NamespaceErrors) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  EXPECT_EQ(fs->CreateFile(fs->root(), "f").error(), Err::kExist);
  EXPECT_EQ(fs->CreateFile(f, "child").error(), Err::kNotDir);
  EXPECT_EQ(fs->CreateFile(fs->root(), "").error(), Err::kInval);
  EXPECT_EQ(fs->CreateFile(fs->root(), "a/b").error(), Err::kInval);
  EXPECT_EQ(fs->CreateFile(fs->root(), std::string(300, 'x')).error(), Err::kNameTooLong);
  EXPECT_EQ(fs->Lookup(999, "x").error(), Err::kNoEnt);

  const InodeNum d = fs->CreateDir(fs->root(), "d").value();
  (void)fs->CreateFile(d, "inner").value();
  EXPECT_EQ(fs->Unlink(fs->root(), "d").error(), Err::kNotEmpty);
  EXPECT_TRUE(fs->Unlink(d, "inner").ok());
  EXPECT_TRUE(fs->Unlink(fs->root(), "d").ok());
}

TEST(FileSystemTest, ContentRoundTrip) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  const std::string payload = "hello, sleds world";
  ASSERT_TRUE(fs->WriteBytes(f, 0, std::span<const char>(payload.data(), payload.size())).ok());
  EXPECT_EQ(fs->SizeOf(f), static_cast<int64_t>(payload.size()));

  EXPECT_EQ(fs->ContentView(f).value(), payload);

  // Sparse write past EOF zero-fills the gap.
  ASSERT_TRUE(fs->WriteBytes(f, 100, std::span<const char>(payload.data(), 5)).ok());
  EXPECT_EQ(fs->SizeOf(f), 105);
  EXPECT_EQ(fs->ContentView(f).value()[50], '\0');
}

TEST(FileSystemTest, TruncateShrinksAndGrows) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  const std::string payload(10000, 'a');
  ASSERT_TRUE(fs->WriteBytes(f, 0, std::span<const char>(payload.data(), payload.size())).ok());
  ASSERT_TRUE(fs->Truncate(f, 100).ok());
  EXPECT_EQ(fs->SizeOf(f), 100);
  ASSERT_TRUE(fs->Truncate(f, 200).ok());
  EXPECT_EQ(fs->ContentView(f).value()[150], '\0');
}

TEST(ExtentAllocatorTest, ContiguousAllocationCoalesces) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  const std::string chunk(64 * 1024, 'b');
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(fs->WriteBytes(f, i * 64 * 1024,
                               std::span<const char>(chunk.data(), chunk.size()))
                    .ok());
  }
  // Sixteen appends, one extent: the allocator coalesces.
  EXPECT_EQ(fs->allocator().ExtentCountOf(f), 1);
}

TEST(ExtentAllocatorTest, FragmentationConfigSplitsExtents) {
  ExtentAllocatorConfig config;
  config.max_extent_bytes = 16 * kPageSize;
  config.inter_extent_gap_bytes = 64 * kPageSize;
  auto fs = std::make_unique<ExtFs>("aged", std::make_unique<DiskDevice>(DiskDeviceConfig{}),
                                    config);
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  ASSERT_TRUE(fs->Truncate(f, 64 * kPageSize).ok());
  EXPECT_EQ(fs->allocator().ExtentCountOf(f), 4);
  // Device addresses of consecutive extents are separated by the gap.
  const int64_t a0 = fs->allocator().DeviceAddressOf(f, 0).value();
  const int64_t a1 = fs->allocator().DeviceAddressOf(f, 16 * kPageSize).value();
  EXPECT_EQ(a1 - a0, (16 + 64) * kPageSize);
}

TEST(ExtentAllocatorTest, OutOfSpaceReturnsNoSpc) {
  DiskDeviceConfig small;
  small.capacity_bytes = 64 * kPageSize;
  auto fs = std::make_unique<ExtFs>("tiny", std::make_unique<DiskDevice>(small));
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  EXPECT_EQ(fs->Truncate(f, 128 * kPageSize).error(), Err::kNoSpc);
}

// Released space is reused once the bump pointer reaches the end of the
// device, lowest address first; until then extents come from the bump pointer
// only.
TEST(ExtentAllocatorTest, ReusesReleasedSpaceOnceTheDeviceIsFull) {
  DiskDeviceConfig small;
  small.capacity_bytes = 64 * kPageSize;  // page 0 is reserved
  auto fs = std::make_unique<ExtFs>("tiny", std::make_unique<DiskDevice>(small));
  const ExtentAllocator& alloc = fs->allocator();
  const InodeNum a = fs->CreateFile(fs->root(), "a").value();
  const InodeNum b = fs->CreateFile(fs->root(), "b").value();
  ASSERT_TRUE(fs->Truncate(a, 40 * kPageSize).ok());  // pages 1-40
  ASSERT_TRUE(fs->Truncate(b, 20 * kPageSize).ok());  // pages 41-60
  ASSERT_TRUE(fs->Truncate(b, 15 * kPageSize).ok());  // releases pages 56-60
  ASSERT_TRUE(fs->Truncate(a, 0).ok());               // releases pages 1-40
  // Three pages are left past the bump pointer, so a 3-page file still takes
  // them.
  const InodeNum c = fs->CreateFile(fs->root(), "c").value();
  ASSERT_TRUE(fs->Truncate(c, 3 * kPageSize).ok());
  EXPECT_EQ(alloc.DeviceAddressOf(c, 0).value(), 61 * kPageSize);
  // The next file gets pages 1-30, the lowest released ones, as one extent.
  const InodeNum d = fs->CreateFile(fs->root(), "d").value();
  ASSERT_TRUE(fs->Truncate(d, 30 * kPageSize).ok());
  EXPECT_EQ(alloc.DeviceAddressOf(d, 0).value(), 1 * kPageSize);
  EXPECT_EQ(alloc.ExtentCountOf(d), 1);
  // Growing takes the rest of pages 1-40, then 56-60: two extents.
  ASSERT_TRUE(fs->Truncate(d, 45 * kPageSize).ok());
  EXPECT_EQ(alloc.ExtentCountOf(d), 2);
  EXPECT_EQ(alloc.DeviceAddressOf(d, 40 * kPageSize).value(), 56 * kPageSize);
  EXPECT_TRUE(fs->ReadPagesFromStore(d, 0, 45).ok());
  // Nothing is left.
  EXPECT_EQ(fs->Truncate(c, 4 * kPageSize).error(), Err::kNoSpc);
}

TEST(ExtentFileSystemTest, ReadPagesChargesDeviceTime) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  ASSERT_TRUE(fs->Truncate(f, MiB(1)).ok());
  const Duration t = fs->ReadPagesFromStore(f, 0, PagesFor(MiB(1))).value();
  // About 1 MiB / ~9.9 MB/s plus initial positioning.
  EXPECT_GT(t.ToMillis(), 50.0);
  EXPECT_LT(t.ToMillis(), 200.0);
  EXPECT_EQ(fs->device().stats().bytes_read, MiB(1));
  EXPECT_EQ(fs->LevelOf(f, 0), 0);
  ASSERT_EQ(fs->Levels().size(), 1u);
  EXPECT_EQ(fs->Levels()[0].name, "disk");
}

TEST(ExtentFileSystemTest, ReadBeyondAllocationFails) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  ASSERT_TRUE(fs->Truncate(f, kPageSize).ok());
  EXPECT_EQ(fs->ReadPagesFromStore(f, 0, 10).error(), Err::kIo);
  EXPECT_EQ(fs->ReadPagesFromStore(999, 0, 1).error(), Err::kIo);
}

TEST(IsoFsTest, SealedFsRejectsMutation) {
  auto iso = std::make_unique<IsoFs>("cdrom", std::make_unique<CdRomDevice>(CdRomDeviceConfig{}));
  const InodeNum f = iso->CreateFile(iso->root(), "f").value();
  const std::string payload(kPageSize, 'c');
  ASSERT_TRUE(iso->WriteBytes(f, 0, std::span<const char>(payload.data(), payload.size())).ok());
  iso->Seal();
  EXPECT_TRUE(iso->read_only());
  EXPECT_EQ(iso->CreateFile(iso->root(), "g").error(), Err::kRofs);
  EXPECT_EQ(iso->WriteBytes(f, 0, std::span<const char>(payload.data(), 1)).error(), Err::kRofs);
  EXPECT_EQ(iso->Truncate(f, 0).error(), Err::kRofs);
  EXPECT_EQ(iso->Unlink(iso->root(), "f").error(), Err::kRofs);
  // Reading still works.
  EXPECT_EQ(iso->ContentView(f).value(), payload);
}

TEST(NfsFsTest, UsesNetworkDeviceCharacteristics) {
  auto nfs = std::make_unique<NfsFs>("nfs", std::make_unique<NetworkDevice>(NetworkDeviceConfig{}));
  ASSERT_EQ(nfs->Levels().size(), 1u);
  EXPECT_NEAR(nfs->Levels()[0].nominal.latency.ToMillis(), 270.0, 1.0);
}

TEST(VfsTest, MountAndResolve) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  auto cd = std::make_unique<IsoFs>("cdrom", std::make_unique<CdRomDevice>(CdRomDeviceConfig{}));
  ASSERT_TRUE(vfs.Mount("/mnt/cdrom", std::move(cd)).ok());

  ASSERT_TRUE(vfs.CreateDir("/home").ok());
  ASSERT_TRUE(vfs.CreateFile("/home/a.txt").ok());
  EXPECT_TRUE(vfs.Stat("/home/a.txt").ok());
  EXPECT_FALSE(vfs.Stat("/home/a.txt").value().is_dir);

  // The CD mount shadows the root fs below /mnt/cdrom.
  ASSERT_TRUE(vfs.CreateFile("/mnt/cdrom/disc.dat").ok());
  auto r = vfs.Resolve("/mnt/cdrom/disc.dat").value();
  EXPECT_EQ(r.fs->name(), "cdrom");

  EXPECT_EQ(vfs.Resolve("/nope").error(), Err::kNoEnt);
  EXPECT_EQ(vfs.Resolve("relative/path").error(), Err::kInval);
}

TEST(VfsTest, PathNormalization) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  ASSERT_TRUE(vfs.CreateDir("/a").ok());
  ASSERT_TRUE(vfs.CreateDir("/a/b").ok());
  ASSERT_TRUE(vfs.CreateFile("/a/b/c").ok());
  EXPECT_TRUE(vfs.Stat("//a///b/./c").ok());
  EXPECT_TRUE(vfs.Stat("/a/b/../b/c").ok());
  EXPECT_TRUE(vfs.Stat("/../a/b/c").ok());  // ".." stops at root
}

TEST(VfsTest, DuplicateMountRejected) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  EXPECT_EQ(vfs.Mount("/", MakeExtFs()).error(), Err::kExist);
}

TEST(VfsTest, FileIdsAreUniqueAcrossFileSystems) {
  Vfs vfs;
  const uint32_t id1 = vfs.Mount("/", MakeExtFs()).value();
  const uint32_t id2 = vfs.Mount("/mnt", MakeExtFs()).value();
  EXPECT_NE(Vfs::MakeFileId(id1, 2), Vfs::MakeFileId(id2, 2));
  EXPECT_NE(id1, id2);
  EXPECT_NE(vfs.FsById(id1), nullptr);
  EXPECT_EQ(vfs.MountPathOf(id2), "/mnt");
  EXPECT_EQ(vfs.Mounts().size(), 2u);
}

TEST(VfsTest, UnlinkThroughVfs) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  ASSERT_TRUE(vfs.CreateFile("/f").ok());
  ASSERT_TRUE(vfs.Unlink("/f").ok());
  EXPECT_EQ(vfs.Stat("/f").error(), Err::kNoEnt);
}

// Property: random namespace operations through the VFS never corrupt the
// tree (every created path resolves until unlinked).
TEST(VfsPropertyTest, RandomNamespaceOps) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  Rng rng(77);
  std::vector<std::string> live;
  for (int i = 0; i < 300; ++i) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const std::string path = "/f" + std::to_string(i);
      ASSERT_TRUE(vfs.CreateFile(path).ok());
      live.push_back(path);
    } else {
      const size_t idx = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(vfs.Unlink(live[idx]).ok());
      live.erase(live.begin() + static_cast<long>(idx));
    }
    for (const std::string& p : live) {
      ASSERT_TRUE(vfs.Stat(p).ok()) << p;
    }
  }
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(VfsTest, ListingShowsMountPoints) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  ASSERT_TRUE(vfs.CreateDir("/mnt").ok());
  ASSERT_TRUE(vfs.Mount("/mnt/cdrom", std::make_unique<IsoFs>(
                                          "cdrom", std::make_unique<CdRomDevice>(
                                                       CdRomDeviceConfig{})))
                  .ok());
  ASSERT_TRUE(vfs.Mount("/data", MakeExtFs()).ok());
  ASSERT_TRUE(vfs.CreateFile("/plain.txt").ok());

  // Root listing: the real file, the real dir, and the synthesized mount.
  auto root = vfs.List("/").value();
  std::vector<std::string> names;
  for (const DirEntry& e : root) {
    names.push_back(e.name + (e.is_dir ? "/" : ""));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"data/", "mnt/", "plain.txt"}));

  // /mnt listing: only the nested mount.
  auto mnt = vfs.List("/mnt").value();
  ASSERT_EQ(mnt.size(), 1u);
  EXPECT_EQ(mnt[0].name, "cdrom");
  EXPECT_TRUE(mnt[0].is_dir);

  // Deep mounts do not leak into shallow listings.
  for (const DirEntry& e : root) {
    EXPECT_NE(e.name, "cdrom");
  }
}

std::unique_ptr<ExtFs> MakeNamedFs(const char* name) {
  return std::make_unique<ExtFs>(name, std::make_unique<DiskDevice>(DiskDeviceConfig{}));
}

// "/data" beside a root directory "/database", "/ssd", and "/mnt/cdrom"
// nested in "/mnt": a mount matches whole path components only.
void MountTree(Vfs& vfs) {
  for (const char* path : {"/", "/data", "/ssd", "/mnt", "/mnt/cdrom"}) {
    const char* name = path[1] == '\0' ? "root" : std::strrchr(path, '/') + 1;
    ASSERT_TRUE(vfs.Mount(path, MakeNamedFs(name)).ok()) << path;
  }
  ASSERT_TRUE(vfs.CreateDir("/database").ok());
  ASSERT_TRUE(vfs.CreateDir("/mnt/cdrom2").ok());
}

TEST(VfsTest, MountsMatchWholeComponentsAfterNormalizing) {
  Vfs vfs;
  ASSERT_NO_FATAL_FAILURE(MountTree(vfs));
  for (const char* path : {"/database/x", "/data/x", "/ssd/x", "/mnt/x", "/mnt/cdrom/x",
                           "/mnt/cdrom2/x"}) {
    ASSERT_TRUE(vfs.CreateFile(path).ok()) << path;
  }
  const struct {
    const char* path;
    const char* fs;
    const char* same_as;  // the plain spelling of the same inode
  } cases[] = {
      {"/database/x", "root", "/database/x"},   {"/data/x", "data", "/data/x"},
      {"/data/../ssd/x", "ssd", "/ssd/x"},      {"//ssd//x/.", "ssd", "/ssd/x"},
      {"/ssd/x/", "ssd", "/ssd/x"},             {"/ssd/", "ssd", "/ssd"},
      {"/mnt/x", "mnt", "/mnt/x"},              {"/mnt/cdrom/x", "cdrom", "/mnt/cdrom/x"},
      {"/mnt/cdrom/../x", "mnt", "/mnt/x"},     {"/mnt/cdrom2/x", "mnt", "/mnt/cdrom2/x"},
      {"/../mnt/./cdrom//x", "cdrom", "/mnt/cdrom/x"},
  };
  for (const auto& c : cases) {
    const auto r = vfs.Resolve(c.path);
    ASSERT_TRUE(r.ok()) << c.path;
    EXPECT_EQ(r.value().fs->name(), c.fs) << c.path;
    EXPECT_EQ(r.value().ino, vfs.Resolve(c.same_as).value().ino) << c.path;
  }
  EXPECT_EQ(vfs.Resolve("/ssd").value().ino, vfs.Resolve("/ssd").value().fs->root());
  EXPECT_EQ(vfs.Resolve("/dat/x").error(), Err::kNoEnt);
  EXPECT_EQ(vfs.Resolve("/datab/x").error(), Err::kNoEnt);
}

// ResolveParent's leaf is the last component left after normalizing, and
// its parent sits on the mount that holds it.
TEST(VfsTest, CreateAndUnlinkTakeTheNormalizedLeaf) {
  Vfs vfs;
  ASSERT_NO_FATAL_FAILURE(MountTree(vfs));
  const struct {
    const char* path;
    const char* fs;
    const char* plain;
  } cases[] = {
      {"/database/x", "root", "/database/x"}, {"/data/x", "data", "/data/x"},
      {"/data/../ssd/x", "ssd", "/ssd/x"},    {"//ssd//y/.", "ssd", "/ssd/y"},
      {"/ssd/z/", "ssd", "/ssd/z"},           {"/mnt/cdrom/x", "cdrom", "/mnt/cdrom/x"},
      {"/mnt/cdrom/../x", "mnt", "/mnt/x"},   {"/mnt/cdrom2/x", "mnt", "/mnt/cdrom2/x"},
  };
  for (const auto& c : cases) {
    const auto created = vfs.CreateFile(c.path);
    ASSERT_TRUE(created.ok()) << c.path;
    EXPECT_EQ(created.value().fs->name(), c.fs) << c.path;
    EXPECT_EQ(vfs.Resolve(c.plain).value().ino, created.value().ino) << c.path;
    ASSERT_TRUE(vfs.Unlink(c.path).ok()) << c.path;
    EXPECT_EQ(vfs.Resolve(c.plain).error(), Err::kNoEnt) << c.path;
  }
  // "/ssd/"'s leaf is "ssd" in the root file system's root, which holds no
  // such entry: the mount point itself is not unlinked.
  EXPECT_EQ(vfs.Unlink("/ssd/").error(), Err::kNoEnt);
  EXPECT_EQ(vfs.Resolve("/ssd/").value().fs->name(), "ssd");
  EXPECT_EQ(vfs.CreateFile("/").error(), Err::kInval);
  EXPECT_EQ(vfs.CreateFile("/..").error(), Err::kInval);
}

TEST(VfsTest, MountVisibleDirectoryResolves) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("/", MakeExtFs()).ok());
  ASSERT_TRUE(vfs.Mount("/data", MakeExtFs()).ok());
  ASSERT_TRUE(vfs.CreateFile("/data/x").ok());
  // Walking through the listing like find does reaches the mounted file.
  auto entries = vfs.List("/").value();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "data");
  auto inner = vfs.List("/data").value();
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].name, "x");
}

TEST(ExtentAllocatorTest, TruncateToZeroAndRegrow) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  ASSERT_TRUE(fs->Truncate(f, 8 * kPageSize).ok());
  EXPECT_EQ(fs->allocator().ExtentCountOf(f), 1);
  ASSERT_TRUE(fs->Truncate(f, 0).ok());
  EXPECT_EQ(fs->allocator().ExtentCountOf(f), 0);
  ASSERT_TRUE(fs->Truncate(f, 4 * kPageSize).ok());
  EXPECT_EQ(fs->allocator().ExtentCountOf(f), 1);
  EXPECT_TRUE(fs->ReadPagesFromStore(f, 0, 4).ok());
}

TEST(FileSystemTest, ContentViewIsTheFilesBytes) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  const std::string payload = "zero copy view";
  ASSERT_TRUE(fs->WriteBytes(f, 0, std::span<const char>(payload.data(), payload.size())).ok());
  EXPECT_EQ(fs->ContentView(f).value(), payload);
  EXPECT_EQ(fs->ContentView(fs->root()).error(), Err::kIsDir);
  EXPECT_EQ(fs->ContentView(999).error(), Err::kNoEnt);
}

// WriteBytes against a std::string oracle: a write past EOF zero-fills the
// hole before it, and bytes past the write's end stay as they were.
void OracleWrite(std::string& oracle, int64_t offset, const std::string& data) {
  if (oracle.size() < static_cast<size_t>(offset) + data.size()) {
    oracle.resize(static_cast<size_t>(offset) + data.size(), '\0');
  }
  oracle.replace(static_cast<size_t>(offset), data.size(), data);
}

TEST(FileSystemTest, WriteBytesMatchesStringOracle) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  std::string oracle;
  auto write = [&](int64_t offset, const std::string& data) {
    ASSERT_EQ(fs->WriteBytes(f, offset, data).value(), static_cast<int64_t>(data.size()));
    OracleWrite(oracle, offset, data);
    ASSERT_EQ(fs->ContentView(f).value(), oracle) << "after a write at " << offset;
  };
  write(0, "append to an empty file");
  write(static_cast<int64_t>(oracle.size()), " and at EOF");
  write(3, "overwrite");                                       // inside
  write(static_cast<int64_t>(oracle.size()) - 4, "straddles EOF");
  write(static_cast<int64_t>(oracle.size()) + 5000, "past a hole");
  write(static_cast<int64_t>(oracle.size()), "");              // empty at EOF
  write(static_cast<int64_t>(oracle.size()) + 3, "");          // empty past EOF
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const int64_t size = static_cast<int64_t>(oracle.size());
    std::string data(static_cast<size_t>(rng.Uniform(0, 9000)), '\0');
    for (char& c : data) {
      c = static_cast<char>(rng.Uniform(1, 255));
    }
    write(rng.Uniform(0, size + 6000), data);
  }
}

// `src` may be a view of the same file: growing the file can move its bytes
// and an overlapping overwrite would clobber them before they are read.
TEST(FileSystemTest, WriteBytesFromAViewOfTheSameFile) {
  auto fs = MakeExtFs();
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  std::string oracle = "0123456789abcdefghij";
  ASSERT_TRUE(fs->WriteBytes(f, 0, oracle).ok());
  for (const auto& [from, len, to] : {std::tuple<int64_t, int64_t, int64_t>{0, 20, 20},
                                      {5, 10, 7},
                                      {10, 30, 0},
                                      {0, 40, 35},
                                      {20, 50, 200}}) {
    const std::string_view src = fs->ContentView(f).value().substr(from, len);
    const std::string copy(src);
    ASSERT_TRUE(fs->WriteBytes(f, to, src).ok());
    OracleWrite(oracle, to, copy);
    ASSERT_EQ(fs->ContentView(f).value(), oracle) << from << " " << len << " " << to;
  }
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

std::unique_ptr<ExtFs> MakeZonedExtFs() {
  DiskDeviceConfig dc;
  dc.capacity_bytes = 512LL * kMiB;  // small disk: files span zones quickly
  dc.num_zones = 8;
  return std::make_unique<ExtFs>("disk", std::make_unique<DiskDevice>(dc),
                                 ExtentAllocatorConfig{}, /*per_zone_levels=*/true);
}

TEST(ZonedLevelsTest, OneLevelPerZoneWithDecliningBandwidth) {
  auto fs = MakeZonedExtFs();
  const auto levels = fs->Levels();
  ASSERT_EQ(levels.size(), 8u);
  EXPECT_EQ(levels[0].name, "disk-z0");
  EXPECT_EQ(levels[7].name, "disk-z7");
  for (size_t z = 1; z < levels.size(); ++z) {
    EXPECT_LT(levels[z].nominal.bandwidth_bps, levels[z - 1].nominal.bandwidth_bps);
    EXPECT_EQ(levels[z].nominal.latency, levels[0].nominal.latency);
  }
}

TEST(ZonedLevelsTest, LevelFollowsDeviceAddress) {
  auto fs = MakeZonedExtFs();
  // Fill most of zone 0 with ballast, then create the test file so it
  // straddles the zone 0/1 boundary.
  const int64_t zone_span = 512LL * kMiB / 8;
  const InodeNum ballast = fs->CreateFile(fs->root(), "ballast").value();
  ASSERT_TRUE(fs->Truncate(ballast, zone_span - 16 * kPageSize).ok());
  const InodeNum f = fs->CreateFile(fs->root(), "f").value();
  ASSERT_TRUE(fs->Truncate(f, 64 * kPageSize).ok());
  EXPECT_EQ(fs->LevelOf(f, 0), 0);        // still in zone 0
  EXPECT_EQ(fs->LevelOf(f, 32), 1);       // past the boundary
  EXPECT_EQ(fs->LevelOf(f, 63), 1);
}

TEST(ZonedLevelsTest, DisabledByDefaultAndForSingleZone) {
  auto plain = std::make_unique<ExtFs>("disk", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_FALSE(plain->per_zone_levels());
  EXPECT_EQ(plain->Levels().size(), 1u);
  DiskDeviceConfig one_zone;
  one_zone.num_zones = 1;
  auto single = std::make_unique<ExtFs>("disk", std::make_unique<DiskDevice>(one_zone),
                                        ExtentAllocatorConfig{}, /*per_zone_levels=*/true);
  EXPECT_FALSE(single->per_zone_levels());
}

TEST(ZonedLevelsTest, SledsThroughKernelShowZoneBandwidths) {
  KernelConfig kc;
  kc.cache.capacity_pages = 64;
  SimKernel kernel(kc);
  {
    DiskDeviceConfig dc;
    dc.capacity_bytes = 512LL * kMiB;
    dc.num_zones = 8;
    ASSERT_TRUE(kernel
                    .Mount("/", std::make_unique<ExtFs>(
                                    "disk", std::make_unique<DiskDevice>(dc),
                                    ExtentAllocatorConfig{}, /*per_zone_levels=*/true))
                    .ok());
  }
  Process& p = kernel.CreateProcess("user");
  // Ballast pushes the test file across a zone boundary.
  const int bfd = kernel.Create(p, "/ballast").value();
  ASSERT_TRUE(kernel.Ftruncate(p, bfd, 512LL * kMiB / 8 - 16 * kPageSize).ok());
  ASSERT_TRUE(kernel.Close(p, bfd).ok());
  const int fd = kernel.Create(p, "/f").value();
  const std::string data(64 * kPageSize, 'z');
  ASSERT_TRUE(kernel.Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  kernel.DropCaches();
  SledVector sleds = kernel.IoctlSledsGet(p, fd).value();
  ASSERT_EQ(sleds.size(), 2u);  // one per zone the file touches
  EXPECT_GT(sleds[0].bandwidth, sleds[1].bandwidth);
  EXPECT_DOUBLE_EQ(sleds[0].latency, sleds[1].latency);
  ASSERT_TRUE(kernel.Close(p, fd).ok());
}

}  // namespace
}  // namespace sled
