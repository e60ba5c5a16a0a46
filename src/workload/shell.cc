#include "src/workload/shell.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "src/apps/file_info.h"
#include "src/apps/find.h"
#include "src/apps/grep.h"
#include "src/apps/wc.h"
#include "src/device/cdrom_device.h"
#include "src/device/disk_device.h"
#include "src/device/network_device.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/fs/hsm_fs.h"
#include "src/fs/remote_fs.h"
#include "src/replica/replicated_fs.h"
#include "src/sleds/delivery.h"
#include "src/workload/chain_gen.h"
#include "src/workload/fits_gen.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

std::string ErrText(Err e) { return "error: " + std::string(ErrName(e)) + "\n"; }

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

constexpr char kHelp[] =
    "commands:\n"
    "  mount <ext2|zoned|cdrom|nfs|ssd|tiered|hsm|remote|replicated> <path>\n"
    "  genfile <path> <MB> | genfits <path> <MB>\n"
    "  genchain <path> <blocks> [marker-every]\n"
    "  mkdir|rm|ls|stat <path>\n"
    "  cat <path>\n"
    "  wc [-s] [-m] [-p] <path>\n"
    "  grep [-s] [-q] [-n] [-p] <pattern> <path>\n"
    "  find <path> [-name <substr>] [-latency <pred>] [-xdev]\n"
    "  chain <path> [-name <substr>] [-p]   (-p: in-kernel completion program)\n"
    "  sleds <path> | delivery <path>\n"
    "  lock <path> | unlock <path>\n"
    "  migrate <path> | recall <path> | seal <path>\n"
    "  dropcaches | flush | recover | stats | clock | help\n"
    "  trace [n]   (last n kernel trace events as CSV, default 20)\n"
    "  iostat      (per-storage-level I/O metrics)\n";

}  // namespace

SledShell::SledShell() : rng_(20000705) {
  KernelConfig config;
  config.cache.capacity_pages = 10240;  // the Table 2 machine
  kernel_ = std::make_unique<SimKernel>(config);
  DiskDeviceConfig sys;
  sys.capacity_bytes = 2LL * 1000 * 1000 * 1000;
  auto root = std::make_unique<ExtFs>("sys", std::make_unique<DiskDevice>(sys, "sys-disk"));
  SLED_CHECK(kernel_->Mount("/", std::move(root)).ok(), "root mount failed");
}

Process& SledShell::NewProcess(const std::string& name) {
  return kernel_->CreateProcess(name);
}

std::string SledShell::RunScript(const std::string& script) {
  std::string out;
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    out += "> " + line + "\n";
    out += Execute(line);
  }
  return out;
}

std::string SledShell::Execute(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return "";
  }
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "help") {
    return kHelp;
  }
  if (cmd == "mount") {
    return CmdMount(args);
  }
  if (cmd == "genfile") {
    return CmdGenFile(args);
  }
  if (cmd == "genfits") {
    return CmdGenFits(args);
  }
  if (cmd == "genchain") {
    return CmdGenChain(args);
  }
  if (cmd == "mkdir" && args.size() == 1) {
    auto r = kernel_->vfs().CreateDir(args[0]);
    return r.ok() ? "" : ErrText(r.error());
  }
  if (cmd == "rm" && args.size() == 1) {
    auto r = kernel_->Unlink(NewProcess("rm"), args[0]);
    return r.ok() ? "" : ErrText(r.error());
  }
  if (cmd == "ls") {
    return CmdLs(args);
  }
  if (cmd == "stat") {
    return CmdStat(args);
  }
  if (cmd == "cat") {
    return CmdCat(args);
  }
  if (cmd == "wc") {
    return CmdWc(args);
  }
  if (cmd == "grep") {
    return CmdGrep(args);
  }
  if (cmd == "find") {
    return CmdFind(args);
  }
  if (cmd == "chain") {
    return CmdChain(args);
  }
  if (cmd == "sleds") {
    return CmdSleds(args);
  }
  if (cmd == "delivery") {
    return CmdDelivery(args);
  }
  if (cmd == "lock") {
    return CmdLock(args, true);
  }
  if (cmd == "unlock") {
    return CmdLock(args, false);
  }
  if (cmd == "migrate") {
    return CmdHsm(args, true);
  }
  if (cmd == "recall") {
    return CmdHsm(args, false);
  }
  if (cmd == "seal") {
    return CmdSeal(args);
  }
  if (cmd == "dropcaches") {
    kernel_->DropCaches();
    return "";
  }
  if (cmd == "flush") {
    const Duration t = kernel_->FlushAllDirty();
    return Format("flushed in %s\n", t.ToString().c_str());
  }
  if (cmd == "recover") {
    // One pass of deferred background work: replica re-sync after an outage.
    const Duration t = kernel_->RunMaintenance();
    return Format("maintenance in %s\n", t.ToString().c_str());
  }
  if (cmd == "stats") {
    return CmdStats();
  }
  if (cmd == "trace") {
    return CmdTrace(args);
  }
  if (cmd == "iostat") {
    return CmdIostat();
  }
  if (cmd == "clock") {
    return Format("t = %s\n", kernel_->clock().Now().since_epoch().ToString().c_str());
  }
  return "error: unknown command '" + cmd + "' (try: help)\n";
}

std::string SledShell::CmdMount(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return "usage: mount <ext2|zoned|cdrom|nfs|ssd|tiered|hsm|remote|replicated> <path>\n";
  }
  std::unique_ptr<FileSystem> fs;
  const uint64_t seed = rng_.Uniform(1, 1 << 30);
  if (args[0] == "ext2") {
    DiskDeviceConfig dc;
    dc.seed = seed;
    fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(dc));
  } else if (args[0] == "zoned") {
    // ext2 with per-zone sleds_table rows (the §4.1 [Van97] refinement).
    DiskDeviceConfig dc;
    dc.seed = seed;
    fs = std::make_unique<ExtFs>("ext2z", std::make_unique<DiskDevice>(dc),
                                 ExtentAllocatorConfig{}, /*per_zone_levels=*/true);
  } else if (args[0] == "cdrom") {
    CdRomDeviceConfig cc;
    cc.seed = seed;
    fs = std::make_unique<IsoFs>("cdrom", std::make_unique<CdRomDevice>(cc));
  } else if (args[0] == "nfs") {
    NetworkDeviceConfig nc;
    nc.seed = seed;
    fs = std::make_unique<NfsFs>("nfs", std::make_unique<NetworkDevice>(nc)) ;
  } else if (args[0] == "ssd") {
    SsdDeviceConfig sc;
    sc.seed = seed;
    fs = std::make_unique<ExtFs>("ssd", std::make_unique<SsdDevice>(sc));
  } else if (args[0] == "tiered") {
    // SSD+disk striped testbed: one copy per stripe, stripe s on device s % 2.
    SsdDeviceConfig sc;
    sc.seed = seed;
    DiskDeviceConfig dc;
    dc.seed = seed + 1;
    std::vector<std::unique_ptr<StorageDevice>> tiers;
    tiers.push_back(std::make_unique<SsdDevice>(sc));
    tiers.push_back(std::make_unique<DiskDevice>(dc));
    fs = std::make_unique<ReplicatedFs>("tiered", std::move(tiers),
                                        ReplicatedFsConfig{.replication_factor = 1});
  } else if (args[0] == "hsm") {
    HsmFsConfig hc;
    hc.staging_capacity_bytes = 512LL * 1024 * 1024;
    hc.staging_disk.seed = seed;
    fs = std::make_unique<HsmFs>("hsm", hc);
  } else if (args[0] == "remote") {
    RemoteFsConfig rc;
    rc.seed = seed;
    fs = std::make_unique<RemoteFs>("remote", rc);
  } else if (args[0] == "replicated") {
    // Three-way replication over heterogeneous media: local disk, local SSD,
    // and an NFS-class network store.
    DiskDeviceConfig dc;
    dc.seed = seed;
    SsdDeviceConfig sc;
    sc.seed = seed + 1;
    NetworkDeviceConfig nc;
    nc.seed = seed + 2;
    std::vector<std::unique_ptr<StorageDevice>> replicas;
    replicas.push_back(std::make_unique<DiskDevice>(dc));
    replicas.push_back(std::make_unique<SsdDevice>(sc));
    replicas.push_back(std::make_unique<NetworkDevice>(nc));
    fs = std::make_unique<ReplicatedFs>("replicated", std::move(replicas), ReplicatedFsConfig{});
  } else {
    return "error: unknown fs kind '" + args[0] + "'\n";
  }
  auto r = kernel_->Mount(args[1], std::move(fs));
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("mounted %s at %s (fs id %u)\n", args[0].c_str(), args[1].c_str(), r.value());
}

std::string SledShell::CmdGenFile(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return "usage: genfile <path> <MB>\n";
  }
  const int64_t mb = atoll(args[1].c_str());
  if (mb <= 0) {
    return "error: bad size\n";
  }
  Process& p = NewProcess("gen");
  auto r = GenerateTextFile(*kernel_, p, args[0], mb * kMiB, rng_);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("wrote %lld lines (%lld MB) in %s\n", static_cast<long long>(r.value()),
                static_cast<long long>(mb), p.stats().elapsed().ToString().c_str());
}

std::string SledShell::CmdGenFits(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return "usage: genfits <path> <MB>\n";
  }
  const int64_t mb = atoll(args[1].c_str());
  if (mb <= 0) {
    return "error: bad size\n";
  }
  Process& p = NewProcess("gen");
  auto r = GenerateFitsImage(*kernel_, p, args[0], mb * kMiB, -32, rng_);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("wrote %lldx%lld float image in %s\n", static_cast<long long>(r->naxis[0]),
                static_cast<long long>(r->naxis[1]), p.stats().elapsed().ToString().c_str());
}

std::string SledShell::CmdGenChain(const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 3) {
    return "usage: genchain <path> <blocks> [marker-every]\n";
  }
  ChainGenOptions options;
  options.num_blocks = atoll(args[1].c_str());
  if (args.size() == 3) {
    options.marker_every = atoll(args[2].c_str());
  }
  if (options.num_blocks <= 0 || options.marker_every < 0) {
    return "error: bad block count\n";
  }
  Process& p = NewProcess("gen");
  auto r = GenerateChainFile(*kernel_, p, args[0], options, rng_);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("wrote %lld-block chain (%lld bytes, %lld marked) in %s\n",
                static_cast<long long>(options.num_blocks),
                static_cast<long long>(r->file_bytes),
                static_cast<long long>(r->marker_count),
                p.stats().elapsed().ToString().c_str());
}

std::string SledShell::CmdCat(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return "usage: cat <path>\n";
  }
  Process& p = NewProcess("cat");
  auto fd = kernel_->Open(p, args[0]);
  if (!fd.ok()) {
    return ErrText(fd.error());
  }
  std::vector<char> buf(static_cast<size_t>(256 * kKiB));
  int64_t total = 0;
  while (true) {
    auto n = kernel_->Read(p, fd.value(), std::span<char>(buf.data(), buf.size()));
    if (!n.ok()) {
      return ErrText(n.error());
    }
    if (n.value() == 0) {
      break;
    }
    total += n.value();
  }
  (void)kernel_->Close(p, fd.value());
  return Format("read %lld bytes in %s (%lld major faults)\n", static_cast<long long>(total),
                p.stats().elapsed().ToString().c_str(),
                static_cast<long long>(p.stats().major_faults));
}

std::string SledShell::CmdWc(const std::vector<std::string>& args) {
  WcOptions options;
  std::string path;
  for (const std::string& a : args) {
    if (a == "-s") {
      options.use_sleds = true;
    } else if (a == "-m") {
      options.use_mmap = true;
    } else if (a == "-p") {
      options.kernel_program = true;
    } else {
      path = a;
    }
  }
  if (path.empty()) {
    return "usage: wc [-s] [-m] [-p] <path>\n";
  }
  Process& p = NewProcess("wc");
  auto r = WcApp::Run(*kernel_, p, path, options);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("%lld lines, %lld words, %lld bytes  (%s, %lld faults)\n",
                static_cast<long long>(r->lines), static_cast<long long>(r->words),
                static_cast<long long>(r->bytes), p.stats().elapsed().ToString().c_str(),
                static_cast<long long>(p.stats().major_faults));
}

std::string SledShell::CmdGrep(const std::vector<std::string>& args) {
  GrepOptions options;
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "-s") {
      options.use_sleds = true;
    } else if (a == "-q") {
      options.quiet_first_match = true;
    } else if (a == "-n") {
      options.line_numbers = true;
    } else if (a == "-p") {
      options.kernel_program = true;
    } else if ((a == "-A" || a == "-B") && i + 1 < args.size()) {
      const int count = atoi(args[++i].c_str());
      (a == "-A" ? options.after_context : options.before_context) = count;
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) {
    return "usage: grep [-s] [-q] [-n] [-p] [-A n] [-B n] <pattern> <path>\n";
  }
  Process& p = NewProcess("grep");
  auto r = GrepApp::Run(*kernel_, p, positional[1], positional[0], options);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  std::string out;
  for (const GrepMatch& m : r->matches) {
    for (const std::string& b : m.before) {
      out += b + "\n";
    }
    if (options.line_numbers) {
      out += Format("%lld:", static_cast<long long>(m.line_number));
    }
    out += m.line + "\n";
    for (const std::string& a : m.after) {
      out += a + "\n";
    }
    if (options.before_context > 0 || options.after_context > 0) {
      out += "--\n";
    }
  }
  out += Format("%s (%zu matches, %s, %lld faults)\n", r->found ? "found" : "no match",
                r->matches.size(), p.stats().elapsed().ToString().c_str(),
                static_cast<long long>(p.stats().major_faults));
  return out;
}

std::string SledShell::CmdFind(const std::vector<std::string>& args) {
  if (args.empty()) {
    return "usage: find <path> [-name <substr>] [-latency <pred>] [-xdev]\n";
  }
  FindOptions options;
  const std::string root = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-xdev") {
      options.same_fs_only = true;
      continue;
    }
    if (i + 1 >= args.size()) {
      return "error: switch '" + args[i] + "' needs a value\n";
    }
    if (args[i] == "-name") {
      options.name_contains = args[++i];
    } else if (args[i] == "-latency") {
      auto pred = ParseLatencyPredicate(args[++i]);
      if (!pred.ok()) {
        return "error: bad latency predicate\n";
      }
      options.latency = pred.value();
    } else {
      return "error: unknown find switch '" + args[i] + "'\n";
    }
  }
  Process& p = NewProcess("find");
  auto r = FindApp::Run(*kernel_, p, root, options);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  std::string out;
  for (const std::string& path : r->paths) {
    out += path + "\n";
  }
  out += Format("(%zu of %lld files; %lld pruned by latency)\n", r->paths.size(),
                static_cast<long long>(r->files_examined),
                static_cast<long long>(r->files_pruned_by_latency));
  return out;
}

std::string SledShell::CmdChain(const std::vector<std::string>& args) {
  if (args.empty()) {
    return "usage: chain <path> [-name <substr>] [-p]\n";
  }
  ChainOptions options;
  const std::string path = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-p") {
      options.kernel_program = true;
    } else if (args[i] == "-name" && i + 1 < args.size()) {
      options.name_contains = args[++i];
    } else {
      return "error: unknown chain switch '" + args[i] + "'\n";
    }
  }
  Process& p = NewProcess("chain");
  auto r = FindApp::RunChain(*kernel_, p, path, options);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("%lld blocks, %lld matched, hash %016llx  (%s, %lld syscalls)\n",
                static_cast<long long>(r->blocks_visited),
                static_cast<long long>(r->names_matched),
                static_cast<unsigned long long>(r->chain_hash),
                p.stats().elapsed().ToString().c_str(),
                static_cast<long long>(p.stats().syscalls));
}

std::string SledShell::CmdSleds(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return "usage: sleds <path>\n";
  }
  Process& p = NewProcess("sleds");
  auto r = FileInfoApp::Run(*kernel_, p, args[0]);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return r->panel_text;
}

std::string SledShell::CmdDelivery(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return "usage: delivery <path>\n";
  }
  Process& p = NewProcess("delivery");
  auto fd = kernel_->Open(p, args[0]);
  if (!fd.ok()) {
    return ErrText(fd.error());
  }
  auto t = TotalDeliveryTime(*kernel_, p, fd.value(), AttackPlan::kBest);
  (void)kernel_->Close(p, fd.value());
  if (!t.ok()) {
    return ErrText(t.error());
  }
  return Format("estimated delivery: %s\n", t->ToString().c_str());
}

std::string SledShell::CmdLock(const std::vector<std::string>& args, bool lock) {
  if (args.size() != 1) {
    return lock ? "usage: lock <path>\n" : "usage: unlock <path>\n";
  }
  const std::string& path = args[0];
  if (lock) {
    if (lock_fds_.contains(path)) {
      return "error: already locked\n";
    }
    Process& p = NewProcess("lock");
    auto fd = kernel_->Open(p, path);
    if (!fd.ok()) {
      return ErrText(fd.error());
    }
    auto attr = kernel_->Fstat(p, fd.value());
    auto pinned = kernel_->IoctlSledsLock(p, fd.value(), 0, std::max<int64_t>(attr->size, 1));
    if (!pinned.ok()) {
      (void)kernel_->Close(p, fd.value());
      return ErrText(pinned.error());
    }
    lock_fds_[path] = {fd.value(), &p};
    return Format("locked %lld resident pages\n", static_cast<long long>(pinned.value()));
  }
  auto it = lock_fds_.find(path);
  if (it == lock_fds_.end()) {
    return "error: not locked\n";
  }
  (void)kernel_->Close(*it->second.second, it->second.first);  // releases the pins
  lock_fds_.erase(it);
  return "unlocked\n";
}

std::string SledShell::CmdHsm(const std::vector<std::string>& args, bool migrate) {
  if (args.size() != 1) {
    return migrate ? "usage: migrate <path>\n" : "usage: recall <path>\n";
  }
  auto r = kernel_->vfs().Resolve(args[0]);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  auto* hsm = dynamic_cast<HsmFs*>(r->fs);
  if (hsm == nullptr) {
    return "error: not an HSM mount\n";
  }
  auto t = migrate ? hsm->Migrate(r->ino) : hsm->Recall(r->ino);
  if (!t.ok()) {
    return ErrText(t.error());
  }
  kernel_->clock().Advance(t.value());
  return Format("%s in %s\n", migrate ? "migrated" : "recalled", t->ToString().c_str());
}

std::string SledShell::CmdSeal(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return "usage: seal <path>\n";
  }
  auto r = kernel_->vfs().Resolve(args[0]);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  auto* iso = dynamic_cast<IsoFs*>(r->fs);
  if (iso == nullptr) {
    return "error: not an ISO mount\n";
  }
  kernel_->DropCaches();
  iso->Seal();
  return "sealed\n";
}

std::string SledShell::CmdLs(const std::vector<std::string>& args) {
  const std::string path = args.empty() ? "/" : args[0];
  auto r = kernel_->vfs().List(path);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  std::string out;
  for (const DirEntry& e : r.value()) {
    out += Format("%s%s\n", e.name.c_str(), e.is_dir ? "/" : "");
  }
  return out;
}

std::string SledShell::CmdStat(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return "usage: stat <path>\n";
  }
  auto r = kernel_->vfs().Stat(args[0]);
  if (!r.ok()) {
    return ErrText(r.error());
  }
  return Format("%s: %s, %lld bytes\n", args[0].c_str(), r->is_dir ? "directory" : "file",
                static_cast<long long>(r->size));
}

std::string SledShell::CmdStats() {
  kernel_->PublishCacheGauges();  // refresh cache.* gauges for iostat/exports
  const PageCacheStats& cs = kernel_->cache().stats();
  const KernelStats& ks = kernel_->stats();
  std::string out;
  out += Format("cache: %lld/%lld pages (%lld pinned), %lld hits, %lld misses\n",
                static_cast<long long>(kernel_->cache().size_pages()),
                static_cast<long long>(kernel_->cache().capacity_pages()),
                static_cast<long long>(kernel_->cache().pinned_pages()),
                static_cast<long long>(cs.hits), static_cast<long long>(cs.misses));
  out += Format("kernel: %lld pages in, %lld written back, %lld readahead\n",
                static_cast<long long>(ks.pages_paged_in),
                static_cast<long long>(ks.pages_written_back),
                static_cast<long long>(ks.readahead_pages));
  out += "sleds_table:\n";
  for (int i = 0; i < kernel_->sleds_table().size(); ++i) {
    const SledsTable::Row& row = kernel_->sleds_table().row(i);
    out += Format("  [%d] %-10s %12s %8.1f MB/s", i, row.name.c_str(),
                  row.chars.latency.ToString().c_str(), row.chars.bandwidth_bps / 1e6);
    if (!row.chars.latency_q.empty()) {
      const LatencyQuantiles& q = row.chars.latency_q;
      out += Format("  p50 %s p90 %s p99 %s", SecondsF(q.p50).ToString().c_str(),
                    SecondsF(q.p90).ToString().c_str(), SecondsF(q.p99).ToString().c_str());
    }
    out += "\n";
  }
  return out;
}

std::string SledShell::CmdTrace(const std::vector<std::string>& args) {
  int64_t n = 20;
  if (!args.empty()) {
    n = atoll(args[0].c_str());
    if (n <= 0) {
      return "usage: trace [n]\n";
    }
  }
  const TraceRing& ring = kernel_->obs().trace();
  std::string out = Format("%lld events recorded, %lld dropped, showing last %lld:\n",
                           static_cast<long long>(ring.total()),
                           static_cast<long long>(ring.dropped()),
                           static_cast<long long>(std::min<int64_t>(
                               n, static_cast<int64_t>(ring.size()))));
  out += ring.DumpCsv(static_cast<size_t>(n));
  return out;
}

std::string SledShell::CmdIostat() {
  const Observer& obs = kernel_->obs();
  const MetricRegistry& m = obs.metrics();
  std::string out;
  out += Format("%-3s %-10s %10s %10s %14s %12s %12s %12s\n", "lvl", "name", "pageins", "pages",
                "device_time", "p50", "p95", "p99");
  for (int i = 0; i < obs.num_levels(); ++i) {
    const std::string name(obs.LevelName(i));
    const std::string base = Format("level.%d.%s.", i, name.c_str());
    const LatencyHistogram* h = m.histogram(base + "pagein_time");
    const std::string sum = h ? h->sum().ToString() : "-";
    const std::string p50 = h ? h->Quantile(0.50).ToString() : "-";
    const std::string p95 = h ? h->Quantile(0.95).ToString() : "-";
    const std::string p99 = h ? h->Quantile(0.99).ToString() : "-";
    out += Format("%-3d %-10s %10lld %10lld %14s %12s %12s %12s\n", i, name.c_str(),
                  static_cast<long long>(m.counter(base + "pageins")),
                  static_cast<long long>(m.counter(base + "pagein_pages")), sum.c_str(),
                  p50.c_str(), p95.c_str(), p99.c_str());
  }
  out += Format("readahead: %lld batches, %lld pages\n",
                static_cast<long long>(m.counter("kernel.readahead_batches")),
                static_cast<long long>(m.counter("kernel.readahead_pages")));
  out += Format("writeback: %lld queued, %lld flushes, %lld pages, %lld runs\n",
                static_cast<long long>(m.counter("kernel.writeback_queued")),
                static_cast<long long>(m.counter("kernel.writeback_flushes")),
                static_cast<long long>(m.counter("kernel.writeback_pages")),
                static_cast<long long>(m.counter("kernel.writeback_runs")));
  // Per-device transfer counters and busy-time utilization, from the dev.*
  // metric namespace every StorageDevice reports into.
  std::set<std::string> devices;
  for (const auto& [key, value] : m.counters()) {
    if (key.rfind("dev.", 0) == 0) {
      const size_t dot = key.find('.', 4);
      if (dot != std::string::npos) {
        devices.insert(key.substr(4, dot - 4));
      }
    }
  }
  const Duration elapsed = kernel_->clock().Now().since_epoch();
  for (const std::string& dev : devices) {
    const std::string base = "dev." + dev + ".";
    const LatencyHistogram* rt = m.histogram(base + "read_time");
    const LatencyHistogram* wt = m.histogram(base + "write_time");
    Duration busy;
    if (rt != nullptr) {
      busy += rt->sum();
    }
    if (wt != nullptr) {
      busy += wt->sum();
    }
    const double util =
        elapsed.nanos() > 0 ? 100.0 * busy.ToSeconds() / elapsed.ToSeconds() : 0.0;
    out += Format("device %-10s reads %lld writes %lld repositions %lld busy %s (%.1f%%)\n",
                  dev.c_str(), static_cast<long long>(m.counter(base + "reads")),
                  static_cast<long long>(m.counter(base + "writes")),
                  static_cast<long long>(m.counter(base + "repositions")),
                  busy.ToString().c_str(), util);
  }
  // Request queues (event-driven engine modes only; empty under kFifoSync).
  kernel_->io_scheduler().ForEachQueue([&](uint32_t /*id*/, const DeviceQueue& q) {
    const DeviceQueueStats& s = q.stats();
    out += Format(
        "queue  %-10s depth %lld (max %lld) submitted %lld dispatched %lld/%lld "
        "batches/pages merged %lld canceled %lld\n",
        q.name().c_str(), static_cast<long long>(q.depth()),
        static_cast<long long>(s.max_depth), static_cast<long long>(s.submitted),
        static_cast<long long>(s.dispatched_batches),
        static_cast<long long>(s.dispatched_pages), static_cast<long long>(s.merged),
        static_cast<long long>(s.canceled));
  });
  return out;
}

}  // namespace sled
