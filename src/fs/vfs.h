// The virtual file system layer: a mount table plus path resolution over the
// mounted file systems, mirroring the layer the paper modified ("All of the
// changes were made in the virtual file system (VFS) layer, independent of
// the on-disk data structure of ext2 or ISO9660", §4.1).
#ifndef SLEDS_SRC_FS_VFS_H_
#define SLEDS_SRC_FS_VFS_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/fs/filesystem.h"

namespace sled {

class Vfs {
 public:
  Vfs() = default;
  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  struct Resolved {
    FileSystem* fs = nullptr;
    uint32_t fs_id = 0;
    InodeNum ino = 0;
  };

  // Mount a file system at an absolute path ("/", "/mnt/cdrom", ...). Mount
  // points may nest; resolution picks the longest matching prefix. Returns
  // the assigned fs id.
  Result<uint32_t> Mount(std::string path, std::unique_ptr<FileSystem> fs);

  // Resolve an absolute path to (fs, inode). Handles ".", "..", and
  // duplicate slashes; ".." does not cross mount points (it stops at the
  // mounted root, like a chroot).
  Result<Resolved> Resolve(std::string_view path) const;

  // Resolve the parent directory of `path`, returning the final component in
  // *leaf (for create/unlink), a view into `path`.
  Result<Resolved> ResolveParent(std::string_view path, std::string_view* leaf) const;

  // ---- path-level conveniences ----
  Result<Resolved> CreateFile(std::string_view path);
  Result<Resolved> CreateDir(std::string_view path);
  Result<void> Unlink(std::string_view path);
  Result<InodeAttr> Stat(std::string_view path) const;
  Result<std::vector<DirEntry>> List(std::string_view path) const;

  // Globally unique file identity for the page cache.
  static FileId MakeFileId(uint32_t fs_id, InodeNum ino) {
    return (static_cast<FileId>(fs_id) << 40) | static_cast<FileId>(ino);
  }

  FileSystem* FsById(uint32_t fs_id) const;
  // Mount path of a file system id (for diagnostics).
  std::string MountPathOf(uint32_t fs_id) const;
  // All mounts as (path, fs_id) in path order.
  std::vector<std::pair<std::string, uint32_t>> Mounts() const;

  // Attach the kernel's observability sink: counts resolutions and forwards
  // the observer to every mounted (and future) file system and its devices.
  void AttachObserver(Observer* obs);

 private:
  struct MountEntry {
    std::string path;                     // normalized, no trailing slash except root
    std::vector<std::string> components;  // of `path`, split once at Mount
    uint32_t fs_id = 0;
    std::unique_ptr<FileSystem> fs;
  };

  // Split into normalized components, resolving "." and "..": views into
  // `path`, in one allocation.
  static Result<std::vector<std::string_view>> SplitPath(std::string_view path);
  static std::string JoinPath(const std::vector<std::string_view>& components);
  // The deepest mount whose components prefix `components`, and the inode
  // the rest of them name on it.
  Result<Resolved> Walk(std::span<const std::string_view> components) const;

  std::vector<MountEntry> mounts_;
  uint32_t next_fs_id_ = 1;
  Observer* obs_ = nullptr;
};

}  // namespace sled

#endif  // SLEDS_SRC_FS_VFS_H_
