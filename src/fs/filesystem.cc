#include "src/fs/filesystem.h"

#include <algorithm>

namespace sled {
namespace {

constexpr size_t kMaxNameLen = 255;

bool ValidName(std::string_view name) {
  return !name.empty() && name.size() <= kMaxNameLen && name != "." && name != ".." &&
         name.find('/') == std::string_view::npos;
}

}  // namespace

FileSystem::FileSystem(std::string name) : name_(std::move(name)) {
  Inode root;
  root.is_dir = true;
  inodes_.emplace(kRootIno, std::move(root));
}

Result<void> FileSystem::CheckWritable() const { return Result<void>::Ok(); }

int64_t FileSystem::LevelRunLen(InodeNum ino, int64_t page, int64_t max_pages) const {
  const int level = LevelOf(ino, page);
  int64_t n = 1;
  while (n < max_pages && LevelOf(ino, page + n) == level) {
    ++n;
  }
  return n;
}

Result<const FileSystem::Inode*> FileSystem::FindInode(InodeNum ino) const {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) {
    return Err::kNoEnt;
  }
  return &it->second;
}

Result<FileSystem::Inode*> FileSystem::FindInode(InodeNum ino) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) {
    return Err::kNoEnt;
  }
  return &it->second;
}

Result<InodeNum> FileSystem::Lookup(InodeNum dir, std::string_view child) const {
  SLED_ASSIGN_OR_RETURN(const Inode* d, FindInode(dir));
  if (!d->is_dir) {
    return Err::kNotDir;
  }
  auto it = d->children.find(std::string(child));
  if (it == d->children.end()) {
    return Err::kNoEnt;
  }
  return it->second;
}

Result<InodeNum> FileSystem::CreateNode(InodeNum dir, std::string_view child, bool is_dir) {
  SLED_RETURN_IF_ERROR(CheckWritable());
  if (!ValidName(child)) {
    return child.size() > kMaxNameLen ? Err::kNameTooLong : Err::kInval;
  }
  SLED_ASSIGN_OR_RETURN(Inode* d, FindInode(dir));
  if (!d->is_dir) {
    return Err::kNotDir;
  }
  if (d->children.contains(std::string(child))) {
    return Err::kExist;
  }
  const InodeNum ino = next_ino_++;
  Inode node;
  node.is_dir = is_dir;
  inodes_.emplace(ino, std::move(node));
  // Re-find: the emplace may have invalidated `d`.
  inodes_.at(dir).children.emplace(std::string(child), ino);
  return ino;
}

Result<InodeNum> FileSystem::CreateFile(InodeNum dir, std::string_view child) {
  return CreateNode(dir, child, /*is_dir=*/false);
}

Result<InodeNum> FileSystem::CreateDir(InodeNum dir, std::string_view child) {
  return CreateNode(dir, child, /*is_dir=*/true);
}

Result<void> FileSystem::Unlink(InodeNum dir, std::string_view child) {
  SLED_RETURN_IF_ERROR(CheckWritable());
  SLED_ASSIGN_OR_RETURN(Inode* d, FindInode(dir));
  if (!d->is_dir) {
    return Err::kNotDir;
  }
  auto it = d->children.find(std::string(child));
  if (it == d->children.end()) {
    return Err::kNoEnt;
  }
  const InodeNum ino = it->second;
  Inode& node = inodes_.at(ino);
  if (node.is_dir && !node.children.empty()) {
    return Err::kNotEmpty;
  }
  const int64_t old_size = static_cast<int64_t>(node.data.size());
  if (!node.is_dir && old_size > 0) {
    SLED_RETURN_IF_ERROR(OnResize(ino, old_size, 0));
  }
  d->children.erase(it);
  inodes_.erase(ino);
  return Result<void>::Ok();
}

Result<std::vector<DirEntry>> FileSystem::List(InodeNum dir) const {
  SLED_ASSIGN_OR_RETURN(const Inode* d, FindInode(dir));
  if (!d->is_dir) {
    return Err::kNotDir;
  }
  std::vector<DirEntry> entries;
  entries.reserve(d->children.size());
  for (const auto& [child_name, ino] : d->children) {
    entries.push_back({child_name, ino, inodes_.at(ino).is_dir});
  }
  return entries;
}

Result<InodeAttr> FileSystem::GetAttr(InodeNum ino) const {
  SLED_ASSIGN_OR_RETURN(const Inode* node, FindInode(ino));
  InodeAttr attr;
  attr.ino = ino;
  attr.is_dir = node->is_dir;
  attr.size = static_cast<int64_t>(node->data.size());
  return attr;
}

Result<int64_t> FileSystem::ReadBytes(InodeNum ino, int64_t offset,
                                      std::span<char> dst) const {
  SLED_ASSIGN_OR_RETURN(const Inode* node, FindInode(ino));
  if (node->is_dir) {
    return Err::kIsDir;
  }
  if (offset < 0) {
    return Err::kInval;
  }
  const int64_t size = static_cast<int64_t>(node->data.size());
  if (offset >= size) {
    return static_cast<int64_t>(0);
  }
  const int64_t n = std::min<int64_t>(static_cast<int64_t>(dst.size()), size - offset);
  std::copy_n(node->data.data() + offset, n, dst.data());
  return n;
}

Result<int64_t> FileSystem::WriteBytes(InodeNum ino, int64_t offset,
                                       std::span<const char> src) {
  SLED_RETURN_IF_ERROR(CheckWritable());
  SLED_RETURN_IF_ERROR(CheckInodeWritable(ino));
  SLED_ASSIGN_OR_RETURN(Inode* node, FindInode(ino));
  if (node->is_dir) {
    return Err::kIsDir;
  }
  if (offset < 0) {
    return Err::kInval;
  }
  const int64_t old_size = static_cast<int64_t>(node->data.size());
  const int64_t end = offset + static_cast<int64_t>(src.size());
  if (end > old_size) {
    SLED_RETURN_IF_ERROR(OnResize(ino, old_size, end));
    node->data.resize(static_cast<size_t>(end), '\0');
  }
  std::copy(src.begin(), src.end(), node->data.begin() + offset);
  return static_cast<int64_t>(src.size());
}

Result<void> FileSystem::Truncate(InodeNum ino, int64_t new_size) {
  SLED_RETURN_IF_ERROR(CheckWritable());
  SLED_RETURN_IF_ERROR(CheckInodeWritable(ino));
  SLED_ASSIGN_OR_RETURN(Inode* node, FindInode(ino));
  if (node->is_dir) {
    return Err::kIsDir;
  }
  if (new_size < 0) {
    return Err::kInval;
  }
  const int64_t old_size = static_cast<int64_t>(node->data.size());
  if (new_size != old_size) {
    SLED_RETURN_IF_ERROR(OnResize(ino, old_size, new_size));
    node->data.resize(static_cast<size_t>(new_size), '\0');
  }
  return Result<void>::Ok();
}

int64_t FileSystem::SizeOf(InodeNum ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? 0 : static_cast<int64_t>(it->second.data.size());
}

Result<std::string_view> FileSystem::ContentView(InodeNum ino) const {
  SLED_ASSIGN_OR_RETURN(const Inode* node, FindInode(ino));
  if (node->is_dir) {
    return Err::kIsDir;
  }
  return std::string_view(node->data);
}

}  // namespace sled
