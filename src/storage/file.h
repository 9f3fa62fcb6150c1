#ifndef CALDERA_STORAGE_FILE_H_
#define CALDERA_STORAGE_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace caldera {

/// Positional-I/O file interface. All Caldera on-disk structures (pager
/// files, record files, index files) sit on top of this class. The default
/// implementation wraps a POSIX file descriptor; tests substitute
/// fault-injecting wrappers via SetWrapHookForTesting to prove that every
/// layer above converts I/O faults into Status.
class File {
 public:
  virtual ~File() = default;

  /// Opens (or creates) `path` for reading and writing.
  static Result<std::unique_ptr<File>> OpenOrCreate(const std::string& path);

  /// Opens an existing file for reading and writing; NotFound if it does
  /// not exist (never creates).
  static Result<std::unique_ptr<File>> Open(const std::string& path);

  /// Opens an existing file read-only; NotFound if it does not exist.
  static Result<std::unique_ptr<File>> OpenReadOnly(const std::string& path);

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Reads exactly `n` bytes at `offset` into `buf`. Fails with IoError on a
  /// short read (reading past EOF is an error, not a partial result).
  virtual Status ReadAt(uint64_t offset, size_t n, char* buf) const = 0;

  /// Writes all of `data` at `offset`, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, std::string_view data) = 0;

  /// Appends `data` at the current logical end of file.
  virtual Status Append(std::string_view data) { return WriteAt(size(), data); }

  /// Truncates/extends the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Flushes data to stable storage.
  virtual Status Sync() = 0;

  /// Current size in bytes, as of the open or this handle's last write,
  /// truncate or RefreshSize.
  virtual uint64_t size() const = 0;

  /// Re-reads size() from the file system, for a file another handle may
  /// have grown since this one was opened.
  virtual Status RefreshSize() = 0;

  virtual const std::string& path() const = 0;

  /// Test hook: every file returned by the static factories is passed
  /// through `hook` (when set), letting tests substitute fault-injecting
  /// wrappers without touching production call sites. Pass nullptr to
  /// uninstall. Not thread-safe; install before opening files.
  using WrapHook =
      std::function<std::unique_ptr<File>(std::unique_ptr<File>)>;
  static void SetWrapHookForTesting(WrapHook hook);

 protected:
  File() = default;
};

/// Opens `path` and fsyncs it: the file's writes through any handle reach
/// stable storage.
Status SyncFile(const std::string& path);

/// Renames `from` over `to`, atomically replacing any file there.
Status RenameFile(const std::string& from, const std::string& to);

/// Opens directory `dir` and fsyncs it: a rename or create in it reaches
/// stable storage.
Status SyncDirectory(const std::string& dir);

/// The inode of the file at `path`, or 0 when it cannot be read. A rename
/// over `path` changes it.
uint64_t FileInode(const std::string& path);

/// Removes a file if it exists; OK if missing.
Status RemoveFileIfExists(const std::string& path);

/// True if `path` exists.
bool FileExists(const std::string& path);

/// Creates a directory (and parents); OK if it already exists.
Status CreateDirectories(const std::string& path);

/// An exclusive, non-blocking flock(2) on a file, created if missing, held
/// until destruction. flock locks conflict between separate opens, so a
/// second Acquire of the same path fails in this process as in any other,
/// and the kernel drops the lock when its holder dies.
class FileLock {
 public:
  /// FailedPrecondition while another FileLock holds `path`.
  static Result<std::unique_ptr<FileLock>> Acquire(const std::string& path);
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  explicit FileLock(int fd) : fd_(fd) {}
  int fd_;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_FILE_H_
