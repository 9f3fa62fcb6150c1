#include "storage/file.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

namespace caldera {

namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " '" + path + "': " + std::strerror(errno);
}

/// The production File: a thin RAII wrapper around a POSIX fd.
class PosixFile final : public File {
 public:
  PosixFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, buf + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(Errno("pread", path_));
      }
      if (r == 0) {
        return Status::IoError("short read at offset " +
                               std::to_string(offset) + " (" +
                               std::to_string(done) + "/" + std::to_string(n) +
                               " bytes) in " + path_);
      }
      done += static_cast<size_t>(r);
    }
    return Status::Ok();
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    size_t done = 0;
    while (done < data.size()) {
      ssize_t w = ::pwrite(fd_, data.data() + done, data.size() - done,
                           static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(Errno("pwrite", path_));
      }
      done += static_cast<size_t>(w);
    }
    if (offset + data.size() > size_) size_ = offset + data.size();
    return Status::Ok();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IoError(Errno("ftruncate", path_));
    }
    size_ = size;
    return Status::Ok();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
    return Status::Ok();
  }

  uint64_t size() const override { return size_; }

  Status RefreshSize() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return Status::IoError(Errno("fstat", path_));
    size_ = static_cast<uint64_t>(st.st_size);
    return Status::Ok();
  }

  const std::string& path() const override { return path_; }

 private:
  std::string path_;
  int fd_;
  uint64_t size_;
};

File::WrapHook& WrapHookSlot() {
  static File::WrapHook hook;
  return hook;
}

Result<std::unique_ptr<File>> Finish(std::unique_ptr<File> file) {
  File::WrapHook& hook = WrapHookSlot();
  if (hook) return hook(std::move(file));
  return file;
}

Result<std::unique_ptr<File>> OpenWithFlags(const std::string& path,
                                            int flags) {
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError(Errno("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(Errno("fstat", path));
  }
  return Finish(std::make_unique<PosixFile>(path, fd,
                                            static_cast<uint64_t>(st.st_size)));
}

}  // namespace

Result<std::unique_ptr<File>> File::OpenOrCreate(const std::string& path) {
  return OpenWithFlags(path, O_RDWR | O_CREAT);
}

Result<std::unique_ptr<File>> File::Open(const std::string& path) {
  return OpenWithFlags(path, O_RDWR);
}

Result<std::unique_ptr<File>> File::OpenReadOnly(const std::string& path) {
  return OpenWithFlags(path, O_RDONLY);
}

void File::SetWrapHookForTesting(WrapHook hook) {
  WrapHookSlot() = std::move(hook);
}

Status SyncFile(const std::string& path) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> file, File::Open(path));
  return file->Sync();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError(Errno("rename", from + " to " + to));
  }
  return Status::Ok();
}

Status SyncDirectory(const std::string& dir) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           File::OpenReadOnly(dir));
  return file->Sync();
}

uint64_t FileInode(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_ino);
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) return Status::IoError("remove '" + path + "': " + ec.message());
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

Status CreateDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IoError("mkdir '" + path + "': " + ec.message());
  return Status::Ok();
}

Result<std::unique_ptr<FileLock>> FileLock::Acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::FailedPrecondition(path + " is locked by another writer");
    }
    return Status::IoError("cannot lock " + path + ": " + std::strerror(err));
  }
  return std::unique_ptr<FileLock>(new FileLock(fd));
}

FileLock::~FileLock() { ::close(fd_); }

}  // namespace caldera
