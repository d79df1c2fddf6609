#include "util/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/log.hpp"

namespace spcd::util {

namespace {

constexpr const char kHeaderPrefix[] = "spcd-journal v1 ";
constexpr const char kFramePrefix[] = "#rec ";
// Bounds of one zero-tail extension (see the format notes).
constexpr std::uint64_t kMinTailStep = std::uint64_t{64} << 10;
constexpr std::uint64_t kMaxTailStep = std::uint64_t{4} << 20;

std::string frame(const std::string& record) {
  char head[64];
  const int len = std::snprintf(head, sizeof head, "#rec %zu %016" PRIx64 "\n",
                                record.size(), fnv1a64(record));
  std::string out;
  out.reserve(static_cast<std::size_t>(len) + record.size() + 1);
  out.append(head, static_cast<std::size_t>(len));
  out += record;
  out += '\n';
  return out;
}

// pwrite all `size` bytes at `offset`, across short writes. False on an
// error, such as ENOSPC or EFBIG past RLIMIT_FSIZE.
bool pwrite_all(int fd, const char* data, std::uint64_t size,
                std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n =
        ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::uint64_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : data) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  // "a" lives in ".", "/a" in "/".
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

Journal::LoadResult Journal::load(const std::string& path) {
  LoadResult out;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return out;  // no journal: nothing to recover

  std::string contents;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, file)) > 0;) {
    contents.append(buf, n);
  }
  std::fclose(file);

  // Header line.
  const std::size_t header_end = contents.find('\n');
  if (header_end == std::string::npos ||
      contents.compare(0, sizeof(kHeaderPrefix) - 1, kHeaderPrefix) != 0) {
    return out;  // not a journal (or the header itself is torn)
  }
  out.valid = true;
  out.meta = contents.substr(sizeof(kHeaderPrefix) - 1,
                             header_end - (sizeof(kHeaderPrefix) - 1));

  // Records: stop at the first frame that is malformed, short, or fails
  // its checksum — everything before it is the intact prefix.
  std::size_t pos = header_end + 1;
  while (pos < contents.size()) {
    const std::size_t frame_end = contents.find('\n', pos);
    if (frame_end == std::string::npos) break;  // torn frame line
    const std::string frame_line = contents.substr(pos, frame_end - pos);
    std::size_t len = 0;
    std::uint64_t crc = 0;
    if (std::sscanf(frame_line.c_str(), "#rec %zu %16" SCNx64, &len,
                    &crc) != 2 ||
        frame_line.compare(0, sizeof(kFramePrefix) - 1, kFramePrefix) != 0) {
      break;  // malformed frame (bit flip in the frame line, or garbage)
    }
    const std::size_t payload_start = frame_end + 1;
    if (payload_start + len + 1 > contents.size()) break;  // torn payload
    if (contents[payload_start + len] != '\n') break;      // frame drift
    std::string record = contents.substr(payload_start, len);
    if (fnv1a64(record) != crc) break;  // bit flip in the payload
    out.records.push_back(std::move(record));
    pos = payload_start + len + 1;
  }
  // A journal that was not closed ends in its zero tail.
  out.torn_tail = contents.find_first_not_of('\0', pos) != std::string::npos;
  return out;
}

Journal Journal::create(const std::string& path, const std::string& meta) {
  Journal j;
  j.path_ = path;
  j.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0666);
  if (j.fd_ < 0) {
    SPCD_LOG_WARN("journal: cannot open %s for writing", path.c_str());
    j.failed_ = true;
    return j;
  }
  const std::string header = kHeaderPrefix + meta + "\n";
  j.end_ = j.zeroed_ = header.size();
  // The first zero tail goes to disk with the header, so the first
  // record is already an overwrite.
  if (!pwrite_all(j.fd_, header.data(), header.size(), 0) ||
      !j.grow_tail(0) || ::fdatasync(j.fd_) != 0) {
    SPCD_LOG_WARN("journal: cannot write header to %s", path.c_str());
    j.failed_ = true;
  } else if (!sync_parent_dir(path)) {
    SPCD_LOG_WARN("journal: cannot fsync the directory of %s", path.c_str());
    j.failed_ = true;
  }
  return j;
}

Journal Journal::rotate(const std::string& path, const std::string& meta,
                        const std::vector<std::string>& records) {
  const std::string tmp_path = path + ".tmp";
  Journal j = create(tmp_path, meta);
  for (const std::string& record : records) j.write(record);
  if (!j.sync()) {
    j.close();
    std::remove(tmp_path.c_str());
    j.failed_ = true;
    return j;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    SPCD_LOG_WARN("journal: cannot rename %s over %s", tmp_path.c_str(),
                  path.c_str());
    j.close();
    std::remove(tmp_path.c_str());
    j.failed_ = true;
    return j;
  }
  // The descriptor follows the file to its new name and stays open for
  // appending.
  j.path_ = path;
  if (!sync_parent_dir(path)) {
    SPCD_LOG_WARN("journal: cannot fsync the directory of %s", path.c_str());
    j.failed_ = true;
  }
  return j;
}

Journal::~Journal() { close(); }

Journal::Journal(Journal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      failed_(other.failed_),
      records_written_(other.records_written_),
      bytes_written_(other.bytes_written_),
      end_(other.end_),
      zeroed_(other.zeroed_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    failed_ = other.failed_;
    records_written_ = other.records_written_;
    bytes_written_ = other.bytes_written_;
    end_ = other.end_;
    zeroed_ = other.zeroed_;
  }
  return *this;
}

bool Journal::append(const std::string& record) {
  return write(record) && sync();
}

bool Journal::write(const std::string& record) {
  if (!ok()) return false;
  const std::string framed = frame(record);
  if ((end_ + framed.size() > zeroed_ && !grow_tail(framed.size())) ||
      !pwrite_all(fd_, framed.data(), framed.size(), end_)) {
    SPCD_LOG_WARN("journal: short write to %s; further records will be "
                  "dropped", path_.c_str());
    failed_ = true;
    return false;
  }
  end_ += framed.size();
  ++records_written_;
  bytes_written_ += framed.size();
  return true;
}

bool Journal::grow_tail(std::uint64_t size) {
  static const std::string zeros(kMinTailStep, '\0');
  const std::uint64_t step = std::clamp(zeroed_, kMinTailStep, kMaxTailStep);
  const std::uint64_t to = std::max(end_ + size, zeroed_ + step);
  while (zeroed_ < to) {
    const std::uint64_t n = std::min<std::uint64_t>(to - zeroed_, zeros.size());
    if (!pwrite_all(fd_, zeros.data(), n, zeroed_)) return false;
    zeroed_ += n;
  }
  return true;
}

bool Journal::sync() {
  if (!ok()) return false;
  if (::fdatasync(fd_) != 0) {
    SPCD_LOG_WARN("journal: fdatasync of %s failed; further records will "
                  "be dropped", path_.c_str());
    failed_ = true;
  }
  return ok();
}

int Journal::dup_fd() const { return ok() ? ::dup(fd_) : -1; }

void Journal::close() {
  if (fd_ < 0) return;
  if (zeroed_ > end_ && ::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
    SPCD_LOG_WARN("journal: cannot truncate the zero tail of %s",
                  path_.c_str());
  }
  ::close(fd_);
  fd_ = -1;
}

}  // namespace spcd::util
