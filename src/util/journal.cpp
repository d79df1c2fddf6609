#include "util/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstring>
#include <utility>

#include "util/log.hpp"

namespace spcd::util {

namespace {

constexpr const char kHeaderPrefix[] = "spcd-journal v1 ";
constexpr const char kFramePrefix[] = "#rec ";

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

// fflush + fsync: the records must be on disk, not in a stdio or kernel
// buffer, before sync() reports success.
bool flush_to_disk(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
  return ::fsync(::fileno(file)) == 0;
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
  out.torn_tail = pos < contents.size();
  return out;
}

Journal Journal::create(const std::string& path, const std::string& meta) {
  Journal j;
  j.path_ = path;
  j.file_ = std::fopen(path.c_str(), "wb");
  if (j.file_ == nullptr) {
    SPCD_LOG_WARN("journal: cannot open %s for writing", path.c_str());
    j.failed_ = true;
    return j;
  }
  const std::string header = kHeaderPrefix + meta + "\n";
  if (std::fwrite(header.data(), 1, header.size(), j.file_) !=
          header.size() ||
      !flush_to_disk(j.file_)) {
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
  for (const std::string& record : records) j.append(record);
  if (!j.ok()) {
    j.close();
    std::remove(tmp_path.c_str());
    j.failed_ = true;
    return j;
  }
  j.close();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    SPCD_LOG_WARN("journal: cannot rename %s over %s", tmp_path.c_str(),
                  path.c_str());
    std::remove(tmp_path.c_str());
    j.failed_ = true;
    return j;
  }
  if (!sync_parent_dir(path)) {
    SPCD_LOG_WARN("journal: cannot fsync the directory of %s", path.c_str());
    j.failed_ = true;
    return j;
  }
  // Reopen the published file for appending.
  Journal out;
  out.path_ = path;
  out.records_written_ = records.size();
  out.file_ = std::fopen(path.c_str(), "ab");
  if (out.file_ == nullptr) {
    SPCD_LOG_WARN("journal: cannot reopen %s for appending", path.c_str());
    out.failed_ = true;
  }
  return out;
}

Journal::~Journal() { close(); }

Journal::Journal(Journal&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      failed_(other.failed_),
      records_written_(other.records_written_),
      bytes_written_(other.bytes_written_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
    failed_ = other.failed_;
    records_written_ = other.records_written_;
    bytes_written_ = other.bytes_written_;
  }
  return *this;
}

bool Journal::append(const std::string& record) {
  return write(record) && sync();
}

bool Journal::write(const std::string& record) {
  if (!ok()) return false;
  const std::string framed = frame(record);
  if (std::fwrite(framed.data(), 1, framed.size(), file_) !=
          framed.size() ||
      std::fflush(file_) != 0) {
    SPCD_LOG_WARN("journal: short write to %s; further records will be "
                  "dropped", path_.c_str());
    failed_ = true;
    return false;
  }
  ++records_written_;
  bytes_written_ += framed.size();
  return true;
}

bool Journal::sync() {
  if (!ok()) return false;
  if (!flush_to_disk(file_)) {
    SPCD_LOG_WARN("journal: fsync of %s failed; further records will be "
                  "dropped", path_.c_str());
    failed_ = true;
  }
  return ok();
}

int Journal::dup_fd() const { return ok() ? ::dup(::fileno(file_)) : -1; }

void Journal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace spcd::util
