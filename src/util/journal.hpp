// Append-only, CRC-framed record journal — the crash-safety substrate of
// the experiment pipeline. Each completed experiment cell appends one
// record and the journal fsyncs it, so a crash (or SIGKILL) at any point
// loses at most the cells that were still in flight; on the next run the
// intact prefix is replayed and only the missing cells are recomputed.
//
// On-disk format (text-framed, binary-safe payloads):
//
//   spcd-journal v1 <meta>\n          one header line; <meta> binds the
//                                     journal to an experiment shape
//   #rec <len> <crc64hex>\n           one frame line per record
//   <len payload bytes>\n             the record itself
//   ...
//
// The loader never trusts the tail: it walks records front to back and
// stops at the first frame that is malformed, torn (short payload), or
// fails its checksum — every intact prefix record is recovered, and no
// input (truncation, bit flips, garbage) can make it throw. Writers only
// ever append; compaction/replacement goes through rotate(), which writes
// the replacement to "<path>.tmp" and atomically renames it into place, so
// readers see either the old journal or the complete new one.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace spcd::util {

/// FNV-1a 64-bit checksum used by the record frames (shared with the
/// results-cache trailer; it only needs to catch truncation and accidental
/// corruption, not adversaries).
std::uint64_t fnv1a64(const std::string& data);

/// fsync the directory that holds `path`. A file's own fsync does not
/// promise that its directory entry is on disk, so a file created or
/// renamed there survives power loss by name only after this. False on
/// failure.
bool sync_parent_dir(const std::string& path);

class Journal {
 public:
  /// What Journal::load() recovered from a journal file.
  struct LoadResult {
    bool valid = false;      ///< file exists and the header parsed
    std::string meta;        ///< the header's <meta> payload
    std::vector<std::string> records;  ///< every intact prefix record
    bool torn_tail = false;  ///< trailing bytes after the last intact
                             ///< record were discarded (torn/corrupt)
  };

  /// Read `path` tolerantly (see the format notes above). A missing file
  /// yields {valid = false}; nothing this function reads can make it
  /// throw.
  static LoadResult load(const std::string& path);

  /// Create (or truncate) a fresh journal with the given meta line and
  /// open it for appending; the header and the directory entry are on
  /// disk before it returns. `meta` must not contain newlines.
  static Journal create(const std::string& path, const std::string& meta);

  /// Atomic-rename rotation: write a fresh journal holding `records` to
  /// "<path>.tmp", fsync it, rename it over `path`, fsync the directory,
  /// and return it open for appending. Used to compact a resumed journal
  /// down to its intact prefix before new records are appended after it.
  static Journal rotate(const std::string& path, const std::string& meta,
                        const std::vector<std::string>& records);

  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False after any I/O error (the journal then drops further appends
  /// with a logged warning instead of crashing the sweep).
  bool ok() const { return file_ != nullptr && !failed_; }
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  std::uint64_t records_written() const { return records_written_; }
  /// Bytes appended through this handle (frames + payloads, excluding the
  /// header and any pre-existing file contents). Drives size-triggered
  /// rotation without a stat() per append.
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// write() then sync(): one framed record, on disk before returning, so
  /// a record that append() accepted survives SIGKILL. Returns ok().
  bool append(const std::string& record);

  /// Append one framed record and flush it to the kernel, without fsync:
  /// it survives a crash of this process but not of the machine until a
  /// later sync() (or an fsync of dup_fd()). Returns ok().
  bool write(const std::string& record);

  /// Flush and fsync everything written so far. Returns ok(); a failed
  /// fsync fails the journal.
  bool sync();

  /// A duplicate of the file descriptor (-1 on a failed journal), which
  /// the caller fsyncs and closes. It stays valid when this journal is
  /// closed or moved meanwhile, so a group commit can fsync outside the
  /// lock that guards the journal.
  int dup_fd() const;

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool failed_ = false;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace spcd::util
