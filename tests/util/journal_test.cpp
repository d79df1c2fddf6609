#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace spcd::util {
namespace {

/// Unique-ish per-test scratch path inside the build tree.
std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string("journal_test_") + info->name() + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// The on-disk form of one record: its frame line, payload and newline.
std::string framed(const std::string& record) {
  char head[64];
  std::snprintf(head, sizeof head, "#rec %zu %016" PRIx64 "\n",
                record.size(), fnv1a64(record));
  return head + record + "\n";
}

class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }
  std::string path(const std::string& name) {
    cleanup_.push_back(temp_path(name));
    return cleanup_.back();
  }
  std::vector<std::string> cleanup_;
};

TEST_F(JournalTest, MissingFileLoadsInvalid) {
  const Journal::LoadResult r = Journal::load(path("missing"));
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(JournalTest, AppendedRecordsRoundTrip) {
  const std::string p = path("roundtrip");
  {
    Journal j = Journal::create(p, "meta v1");
    ASSERT_TRUE(j.ok());
    EXPECT_TRUE(j.append("first record"));
    EXPECT_TRUE(j.append(""));  // empty records are legal
    EXPECT_TRUE(j.append("third record with spaces  and  tabs\t"));
    EXPECT_EQ(j.records_written(), 3u);
  }
  const Journal::LoadResult r = Journal::load(p);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.meta, "meta v1");
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0], "first record");
  EXPECT_EQ(r.records[1], "");
  EXPECT_EQ(r.records[2], "third record with spaces  and  tabs\t");
}

TEST_F(JournalTest, CreateTruncatesAnExistingJournal) {
  const std::string p = path("truncate");
  { Journal::create(p, "old").append("stale"); }
  { Journal::create(p, "new"); }
  const Journal::LoadResult r = Journal::load(p);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.meta, "new");
  EXPECT_TRUE(r.records.empty());
}

TEST_F(JournalTest, RotateKeepsOnlyTheGivenRecordsAndStaysAppendable) {
  const std::string p = path("rotate");
  {
    Journal j = Journal::create(p, "meta");
    j.append("a");
    j.append("b");
    j.append("c");
  }
  {
    Journal j = Journal::rotate(p, "meta", {"a", "c"});
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j.records_written(), 2u);
    EXPECT_TRUE(j.append("d"));
    EXPECT_EQ(j.records_written(), 3u);
  }
  const Journal::LoadResult r = Journal::load(p);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.records, (std::vector<std::string>{"a", "c", "d"}));
  // No .tmp leftover after a successful rotation.
  std::ifstream tmp(p + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(JournalTest, TruncatedTailRecoversIntactPrefix) {
  const std::string p = path("torn");
  {
    Journal j = Journal::create(p, "meta");
    j.append("record one");
    j.append("record two");
  }
  const std::string full = read_file(p);
  // Chop bytes off the end one at a time: the loader must never crash and
  // never report more than the intact prefix.
  for (std::size_t cut = 1; cut <= full.size(); ++cut) {
    write_file(p, full.substr(0, full.size() - cut));
    const Journal::LoadResult r = Journal::load(p);
    // Any cut removes at least record two's terminator, so the loader can
    // recover at most the first record — and exactly it while its frame
    // is untouched.
    ASSERT_LT(r.records.size(), 2u);
    if (!r.records.empty()) {
      EXPECT_EQ(r.records[0], "record one");
    }
  }
}

TEST_F(JournalTest, CorruptRecordStopsTheWalkWithoutThrowing) {
  const std::string p = path("bitflip");
  {
    Journal j = Journal::create(p, "meta");
    j.append("aaaa");
    j.append("bbbb");
  }
  std::string contents = read_file(p);
  // Flip one payload byte of the second record ("bbbb" -> "bbxb").
  const std::size_t pos = contents.rfind("bbbb");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 2] = 'x';
  write_file(p, contents);
  const Journal::LoadResult r = Journal::load(p);
  ASSERT_TRUE(r.valid);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "aaaa");
  EXPECT_TRUE(r.torn_tail);
}

TEST_F(JournalTest, CloseLeavesExactlyTheHeaderAndFrames) {
  const std::string p = path("closed");
  {
    Journal j = Journal::create(p, "meta");
    j.append("a");
    j.append("bc");
  }
  EXPECT_EQ(read_file(p),
            "spcd-journal v1 meta\n" + framed("a") + framed("bc"));
  {
    Journal j = Journal::rotate(p, "meta", {"bc"});
    j.append("d");
  }
  EXPECT_EQ(read_file(p),
            "spcd-journal v1 meta\n" + framed("bc") + framed("d"));
}

TEST_F(JournalTest, SyncedButUnclosedJournalEndsInZerosAndLoadsClean) {
  const std::string p = path("open");
  const std::string copy = path("open_copy");
  Journal j = Journal::create(p, "meta");
  ASSERT_TRUE(j.append("one"));
  ASSERT_TRUE(j.append("two"));
  // What SIGKILL leaves behind: the open file, zero tail and all.
  const std::string contents = read_file(p);
  write_file(copy, contents);
  const std::string records =
      "spcd-journal v1 meta\n" + framed("one") + framed("two");
  ASSERT_GT(contents.size(), records.size());
  EXPECT_EQ(contents.substr(0, records.size()), records);
  EXPECT_EQ(contents.find_first_not_of('\0', records.size()),
            std::string::npos);
  const Journal::LoadResult r = Journal::load(copy);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.records, (std::vector<std::string>{"one", "two"}));
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(JournalTest, PartialFrameBeforeZerosIsATornTail) {
  const std::string p = path("partial");
  {
    Journal j = Journal::create(p, "meta");
    j.append("kept");
    j.append("lost record");
  }
  const std::string full = read_file(p);
  const std::string zeros(4096, '\0');
  // A crash mid-write inside the zero tail: any nonempty piece of the
  // second frame, then zeros.
  for (std::size_t cut = 1; cut < framed("lost record").size(); ++cut) {
    write_file(p, full.substr(0, full.size() - cut) + zeros);
    const Journal::LoadResult r = Journal::load(p);
    EXPECT_EQ(r.records, std::vector<std::string>{"kept"}) << "cut " << cut;
    EXPECT_TRUE(r.torn_tail) << "cut " << cut;
  }
}

TEST_F(JournalTest, RecordsAcrossSeveralTailExtensionsRoundTrip) {
  const std::string p = path("large");
  // 6.4 MiB of 100 KiB records crosses every step of the tail's growth,
  // and a 5 MiB record is larger than the largest step.
  std::vector<std::string> records;
  for (int i = 0; i < 64; ++i) {
    records.emplace_back(100 << 10, static_cast<char>('a' + i % 26));
  }
  records.emplace_back(5 << 20, 'z');
  const std::size_t header = std::string("spcd-journal v1 meta\n").size();
  std::uint64_t bytes = 0;
  {
    Journal j = Journal::create(p, "meta");
    for (const std::string& record : records) ASSERT_TRUE(j.write(record));
    ASSERT_TRUE(j.sync());
    bytes = j.bytes_written();
    EXPECT_GT(read_file(p).size(), header + bytes);
    const Journal::LoadResult open = Journal::load(p);
    EXPECT_EQ(open.records, records);
    EXPECT_FALSE(open.torn_tail);
  }
  EXPECT_EQ(read_file(p).size(), header + bytes);
  const Journal::LoadResult r = Journal::load(p);
  EXPECT_EQ(r.records, records);
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(JournalTest, GarbageFilesLoadInvalidWithoutThrowing) {
  const std::string p = path("garbage");
  for (const char* contents :
       {"", "not a journal\n", "spcd-journal v", "\n\n\n",
        "spcd-journal v1 meta"}) {  // header without newline is torn
    write_file(p, contents);
    const Journal::LoadResult r = Journal::load(p);
    EXPECT_TRUE(r.records.empty()) << "contents: " << contents;
  }
}

TEST_F(JournalTest, RecordsWithNewlinesSurvive) {
  // The frame carries an explicit length, so payloads may contain the
  // record separator itself.
  const std::string p = path("newlines");
  {
    Journal j = Journal::create(p, "meta");
    j.append("line1\nline2\n");
    j.append("#rec 5 deadbeef\nfake frame");
  }
  const Journal::LoadResult r = Journal::load(p);
  ASSERT_TRUE(r.valid);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0], "line1\nline2\n");
  EXPECT_EQ(r.records[1], "#rec 5 deadbeef\nfake frame");
}

}  // namespace
}  // namespace spcd::util
