// The path-loss database file format and its two readers — the eager
// PathLossDatabase::load and the zero-copy MappedPathLossDatabase:
// every corruption class rejected with its specific message (structural
// damage at open, plane damage on first touch), load_or_rebuild repair,
// crash-consistent save (a mapped reader keeps the old bytes, a failed
// save leaves the old file), the MAGUS_NO_MMAP fallback, release/retouch
// bit-identity, and an exhaustive truncation + bit-flip sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pathloss/format.h"
#include "pathloss/mapped_database.h"
#include "test_helpers.h"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/resource.h>
#define MAGUS_HAS_RLIMIT 1
#else
#define MAGUS_HAS_RLIMIT 0
#endif

namespace magus::pathloss {
namespace {

/// Bitwise equality of two footprints: geometry, coverage and the raw
/// gain window (NaN-safe — memcmp, not float compare).
[[nodiscard]] bool bit_identical(const SectorFootprint& a,
                                 const SectorFootprint& b) {
  return a.col0() == b.col0() && a.row0() == b.row0() &&
         a.window_cols() == b.window_cols() &&
         a.window_rows() == b.window_rows() &&
         a.covered_count() == b.covered_count() &&
         std::memcmp(a.window().data(), b.window().data(),
                     a.window().size() * sizeof(float)) == 0;
}

void expect_bit_identical(const SectorFootprint& a, const SectorFootprint& b) {
  ASSERT_EQ(a.window().size(), b.window().size());
  EXPECT_TRUE(bit_identical(a, b));
}

/// Sets (or, with nullptr, clears) MAGUS_NO_MMAP for its lifetime and
/// restores the previous value.
class NoMmapEnv {
 public:
  explicit NoMmapEnv(const char* value) {
    if (const char* old = std::getenv("MAGUS_NO_MMAP")) previous_ = old;
    set(value);
  }
  ~NoMmapEnv() { set(previous_ ? previous_->c_str() : nullptr); }
  NoMmapEnv(const NoMmapEnv&) = delete;
  NoMmapEnv& operator=(const NoMmapEnv&) = delete;

 private:
  static void set(const char* value) {
    if (value != nullptr) {
      ::setenv("MAGUS_NO_MMAP", value, 1);
    } else {
      ::unsetenv("MAGUS_NO_MMAP");
    }
  }
  std::optional<std::string> previous_;
};

[[nodiscard]] std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One file fixture for every format suite: the shared two-entry
/// database saved to a per-test path. Under `ctest -j` each TEST_F runs
/// as its own process, so a shared name would let two tests clobber each
/// other's bytes mid-run.
class DatabaseCorruption : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 20151;
  // Directory record layout: sector, tilt, col0, row0, window_cols,
  // window_rows (i32 each), data_offset, entry checksum (u64 each).
  static constexpr std::size_t kCol0 = 8;
  static constexpr std::size_t kWindowCols = 16;
  static constexpr std::size_t kDataOffset = 24;
  static constexpr std::size_t kEntryChecksum = 32;

  DatabaseCorruption() : fixture_(kSeed) {
    path_ = ::testing::TempDir() + "/magus_pl_format_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    fixture_.database().save(path_);
  }

  ~DatabaseCorruption() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::string read_file() const { return read_bytes(path_); }
  void write_file(const std::string& bytes) const {
    write_bytes(path_, bytes);
  }

  [[nodiscard]] static std::size_t record(std::size_t entry) {
    return format::kHeaderBytes + entry * format::kDirEntryBytes;
  }

  template <typename T>
  static void poke(std::string& bytes, std::size_t offset, T value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
  }

  template <typename T>
  [[nodiscard]] static T peek(const std::string& bytes, std::size_t offset) {
    T value{};
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
  }

  /// Recomputes `entry`'s checksum over its (patched) geometry and plane.
  static void reseal_entry(std::string& bytes, std::size_t entry) {
    std::int32_t geometry[6];
    std::memcpy(geometry, bytes.data() + record(entry), sizeof(geometry));
    const auto offset = peek<std::uint64_t>(bytes, record(entry) + kDataOffset);
    const auto plane_bytes = static_cast<std::size_t>(geometry[4]) *
                             static_cast<std::size_t>(geometry[5]) *
                             sizeof(float);
    poke(bytes, record(entry) + kEntryChecksum,
         format::entry_checksum_raw(geometry[0], geometry[1], geometry[2],
                                    geometry[3], geometry[4], geometry[5],
                                    bytes.data() + offset, plane_bytes));
  }

  /// Recomputes the header/directory checksum, so a patched field reaches
  /// the loaders' semantic checks — the shape of a writer bug, not of
  /// bit rot.
  static void reseal(std::string& bytes) {
    const auto count =
        peek<std::uint64_t>(bytes, format::kEntryCountOffset);
    poke(bytes, format::kChecksumOffset,
         format::front_checksum(bytes.data(), count));
  }

  /// Loads eagerly and returns the error message, failing on success.
  [[nodiscard]] std::string load_error(std::size_t threads = 1) const {
    try {
      (void)PathLossDatabase::load(path_, threads);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    ADD_FAILURE() << "load unexpectedly succeeded";
    return {};
  }

  /// Both readers must reject the file at open with the same message;
  /// returns it.
  [[nodiscard]] std::string open_error() const {
    std::string mapped_error;
    try {
      (void)MappedPathLossDatabase{path_};
      ADD_FAILURE() << "mapped open unexpectedly succeeded";
    } catch (const std::runtime_error& error) {
      mapped_error = error.what();
    }
    const std::string eager_error = load_error();
    EXPECT_EQ(mapped_error, eager_error);
    return eager_error;
  }

  /// The mapped provider opens the file; touching (0, tilt) must throw.
  [[nodiscard]] std::string touch_error(radio::TiltIndex tilt) const {
    MappedPathLossDatabase mapped{path_};
    try {
      (void)mapped.footprint(0, tilt);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    ADD_FAILURE() << "touch of tilt " << tilt << " unexpectedly succeeded";
    return {};
  }

  magus::testing::TwoEntryDatabase fixture_;
  std::string path_;
};

/// The streaming-provider cases share the corruption suite's fixture.
using V3Format = DatabaseCorruption;

TEST_F(DatabaseCorruption, TruncatedHeaderRejected) {
  write_file(read_file().substr(0, format::kHeaderBytes / 2));
  EXPECT_NE(open_error().find("truncated header"), std::string::npos);
}

TEST_F(DatabaseCorruption, UnsupportedVersionRejected) {
  std::string bytes = read_file();
  bytes[format::kVersionOffset] = 1;  // little-endian version field -> v1
  write_file(bytes);
  EXPECT_NE(open_error().find("unsupported version 1"), std::string::npos);
  // A file of the retired stream format is refused the same way.
  bytes[format::kVersionOffset] = 2;
  write_file(bytes);
  EXPECT_NE(open_error().find("unsupported version 2 (expected 3)"),
            std::string::npos);
}

TEST_F(DatabaseCorruption, TruncatedEntryRejected) {
  // Entry 1's plane moved a page past the end of the file the header
  // promises: the directory says the entry does not fit.
  std::string bytes = read_file();
  poke(bytes, record(1) + kDataOffset,
       peek<std::uint64_t>(bytes, record(1) + kDataOffset) +
           format::kPageBytes);
  reseal(bytes);
  write_file(bytes);
  EXPECT_NE(open_error().find("truncated entry 1 of 2"), std::string::npos);
}

TEST_F(DatabaseCorruption, BitFlipInGainsFailsChecksum) {
  std::string bytes = read_file();
  bytes[bytes.size() - 3] =
      static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  write_file(bytes);
  const std::string error = load_error();
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("entry 1 of 2"), std::string::npos) << error;
  EXPECT_NE(touch_error(1).find("checksum mismatch"), std::string::npos);
}

TEST_F(DatabaseCorruption, OversizedWindowRejectedBeforeAllocation) {
  std::string bytes = read_file();
  // Patch entry 0's window_cols to a huge value; the readers must refuse
  // before trying to allocate or map it.
  poke(bytes, record(0) + kWindowCols, std::int32_t{1 << 28});
  reseal(bytes);
  write_file(bytes);
  EXPECT_NE(open_error().find("oversized window (entry 0 of 2)"),
            std::string::npos);
}

TEST_F(DatabaseCorruption, WindowOutsideGridRejected) {
  std::string bytes = read_file();
  // Shift entry 0's col0 so col0 + window_cols overruns the 4-wide grid
  // while window_cols itself stays plausible. The entry checksum is
  // recomputed too, so the fit check itself must catch it.
  poke(bytes, record(0) + kCol0, std::int32_t{3});
  reseal_entry(bytes, 0);
  reseal(bytes);
  write_file(bytes);
  const std::string error = load_error();
  EXPECT_NE(error.find("does not fit the grid"), std::string::npos) << error;
  (void)touch_error(0);
}

TEST_F(DatabaseCorruption, TrailingBytesRejected) {
  write_file(read_file() + "extra");
  EXPECT_NE(open_error().find("trailing bytes after 2 entries"),
            std::string::npos);
}

TEST_F(DatabaseCorruption, LoadOrRebuildRepairsCorruptFile) {
  std::string bytes = read_file();
  bytes[bytes.size() - 3] =
      static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  write_file(bytes);

  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, fixture_.provider, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_TRUE(report.resaved);
  EXPECT_NE(report.error.find("checksum mismatch"), std::string::npos);
  ASSERT_EQ(db.entry_count(), 2u);
  expect_bit_identical(db.footprint(0, 0), fixture_.provider.footprint(0, 0));
  // The repaired file on disk loads cleanly now, through both readers.
  const PathLossDatabase reloaded = PathLossDatabase::load(path_);
  EXPECT_EQ(reloaded.entry_count(), 2u);
  MappedPathLossDatabase mapped{path_};
  expect_bit_identical(mapped.footprint(0, 1),
                       fixture_.provider.footprint(0, 1));
}

TEST_F(DatabaseCorruption, ParallelLoadReportsSameErrors) {
  // The parallel loader must report the same specific message as the
  // serial scan, for any thread count.
  std::string bytes = read_file();
  bytes[bytes.size() - 3] =
      static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  write_file(bytes);
  for (const std::size_t threads : {1u, 3u}) {
    EXPECT_NE(load_error(threads).find("checksum mismatch (entry 1 of 2"),
              std::string::npos)
        << threads;
  }
}

TEST_F(DatabaseCorruption, LoadOrRebuildParallelMatchesSerial) {
  // A corrupted entry forces the rebuild path; rebuilding across threads
  // must produce a database (and a re-saved file) identical to the serial
  // rebuild.
  const std::string corrupted = [&] {
    std::string bytes = read_file();
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
    return bytes;
  }();
  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};

  write_file(corrupted);
  PathLossDatabase::LoadReport serial_report;
  PathLossDatabase serial = PathLossDatabase::load_or_rebuild(
      path_, fixture_.provider, sectors, tilts, &serial_report, 1);
  const std::string serial_file = read_file();

  write_file(corrupted);
  PathLossDatabase::LoadReport parallel_report;
  PathLossDatabase parallel = PathLossDatabase::load_or_rebuild(
      path_, fixture_.provider, sectors, tilts, &parallel_report, 3);

  EXPECT_TRUE(serial_report.rebuilt);
  EXPECT_TRUE(parallel_report.rebuilt);
  EXPECT_EQ(serial_report.error, parallel_report.error);
  ASSERT_EQ(parallel.entry_count(), serial.entry_count());
  for (const radio::TiltIndex tilt : tilts) {
    expect_bit_identical(serial.footprint(0, tilt),
                         parallel.footprint(0, tilt));
  }
  EXPECT_EQ(read_file(), serial_file);  // re-saved bytes identical too
}

TEST_F(DatabaseCorruption, LoadOrRebuildDetectsGridMismatch) {
  // A pristine file whose grid disagrees with the provider counts as
  // unusable: the model would silently mis-index every footprint.
  const geo::GridMap other{geo::Rect{{0, 0}, {600, 300}}, 100.0};
  PathLossDatabase wrong{other};
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dense(18, nan);
  dense[7] = -85.0f;
  wrong.insert(0, 0, SectorFootprint{std::move(dense), 6, 3});
  wrong.save(path_);

  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, fixture_.provider, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_NE(report.error.find("grid mismatch"), std::string::npos)
      << report.error;
  EXPECT_EQ(db.grid().cols(), fixture_.grid.cols());
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST_F(DatabaseCorruption, PristineFileLoadsWithoutRebuild) {
  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  const std::string before = read_file();
  const PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, fixture_.provider, sectors, tilts, &report);
  EXPECT_FALSE(report.rebuilt);
  EXPECT_FALSE(report.resaved);
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(db.entry_count(), 2u);
  EXPECT_EQ(read_file(), before);  // a sound file is never rewritten
}

TEST_F(DatabaseCorruption, MissingFileRebuildsFromProvider) {
  std::remove(path_.c_str());
  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  const PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, fixture_.provider, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_NE(report.error.find("cannot open"), std::string::npos);
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST_F(DatabaseCorruption, SaveOverMappedFileKeepsOldBytes) {
  // Open the two-entry file, then save a smaller one-entry database over
  // the same path. Entry (0, 1)'s plane lies past the new file's end: a
  // save that truncated the file in place would make this first touch
  // die with SIGBUS (mmap) or fail its read (positioned-read fallback).
  // save() renames a new file into place instead, and the provider keeps
  // reading the file it opened.
  for (const char* no_mmap : {static_cast<const char*>(nullptr), "1"}) {
    const NoMmapEnv env{no_mmap};
    fixture_.database().save(path_);
    MappedPathLossDatabase mapped{path_};
    ASSERT_EQ(mapped.using_mmap(), no_mmap == nullptr);
    PathLossDatabase smaller{fixture_.grid};
    smaller.insert(0, 0, fixture_.provider.footprint(0, 0));
    smaller.save(path_);
    ASSERT_LT(std::filesystem::file_size(path_), mapped.file_bytes());

    expect_bit_identical(mapped.footprint(0, 1),
                         fixture_.provider.footprint(0, 1));
    expect_bit_identical(mapped.footprint(0, 0),
                         fixture_.provider.footprint(0, 0));
    // A fresh open sees the new file.
    EXPECT_EQ(MappedPathLossDatabase{path_}.entry_count(), 1u);
  }
}

#if MAGUS_HAS_RLIMIT
TEST_F(DatabaseCorruption, FailedSaveLeavesOldFileAndNoTempFile) {
  const std::filesystem::path dir =
      ::testing::TempDir() + "/magus_pl_failed_save";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "market.pldb").string();
  PathLossDatabase db = fixture_.database();
  db.save(path);
  const std::string before = read_bytes(path);

  // Cap the size of any file this process writes below the new file's
  // size, so the save fails mid-write with EFBIG — the disk-full shape.
  // (A file-permission failure would not do: the suite may run as root.)
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = format::kPageBytes;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  bool threw = false;
  try {
    db.save(path);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(threw);
  EXPECT_EQ(read_bytes(path), before);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"market.pldb"});
  std::filesystem::remove_all(dir);
}
#endif

TEST_F(DatabaseCorruption, EveryTruncationAndHeaderBitFlipRejected) {
  // Exhaustive damage sweep over the fixture file: truncation at every
  // byte offset, every bit of the header and directory flipped, and every
  // bit of both gain planes flipped. Every reader — the eager load, the
  // mapped provider, and the mapped provider on its positioned-read
  // fallback — must reject each case at open with a named
  // "PathLossDatabase: ..." error, or, for plane damage only, open the
  // file and fail the damaged entry's first touch with "checksum
  // mismatch". No reader may hand back bytes that differ from the
  // original, and none may raise a signal (that would end the test).
  const std::string pristine = read_file();
  ASSERT_EQ(pristine.size(), 2 * format::kPageBytes + 8);
  const std::size_t front_bytes = record(2);
  const std::vector<std::size_t> planes = {format::kPageBytes,
                                           2 * format::kPageBytes};

  enum class Outcome { kRejectedAtOpen, kRejectedAtTouch, kServed };
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& label, const std::string& why) {
    failures.push_back(label + ": " + why);
  };
  const auto named = [](const std::string& message) {
    return message.rfind("PathLossDatabase: ", 0) == 0;
  };

  const auto eager_outcome = [&](const std::string& label) {
    try {
      PathLossDatabase db = PathLossDatabase::load(path_);
      if (db.entry_count() != 2 || db.grid().cols() != 4 ||
          db.grid().rows() != 3 || db.grid().area().min.x_m != 0.0 ||
          db.grid().area().min.y_m != 0.0 ||
          !bit_identical(db.footprint(0, 0),
                         fixture_.provider.footprint(0, 0)) ||
          !bit_identical(db.footprint(0, 1),
                         fixture_.provider.footprint(0, 1))) {
        fail(label, "eager load misread the file");
      }
      return Outcome::kServed;
    } catch (const std::exception& error) {
      if (!named(error.what())) fail(label, error.what());
      return Outcome::kRejectedAtOpen;
    }
  };
  const auto mapped_outcome = [&](const std::string& label) {
    std::unique_ptr<MappedPathLossDatabase> db;
    try {
      db = std::make_unique<MappedPathLossDatabase>(path_);
    } catch (const std::exception& error) {
      if (!named(error.what())) fail(label, error.what());
      return Outcome::kRejectedAtOpen;
    }
    if (db->entry_count() != 2 || db->grid().cols() != 4 ||
        db->grid().rows() != 3 || db->grid().area().min.x_m != 0.0 ||
        db->grid().area().min.y_m != 0.0) {
      fail(label, "mapped open misread the header");
    }
    bool rejected = false;
    for (const radio::TiltIndex tilt : {0, 1}) {
      try {
        if (!bit_identical(db->footprint(0, tilt),
                           fixture_.provider.footprint(0, tilt))) {
          fail(label, "mapped touch misread tilt " + std::to_string(tilt));
        }
      } catch (const std::exception& error) {
        if (std::string{error.what()}.find("checksum mismatch") ==
            std::string::npos) {
          fail(label, error.what());
        }
        rejected = true;
      }
    }
    return rejected ? Outcome::kRejectedAtTouch : Outcome::kServed;
  };

  // Runs every reader over `bytes`; `plane_damage` allows (and demands)
  // the first-touch rejection instead of the at-open one.
  const auto sweep_case = [&](const std::string& label,
                              const std::string& bytes, bool plane_damage) {
    write_file(bytes);
    const Outcome want =
        plane_damage ? Outcome::kRejectedAtTouch : Outcome::kRejectedAtOpen;
    if (eager_outcome(label) != Outcome::kRejectedAtOpen) {
      fail(label, "eager load accepted the file");
    }
    {
      const NoMmapEnv mmap_on{nullptr};
      if (mapped_outcome(label + " (mmap)") != want) {
        fail(label, "mmap reader did not reject as expected");
      }
    }
    {
      const NoMmapEnv mmap_off{"1"};
      if (mapped_outcome(label + " (no mmap)") != want) {
        fail(label, "positioned-read reader did not reject as expected");
      }
    }
  };

  for (std::size_t size = 0; size < pristine.size(); ++size) {
    sweep_case("truncated to " + std::to_string(size),
               pristine.substr(0, size), false);
  }
  const auto flip_bits = [&](std::size_t begin, std::size_t end,
                             bool plane_damage) {
    for (std::size_t byte = begin; byte < end; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes = pristine;
        bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
        sweep_case("byte " + std::to_string(byte) + " bit " +
                       std::to_string(bit) + " flipped",
                   bytes, plane_damage);
      }
    }
  };
  flip_bits(0, front_bytes, false);
  for (const std::size_t plane : planes) flip_bits(plane, plane + 8, true);

  EXPECT_TRUE(failures.empty())
      << failures.size() << " failures, first: " << failures.front();
}

TEST_F(V3Format, MappedMatchesEagerLoad) {
  PathLossDatabase eager = PathLossDatabase::load(path_);
  MappedPathLossDatabase mapped{path_};
  ASSERT_EQ(mapped.entry_count(), 2u);
  EXPECT_EQ(mapped.touched_count(), 0u);
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_EQ(mapped.grid().cell_count(), eager.grid().cell_count());
  EXPECT_TRUE(mapped.contains(0, 0));
  EXPECT_FALSE(mapped.contains(1, 0));
  for (const int tilt : {0, 1}) {
    expect_bit_identical(eager.footprint(0, tilt), mapped.footprint(0, tilt));
  }
  EXPECT_EQ(mapped.touched_count(), 2u);
  // The dB planes stay in the mapping: the mapped provider's heap is only
  // the linear twins, strictly less than the eager database's windows +
  // twins.
  if (mapped.using_mmap()) {
    EXPECT_LT(mapped.resident_bytes(), eager.resident_bytes());
    EXPECT_GT(mapped.mapped_bytes(), 0u);
  }
  EXPECT_THROW((void)mapped.footprint(5, 0), std::out_of_range);
}

TEST_F(V3Format, TruncatedDirectoryRejectedAtOpen) {
  const std::string bytes = read_file();
  // Cut mid-directory: past the header, short of the first plane.
  write_file(bytes.substr(0, format::kHeaderBytes + 10));
  EXPECT_NE(open_error().find("truncated directory"), std::string::npos);
}

TEST_F(V3Format, TornLastPageRejectedAtOpen) {
  const std::string bytes = read_file();
  // Drop the tail of the last gain plane's page — the crash-mid-write
  // shape. The directory is intact, so only the payload_end check can
  // catch this, and it must catch it at open (a mapped read past EOF
  // would SIGBUS).
  write_file(bytes.substr(0, bytes.size() - 100));
  EXPECT_NE(open_error().find("torn payload"), std::string::npos);
}

TEST_F(V3Format, TrailingBytesRejected) {
  // Even one stray byte, or a whole zero page that looks like alignment
  // padding, past the last plane must be refused at open by both readers.
  const std::string bytes = read_file();
  for (const std::string& tail :
       {std::string(1, '\0'), std::string(4096, '\0')}) {
    write_file(bytes + tail);
    EXPECT_NE(open_error().find("trailing bytes"), std::string::npos)
        << tail.size() << " trailing bytes";
  }
}

TEST_F(V3Format, BitFlipInPlaneCaughtOnFirstTouchNotOpen) {
  // Find entry (0, 1)'s plane through the real directory, then flip one
  // payload byte.
  std::string bytes = read_file();
  const format::Directory dir = format::parse_directory(
      bytes.data(), bytes.size(), bytes.size(), path_);
  const format::DirEntry* victim = nullptr;
  for (const format::DirEntry& entry : dir.entries) {
    if (entry.sector == 0 && entry.tilt == 1) victim = &entry;
  }
  ASSERT_NE(victim, nullptr);
  bytes[victim->data_offset + 3] ^= 0x40;
  write_file(bytes);

  // The eager loader checksums everything up front and rejects.
  EXPECT_NE(load_error().find("checksum mismatch"), std::string::npos);

  // The streaming provider opens fine (structure is sound), serves the
  // clean entry, and fails exactly the corrupted one — on every touch,
  // since a failed materialization must not be cached.
  MappedPathLossDatabase mapped{path_};
  expect_bit_identical(fixture_.provider.footprint(0, 0),
                       mapped.footprint(0, 0));
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)mapped.footprint(0, 1);
      ADD_FAILURE() << "touch of corrupted entry succeeded";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string{error.what()}.find("checksum mismatch"),
                std::string::npos);
    }
  }
  EXPECT_EQ(mapped.touched_count(), 1u);
}

TEST_F(V3Format, NoMmapFallbackServesIdenticalFootprints) {
  std::unique_ptr<MappedPathLossDatabase> mapped;
  {
    const NoMmapEnv mmap_on{nullptr};
    mapped = std::make_unique<MappedPathLossDatabase>(path_);
  }
  const NoMmapEnv mmap_off{"1"};
  MappedPathLossDatabase fallback{path_};
  EXPECT_FALSE(fallback.using_mmap());
  EXPECT_EQ(fallback.mapped_bytes(), 0u);
  for (const int tilt : {0, 1}) {
    expect_bit_identical(mapped->footprint(0, tilt),
                         fallback.footprint(0, tilt));
  }
  // On the fallback the dB plane copies count as heap.
  EXPECT_GT(fallback.resident_bytes(), mapped->resident_bytes());
}

TEST_F(V3Format, ReleaseResidencyRematerializesBitIdentically) {
  MappedPathLossDatabase mapped{path_};
  const SectorFootprint* fp0 = &mapped.footprint(0, 0);
  const SectorFootprint* fp1 = &mapped.footprint(0, 1);
  const std::size_t full_bytes = mapped.resident_bytes();
  std::vector<float> gains(fp0->window().begin(), fp0->window().end());
  ASSERT_GT(full_bytes, 0u);

  const std::size_t freed = mapped.release_residency();
  EXPECT_EQ(freed, full_bytes);
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_EQ(mapped.touched_count(), 0u);
  // Releasing twice is a no-op.
  EXPECT_EQ(mapped.release_residency(), 0u);

  // Re-touch: same address (the MarketStore's cached pointers depend on
  // it), same bytes, same heap charge.
  const SectorFootprint* again0 = &mapped.footprint(0, 0);
  EXPECT_EQ(again0, fp0);
  EXPECT_EQ(&mapped.footprint(0, 1), fp1);
  EXPECT_EQ(mapped.resident_bytes(), full_bytes);
  EXPECT_EQ(0, std::memcmp(gains.data(), again0->window().data(),
                           gains.size() * sizeof(float)));
}

TEST_F(V3Format, SerialFallbackThresholdDocumentsCrossover) {
  // The measured crossover lives in one place; the loader's fan-out
  // consults it. 495 entries (the pathloss bench DB) must stay serial,
  // and the constant must stay a power-of-two-ish sane bound.
  EXPECT_GT(PathLossDatabase::kParallelLoadThreshold, 495u);
  EXPECT_LE(PathLossDatabase::kParallelLoadThreshold, 16384u);
}

}  // namespace
}  // namespace magus::pathloss
