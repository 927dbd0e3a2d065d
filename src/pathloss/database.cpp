#include "pathloss/database.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pathloss/format.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define MAGUS_HAS_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#else
#define MAGUS_HAS_FSYNC 0
#endif

namespace magus::pathloss {

namespace {

struct DbMetrics {
  obs::Counter& loads;
  obs::Counter& load_bytes;
  obs::Counter& load_failures;
  obs::Counter& rebuilds;
  obs::Counter& resaves;

  [[nodiscard]] static DbMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static DbMetrics metrics{
        registry.counter("pathloss.db.loads"),
        registry.counter("pathloss.db.load_bytes"),
        registry.counter("pathloss.db.load_failures"),
        registry.counter("pathloss.db.rebuilds"),
        registry.counter("pathloss.db.resaves"),
    };
    return metrics;
  }
};

struct CacheMetrics {
  obs::Counter& lookups;
  obs::Counter& builds;
  obs::Counter& shard_waits;

  [[nodiscard]] static CacheMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static CacheMetrics metrics{
        registry.counter("pathloss.cache.lookups"),
        registry.counter("pathloss.cache.builds"),
        registry.counter("pathloss.cache.shard_waits"),
    };
    return metrics;
  }
};

/// The pool's wake/handoff overhead beats the per-entry checksum work at
/// small entry counts — BENCH_pathloss.json's 495-entry DB parallel-loaded
/// ~18% slower than serial — so load() stays serial below this many
/// entries. (Measured crossover on the bench box; results are identical
/// either way, only the wall clock moves.)
constexpr std::size_t kSerialLoadCutoff =
    PathLossDatabase::kParallelLoadThreshold;

[[nodiscard]] std::size_t load_threads(std::size_t entries,
                                       std::size_t threads) {
  return entries < kSerialLoadCutoff ? 1 : threads;
}

template <typename T>
void append_pod(std::vector<char>& out, const T& value) {
  const auto* p = reinterpret_cast<const char*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Checksum of one database entry: geometry ints then raw gain bytes, so a
/// flipped bit anywhere in the entry is caught.
[[nodiscard]] std::uint64_t entry_checksum(std::int32_t sector,
                                           std::int32_t tilt,
                                           const SectorFootprint& footprint) {
  const auto window = footprint.window();
  return format::entry_checksum_raw(
      sector, tilt, footprint.col0(), footprint.row0(),
      footprint.window_cols(), footprint.window_rows(), window.data(),
      window.size() * sizeof(float));
}

/// save()'s crash-consistent write. Bytes go to a fresh temp file next to
/// the target; commit() fsyncs it, renames it over the target and fsyncs
/// the directory. The target is therefore only ever the complete old file
/// or the complete new one, and a reader that has the old file mapped
/// keeps the old inode. Destroying an uncommitted file removes the temp.
class ReplacingFile {
 public:
  explicit ReplacingFile(std::string path) : path_(std::move(path)) {
    static std::atomic<std::uint64_t> serial{0};
    std::string process;
#if MAGUS_HAS_FSYNC
    process = std::to_string(::getpid()) + ".";
#endif
    temp_path_ =
        path_ + ".tmp." + process + std::to_string(serial.fetch_add(1));
    file_ = std::fopen(temp_path_.c_str(), "wbx");  // never clobbers
    if (file_ == nullptr) {
      throw std::runtime_error("PathLossDatabase: cannot create " +
                               temp_path_);
    }
  }
  ReplacingFile(const ReplacingFile&) = delete;
  ReplacingFile& operator=(const ReplacingFile&) = delete;

  ~ReplacingFile() {
    if (file_ != nullptr) std::fclose(file_);
    if (!committed_) std::remove(temp_path_.c_str());
  }

  void write(const void* data, std::size_t bytes) {
    if (std::fwrite(data, 1, bytes, file_) != bytes) fail();
  }

  void commit() {
    if (std::fflush(file_) != 0) fail();
#if MAGUS_HAS_FSYNC
    if (::fsync(::fileno(file_)) != 0) fail();
#endif
    const int closed = std::fclose(file_);
    file_ = nullptr;
    if (closed != 0) fail();
    std::error_code error;
    std::filesystem::rename(temp_path_, path_, error);
    if (error) fail();
    committed_ = true;
#if MAGUS_HAS_FSYNC
    // Makes the rename itself durable. Best-effort: the new file is
    // already in place, and some filesystems refuse directory fsync.
    const std::string dir =
        std::filesystem::path{path_}.parent_path().string();
    const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                          O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
      (void)::fsync(fd);
      ::close(fd);
    }
#endif
  }

 private:
  [[noreturn]] void fail() const {
    throw std::runtime_error("PathLossDatabase: write failed for " + path_);
  }

  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
  bool committed_ = false;
};

}  // namespace

PathLossDatabase::PathLossDatabase(geo::GridMap grid)
    : grid_(std::move(grid)) {}

void PathLossDatabase::insert(net::SectorId sector, radio::TiltIndex tilt,
                              SectorFootprint footprint) {
  if (footprint.cell_count() !=
      static_cast<std::size_t>(grid_.cell_count())) {
    throw std::invalid_argument(
        "PathLossDatabase::insert: footprint does not match grid");
  }
  entries_.insert_or_assign(Key{sector, tilt}, std::move(footprint));
}

bool PathLossDatabase::contains(net::SectorId sector,
                                radio::TiltIndex tilt) const {
  return entries_.contains(Key{sector, tilt});
}

const SectorFootprint& PathLossDatabase::footprint(net::SectorId sector,
                                                   radio::TiltIndex tilt) {
  const auto it = entries_.find(Key{sector, tilt});
  if (it == entries_.end()) {
    throw std::out_of_range("PathLossDatabase: missing matrix for sector " +
                            std::to_string(sector) + " tilt " +
                            std::to_string(tilt));
  }
  return it->second;
}

std::size_t PathLossDatabase::resident_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, footprint] : entries_) {
    bytes += footprint.resident_bytes();
  }
  return bytes;
}

void PathLossDatabase::save(const std::string& path,
                            std::size_t threads) const {
  MAGUS_TRACE_SPAN("pathloss.db_save", "io.db");
  std::vector<const std::pair<const Key, SectorFootprint>*> items;
  items.reserve(entries_.size());
  for (const auto& item : entries_) items.push_back(&item);

  // Plane layout in key order: each non-empty gain plane starts on the
  // next page boundary after the previous one (empty windows get no plane
  // and offset 0). Pure arithmetic, so the layout — like the checksums
  // below — is identical for any thread count.
  const std::uint64_t dir_end =
      format::kHeaderBytes + items.size() * format::kDirEntryBytes;
  std::vector<std::uint64_t> offsets(items.size(), 0);
  std::uint64_t payload_end = dir_end;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t window_bytes =
        items[i]->second.window().size() * sizeof(float);
    if (window_bytes == 0) continue;
    offsets[i] = format::align_up_page(payload_end);
    payload_end = offsets[i] + window_bytes;
  }

  // The checksums are the expensive part; fan them out per entry.
  std::vector<std::uint64_t> checksums(items.size(), 0);
  util::ThreadPool pool{threads};
  pool.run(items.size(), [&](std::size_t /*worker*/, std::size_t i) {
    const auto& [key, footprint] = *items[i];
    checksums[i] = entry_checksum(key.first, key.second, footprint);
  });

  // Header + directory, then the checksum sealing both.
  std::vector<char> front;
  front.reserve(dir_end);
  append_pod(front, format::kMagic);
  append_pod(front, format::kVersion);
  append_pod(front, grid_.area().min.x_m);
  append_pod(front, grid_.area().min.y_m);
  append_pod(front, grid_.cell_size_m());
  append_pod(front, grid_.cols());
  append_pod(front, grid_.rows());
  append_pod(front, static_cast<std::uint64_t>(items.size()));
  append_pod(front, std::uint64_t{0});  // checksum, patched below
  append_pod(front, payload_end);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& [key, footprint] = *items[i];
    append_pod(front, key.first);
    append_pod(front, key.second);
    append_pod(front, footprint.col0());
    append_pod(front, footprint.row0());
    append_pod(front, footprint.window_cols());
    append_pod(front, footprint.window_rows());
    append_pod(front, offsets[i]);
    append_pod(front, checksums[i]);
  }
  const std::uint64_t checksum =
      format::front_checksum(front.data(), items.size());
  std::memcpy(front.data() + format::kChecksumOffset, &checksum,
              sizeof(checksum));

  ReplacingFile out{path};
  out.write(front.data(), front.size());
  const std::vector<char> zeros(format::kPageBytes, 0);
  std::uint64_t written = dir_end;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto window = items[i]->second.window();
    if (window.empty()) continue;
    out.write(zeros.data(), offsets[i] - written);  // < one page
    out.write(window.data(), window.size() * sizeof(float));
    written = offsets[i] + window.size() * sizeof(float);
  }
  out.commit();
}

PathLossDatabase PathLossDatabase::load(const std::string& path,
                                        std::size_t threads) {
  // io.db: the profiler buckets this span as DB I/O (see obs/profiler.h).
  MAGUS_TRACE_SPAN("pathloss.db_load", "io.db");
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("PathLossDatabase: cannot open " + path);
  DbMetrics::get().loads.add(1);
  const std::streamoff file_size = in.tellg();
  if (file_size > 0) {
    DbMetrics::get().load_bytes.add(static_cast<std::uint64_t>(file_size));
  }
  std::vector<char> bytes(file_size > 0 ? static_cast<std::size_t>(file_size)
                                        : 0);
  in.seekg(0, std::ios::beg);
  if (!bytes.empty()) {
    in.read(bytes.data(), file_size);
    if (!in) {
      throw std::runtime_error("PathLossDatabase: read failed in " + path);
    }
  }

  // Directory-driven, with the mapped provider's first-touch semantics
  // (raw-byte checksum, then construction) applied to every entry up
  // front.
  const format::Directory dir =
      format::parse_directory(bytes.data(), bytes.size(), bytes.size(), path);
  const geo::Rect area{{dir.min_x, dir.min_y},
                       {dir.min_x + dir.cols * dir.cell_size_m,
                        dir.min_y + dir.rows * dir.cell_size_m}};
  PathLossDatabase db{geo::GridMap{area, dir.cell_size_m}};
  // Per-entry checks are independent thanks to the per-entry checksums.
  // Failures are captured per entry and the lowest-index one is reported,
  // matching a serial front-to-back scan for any thread count.
  const std::size_t n = dir.entries.size();
  std::vector<SectorFootprint> built(n);
  std::vector<std::string> entry_errors(n);
  util::ThreadPool pool{load_threads(n, threads)};
  pool.run(n, [&](std::size_t /*worker*/, std::size_t i) {
    const format::DirEntry& e = dir.entries[i];
    const std::string entry_context =
        "entry " + std::to_string(i) + " of " + std::to_string(n);
    if (format::entry_checksum_raw(e.sector, e.tilt, e.col0, e.row0,
                                   e.window_cols, e.window_rows,
                                   bytes.data() + e.data_offset,
                                   e.window_bytes) != e.checksum) {
      entry_errors[i] = "PathLossDatabase: checksum mismatch (" +
                        entry_context + ", sector " +
                        std::to_string(e.sector) + " tilt " +
                        std::to_string(e.tilt) + ") in " + path;
      return;
    }
    std::vector<float> window(e.window_bytes / sizeof(float));
    std::memcpy(window.data(), bytes.data() + e.data_offset, e.window_bytes);
    try {
      built[i] = SectorFootprint{dir.cols,      dir.rows,      e.col0,
                                 e.row0,        e.window_cols, e.window_rows,
                                 std::move(window)};
    } catch (const std::invalid_argument&) {
      entry_errors[i] = "PathLossDatabase: " + entry_context +
                        " does not fit the grid in " + path;
    }
  });
  for (const std::string& error : entry_errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  for (std::size_t i = 0; i < n; ++i) {
    db.entries_.insert_or_assign(
        Key{dir.entries[i].sector, dir.entries[i].tilt}, std::move(built[i]));
  }
  return db;
}

PathLossDatabase PathLossDatabase::load_or_rebuild(
    const std::string& path, PathLossProvider& fallback,
    std::span<const net::SectorId> sectors,
    std::span<const radio::TiltIndex> tilts, LoadReport* report,
    std::size_t threads) {
  MAGUS_TRACE_SPAN("pathloss.db_load_or_rebuild", "pathloss");
  LoadReport local;
  LoadReport& out = report != nullptr ? *report : local;
  out = LoadReport{};
  try {
    PathLossDatabase db = load(path, threads);
    const geo::GridMap& expected = fallback.grid();
    if (db.grid_.cols() != expected.cols() ||
        db.grid_.rows() != expected.rows() ||
        db.grid_.cell_size_m() != expected.cell_size_m()) {
      throw std::runtime_error(
          "PathLossDatabase: grid mismatch (file " +
          std::to_string(db.grid_.cols()) + "x" +
          std::to_string(db.grid_.rows()) + " @ " +
          std::to_string(db.grid_.cell_size_m()) + " m, expected " +
          std::to_string(expected.cols()) + "x" +
          std::to_string(expected.rows()) + " @ " +
          std::to_string(expected.cell_size_m()) + " m) in " + path);
    }
    return db;
  } catch (const std::runtime_error& error) {
    out.rebuilt = true;
    out.error = error.what();
    DbMetrics::get().load_failures.add(1);
  }
  MAGUS_TRACE_SPAN("pathloss.db_rebuild", "pathloss");
  DbMetrics::get().rebuilds.add(1);
  PathLossDatabase db{fallback.grid()};
  // Fan the footprint fetches out (the provider contract requires
  // concurrency-safe footprint()), then insert in deterministic
  // (sector, tilt) order so the rebuilt database matches the serial one.
  const std::size_t jobs = sectors.size() * tilts.size();
  std::vector<const SectorFootprint*> rebuilt(jobs, nullptr);
  util::ThreadPool pool{threads};
  pool.run(jobs, [&](std::size_t /*worker*/, std::size_t i) {
    const net::SectorId sector = sectors[i / tilts.size()];
    const radio::TiltIndex tilt = tilts[i % tilts.size()];
    rebuilt[i] = &fallback.footprint(sector, tilt);
  });
  for (std::size_t i = 0; i < jobs; ++i) {
    db.insert(sectors[i / tilts.size()], tilts[i % tilts.size()],
              *rebuilt[i]);
  }
  try {
    db.save(path, threads);
    out.resaved = true;
    DbMetrics::get().resaves.add(1);
  } catch (const std::runtime_error&) {
    out.resaved = false;  // a read-only location is fine; stay in memory
  }
  return db;
}

BuildingProvider::BuildingProvider(const net::Network* network,
                                   FootprintBuilder builder)
    : network_(network), builder_(std::move(builder)) {
  if (network_ == nullptr) {
    throw std::invalid_argument("BuildingProvider: network must not be null");
  }
}

BuildingProvider::Entry& BuildingProvider::entry_for(net::SectorId sector,
                                                     radio::TiltIndex tilt) {
  const std::pair<std::int32_t, std::int32_t> key{sector, tilt};
  // Mix both key halves so co-sited tilts spread across shards.
  const auto hash = static_cast<std::size_t>(sector) * 31u +
                    static_cast<std::size_t>(tilt + 64);
  Shard& shard = shards_[hash % kShardCount];
  std::unique_lock lock{shard.mutex, std::try_to_lock};
  if (!lock.owns_lock()) {
    CacheMetrics::get().shard_waits.add(1);
    // Contended path only: the span times how long this thread blocked on
    // the shard, and its wait.lock category routes it to the profiler's
    // lock_wait bucket.
    MAGUS_TRACE_SPAN("pathloss.shard_lock", "wait.lock");
    lock.lock();
  }
  return shard.map[key];  // std::map nodes are address-stable
}

const SectorFootprint& BuildingProvider::footprint(net::SectorId sector,
                                                   radio::TiltIndex tilt) {
  CacheMetrics::get().lookups.add(1);
  Entry& entry = entry_for(sector, tilt);
  // The build runs outside every shard lock: footprints for a given
  // (sector, tilt) are deterministic, so which thread builds one does not
  // matter, only that it is built exactly once — the entry's once_flag
  // guarantees that, and a failed build resets it so a later call retries.
  std::call_once(entry.once, [&] {
    if (build_hook_) build_hook_(sector, tilt);
    entry.footprint = builder_.build(network_->sector(sector), tilt);
    built_count_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::get().builds.add(1);
  });
  return entry.footprint;
}

void BuildingProvider::prebuild(std::span<const net::SectorId> sectors,
                                std::span<const radio::TiltIndex> tilts,
                                std::size_t threads) {
  MAGUS_TRACE_SPAN("pathloss.cache_prebuild", "pathloss");
  util::ThreadPool pool{threads};
  std::vector<FootprintBuilder::Scratch> scratch(pool.size());
  pool.run(sectors.size(), [&](std::size_t worker, std::size_t i) {
    const net::SectorId sector = sectors[i];
    auto footprints = builder_.build_tilts(network_->sector(sector), tilts,
                                           &scratch[worker]);
    for (std::size_t t = 0; t < tilts.size(); ++t) {
      Entry& entry = entry_for(sector, tilts[t]);
      // A lazily built entry wins the race; the values are identical
      // either way, so dropping the fresh copy is fine.
      std::call_once(entry.once, [&] {
        if (build_hook_) build_hook_(sector, tilts[t]);
        entry.footprint = std::move(footprints[t]);
        built_count_.fetch_add(1, std::memory_order_relaxed);
        CacheMetrics::get().builds.add(1);
      });
    }
  });
}

ApproxTiltProvider::ApproxTiltProvider(PathLossProvider* inner,
                                       const net::Network* network,
                                       TiltDeltaModel delta_model)
    : inner_(inner), network_(network), delta_model_(delta_model) {
  if (inner_ == nullptr || network_ == nullptr) {
    throw std::invalid_argument(
        "ApproxTiltProvider: inner provider and network must not be null");
  }
}

const SectorFootprint& ApproxTiltProvider::footprint(net::SectorId sector,
                                                     radio::TiltIndex tilt) {
  if (tilt == 0) return inner_->footprint(sector, 0);
  // Serializes concurrent cache access; the inner provider has its own
  // locking, taken strictly after this one (no cycle).
  const std::lock_guard lock{mutex_};
  const std::pair<std::int32_t, std::int32_t> key{sector, tilt};
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const SectorFootprint& base = inner_->footprint(sector, 0);
  const geo::Point site = network_->sector(sector).position;
  const geo::GridMap& map = grid();
  std::vector<float> window(base.window().begin(), base.window().end());
  for (std::int32_t row = 0; row < base.window_rows(); ++row) {
    for (std::int32_t col = 0; col < base.window_cols(); ++col) {
      auto& value =
          window[static_cast<std::size_t>(row) * base.window_cols() + col];
      if (std::isnan(value)) continue;
      const geo::GridIndex g =
          map.at(base.col0() + col, base.row0() + row);
      const double d = geo::distance_m(map.center_of(g), site);
      value += static_cast<float>(delta_model_.delta_db(d, 0, tilt));
    }
  }
  auto [inserted, _] = cache_.emplace(
      key, SectorFootprint{base.grid_cols(), base.grid_rows(), base.col0(),
                           base.row0(), base.window_cols(), base.window_rows(),
                           std::move(window)});
  return inserted->second;
}

}  // namespace magus::pathloss
