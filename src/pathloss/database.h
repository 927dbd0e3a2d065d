// Path-loss providers: the interface the analysis model consumes, plus an
// in-memory database with a checksummed binary file format (our stand-in for
// the operator's Atoll feed, which is "refreshed periodically" — §4.2) and
// two computing providers (faithful per-tilt rebuild vs the paper's
// tilt-delta approximation).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "geo/grid_map.h"
#include "net/network.h"
#include "pathloss/builder.h"
#include "pathloss/footprint.h"
#include "pathloss/tilt_delta.h"

namespace magus::pathloss {

/// Source of L_b(T, g) matrices. Implementations may build lazily, so the
/// accessor is non-const; returned references stay valid for the provider's
/// lifetime. footprint() must be safe to call concurrently: a provider is
/// shared (via model::MarketContext) by every evaluation thread, so the
/// lazily-caching implementations serialize cache access internally.
class PathLossProvider {
 public:
  virtual ~PathLossProvider() = default;

  [[nodiscard]] virtual const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) = 0;
  [[nodiscard]] virtual const geo::GridMap& grid() const = 0;
};

/// Fully materialized database, e.g. loaded from disk.
class PathLossDatabase final : public PathLossProvider {
 public:
  explicit PathLossDatabase(geo::GridMap grid);

  /// Inserts or replaces the matrix for (sector, tilt). Throws
  /// std::invalid_argument if the footprint's cell count mismatches the grid.
  void insert(net::SectorId sector, radio::TiltIndex tilt,
              SectorFootprint footprint);

  [[nodiscard]] bool contains(net::SectorId sector,
                              radio::TiltIndex tilt) const;
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  /// Heap bytes resident across all entries (gain windows + linear twins).
  /// This is what the fleet MarketStore accounts against its byte budget —
  /// a whole-fleet footprint never has to be resident at once.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Throws std::out_of_range when the matrix is missing.
  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;

  [[nodiscard]] const geo::GridMap& grid() const override { return grid_; }

  /// Binary serialization in the one on-disk format (pathloss/format.h):
  /// header + checksummed directory + page-aligned raw gain planes, each
  /// entry carrying an FNV-1a checksum over its geometry and gain bytes.
  /// A truncated, bit-flipped or oversized file is rejected with a
  /// specific std::runtime_error message ("truncated header", "bad
  /// magic", "unsupported version", "checksum mismatch", "oversized
  /// window", "does not fit the grid", "torn payload", "trailing bytes",
  /// ...) instead of being silently mis-read into the model.
  ///
  /// save() is crash-consistent: it writes a temp file in the target's
  /// directory, fsyncs it, renames it over `path` and fsyncs the
  /// directory. A crash leaves either the old file or the new one, a
  /// process that has the old file mapped keeps reading the old bytes
  /// (no SIGBUS from a file truncated under its mapping), and a failed
  /// save leaves the old file untouched and no temp file behind.
  ///
  /// `threads` parallelizes the per-entry work — checksum computation on
  /// save; checksum validation plus footprint construction (the 10^(g/10)
  /// precompute) on load — across a util::ThreadPool (0 = hardware
  /// concurrency). Saved bytes and loaded databases are identical for any
  /// thread count; when several entries are corrupted, the reported
  /// error is the lowest-index one. Below kParallelLoadThreshold entries
  /// load() runs single-threaded regardless of `threads`: at small entry
  /// counts the pool's wake/handoff overhead exceeds the checksum work
  /// (measured crossover on the bench box; BENCH_pathloss.json's 495
  /// entries parallel-loaded ~18% *slower* than serial before this).
  ///
  /// load() materializes every entry eagerly; MappedPathLossDatabase
  /// (mapped_database.h) opens the same file zero-copy in O(directory).
  static constexpr std::size_t kParallelLoadThreshold = 1024;
  void save(const std::string& path, std::size_t threads = 1) const;
  [[nodiscard]] static PathLossDatabase load(const std::string& path,
                                             std::size_t threads = 1);

  /// Outcome report for load_or_rebuild.
  struct LoadReport {
    bool rebuilt = false;    ///< true when the file was unusable
    bool resaved = false;    ///< true when the rebuilt db was written back
    std::string error;       ///< the load failure message, when rebuilt
  };

  /// Loads `path`; when the file is missing/corrupted/mismatched (an old
  /// format version included), falls back to recomputing every (sector,
  /// tilt) pair from `fallback` (e.g. a BuildingProvider over the
  /// propagation model) and best-effort re-saves the repaired database to
  /// `path`. A loaded file whose grid disagrees with `fallback.grid()`
  /// counts as mismatched and triggers the rebuild too. `report`, when
  /// non-null, says what happened. `threads` applies to the load, the
  /// rebuild (fallback.footprint is required to be concurrency-safe, per
  /// the provider contract) and the re-save; the resulting database is
  /// identical for any thread count.
  [[nodiscard]] static PathLossDatabase load_or_rebuild(
      const std::string& path, PathLossProvider& fallback,
      std::span<const net::SectorId> sectors,
      std::span<const radio::TiltIndex> tilts, LoadReport* report = nullptr,
      std::size_t threads = 1);

 private:
  using Key = std::pair<std::int32_t, std::int32_t>;

  geo::GridMap grid_;
  std::map<Key, SectorFootprint> entries_;
};

/// Computes matrices on demand from the propagation model and caches them.
/// Faithful tilt handling: each (sector, tilt) gets a full rebuild.
//
/// The cache is sharded by key with per-entry build-once semantics: a
/// lookup takes its shard's mutex only long enough to pin the entry node
/// (std::map nodes are address-stable), then builds outside any lock under
/// the entry's std::once_flag. Concurrent fetches of *different* keys
/// never serialize behind one build — a cache miss on one sector used to
/// stall every evaluation worker behind a single global mutex.
class BuildingProvider final : public PathLossProvider {
 public:
  /// `network` must outlive the provider; `builder` is copied.
  BuildingProvider(const net::Network* network, FootprintBuilder builder);

  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;
  [[nodiscard]] const geo::GridMap& grid() const override {
    return builder_.grid();
  }

  /// Builds every (sector, tilt) matrix up front across `threads` workers
  /// (0 = hardware concurrency) and installs them in the cache, so later
  /// footprint() calls are pure lookups. Per-sector jobs share radial
  /// profiles and isotropic planes across tilts (FootprintBuilder::
  /// build_tilts); entries some thread already built lazily are kept —
  /// both paths produce bitwise-identical matrices.
  void prebuild(std::span<const net::SectorId> sectors,
                std::span<const radio::TiltIndex> tilts,
                std::size_t threads = 0);

  /// Number of matrices built so far (for the ablation bench's cost story).
  [[nodiscard]] std::size_t built_count() const {
    return built_count_.load(std::memory_order_relaxed);
  }

  /// Test hook, called at the start of every cache-miss build — outside
  /// all shard locks, before any work. Lets tests stall one key's build
  /// and verify other keys stay servable. Set before sharing the provider
  /// across threads; not synchronized itself.
  void set_build_hook(
      std::function<void(net::SectorId, radio::TiltIndex)> hook) {
    build_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    std::once_flag once;
    SectorFootprint footprint;
  };
  /// Cache-line-padded so concurrent lookups on different shards never
  /// false-share the mutexes.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::map<std::pair<std::int32_t, std::int32_t>, Entry> map;
  };
  static constexpr std::size_t kShardCount = 16;

  /// Pins the (stable) cache node for a key, creating it if needed. Holds
  /// the shard mutex only for the map operation, never across a build.
  [[nodiscard]] Entry& entry_for(net::SectorId sector, radio::TiltIndex tilt);

  const net::Network* network_;
  FootprintBuilder builder_;
  std::function<void(net::SectorId, radio::TiltIndex)> build_hook_;
  std::atomic<std::size_t> built_count_{0};
  std::array<Shard, kShardCount> shards_;
};

/// Paper-mode tilt approximation: tilt 0 comes from the inner provider;
/// other tilts are derived by applying one global distance-indexed delta
/// (§5). Much cheaper than per-tilt rebuilds, slightly less accurate.
class ApproxTiltProvider final : public PathLossProvider {
 public:
  /// `inner` and `network` must outlive the provider.
  ApproxTiltProvider(PathLossProvider* inner, const net::Network* network,
                     TiltDeltaModel delta_model);

  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;
  [[nodiscard]] const geo::GridMap& grid() const override {
    return inner_->grid();
  }

 private:
  PathLossProvider* inner_;
  const net::Network* network_;
  TiltDeltaModel delta_model_;
  std::mutex mutex_;
  std::map<std::pair<std::int32_t, std::int32_t>, SectorFootprint> cache_;
};

}  // namespace magus::pathloss
