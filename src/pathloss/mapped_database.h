// MappedPathLossDatabase: the zero-copy, demand-paged path-loss provider
// over a path-loss database file (see pathloss/format.h for the layout).
//
// Opening one is O(directory): the file is mmap'd, the few-KB header +
// directory are read and structurally validated (header/directory
// checksum, plane extents vs the real file size — so a truncated
// directory or a torn last page fails *at open*, never as a SIGBUS
// later), and nothing else happens. PathLossDatabase::save replaces a
// file by rename, never in place, so a mapped file is never cut short
// under its reader either. A footprint materializes lazily on its first
// footprint() touch: the entry's checksum is verified over the raw mapped
// bytes, the dB gain window is aliased zero-copy out of the mapping (the
// SectorFootprint borrowed-window mode), and only the 10^(g/10) linear
// twin is computed into the heap. A bit flip inside a gain plane is
// therefore caught on first touch, not at open — the price of not reading
// the payload up front, paid exactly once per touched entry.
//
// This is what turns cold-market acquisition from O(file) into O(touched
// footprints): a fleet market whose planning only reads tilt 0 faults in
// one plane per sector and leaves the rest of the file on disk, and the
// fleet MarketStore can release_residency() a cold market's linear twins
// (its only heap) while keeping the market open, then rematerialize them
// bit-identically on the next touch.
//
// Concurrency: footprint() is safe to call concurrently (per-entry
// double-checked materialization behind an atomic ready flag + mutex —
// a once_flag cannot re-arm, and release_residency() must). Entries are
// address-stable for the provider's lifetime, so materialize/release
// cycles hand back the *same* SectorFootprint address with bit-identical
// contents — the property the MarketStore's identity gates lean on.
// release_residency() itself is driver-thread-only: callers must ensure
// no concurrent footprint() user still reads the released twins.
//
// Portability: on platforms without mmap — or with MAGUS_NO_MMAP=1 in the
// environment — the provider falls back to positioned read()s: the
// directory parse is identical, and a first touch pread()s the plane into
// an entry-owned heap buffer instead of aliasing the mapping (laziness and
// validation order preserved; the dB window just counts as heap bytes).
// Either way the provider reads one open file from open to close: a save
// that renames a new file over the path leaves it on the old one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geo/grid_map.h"
#include "pathloss/database.h"
#include "pathloss/footprint.h"
#include "pathloss/format.h"

namespace magus::pathloss {

class MappedPathLossDatabase final : public PathLossProvider {
 public:
  /// Opens and structurally validates `path`. Throws
  /// std::runtime_error with the same messages as PathLossDatabase::load
  /// on a bad header/directory/extent.
  explicit MappedPathLossDatabase(const std::string& path);
  ~MappedPathLossDatabase() override;

  MappedPathLossDatabase(const MappedPathLossDatabase&) = delete;
  MappedPathLossDatabase& operator=(const MappedPathLossDatabase&) = delete;

  /// Lazily materializes (checksum-validated) on first touch. Throws
  /// std::out_of_range for an unknown (sector, tilt) and
  /// std::runtime_error on a checksum mismatch — a corrupted plane stays
  /// un-materialized, so a later touch re-validates and fails the same
  /// way. Safe to call concurrently.
  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;
  [[nodiscard]] const geo::GridMap& grid() const override { return grid_; }

  [[nodiscard]] bool contains(net::SectorId sector,
                              radio::TiltIndex tilt) const;
  [[nodiscard]] std::size_t entry_count() const { return count_; }
  /// Entries currently materialized (touched and not released).
  [[nodiscard]] std::size_t touched_count() const {
    return touched_.load(std::memory_order_relaxed);
  }

  /// Heap bytes currently held: linear twins of materialized entries (plus
  /// plane copies on the no-mmap fallback). The MarketStore's accounting
  /// unit — note the dB planes of an mmap'd database never show up here.
  [[nodiscard]] std::size_t resident_bytes() const {
    return heap_bytes_.load(std::memory_order_relaxed);
  }
  /// Gain-plane bytes served from the file mapping at full residency
  /// (0 on the read() fallback). File-backed and clean: the OS can evict
  /// these pages under memory pressure without asking us.
  [[nodiscard]] std::size_t mapped_bytes() const { return mapped_bytes_; }
  [[nodiscard]] std::size_t file_bytes() const { return file_bytes_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// False when running on the positioned-read fallback.
  [[nodiscard]] bool using_mmap() const { return map_ != nullptr; }

  /// Releases every materialized entry's heap (linear twins, fallback
  /// plane copies) and re-arms first-touch validation; returns the bytes
  /// freed. The next touch rematerializes bit-identically at the same
  /// address. Driver-thread-only (see the concurrency note above).
  std::size_t release_residency();

 private:
  struct Entry {
    format::DirEntry meta;
    std::mutex mutex;                ///< guards materialize/release
    std::atomic<bool> ready{false};  ///< acquire/release publication
    SectorFootprint fp;
    std::vector<float> fallback_plane;  ///< no-mmap mode only
  };

  struct CloseFile {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  using File = std::unique_ptr<std::FILE, CloseFile>;

  [[nodiscard]] static File open_file(const std::string& path);
  /// Reads `bytes` at `offset` of file_; false on a short read. Safe to
  /// call concurrently.
  [[nodiscard]] bool read_at(std::uint64_t offset, void* data,
                             std::size_t bytes) const;
  /// Reads and validates the header + directory through file_ (no
  /// mapping); sets file_bytes_. Runs in the initializer list so grid_
  /// can be built from the parsed directory.
  [[nodiscard]] format::Directory read_directory();

  [[nodiscard]] Entry* find(net::SectorId sector, radio::TiltIndex tilt);
  [[nodiscard]] const Entry* find(net::SectorId sector,
                                  radio::TiltIndex tilt) const;
  void materialize(Entry& entry);
  void unmap() noexcept;

  std::string path_;
  /// The one handle every read goes through, so the directory, the
  /// mapping and each fallback plane come from the same file even when a
  /// save renames a new one over path_ meanwhile. Closed once mapped: the
  /// mapping pins the file itself.
  File file_;
  /// Serializes seek + read on hosts without positioned reads.
  mutable std::mutex read_mutex_;
  std::size_t file_bytes_ = 0;
  /// Parsed at open; its entry list is moved into entries_ and cleared.
  format::Directory dir_;
  geo::GridMap grid_;
  std::size_t mapped_bytes_ = 0;  ///< sum of plane bytes when mmap'd
  const std::byte* map_ = nullptr;
  std::size_t map_length_ = 0;

  /// Sorted (sector, tilt) keys; entries_[i] matches keys_[i]. Sized once
  /// at open — entry addresses are stable forever after.
  std::vector<std::pair<std::int32_t, std::int32_t>> keys_;
  std::unique_ptr<Entry[]> entries_;
  std::size_t count_ = 0;

  std::atomic<std::size_t> heap_bytes_{0};
  std::atomic<std::size_t> touched_{0};
};

}  // namespace magus::pathloss
