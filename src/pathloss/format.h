// On-disk layout of the path-loss database file, shared by the writer
// and eager loader (database.cpp), the mmap provider (mapped_database.cpp)
// and the db tool. There is one format ("MAGUSPL1", version 3), a
// page-aligned section table:
//
//   [ header    | magic, version, grid, entry_count, checksum,      ]
//   [             payload end                                       ]
//   [ directory | entry_count x { 6 geometry i32, data_offset u64,  ]
//   [             entry checksum u64 }                              ]
//   [ ...zero padding to a 4096-byte page boundary...               ]
//   [ gain plane 0 | raw little-endian floats                       ]
//   [ ...zero padding...                                            ]
//   [ gain plane 1 ]  ...
//
// The header + directory are a few KB and are parsed (and their checksum
// verified) eagerly at open; gain planes start on page boundaries so an
// mmap can alias them zero-copy and the OS faults exactly the touched
// pages. Structural corruption — a damaged header or directory, a torn
// last page (file shorter than the payload end the header promises),
// trailing bytes — is caught at open, before any mapping is dereferenced
// (no SIGBUS on a short file); a bit flip *inside* a gain plane is only
// caught by the per-entry checksum on first touch, which is the deal that
// makes open O(directory) instead of O(file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/checksum.h"

namespace magus::pathloss::format {

inline constexpr std::uint64_t kMagic = 0x4D41475553504C31ULL;  // "MAGUSPL1"
inline constexpr std::uint32_t kVersion = 3;

/// Header: magic u64, version u32, min_x f64, min_y f64, cell_size f64,
/// cols i32, rows i32, entry_count u64, checksum u64, payload_end u64.
inline constexpr std::size_t kHeaderBytes = 68;
/// Offsets of the header fields readers peek at before parsing.
inline constexpr std::size_t kVersionOffset = 8;
inline constexpr std::size_t kEntryCountOffset = 44;
inline constexpr std::size_t kChecksumOffset = 52;
/// One directory record: sector, tilt, col0, row0, window_cols,
/// window_rows, data_offset, entry checksum.
inline constexpr std::size_t kDirEntryBytes = 6 * 4 + 8 + 8;
/// Gain planes start on page boundaries.
inline constexpr std::size_t kPageBytes = 4096;

[[nodiscard]] constexpr std::uint64_t align_up_page(std::uint64_t offset) {
  return (offset + (kPageBytes - 1)) & ~std::uint64_t{kPageBytes - 1};
}

/// FNV-1a over an entry's geometry ints then its raw gain bytes.
[[nodiscard]] inline std::uint64_t entry_checksum_raw(
    std::int32_t sector, std::int32_t tilt, std::int32_t col0,
    std::int32_t row0, std::int32_t window_cols, std::int32_t window_rows,
    const void* window, std::size_t window_bytes) {
  const std::int32_t geometry[] = {sector,      tilt,        col0,
                                   row0,        window_cols, window_rows};
  return util::fnv1a(window, window_bytes,
                     util::fnv1a(geometry, sizeof(geometry)));
}

/// FNV-1a sealing the header and directory: the header fields before the
/// checksum (magic through entry_count), then the entry_count directory
/// records. `front` holds the header followed by the directory. Only
/// payload_end lies outside it, and that must equal the real file size.
[[nodiscard]] inline std::uint64_t front_checksum(const char* front,
                                                  std::uint64_t entry_count) {
  return util::fnv1a(front + kHeaderBytes, entry_count * kDirEntryBytes,
                     util::fnv1a(front, kChecksumOffset));
}

/// One parsed directory record. data_offset is 0 for empty windows
/// (no plane bytes exist for them).
struct DirEntry {
  std::int32_t sector = 0;
  std::int32_t tilt = 0;
  std::int32_t col0 = 0;
  std::int32_t row0 = 0;
  std::int32_t window_cols = 0;
  std::int32_t window_rows = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t checksum = 0;
  std::size_t window_bytes = 0;
};

struct Directory {
  double min_x = 0.0;
  double min_y = 0.0;
  double cell_size_m = 0.0;
  std::int32_t cols = 0;
  std::int32_t rows = 0;
  std::uint64_t entry_count = 0;
  /// Total file size the header promises (end of the last gain plane).
  std::uint64_t payload_end = 0;
  std::vector<DirEntry> entries;
};

/// Parses and structurally validates a header + directory. `data` must
/// hold at least the header and directory bytes (callers that stream only
/// the front of the file read kHeaderBytes, then the directory);
/// `file_size` is the real on-disk size. Validates the magic/version/grid,
/// the header/directory checksum, that every plane's extent lies inside
/// [directory end, payload_end] on a page boundary, and that payload_end
/// equals file_size — so a truncated directory, a torn last page and
/// trailing garbage all fail here, at open. Throws std::runtime_error with
/// the database's usual "PathLossDatabase: ..." messages.
[[nodiscard]] Directory parse_directory(const char* data,
                                        std::size_t available,
                                        std::uint64_t file_size,
                                        const std::string& path);

}  // namespace magus::pathloss::format
