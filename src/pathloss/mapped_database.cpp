#include "pathloss/mapped_database.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#define MAGUS_HAS_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define MAGUS_HAS_MMAP 0
#endif

namespace magus::pathloss {

namespace {

struct MmapMetrics {
  obs::Counter& opens;
  obs::Counter& first_touches;
  obs::Counter& touch_bytes;
  obs::Counter& checksum_failures;
  obs::Counter& releases;
  obs::Counter& released_bytes;
  obs::Gauge& resident_bytes;

  [[nodiscard]] static MmapMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static MmapMetrics metrics{
        registry.counter("pathloss.mmap.opens"),
        registry.counter("pathloss.mmap.first_touches"),
        registry.counter("pathloss.mmap.touch_bytes"),
        registry.counter("pathloss.mmap.checksum_failures"),
        registry.counter("pathloss.mmap.releases"),
        registry.counter("pathloss.mmap.released_bytes"),
        registry.gauge("pathloss.mmap.resident_bytes"),
    };
    return metrics;
  }
};

[[nodiscard]] bool mmap_disabled_by_env() {
  const char* env = std::getenv("MAGUS_NO_MMAP");
  return env != nullptr && *env != '\0' && *env != '0';
}

}  // namespace

MappedPathLossDatabase::File MappedPathLossDatabase::open_file(
    const std::string& path) {
  File file{std::fopen(path.c_str(), "rb")};
  if (file == nullptr) {
    throw std::runtime_error("PathLossDatabase: cannot open " + path);
  }
  return file;
}

bool MappedPathLossDatabase::read_at(std::uint64_t offset, void* data,
                                     std::size_t bytes) const {
#if MAGUS_HAS_MMAP
  auto* out = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t got = ::pread(::fileno(file_.get()), out, bytes,
                                static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    offset += static_cast<std::uint64_t>(got);
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
#else
  const std::lock_guard lock{read_mutex_};
  return std::fseek(file_.get(), static_cast<long>(offset), SEEK_SET) == 0 &&
         std::fread(data, 1, bytes, file_.get()) == bytes;
#endif
}

format::Directory MappedPathLossDatabase::read_directory() {
  if (std::fseek(file_.get(), 0, SEEK_END) != 0) {
    throw std::runtime_error("PathLossDatabase: read failed in " + path_);
  }
  const long size = std::ftell(file_.get());
  file_bytes_ = size > 0 ? static_cast<std::size_t>(size) : 0;

  // Read the header, peek the entry count, then the directory — the only
  // bytes an open ever reads. parse_directory does all validation,
  // including rejecting a file too short for the directory it promises.
  std::vector<char> front(
      std::min<std::size_t>(file_bytes_, format::kHeaderBytes));
  if (!read_at(0, front.data(), front.size())) {
    throw std::runtime_error("PathLossDatabase: read failed in " + path_);
  }
  if (front.size() >= format::kHeaderBytes) {
    std::uint64_t count = 0;
    std::memcpy(&count, front.data() + format::kEntryCountOffset,
                sizeof(count));
    if (count <= (file_bytes_ - front.size()) / format::kDirEntryBytes) {
      const std::size_t head = front.size();
      front.resize(head +
                   static_cast<std::size_t>(count) * format::kDirEntryBytes);
      if (!read_at(head, front.data() + head, front.size() - head)) {
        throw std::runtime_error("PathLossDatabase: read failed in " + path_);
      }
    }
  }
  return format::parse_directory(front.data(), front.size(), file_bytes_,
                                 path_);
}

MappedPathLossDatabase::MappedPathLossDatabase(const std::string& path)
    : path_(path),
      file_(open_file(path_)),
      dir_(read_directory()),
      grid_(geo::Rect{{dir_.min_x, dir_.min_y},
                      {dir_.min_x + dir_.cols * dir_.cell_size_m,
                       dir_.min_y + dir_.rows * dir_.cell_size_m}},
            dir_.cell_size_m) {
  MAGUS_TRACE_SPAN("pathloss.mmap_open", "io.db");
  try {
#if MAGUS_HAS_MMAP
    if (!mmap_disabled_by_env()) {
      void* map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE,
                         ::fileno(file_.get()), 0);
      if (map == MAP_FAILED) {
        throw std::runtime_error(
            "MappedPathLossDatabase: mmap failed for " + path_);
      }
      map_ = static_cast<const std::byte*>(map);
      map_length_ = file_bytes_;
      file_.reset();  // the mapping keeps the file alive
    }
#endif
    count_ = dir_.entries.size();
    std::vector<std::size_t> order(count_);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const format::DirEntry& ea = dir_.entries[a];
      const format::DirEntry& eb = dir_.entries[b];
      return std::pair{ea.sector, ea.tilt} < std::pair{eb.sector, eb.tilt};
    });
    keys_.reserve(count_);
    entries_ = std::make_unique<Entry[]>(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      const format::DirEntry& meta = dir_.entries[order[i]];
      keys_.emplace_back(meta.sector, meta.tilt);
      entries_[i].meta = meta;
      if (map_ != nullptr) mapped_bytes_ += meta.window_bytes;
    }
    for (std::size_t i = 1; i < count_; ++i) {
      if (keys_[i] == keys_[i - 1]) {
        throw std::runtime_error(
            "PathLossDatabase: duplicate entry for sector " +
            std::to_string(keys_[i].first) + " tilt " +
            std::to_string(keys_[i].second) + " in " + path_);
      }
    }
    dir_.entries.clear();
    dir_.entries.shrink_to_fit();
  } catch (...) {
    unmap();
    throw;
  }
  MmapMetrics::get().opens.add(1);
}

MappedPathLossDatabase::~MappedPathLossDatabase() { unmap(); }

void MappedPathLossDatabase::unmap() noexcept {
#if MAGUS_HAS_MMAP
  if (map_ != nullptr) {
    ::munmap(const_cast<void*>(static_cast<const void*>(map_)), map_length_);
  }
#endif
  map_ = nullptr;
  map_length_ = 0;
}

MappedPathLossDatabase::Entry* MappedPathLossDatabase::find(
    net::SectorId sector, radio::TiltIndex tilt) {
  const std::pair<std::int32_t, std::int32_t> key{sector, tilt};
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &entries_[static_cast<std::size_t>(it - keys_.begin())];
}

const MappedPathLossDatabase::Entry* MappedPathLossDatabase::find(
    net::SectorId sector, radio::TiltIndex tilt) const {
  return const_cast<MappedPathLossDatabase*>(this)->find(sector, tilt);
}

bool MappedPathLossDatabase::contains(net::SectorId sector,
                                      radio::TiltIndex tilt) const {
  return find(sector, tilt) != nullptr;
}

void MappedPathLossDatabase::materialize(Entry& entry) {
  if (entry.ready.load(std::memory_order_acquire)) return;
  const std::lock_guard lock{entry.mutex};
  if (entry.ready.load(std::memory_order_relaxed)) return;

  const format::DirEntry& meta = entry.meta;
  const float* plane = nullptr;
  if (map_ != nullptr) {
    plane = reinterpret_cast<const float*>(map_ + meta.data_offset);
  } else if (meta.window_bytes > 0) {
    // Positioned-read fallback: same laziness and validation order, the
    // plane just lives in an entry-owned heap buffer.
    entry.fallback_plane.resize(meta.window_bytes / sizeof(float));
    if (!read_at(meta.data_offset, entry.fallback_plane.data(),
                 meta.window_bytes)) {
      entry.fallback_plane = std::vector<float>{};
      throw std::runtime_error("PathLossDatabase: read failed in " + path_);
    }
    plane = entry.fallback_plane.data();
  }

  // First-touch integrity: the checksum runs over the raw (geometry +
  // gain) bytes exactly as save wrote them, before any footprint exists.
  if (format::entry_checksum_raw(meta.sector, meta.tilt, meta.col0,
                                 meta.row0, meta.window_cols,
                                 meta.window_rows, plane,
                                 meta.window_bytes) != meta.checksum) {
    MmapMetrics::get().checksum_failures.add(1);
    entry.fallback_plane = std::vector<float>{};
    throw std::runtime_error(
        "MappedPathLossDatabase: checksum mismatch (sector " +
        std::to_string(meta.sector) + " tilt " + std::to_string(meta.tilt) +
        ") in " + path_);
  }
  try {
    entry.fp = SectorFootprint{grid_.cols(),    grid_.rows(),
                               meta.col0,       meta.row0,
                               meta.window_cols, meta.window_rows,
                               plane};
  } catch (const std::invalid_argument& error) {
    entry.fallback_plane = std::vector<float>{};
    throw std::runtime_error("MappedPathLossDatabase: " +
                             std::string{error.what()} + " in " + path_);
  }

  const std::size_t bytes =
      entry.fp.resident_bytes() +
      entry.fallback_plane.capacity() * sizeof(float);
  const std::size_t now =
      heap_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  touched_.fetch_add(1, std::memory_order_relaxed);
  MmapMetrics& metrics = MmapMetrics::get();
  metrics.first_touches.add(1);
  metrics.touch_bytes.add(meta.window_bytes);
  metrics.resident_bytes.set(static_cast<double>(now));
  entry.ready.store(true, std::memory_order_release);
}

const SectorFootprint& MappedPathLossDatabase::footprint(
    net::SectorId sector, radio::TiltIndex tilt) {
  Entry* entry = find(sector, tilt);
  if (entry == nullptr) {
    throw std::out_of_range(
        "MappedPathLossDatabase: missing matrix for sector " +
        std::to_string(sector) + " tilt " + std::to_string(tilt));
  }
  materialize(*entry);
  return entry->fp;
}

std::size_t MappedPathLossDatabase::release_residency() {
  std::size_t freed = 0;
  std::size_t released_entries = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    Entry& entry = entries_[i];
    const std::lock_guard lock{entry.mutex};
    if (!entry.ready.load(std::memory_order_relaxed)) continue;
    entry.ready.store(false, std::memory_order_release);
    freed += entry.fp.resident_bytes() +
             entry.fallback_plane.capacity() * sizeof(float);
    entry.fp = SectorFootprint{};
    entry.fallback_plane = std::vector<float>{};
    ++released_entries;
  }
  if (released_entries == 0) return 0;
  touched_.fetch_sub(released_entries, std::memory_order_relaxed);
  const std::size_t now =
      heap_bytes_.fetch_sub(freed, std::memory_order_relaxed) - freed;
  MmapMetrics& metrics = MmapMetrics::get();
  metrics.releases.add(1);
  metrics.released_bytes.add(freed);
  metrics.resident_bytes.set(static_cast<double>(now));
  return freed;
}

}  // namespace magus::pathloss
