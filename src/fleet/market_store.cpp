#include "fleet/market_store.h"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace magus::fleet {

namespace {

struct StoreMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& releases;
  obs::Gauge& resident_bytes;
  obs::Histogram& load_latency_us;

  [[nodiscard]] static StoreMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static StoreMetrics metrics{
        registry.counter("fleet.store.hits"),
        registry.counter("fleet.store.misses"),
        registry.counter("fleet.store.evictions"),
        registry.counter("fleet.store.releases"),
        registry.gauge("fleet.store.resident_bytes"),
        registry.histogram("fleet.store.load_latency_us",
                           obs::exponential_bounds(1'000.0, 4.0, 12)),
    };
    return metrics;
  }
};

}  // namespace

std::vector<MarketSpec> specs_from_fleet(const data::FleetParams& params) {
  const std::vector<data::MarketParams> fleet = data::generate_fleet(params);
  std::vector<MarketSpec> specs;
  specs.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    specs.push_back({static_cast<MarketId>(i), fleet[i]});
  }
  return specs;
}

MarketHandle::MarketHandle(const MarketSpec& spec, const StoreOptions& options,
                           std::string db_path)
    : spec_(spec),
      market_(data::generate_market(spec.params)),
      db_path_(std::move(db_path)) {
  // A usable database must sit on this market's grid and cover every
  // (sector x tilt) the store promises.
  const geo::GridMap expected{market_.region, market_.params.cell_size_m};
  const auto is_complete = [&](const pathloss::MappedPathLossDatabase& db) {
    if (db.grid().cols() != expected.cols() ||
        db.grid().rows() != expected.rows() ||
        db.grid().cell_size_m() != expected.cell_size_m()) {
      return false;
    }
    for (const auto& sector : market_.network.sectors()) {
      for (const radio::TiltIndex tilt : options.tilts) {
        if (!db.contains(sector.id, tilt)) return false;
      }
    }
    return true;
  };
  // Streaming open: read the header + directory, map the planes,
  // materialize nothing. Returns why the file is unusable, or "" once
  // mapped_db_ is set.
  const auto open_mapped = [&]() -> std::string {
    try {
      auto mapped =
          std::make_unique<pathloss::MappedPathLossDatabase>(db_path_);
      if (!is_complete(*mapped)) return "database incomplete for this market";
      mapped_db_ = std::move(mapped);
      return {};
    } catch (const std::runtime_error& e) {
      return e.what();
    }
  };

  load_error_ = open_mapped();
  if (mapped_db_ == nullptr) {
    // Rebuild rung: materialize the full stack once; open_footprint_db
    // rebuilds every (sector x tilt) matrix and best-effort re-saves, so
    // the next acquire maps the file. When the re-save landed, reopen
    // through the mapping; otherwise (unwritable db_dir) keep the eager
    // database.
    data::Experiment experiment{spec_.params, options.experiment};
    pathloss::PathLossDatabase::LoadReport report;
    db_ = std::make_unique<pathloss::PathLossDatabase>(
        experiment.open_footprint_db(db_path_, options.tilts, options.threads,
                                     &report));
    rebuilt_ = true;
    if (report.resaved && open_mapped().empty()) db_.reset();
  }
  model_ = std::make_unique<model::AnalysisModel>(
      &market_.network, &provider(), options.experiment.model);
}

pathloss::PathLossProvider& MarketHandle::provider() {
  if (mapped_db_ != nullptr) return *mapped_db_;
  return *db_;
}

std::size_t MarketHandle::db_entry_count() const {
  return mapped_db_ != nullptr ? mapped_db_->entry_count()
                               : db_->entry_count();
}

std::size_t MarketHandle::db_resident_bytes() const {
  return mapped_db_ != nullptr ? mapped_db_->resident_bytes()
                               : db_->resident_bytes();
}

std::size_t MarketHandle::resident_bytes() const {
  return db_resident_bytes() + model_->market_context().resident_bytes();
}

std::size_t MarketHandle::release_db_residency() {
  if (mapped_db_ == nullptr) return 0;
  const std::size_t freed = mapped_db_->release_residency();
  if (freed > 0) stale_ = true;
  return freed;
}

void MarketHandle::refresh() {
  if (!stale_) return;
  model_->retouch_footprints();
  stale_ = false;
}

MarketStore::MarketStore(std::vector<MarketSpec> specs, StoreOptions options)
    : specs_(std::move(specs)), options_(std::move(options)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!spec_index_.emplace(specs_[i].id, i).second) {
      throw std::invalid_argument("MarketStore: duplicate market id " +
                                  std::to_string(specs_[i].id));
    }
  }
  if (!options_.db_dir.empty()) {
    std::filesystem::create_directories(options_.db_dir);
  }
}

const MarketSpec& MarketStore::spec(MarketId id) const {
  const auto it = spec_index_.find(id);
  if (it == spec_index_.end()) {
    throw std::out_of_range("MarketStore: unknown market " +
                            std::to_string(id));
  }
  return specs_[it->second];
}

std::string MarketStore::db_path(MarketId id) const {
  return (std::filesystem::path{options_.db_dir} /
          ("market_" + std::to_string(id) + ".pldb"))
      .string();
}

void MarketStore::resample(Resident& entry) {
  const std::size_t now = entry.handle->resident_bytes();
  charged_ += now - entry.charged;
  entry.charged = now;
}

void MarketStore::resample_all() {
  for (auto& [id, entry] : resident_) resample(entry);
}

void MarketStore::evict_to_fit(MarketId keep) {
  if (options_.byte_budget == 0) {
    // Unbounded: nothing to enforce, but the settled charge is still the
    // post-enforcement peak (== peak_resident_bytes here).
    enforced_peak_ = std::max(enforced_peak_, charged_);
    return;
  }
  // Rung 1: strip cold streaming markets down to their mapped planes +
  // model half, coldest first. The market stays resident and warm — a
  // later acquire re-touches its footprints bit-identically — so this is
  // much cheaper to undo than an eviction.
  for (auto it = lru_.rbegin();
       it != lru_.rend() && charged_ > options_.byte_budget; ++it) {
    if (*it == keep) continue;
    Resident& entry = resident_.find(*it)->second;
    const std::size_t freed = entry.handle->release_db_residency();
    if (freed == 0) continue;  // eager, or nothing materialized
    resample(entry);
    ++releases_;
    StoreMetrics::get().releases.add(1);
  }
  // Rung 2: whole-market eviction, LRU-back first (never `keep`).
  while (charged_ > options_.byte_budget && lru_.size() > 1) {
    const MarketId victim = lru_.back();
    if (victim == keep) break;  // never evict the working market
    const auto it = resident_.find(victim);
    charged_ -= it->second.charged;
    lru_.erase(it->second.lru_it);
    resident_.erase(it);
    ++evictions_;
    StoreMetrics::get().evictions.add(1);
  }
  enforced_peak_ = std::max(enforced_peak_, charged_);
}

void MarketStore::enforce_budget() {
  resample_all();
  peak_ = std::max(peak_, charged_);
  const MarketId keep = lru_.empty() ? MarketId{-1} : lru_.front();
  evict_to_fit(keep);
  StoreMetrics::get().resident_bytes.set(static_cast<double>(charged_));
}

std::shared_ptr<MarketHandle> MarketStore::acquire(MarketId id) {
  StoreMetrics& metrics = StoreMetrics::get();
  if (const auto it = resident_.find(id); it != resident_.end()) {
    ++hits_;
    metrics.hits.add(1);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    // A rung-1 release may have stripped this market's footprints since
    // last acquire; re-touch them before handing the model out.
    it->second.handle->refresh();
    // Residents grow between acquires (coverage index builds lazily,
    // touches materialize footprints) and shrink under rung-1 releases;
    // keep every charge honest and re-enforce the budget.
    resample_all();
    peak_ = std::max(peak_, charged_);
    evict_to_fit(id);
    metrics.resident_bytes.set(static_cast<double>(charged_));
    return it->second.handle;
  }

  const MarketSpec& market_spec = spec(id);  // throws on unknown id
  ++misses_;
  metrics.misses.add(1);
  std::shared_ptr<MarketHandle> handle;
  {
    const obs::ScopedTimerUs timer{metrics.load_latency_us};
    handle =
        std::make_shared<MarketHandle>(market_spec, options_, db_path(id));
  }
  lru_.push_front(id);
  Resident entry{handle, lru_.begin(), handle->resident_bytes()};
  charged_ += entry.charged;
  resident_.emplace(id, std::move(entry));
  resample_all();
  peak_ = std::max(peak_, charged_);
  evict_to_fit(id);
  metrics.resident_bytes.set(static_cast<double>(charged_));
  return handle;
}

void MarketStore::clear() {
  resident_.clear();
  lru_.clear();
  charged_ = 0;
  StoreMetrics::get().resident_bytes.set(0.0);
}

}  // namespace magus::fleet
