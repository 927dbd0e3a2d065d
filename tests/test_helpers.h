// Shared fixtures for the magus test suite.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "data/experiment.h"
#include "net/network.h"
#include "pathloss/database.h"
#include "util/rng.h"

namespace magus::testing {

/// PathLossProvider with hand-authored footprints: lets tests pin exact
/// gains per (sector, tilt, cell) and assert SINR/rates analytically.
class FakeProvider final : public pathloss::PathLossProvider {
 public:
  explicit FakeProvider(geo::GridMap grid) : grid_(std::move(grid)) {}

  void set_footprint(net::SectorId sector, radio::TiltIndex tilt,
                     std::vector<float> dense_gains_db) {
    entries_.insert_or_assign(
        std::pair{sector, tilt},
        pathloss::SectorFootprint{std::move(dense_gains_db), grid_.cols(),
                                  grid_.rows()});
  }

  const pathloss::SectorFootprint& footprint(net::SectorId sector,
                                             radio::TiltIndex tilt) override {
    const auto it = entries_.find({sector, tilt});
    if (it == entries_.end()) {
      throw std::out_of_range("FakeProvider: missing footprint");
    }
    return it->second;
  }

  const geo::GridMap& grid() const override { return grid_; }

 private:
  geo::GridMap grid_;
  std::map<std::pair<std::int32_t, std::int32_t>, pathloss::SectorFootprint>
      entries_;
};

/// The on-disk format suites' database: sector 0 at tilts 0 and 1 on a
/// 4x3 grid of 100 m cells, each tilt covering cells 5 and 6 (the middle
/// row's inner pair) with gains drawn from `seed`. Its file is 8200
/// bytes: a 68-B header, two 40-B directory records and two 8-B gain
/// planes on the page boundaries 4096 and 8192, so a sweep can visit
/// every byte.
struct TwoEntryDatabase {
  geo::GridMap grid{geo::Rect{{0.0, 0.0}, {400.0, 300.0}}, 100.0};
  FakeProvider provider{grid};

  explicit TwoEntryDatabase(std::uint64_t seed) {
    util::Xoshiro256ss rng{seed};
    for (const radio::TiltIndex tilt : {0, 1}) {
      std::vector<float> dense(12, std::numeric_limits<float>::quiet_NaN());
      dense[5] = static_cast<float>(rng.uniform(-100.0, -60.0));
      dense[6] = static_cast<float>(rng.uniform(-140.0, -100.0));
      provider.set_footprint(0, tilt, std::move(dense));
    }
  }

  [[nodiscard]] pathloss::PathLossDatabase database() {
    pathloss::PathLossDatabase db{grid};
    db.insert(0, 0, provider.footprint(0, 0));
    db.insert(0, 1, provider.footprint(0, 1));
    return db;
  }
};

/// A 1-D world: `cells` cells of 100 m along the x axis, sector 0 at the
/// west end and sector 1 at the east end, gains decaying linearly in dB
/// with distance (slope_db_per_cell). Beyond `range_cells` the gain drops
/// by an extra `tail_db` (the sector's planned service edge), so taking a
/// sector down creates genuine coverage loss that moderate power boosts
/// can partially recover — the geometry of a real planned network. Both
/// sectors get footprints for tilts -1, 0, +1 (uptilt adds
/// `uptilt_gain_db` beyond half range, loses the same close in).
struct LineWorld {
  net::Network network;
  std::unique_ptr<FakeProvider> provider;
  net::SectorId west = 0;
  net::SectorId east = 1;

  LineWorld(int cells, double slope_db_per_cell, double base_gain_db = -60.0,
            double uptilt_gain_db = 3.0, double range_cells = 6.5,
            double tail_db = 18.0) {
    geo::GridMap grid{
        geo::Rect{{0.0, 0.0}, {cells * 100.0, 100.0}}, 100.0};
    provider = std::make_unique<FakeProvider>(grid);

    net::Sector west_sector;
    west_sector.site = 0;
    west_sector.position = {0.0, 50.0};
    west_sector.default_power_dbm = 40.0;
    west_sector.min_power_dbm = 20.0;
    west_sector.max_power_dbm = 46.0;
    // Footprints exist for tilts -1..1 only; clamp the tilt range to match.
    west_sector.antenna.min_tilt_index = -1;
    west_sector.antenna.max_tilt_index = 1;
    west = network.add_sector(west_sector);

    net::Sector east_sector = west_sector;
    east_sector.site = 1;
    east_sector.position = {cells * 100.0, 50.0};
    east = network.add_sector(east_sector);

    const auto gain_from = [&](double distance_cells) {
      double gain = base_gain_db - slope_db_per_cell * distance_cells;
      if (distance_cells > range_cells) gain -= tail_db;
      return static_cast<float>(gain);
    };
    for (const net::SectorId id : {west, east}) {
      for (const int tilt : {-1, 0, 1}) {
        std::vector<float> dense(static_cast<std::size_t>(cells));
        for (int c = 0; c < cells; ++c) {
          const double distance =
              id == west ? c + 0.5 : cells - c - 0.5;
          float gain = gain_from(distance);
          if (tilt == -1) {
            // Uptilt: stronger far out, weaker close in.
            gain += static_cast<float>(distance > cells / 2.0
                                           ? uptilt_gain_db
                                           : -uptilt_gain_db);
          } else if (tilt == 1) {
            gain += static_cast<float>(distance > cells / 2.0
                                           ? -uptilt_gain_db
                                           : uptilt_gain_db);
          }
          dense[static_cast<std::size_t>(c)] = gain;
        }
        provider->set_footprint(id, static_cast<radio::TiltIndex>(tilt),
                                std::move(dense));
      }
    }
    // A handful of subscribers per sector so loads and utilities are
    // non-trivial.
    network.set_subscribers(west, 10.0);
    network.set_subscribers(east, 10.0);
  }
};

/// Small generated market for cross-module tests: ~50 sectors on a 6 km
/// region, builds in well under a second.
[[nodiscard]] inline data::MarketParams small_market_params(
    data::Morphology morphology = data::Morphology::kSuburban,
    std::uint64_t seed = 42) {
  data::MarketParams params;
  params.morphology = morphology;
  params.seed = seed;
  params.region_size_m = 6'000.0;
  params.study_size_m = 3'000.0;
  params.cell_size_m = 100.0;
  params.inter_site_distance_m = 1'500.0;
  params.subscribers_per_sector_mean = 100.0;
  return params;
}

}  // namespace magus::testing
