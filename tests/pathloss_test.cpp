#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "pathloss/builder.h"
#include "pathloss/database.h"
#include "pathloss/footprint.h"
#include "pathloss/parallel_builder.h"
#include "pathloss/tilt_delta.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace magus::pathloss {
namespace {

TEST(Footprint, WindowExtraction) {
  // 4x3 grid; coverage only in cells (1,1) and (2,1).
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dense(12, nan);
  dense[1 * 4 + 1] = -80.0f;
  dense[1 * 4 + 2] = -90.0f;
  const SectorFootprint fp{std::move(dense), 4, 3};
  EXPECT_EQ(fp.col0(), 1);
  EXPECT_EQ(fp.row0(), 1);
  EXPECT_EQ(fp.window_cols(), 2);
  EXPECT_EQ(fp.window_rows(), 1);
  EXPECT_EQ(fp.covered_count(), 2u);
  EXPECT_TRUE(fp.covers(5));
  EXPECT_TRUE(fp.covers(6));
  EXPECT_FALSE(fp.covers(0));
  EXPECT_FALSE(fp.covers(7));
  EXPECT_FLOAT_EQ(fp.gain_db(5), -80.0f);
  EXPECT_DOUBLE_EQ(fp.gain_or_ninf_db(0),
                   -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(fp.peak_gain_db(), -80.0);
}

TEST(Footprint, FloorFiltersWeakCells) {
  std::vector<float> dense = {-60.0f, -171.0f, SectorFootprint::kFloorDb,
                              -169.9f};
  const SectorFootprint fp{std::move(dense), 4, 1};
  EXPECT_TRUE(fp.covers(0));
  EXPECT_FALSE(fp.covers(1));   // below floor
  EXPECT_FALSE(fp.covers(2));   // at floor
  EXPECT_TRUE(fp.covers(3));
  EXPECT_EQ(fp.covered_count(), 2u);
}

TEST(Footprint, EmptyFootprint) {
  std::vector<float> dense(6, std::numeric_limits<float>::quiet_NaN());
  const SectorFootprint fp{std::move(dense), 3, 2};
  EXPECT_EQ(fp.covered_count(), 0u);
  EXPECT_FALSE(fp.covers(0));
  int visits = 0;
  fp.for_each_covered([&](geo::GridIndex, float) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(Footprint, ForEachVisitsExactlyCoveredCells) {
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dense(25, nan);
  dense[7] = -70.0f;
  dense[13] = -75.0f;
  dense[24] = -80.0f;
  const SectorFootprint fp{std::move(dense), 5, 5};
  std::vector<std::pair<geo::GridIndex, float>> visited;
  fp.for_each_covered(
      [&](geo::GridIndex g, float gain) { visited.push_back({g, gain}); });
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0].first, 7);
  EXPECT_EQ(visited[1].first, 13);
  EXPECT_EQ(visited[2].first, 24);
  EXPECT_FLOAT_EQ(visited[2].second, -80.0f);
}

TEST(Footprint, WindowConstructorValidation) {
  EXPECT_THROW(SectorFootprint(10, 10, 5, 5, 6, 6, std::vector<float>(36)),
               std::invalid_argument);  // window sticks out of the grid
  EXPECT_THROW(SectorFootprint(10, 10, 0, 0, 2, 2, std::vector<float>(3)),
               std::invalid_argument);  // wrong storage size
}

TEST(TiltDelta, UptiltHelpsFarHurtsNear) {
  const TiltDeltaModel model{radio::AntennaParams{}, 30.0};
  // Uptilt = negative tilt index.
  EXPECT_GT(model.delta_db(5000.0, 0, -2), 0.0);   // far: gains
  EXPECT_LT(model.delta_db(120.0, 0, -2), 0.0);    // near: loses
  EXPECT_DOUBLE_EQ(model.delta_db(1000.0, 1, 1), 0.0);
  // Symmetric inverse: going back cancels.
  EXPECT_NEAR(model.delta_db(3000.0, 0, -2) + model.delta_db(3000.0, -2, 0),
              0.0, 1e-9);
}

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest()
      : terrain_(3, flat()),
        grid_(geo::Rect{{0, 0}, {4000, 4000}}, 100.0),
        cache_(terrain_, grid_),
        propagation_(&terrain_, radio::SpmParams{}),
        builder_(&propagation_, &cache_, 3000.0) {}

  static terrain::TerrainParams flat() {
    terrain::TerrainParams params;
    params.elevation_range_m = 0.0;
    params.shadowing_stddev_db = 0.0;
    return params;
  }

  [[nodiscard]] net::Sector make_sector() const {
    net::Sector sector;
    sector.id = 0;
    sector.position = {2000.0, 2000.0};
    sector.azimuth_deg = 0.0;
    sector.height_m = 30.0;
    return sector;
  }

  terrain::Terrain terrain_;
  geo::GridMap grid_;
  terrain::TerrainGridCache cache_;
  radio::PropagationModel propagation_;
  FootprintBuilder builder_;
};

TEST_F(BuilderTest, RangeCutoffBoundsWindow) {
  const auto fp = builder_.build(make_sector(), 0);
  EXPECT_GT(fp.covered_count(), 0u);
  fp.for_each_covered([&](geo::GridIndex g, float) {
    EXPECT_LE(geo::distance_m(grid_.center_of(g), geo::Point{2000.0, 2000.0}),
              3000.0);
  });
}

TEST_F(BuilderTest, GainStrongerTowardBoresight) {
  const auto fp = builder_.build(make_sector(), 0);
  // 1 km north (boresight) vs 1 km south (back lobe).
  const geo::GridIndex ahead = grid_.index_of({2050.0, 3050.0});
  const geo::GridIndex behind = grid_.index_of({2050.0, 950.0});
  ASSERT_TRUE(fp.covers(ahead));
  if (fp.covers(behind)) {
    EXPECT_GT(fp.gain_db(ahead), fp.gain_db(behind) + 10.0f);
  }
}

TEST_F(BuilderTest, RejectsNulls) {
  EXPECT_THROW(FootprintBuilder(nullptr, &cache_), std::invalid_argument);
  EXPECT_THROW(FootprintBuilder(&propagation_, nullptr),
               std::invalid_argument);
  EXPECT_THROW(FootprintBuilder(&propagation_, &cache_, 0.0),
               std::invalid_argument);
}

TEST_F(BuilderTest, DatabaseRoundTrip) {
  const net::Sector sector = make_sector();
  PathLossDatabase db{grid_};
  db.insert(0, 0, builder_.build(sector, 0));
  db.insert(0, -2, builder_.build(sector, -2));
  EXPECT_EQ(db.entry_count(), 2u);
  EXPECT_TRUE(db.contains(0, 0));
  EXPECT_FALSE(db.contains(1, 0));

  const std::string path = ::testing::TempDir() + "/magus_pl_test.bin";
  db.save(path);
  PathLossDatabase loaded = PathLossDatabase::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.entry_count(), 2u);
  ASSERT_EQ(loaded.grid().cell_count(), grid_.cell_count());
  const auto& original = db.footprint(0, 0);
  const auto& restored = loaded.footprint(0, 0);
  EXPECT_EQ(original.covered_count(), restored.covered_count());
  original.for_each_covered([&](geo::GridIndex g, float gain) {
    ASSERT_TRUE(restored.covers(g));
    EXPECT_FLOAT_EQ(restored.gain_db(g), gain);
  });
  EXPECT_THROW((void)loaded.footprint(5, 0), std::out_of_range);
}

TEST_F(BuilderTest, DatabaseLoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/magus_pl_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a database";
  }
  EXPECT_THROW((void)PathLossDatabase::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)PathLossDatabase::load("/nonexistent/nope.bin"),
               std::runtime_error);
}

TEST_F(BuilderTest, BuildingProviderCaches) {
  net::Network network;
  net::Sector sector = make_sector();
  sector.site = 0;
  network.add_sector(sector);
  BuildingProvider provider{&network, builder_};
  EXPECT_EQ(provider.built_count(), 0u);
  const auto& fp1 = provider.footprint(0, 0);
  EXPECT_EQ(provider.built_count(), 1u);
  const auto& fp2 = provider.footprint(0, 0);
  EXPECT_EQ(&fp1, &fp2);  // cached, stable reference
  (void)provider.footprint(0, -1);
  EXPECT_EQ(provider.built_count(), 2u);
}

TEST_F(BuilderTest, ApproxTiltMatchesExactDirection) {
  net::Network network;
  net::Sector sector = make_sector();
  sector.site = 0;
  network.add_sector(sector);
  BuildingProvider exact{&network, builder_};
  BuildingProvider inner{&network, builder_};
  ApproxTiltProvider approx{&inner, &network,
                            TiltDeltaModel{sector.antenna, sector.height_m}};

  const auto& exact_up = exact.footprint(0, -2);
  const auto& approx_up = approx.footprint(0, -2);
  // Compare at a far cell on boresight: both models must agree that uptilt
  // helps, within a couple of dB.
  const geo::GridIndex far = grid_.index_of({2050.0, 3950.0});
  ASSERT_TRUE(exact_up.covers(far));
  ASSERT_TRUE(approx_up.covers(far));
  const auto& base = exact.footprint(0, 0);
  EXPECT_GT(exact_up.gain_db(far), base.gain_db(far));
  EXPECT_GT(approx_up.gain_db(far), base.gain_db(far));
  EXPECT_NEAR(approx_up.gain_db(far), exact_up.gain_db(far), 2.5);
}

void expect_bitwise_equal(const SectorFootprint& a, const SectorFootprint& b) {
  ASSERT_EQ(a.grid_cols(), b.grid_cols());
  ASSERT_EQ(a.grid_rows(), b.grid_rows());
  ASSERT_EQ(a.col0(), b.col0());
  ASSERT_EQ(a.row0(), b.row0());
  ASSERT_EQ(a.window_cols(), b.window_cols());
  ASSERT_EQ(a.window_rows(), b.window_rows());
  const auto wa = a.window();
  const auto wb = b.window();
  ASSERT_EQ(wa.size(), wb.size());
  // memcmp instead of element compares: NaN (uncovered) must match too.
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

TEST_F(BuilderTest, BatchedMatchesReferenceOnFlatTerrain) {
  // Flat terrain has no diffraction, so the batched kernel and the legacy
  // per-cell reference share every input; only float rounding of the
  // staged isotropic plane and sqrt-vs-hypot distances separate them.
  const net::Sector sector = make_sector();
  for (const radio::TiltIndex tilt : {-2, 0, 3}) {
    const auto reference = builder_.build_reference(sector, tilt);
    const auto batched = builder_.build(sector, tilt);
    ASSERT_EQ(batched.covered_count(), reference.covered_count());
    reference.for_each_covered([&](geo::GridIndex g, float gain) {
      ASSERT_TRUE(batched.covers(g)) << "cell " << g;
      EXPECT_NEAR(batched.gain_db(g), gain, 0.01) << "cell " << g;
    });
  }
}

TEST_F(BuilderTest, BuildTiltsMatchesSingleBuilds) {
  const net::Sector sector = make_sector();
  const std::vector<radio::TiltIndex> tilts = {-2, 0, 1, 4};
  const auto batch = builder_.build_tilts(sector, tilts);
  ASSERT_EQ(batch.size(), tilts.size());
  for (std::size_t t = 0; t < tilts.size(); ++t) {
    const auto single = builder_.build(sector, tilts[t]);
    expect_bitwise_equal(batch[t], single);
  }
}

// The batched kernel's radial diffraction profiles quantize the ray
// bearing (one ray per boundary cell) and sample at a fixed radial step,
// so on rough terrain individual cells near an obstruction edge may
// disagree with the per-cell reference sampler. The disagreement must stay
// bounded: small on average, rare in the tail, and with near-identical
// coverage.
class HillyBuilderTest : public ::testing::Test {
 protected:
  HillyBuilderTest()
      : terrain_(11, hilly()),
        grid_(geo::Rect{{0, 0}, {6000, 6000}}, 100.0),
        cache_(terrain_, grid_),
        propagation_(&terrain_, radio::SpmParams{}),
        builder_(&propagation_, &cache_, 2500.0) {}

  static terrain::TerrainParams hilly() {
    terrain::TerrainParams params;  // default 120 m relief, 6 dB shadowing
    return params;
  }

  terrain::Terrain terrain_;
  geo::GridMap grid_;
  terrain::TerrainGridCache cache_;
  radio::PropagationModel propagation_;
  FootprintBuilder builder_;
};

TEST_F(HillyBuilderTest, BatchedCloseToReferenceOnRoughTerrain) {
  net::Sector sector;
  sector.id = 0;
  sector.position = {2600.0, 3100.0};
  sector.azimuth_deg = 120.0;
  sector.height_m = 30.0;
  const auto reference = builder_.build_reference(sector, 0);
  const auto batched = builder_.build(sector, 0);

  std::size_t both = 0;
  std::size_t disagree_coverage = 0;
  std::size_t over_3db = 0;
  double sum_abs = 0.0;
  for (geo::GridIndex g = 0; g < grid_.cell_count(); ++g) {
    const bool in_ref = reference.covers(g);
    const bool in_batched = batched.covers(g);
    if (in_ref != in_batched) {
      ++disagree_coverage;
      continue;
    }
    if (!in_ref) continue;
    ++both;
    const double diff = std::fabs(reference.gain_db(g) - batched.gain_db(g));
    sum_abs += diff;
    if (diff > 3.0) ++over_3db;
    // The knife-edge term is capped at 30 dB, bounding any single cell.
    EXPECT_LE(diff, 30.0 * propagation_.params().k4 + 0.01) << "cell " << g;
  }
  ASSERT_GT(both, 500u);
  EXPECT_LT(static_cast<double>(disagree_coverage) /
                static_cast<double>(both + disagree_coverage),
            0.10);
  EXPECT_LT(sum_abs / static_cast<double>(both), 1.0);
  EXPECT_LT(static_cast<double>(over_3db) / static_cast<double>(both), 0.08);
}

TEST_F(BuilderTest, ParallelBuilderBitwiseIdenticalAcrossThreadCounts) {
  net::Network network;
  std::vector<net::SectorId> sectors;
  for (std::int32_t i = 0; i < 4; ++i) {
    net::Sector sector = make_sector();
    sector.id = i;
    sector.site = i / 2;
    sector.position = {1200.0 + 600.0 * i, 900.0 + 500.0 * i};
    sector.azimuth_deg = 90.0 * i;
    network.add_sector(sector);
    sectors.push_back(i);
  }
  const std::vector<radio::TiltIndex> tilts = {-2, 0, 2};

  // Serial ground truth: one FootprintBuilder::build per (sector, tilt).
  PathLossDatabase serial{grid_};
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      serial.insert(s, t, builder_.build(network.sector(s), t));
    }
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelFootprintBuilder parallel{builder_, threads};
    PathLossDatabase db = parallel.build_database(network, sectors, tilts);
    ASSERT_EQ(db.entry_count(), serial.entry_count()) << threads;
    for (const net::SectorId s : sectors) {
      for (const radio::TiltIndex t : tilts) {
        expect_bitwise_equal(db.footprint(s, t), serial.footprint(s, t));
      }
    }
    // Byte-identical on disk too (save order is key order, not build order).
    const std::string serial_path =
        ::testing::TempDir() + "/magus_pl_serial.bin";
    const std::string parallel_path =
        ::testing::TempDir() + "/magus_pl_par.bin";
    serial.save(serial_path, 1);
    db.save(parallel_path, threads);
    EXPECT_EQ(file_bytes(serial_path), file_bytes(parallel_path)) << threads;
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
  }
}

TEST_F(BuilderTest, ParallelLoadMatchesSerialLoad) {
  const net::Sector sector = make_sector();
  PathLossDatabase db{grid_};
  for (const radio::TiltIndex tilt : {-3, -1, 0, 2, 5}) {
    db.insert(0, tilt, builder_.build(sector, tilt));
  }
  const std::string path = ::testing::TempDir() + "/magus_pl_parload.bin";
  db.save(path, 4);
  PathLossDatabase serial = PathLossDatabase::load(path, 1);
  PathLossDatabase parallel = PathLossDatabase::load(path, 4);
  std::remove(path.c_str());
  ASSERT_EQ(serial.entry_count(), 5u);
  ASSERT_EQ(parallel.entry_count(), 5u);
  for (const radio::TiltIndex tilt : {-3, -1, 0, 2, 5}) {
    expect_bitwise_equal(parallel.footprint(0, tilt),
                         serial.footprint(0, tilt));
  }
}

TEST(Database, InsertValidatesGrid) {
  const geo::GridMap grid{geo::Rect{{0, 0}, {500, 500}}, 100.0};
  PathLossDatabase db{grid};
  std::vector<float> wrong(9, -80.0f);
  EXPECT_THROW(db.insert(0, 0, SectorFootprint{std::move(wrong), 3, 3}),
               std::invalid_argument);
}

// Property sweep: random sparse footprints of several shapes must survive a
// database round trip bit-exactly, and the windowed representation must
// agree with the dense input everywhere.
class FootprintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintRoundTrip, WindowAgreesWithDenseAndSurvivesDisk) {
  magus::util::Xoshiro256ss rng{GetParam()};
  const auto cols = static_cast<std::int32_t>(rng.uniform_int(3, 40));
  const auto rows = static_cast<std::int32_t>(rng.uniform_int(3, 40));
  const auto cells = static_cast<std::size_t>(cols) * rows;
  std::vector<float> dense(cells, std::numeric_limits<float>::quiet_NaN());
  for (std::size_t i = 0; i < cells; ++i) {
    if (rng.uniform() < 0.35) {
      dense[i] = static_cast<float>(rng.uniform(-169.0, -50.0));
    }
  }
  const std::vector<float> reference = dense;
  const SectorFootprint fp{std::move(dense), cols, rows};

  // Window vs dense agreement.
  std::size_t covered = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const auto g = static_cast<geo::GridIndex>(i);
    if (std::isnan(reference[i])) {
      EXPECT_FALSE(fp.covers(g));
    } else {
      ASSERT_TRUE(fp.covers(g)) << "cell " << i;
      EXPECT_FLOAT_EQ(fp.gain_db(g), reference[i]);
      ++covered;
    }
  }
  EXPECT_EQ(fp.covered_count(), covered);

  // Disk round trip.
  const geo::GridMap grid{
      geo::Rect{{0, 0}, {cols * 100.0, rows * 100.0}}, 100.0};
  PathLossDatabase db{grid};
  db.insert(0, 0, fp);
  const std::string path = ::testing::TempDir() + "/magus_fp_rt_" +
                           std::to_string(GetParam()) + ".bin";
  db.save(path);
  PathLossDatabase loaded = PathLossDatabase::load(path);
  std::remove(path.c_str());
  const auto& restored = loaded.footprint(0, 0);
  EXPECT_EQ(restored.covered_count(), covered);
  for (std::size_t i = 0; i < cells; ++i) {
    const auto g = static_cast<geo::GridIndex>(i);
    if (!std::isnan(reference[i])) {
      ASSERT_TRUE(restored.covers(g));
      EXPECT_FLOAT_EQ(restored.gain_db(g), reference[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintRoundTrip,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace magus::pathloss
