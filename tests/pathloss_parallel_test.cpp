// Concurrency tests for the path-loss generation pipeline, built to run
// under ThreadSanitizer (this file is part of magus_parallel_tests, which
// scripts/verify.sh also builds with -fsanitize=thread):
//   - the sharded BuildingProvider under concurrent lookups,
//   - the regression that a slow build of one key does not block other keys,
//   - ParallelFootprintBuilder bitwise determinism across thread counts,
//   - parallel database save/load under worker threads.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/network.h"
#include "pathloss/builder.h"
#include "pathloss/database.h"
#include "pathloss/mapped_database.h"
#include "pathloss/parallel_builder.h"
#include "terrain/terrain.h"

namespace magus::pathloss {
namespace {

/// Small flat-terrain world: cheap enough that TSan-instrumented builds of
/// a few dozen matrices stay fast.
class PathLossParallelTest : public ::testing::Test {
 protected:
  PathLossParallelTest()
      : terrain_(5, flat()),
        grid_(geo::Rect{{0, 0}, {2000, 2000}}, 100.0),
        cache_(terrain_, grid_),
        propagation_(&terrain_, radio::SpmParams{}),
        builder_(&propagation_, &cache_, 1500.0) {
    for (std::int32_t i = 0; i < 4; ++i) {
      net::Sector sector;
      sector.id = i;
      sector.site = i / 2;
      sector.position = {500.0 + 300.0 * i, 400.0 + 350.0 * i};
      sector.azimuth_deg = 90.0 * i;
      sector.height_m = 30.0;
      network_.add_sector(sector);
      sectors_.push_back(i);
    }
  }

  static terrain::TerrainParams flat() {
    terrain::TerrainParams params;
    params.elevation_range_m = 0.0;
    params.shadowing_stddev_db = 0.0;
    return params;
  }

  terrain::Terrain terrain_;
  geo::GridMap grid_;
  terrain::TerrainGridCache cache_;
  radio::PropagationModel propagation_;
  FootprintBuilder builder_;
  net::Network network_;
  std::vector<net::SectorId> sectors_;
};

TEST_F(PathLossParallelTest, ConcurrentFetchesSeeOneStableBuildPerKey) {
  BuildingProvider provider{&network_, builder_};
  const std::vector<radio::TiltIndex> tilts = {-1, 0, 2};
  constexpr int kThreads = 8;

  // Every thread fetches every key several times; all of them must observe
  // the same footprint address per key (exactly one build, stable nodes).
  std::vector<std::vector<const SectorFootprint*>> seen(
      kThreads, std::vector<const SectorFootprint*>(sectors_.size() *
                                                    tilts.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t s = 0; s < sectors_.size(); ++s) {
          for (std::size_t k = 0; k < tilts.size(); ++k) {
            const SectorFootprint& fp =
                provider.footprint(sectors_[s], tilts[k]);
            seen[t][s * tilts.size() + k] = &fp;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(provider.built_count(), sectors_.size() * tilts.size());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

TEST_F(PathLossParallelTest, SlowBuildDoesNotBlockOtherKeys) {
  BuildingProvider provider{&network_, builder_};
  std::mutex mutex;
  std::condition_variable cv;
  bool slow_started = false;
  bool fast_done = false;
  provider.set_build_hook([&](net::SectorId sector, radio::TiltIndex) {
    if (sector != 0) return;
    std::unique_lock lock{mutex};
    slow_started = true;
    cv.notify_all();
    // Park sector 0's build until the main thread has fetched another key.
    cv.wait(lock, [&] { return fast_done; });
  });

  std::thread slow{[&] { (void)provider.footprint(0, 0); }};
  {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return slow_started; });
  }
  // Sector 0's build is parked mid-flight. With the old provider-wide
  // mutex this fetch would deadlock (the test would time out); with
  // per-entry build-once it must complete while the other build sleeps.
  const SectorFootprint& other = provider.footprint(1, 0);
  EXPECT_GT(other.covered_count(), 0u);
  EXPECT_EQ(provider.built_count(), 1u);  // slow build still parked
  {
    const std::lock_guard lock{mutex};
    fast_done = true;
  }
  cv.notify_all();
  slow.join();
  EXPECT_EQ(provider.built_count(), 2u);
}

TEST_F(PathLossParallelTest, PrebuildMatchesLazyAndRacesSafely) {
  const std::vector<radio::TiltIndex> tilts = {-1, 0, 1};

  // Lazy ground truth.
  BuildingProvider lazy{&network_, builder_};
  for (const net::SectorId s : sectors_) {
    for (const radio::TiltIndex t : tilts) (void)lazy.footprint(s, t);
  }

  // Prebuild racing a lazy fetcher: entries built on either path must be
  // bitwise identical, built exactly once, and reference-stable.
  BuildingProvider warmed{&network_, builder_};
  std::thread fetcher{[&] {
    for (const net::SectorId s : sectors_) {
      (void)warmed.footprint(s, 0);
    }
  }};
  warmed.prebuild(sectors_, tilts, 4);
  fetcher.join();

  EXPECT_EQ(warmed.built_count(), sectors_.size() * tilts.size());
  for (const net::SectorId s : sectors_) {
    for (const radio::TiltIndex t : tilts) {
      const SectorFootprint& a = lazy.footprint(s, t);
      const SectorFootprint& b = warmed.footprint(s, t);
      ASSERT_EQ(a.window().size(), b.window().size());
      EXPECT_EQ(std::memcmp(a.window().data(), b.window().data(),
                            a.window().size() * sizeof(float)),
                0)
          << "sector " << s << " tilt " << t;
    }
  }
}

TEST_F(PathLossParallelTest, BuildDatabaseBitwiseIdenticalAcrossThreads) {
  const std::vector<radio::TiltIndex> tilts = {-2, 0, 3};
  ParallelFootprintBuilder serial{builder_, 1};
  PathLossDatabase reference =
      serial.build_database(network_, sectors_, tilts);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    ParallelFootprintBuilder parallel{builder_, threads};
    PathLossDatabase db = parallel.build_database(network_, sectors_, tilts);
    ASSERT_EQ(db.entry_count(), reference.entry_count());
    for (const net::SectorId s : sectors_) {
      for (const radio::TiltIndex t : tilts) {
        const SectorFootprint& a = reference.footprint(s, t);
        const SectorFootprint& b = db.footprint(s, t);
        ASSERT_EQ(a.window().size(), b.window().size()) << threads;
        EXPECT_EQ(std::memcmp(a.window().data(), b.window().data(),
                              a.window().size() * sizeof(float)),
                  0)
            << "threads " << threads << " sector " << s << " tilt " << t;
      }
    }
  }
}

TEST_F(PathLossParallelTest, ParallelSaveLoadRoundTripUnderThreads) {
  const std::vector<radio::TiltIndex> tilts = {-1, 0, 1};
  ParallelFootprintBuilder parallel{builder_, 4};
  PathLossDatabase db = parallel.build_database(network_, sectors_, tilts);

  const std::string serial_path =
      ::testing::TempDir() + "/magus_plp_serial.bin";
  const std::string parallel_path =
      ::testing::TempDir() + "/magus_plp_parallel.bin";
  db.save(serial_path, 1);
  db.save(parallel_path, 4);

  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  EXPECT_EQ(read_all(serial_path), read_all(parallel_path));

  PathLossDatabase loaded = PathLossDatabase::load(parallel_path, 4);
  ASSERT_EQ(loaded.entry_count(), db.entry_count());
  for (const net::SectorId s : sectors_) {
    for (const radio::TiltIndex t : tilts) {
      const SectorFootprint& a = db.footprint(s, t);
      const SectorFootprint& b = loaded.footprint(s, t);
      ASSERT_EQ(a.window().size(), b.window().size());
      EXPECT_EQ(std::memcmp(a.window().data(), b.window().data(),
                            a.window().size() * sizeof(float)),
                0);
    }
  }
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST_F(PathLossParallelTest, MappedProviderConcurrentFirstTouches) {
  const std::vector<radio::TiltIndex> tilts = {-1, 0, 1};
  ParallelFootprintBuilder parallel{builder_, 4};
  PathLossDatabase db = parallel.build_database(network_, sectors_, tilts);
  const std::string path = ::testing::TempDir() + "/magus_plp_mapped.bin";
  // Saves are byte-identical for any thread count.
  const std::string serial_path = path + ".serial";
  db.save(serial_path, 1);
  db.save(path, 4);
  const auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  EXPECT_EQ(read_all(serial_path), read_all(path));
  std::remove(serial_path.c_str());

  // Every thread races first-touch materialization of every entry; all
  // must observe one stable footprint address per key, and the bytes must
  // match the eager in-memory database.
  MappedPathLossDatabase mapped{path};
  constexpr int kThreads = 8;
  std::vector<std::vector<const SectorFootprint*>> seen(
      kThreads, std::vector<const SectorFootprint*>(sectors_.size() *
                                                    tilts.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t s = 0; s < sectors_.size(); ++s) {
          for (std::size_t k = 0; k < tilts.size(); ++k) {
            seen[t][s * tilts.size() + k] =
                &mapped.footprint(sectors_[s], tilts[k]);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(mapped.touched_count(), sectors_.size() * tilts.size());
  for (const net::SectorId s : sectors_) {
    for (const radio::TiltIndex t : tilts) {
      const SectorFootprint& a = db.footprint(s, t);
      const SectorFootprint& b = mapped.footprint(s, t);
      ASSERT_EQ(a.window().size(), b.window().size());
      EXPECT_EQ(std::memcmp(a.window().data(), b.window().data(),
                            a.window().size() * sizeof(float)),
                0)
          << "sector " << s << " tilt " << t;
    }
  }
  std::remove(path.c_str());
}

TEST_F(PathLossParallelTest, MappedReleaseThenConcurrentRetouchIsIdentical) {
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  ParallelFootprintBuilder parallel{builder_, 4};
  PathLossDatabase db = parallel.build_database(network_, sectors_, tilts);
  const std::string path = ::testing::TempDir() + "/magus_plp_release.bin";
  db.save(path, 4);

  MappedPathLossDatabase mapped{path};
  const auto touch_all = [&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (const net::SectorId s : sectors_) {
          for (const radio::TiltIndex k : tilts) {
            (void)mapped.footprint(s, k);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };

  touch_all();
  const std::size_t full_bytes = mapped.resident_bytes();
  const SectorFootprint* before = &mapped.footprint(sectors_[0], 0);
  ASSERT_GT(full_bytes, 0u);

  // Quiesce (threads joined), release on the driver thread, then race the
  // re-materialization: same addresses, same bytes, same charge — the
  // re-armed double-checked path must be as safe as the first touch.
  EXPECT_EQ(mapped.release_residency(), full_bytes);
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  touch_all();
  EXPECT_EQ(mapped.resident_bytes(), full_bytes);
  const SectorFootprint* after = &mapped.footprint(sectors_[0], 0);
  EXPECT_EQ(before, after);
  const SectorFootprint& truth = db.footprint(sectors_[0], 0);
  EXPECT_EQ(std::memcmp(truth.window().data(), after->window().data(),
                        truth.window().size() * sizeof(float)),
            0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace magus::pathloss
