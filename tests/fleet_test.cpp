// Fleet layer: seeded multi-market generation, the byte-budgeted
// MarketStore (LRU, eviction, bit-identical rematerialization) and the
// WavePlanner (per-market plans identical to the single-market path,
// crew-capped wave composition, journaled execution).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "fleet/wave_planner.h"
#include "test_helpers.h"
#include "util/checksum.h"

namespace magus::fleet {
namespace {

/// Tiny markets (2 km regions, handfuls of sectors) so materialization
/// stays cheap: these tests exercise the store/planner machinery, not
/// model scale.
[[nodiscard]] data::FleetParams tiny_fleet(std::size_t markets,
                                           std::uint64_t seed = 11) {
  data::FleetParams params;
  params.seed = seed;
  params.markets = markets;
  params.base.region_size_m = 2'000.0;
  params.base.study_size_m = 1'000.0;
  return params;
}

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

[[nodiscard]] StoreOptions store_options(std::string dir,
                                         std::size_t byte_budget = 0) {
  StoreOptions options;
  options.db_dir = std::move(dir);
  options.byte_budget = byte_budget;
  options.threads = 1;
  return options;
}

TEST(GenerateFleet, MarketsAreIndependentOfFleetSize) {
  const std::vector<data::MarketParams> small =
      data::generate_fleet(tiny_fleet(5));
  const std::vector<data::MarketParams> large =
      data::generate_fleet(tiny_fleet(50));
  ASSERT_EQ(small.size(), 5u);
  ASSERT_EQ(large.size(), 50u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].seed, large[i].seed) << i;
    EXPECT_EQ(small[i].morphology, large[i].morphology) << i;
  }
  // Distinct per-market seeds.
  EXPECT_NE(small[0].seed, small[1].seed);
}

TEST(GenerateFleet, MorphologyMixFollowsFractions) {
  data::FleetParams params = tiny_fleet(300);
  params.urban_fraction = 0.5;
  params.suburban_fraction = 0.3;
  int urban = 0;
  int suburban = 0;
  int rural = 0;
  for (const data::MarketParams& m : data::generate_fleet(params)) {
    switch (m.morphology) {
      case data::Morphology::kUrban: ++urban; break;
      case data::Morphology::kSuburban: ++suburban; break;
      case data::Morphology::kRural: ++rural; break;
    }
  }
  EXPECT_NEAR(urban / 300.0, 0.5, 0.1);
  EXPECT_NEAR(suburban / 300.0, 0.3, 0.1);
  EXPECT_NEAR(rural / 300.0, 0.2, 0.1);
}

TEST(GenerateFleet, RejectsBadFractions) {
  data::FleetParams params = tiny_fleet(3);
  params.urban_fraction = 0.8;
  params.suburban_fraction = 0.3;  // sums past 1
  EXPECT_THROW((void)data::generate_fleet(params), std::invalid_argument);
  params.urban_fraction = -0.1;
  params.suburban_fraction = 0.3;
  EXPECT_THROW((void)data::generate_fleet(params), std::invalid_argument);
}

TEST(MarketStore, MissBuildsThenHitsThenReloadsAcrossStores) {
  const std::string dir = fresh_dir("fleet_store_reload");
  StoreOptions options;
  options.db_dir = dir;
  options.threads = 1;
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));

  MarketStore store{specs, options};
  const auto first = store.acquire(0);
  EXPECT_TRUE(first->rebuilt());  // no database on disk yet
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 0u);

  const auto again = store.acquire(0);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(store.hits(), 1u);
  const std::size_t first_bytes = first->db_resident_bytes();

  // A brand-new store over the same directory loads from disk — no
  // rebuild — and the loaded database is byte-for-byte the saved one.
  MarketStore reopened{specs, options};
  const auto loaded = reopened.acquire(0);
  EXPECT_FALSE(loaded->rebuilt()) << loaded->load_error();
  EXPECT_EQ(loaded->db_resident_bytes(), first_bytes);
  EXPECT_EQ(loaded->db_entry_count(), first->db_entry_count());
}

TEST(MarketStore, EvictsLruUnderByteBudgetAndRematerializes) {
  const std::string dir = fresh_dir("fleet_store_evict");
  StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(3));

  // Measure one streaming market's linear-twin heap, then budget below
  // it: releasing a cold market's twins (rung 1) cannot bring the charge
  // under the budget, so rung 2 must evict the market afterwards.
  std::size_t one_market_twins = 0;
  {
    MarketStore warm{specs, options};
    const auto h0 = warm.acquire(0);
    EXPECT_TRUE(h0->streaming()) << h0->load_error();
    one_market_twins = h0->db_resident_bytes();
    ASSERT_GT(one_market_twins, 0u);
  }
  options.byte_budget = one_market_twins / 2;

  MarketStore store{specs, options};
  const auto h0 = store.acquire(0);
  ASSERT_TRUE(h0->streaming());
  const std::size_t h0_twins = h0->db_resident_bytes();
  (void)store.acquire(1);
  (void)store.acquire(2);
  EXPECT_GT(store.releases(), 0u);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_EQ(store.resident_count(), 1u);

  // Market 0 was released first (its twins are gone), then evicted (LRU).
  // The handle we still hold stays usable, and a re-acquire
  // rematerializes from disk, not from the terrain stack.
  EXPECT_FALSE(store.resident(0));
  EXPECT_EQ(h0->db_resident_bytes(), 0u);
  EXPECT_GT(h0->db_entry_count(), 0u);
  const auto h0_again = store.acquire(0);
  EXPECT_FALSE(h0_again->rebuilt()) << h0_again->load_error();
  EXPECT_TRUE(h0_again->streaming());
  EXPECT_NE(h0_again.get(), h0.get());
  EXPECT_EQ(h0_again->db_resident_bytes(), h0_twins);
}

TEST(MarketStore, StreamingReleasesFootprintsBeforeEvicting) {
  const std::string dir = fresh_dir("fleet_store_stream");
  StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));

  // Warm pass: rebuilds save the file and reopen it mapped, so both
  // handles stream; measure full residency for the budget arithmetic.
  std::size_t full0 = 0;
  std::size_t full1 = 0;
  std::size_t db0 = 0;
  {
    MarketStore warm{specs, options};
    const auto h0 = warm.acquire(0);
    EXPECT_TRUE(h0->rebuilt());
    EXPECT_TRUE(h0->streaming()) << h0->load_error();
    const auto h1 = warm.acquire(1);
    full0 = h0->resident_bytes();
    full1 = h1->resident_bytes();
    db0 = h0->db_resident_bytes();
    ASSERT_GT(db0, 0u);
  }

  // A budget both full markets bust but one full + one stripped fits:
  // rung 1 must strip the cold market's footprint heap and rung 2 must
  // never fire — partial residency instead of eviction.
  options.byte_budget = full0 + full1 - db0 / 2;
  MarketStore store{specs, options};
  const auto h0 = store.acquire(0);
  EXPECT_FALSE(h0->rebuilt()) << h0->load_error();
  EXPECT_TRUE(h0->streaming());
  (void)store.acquire(1);
  EXPECT_GT(store.releases(), 0u);
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_TRUE(store.resident(0));
  EXPECT_TRUE(store.resident(1));
  EXPECT_LE(store.resident_bytes(), options.byte_budget);
  EXPECT_LE(store.enforced_peak_bytes(), options.byte_budget);
  EXPECT_EQ(h0->db_resident_bytes(), 0u);  // stripped to the mapping

  // Re-acquiring the stripped market is a hit that re-touches its
  // footprints bit-identically at their stable addresses.
  const auto h0_again = store.acquire(0);
  EXPECT_EQ(h0_again.get(), h0.get());
  EXPECT_EQ(h0_again->db_resident_bytes(), db0);
}

TEST(MarketStore, RebuildsUnsupportedOrCorruptFileAndStreams) {
  const std::string dir = fresh_dir("fleet_store_repair");
  StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(1));
  {
    MarketStore seed_store{specs, options};
    (void)seed_store.acquire(0);  // rebuild, save
  }
  const std::string path = MarketStore{specs, options}.db_path(0);
  const auto read_file = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  const std::string pristine = read_file();

  // An old format version, then a torn file: each is refused at the
  // streaming open, rebuilt from the propagation stack, saved, and
  // reopened streaming.
  std::string old_version = pristine;
  old_version[pathloss::format::kVersionOffset] = 2;
  const std::string torn = pristine.substr(0, pristine.size() / 2);
  for (const auto& [bytes, error] :
       {std::pair{old_version, std::string{"unsupported version 2"}},
        std::pair{torn, std::string{"torn payload"}}}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    MarketStore store{specs, options};
    const auto handle = store.acquire(0);
    EXPECT_TRUE(handle->rebuilt());
    EXPECT_NE(handle->load_error().find(error), std::string::npos)
        << handle->load_error();
    EXPECT_TRUE(handle->streaming());

    // The repaired file is the pristine one and maps on the next acquire.
    EXPECT_EQ(read_file(), pristine);
    MarketStore reopened{specs, options};
    const auto again = reopened.acquire(0);
    EXPECT_FALSE(again->rebuilt()) << again->load_error();
    EXPECT_TRUE(again->streaming());
  }
}

TEST(MarketStore, UnknownMarketThrows) {
  MarketStore store{specs_from_fleet(tiny_fleet(1)),
                    store_options(fresh_dir("fleet_store_unknown"))};
  EXPECT_THROW((void)store.acquire(7), std::out_of_range);
  EXPECT_THROW((void)store.spec(7), std::out_of_range);
}

/// Fingerprints one market's upgrades through the plain single-market
/// pipeline: fresh Experiment, lazily built footprints, its own planner.
[[nodiscard]] std::uint64_t standalone_fingerprint(
    const data::MarketParams& params, std::size_t max_sites,
    const WavePlannerOptions& options) {
  data::Experiment experiment{params};
  core::Evaluator evaluator{&experiment.model(), options.utility};
  core::PlannerOptions popts = options.planner;
  popts.shared_pool = nullptr;
  popts.threads = 1;
  const core::MagusPlanner planner{&evaluator, popts};
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (const auto& targets :
       upgrade_targets_for(experiment.network(), max_sites)) {
    const core::MitigationPlan plan = planner.plan_upgrade(targets);
    hash = plan_fingerprint(plan.search.config, plan.recovery, hash);
  }
  return hash;
}

[[nodiscard]] WavePlannerOptions test_planner_options() {
  WavePlannerOptions options;
  options.planner.mode = core::TuningMode::kPower;
  options.crew_cap = 2;
  options.threads = 1;
  return options;
}

TEST(WavePlanner, PlansBitIdenticalToSingleMarketPath) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));
  MarketStore store{specs, store_options(fresh_dir("fleet_plan_identity"))};
  WavePlanner planner{&store, test_planner_options()};

  const std::vector<MarketUpgradeRequest> requests = {{0, 1},
                                                      {1, 1}};
  const FleetWavePlan plan = planner.plan(requests);
  ASSERT_EQ(plan.markets.size(), 2u);
  for (const MarketPlan& market_plan : plan.markets) {
    EXPECT_EQ(market_plan.fingerprint,
              standalone_fingerprint(
                  store.spec(market_plan.market).params, 1,
                  planner.options()))
        << "market " << market_plan.market;
  }
}

TEST(WavePlanner, EvictionNeverChangesPlans) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(3));
  const std::string dir = fresh_dir("fleet_plan_evict");
  const std::vector<MarketUpgradeRequest> requests = {
      {0, 1}, {1, 1}, {2, 1}};

  MarketStore unbounded{specs, store_options(dir)};
  WavePlanner planner_a{&unbounded, test_planner_options()};
  const FleetWavePlan plan_a = planner_a.plan(requests);
  const std::size_t budget = unbounded.peak_resident_bytes() / 2;

  MarketStore capped{specs, store_options(dir, budget)};
  WavePlanner planner_b{&capped, test_planner_options()};
  const FleetWavePlan plan_b = planner_b.plan(requests);
  // The budget forced enforcement: rung-1 footprint releases on streaming
  // markets and/or rung-2 whole-market evictions. Either way the plans
  // must not change.
  EXPECT_GT(capped.evictions() + capped.releases(), 0u);
  EXPECT_EQ(plan_a.fleet_fingerprint(), plan_b.fleet_fingerprint());

  // Re-planning a long-evicted market reproduces its fingerprint exactly.
  const FleetWavePlan replan = planner_b.plan(std::span{&requests[0], 1});
  EXPECT_EQ(replan.markets.front().fingerprint,
            plan_a.markets.front().fingerprint);
}

TEST(WavePlanner, RecoveryFloorDefersUpgrades) {
  MarketStore store{specs_from_fleet(tiny_fleet(1)),
                    store_options(fresh_dir("fleet_plan_floor"))};
  WavePlannerOptions options = test_planner_options();
  options.recovery_floor = std::numeric_limits<double>::infinity();
  WavePlanner planner{&store, options};

  const std::vector<MarketUpgradeRequest> requests = {{0, 2}};
  const FleetWavePlan plan = planner.plan(requests);
  ASSERT_EQ(plan.markets.size(), 1u);
  EXPECT_TRUE(plan.markets.front().upgrades.empty());
  EXPECT_EQ(plan.markets.front().deferred.size(), 2u);
  EXPECT_EQ(plan.wave.makespan(), 0u);

  // The per-market override wins over the fleet floor.
  const std::vector<MarketUpgradeRequest> lenient = {
      {0, 2, -std::numeric_limits<double>::infinity()}};
  const FleetWavePlan plan2 = planner.plan(lenient);
  EXPECT_EQ(plan2.markets.front().upgrades.size(), 2u);
  EXPECT_TRUE(plan2.markets.front().deferred.empty());
}

TEST(WavePlanner, ExecutesWaveWithPerMarketJournals) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));
  MarketStore store{specs, store_options(fresh_dir("fleet_exec_db"))};
  WavePlanner planner{&store, test_planner_options()};
  const std::vector<MarketUpgradeRequest> requests = {{0, 1},
                                                      {1, 1}};
  const FleetWavePlan plan = planner.plan(requests);

  FleetExecutionOptions exec_options;
  exec_options.campaign.seed = 21;
  exec_options.journal_dir = fresh_dir("fleet_exec_journals");
  const FleetExecutionResult result = planner.execute(plan, exec_options);
  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.markets.size(), 2u);
  EXPECT_EQ(result.upgrades_completed + result.upgrades_rolled_back +
                result.upgrades_skipped,
            plan.upgrades_total());
  for (const MarketExecution& market : result.markets) {
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path{exec_options.journal_dir} /
        ("market_" + std::to_string(market.market) + ".journal")));
  }

  // Distinct markets run under distinct derived campaign seeds.
  EXPECT_NE(exec::market_campaign_seed(21, 0),
            exec::market_campaign_seed(21, 1));

  // A resumed execution replays every completed market from its journal:
  // same outcomes, resume counters bumped.
  FleetExecutionOptions resume_options = exec_options;
  resume_options.resume = true;
  const FleetExecutionResult resumed = planner.execute(plan, resume_options);
  EXPECT_EQ(resumed.upgrades_completed, result.upgrades_completed);
  for (const MarketExecution& market : resumed.markets) {
    EXPECT_GE(market.result.resumes, 1);
  }
}

}  // namespace
}  // namespace magus::fleet
