// Magus benchmark harness: one process per run, driven by perfbench/run.py.
//
//   magus_perfbench --workload fleet-plan|market-joint|fleet-execute
//                   --seed N --seconds S --trace 0|1 --dir RUN_DIR
//
// Every run sets its workload up from --seed inside RUN_DIR (path-loss
// files and journals; the directory must be fresh), then
//
//   --trace 0  repeats the workload's timed regions for --seconds and
//              reports the end-to-end metrics;
//   --trace 1  runs the timed regions once untraced, then repeats set-up
//              and timed regions once more one layer below WavePlanner
//              (public calls only, each wrapped in a span kept in memory)
//              and reports per-layer self times and counter deltas.
//
// Both modes check correctness: fingerprints repeat across repetitions
// and between the traced and untraced runs, sampled markets match a
// standalone core::MagusPlanner, timed regions never rebuild path-loss
// data, and the budgeted workload evicts. The result goes to
// RUN_DIR/result.json; human-readable progress goes to stderr.
//
// The harness only times calls into the library from outside; it adds no
// instrumentation to the library itself.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gradual.h"
#include "core/joint_search.h"
#include "core/planner.h"
#include "core/power_search.h"
#include "core/recovery.h"
#include "core/search_types.h"
#include "core/strategies.h"
#include "data/experiment.h"
#include "exec/fault_injector.h"
#include "exec/fleet_runner.h"
#include "fleet/market_store.h"
#include "fleet/wave_planner.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "traffic/campaign.h"
#include "traffic/wave.h"
#include "util/checksum.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define MAGUS_PERFBENCH_UNOPTIMIZED 1
#else
#define MAGUS_PERFBENCH_UNOPTIMIZED 0
#endif

namespace {

using namespace magus;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// The fleet fingerprint and sector count of the 100-market power-tuning
/// fleet at seed 1 (BENCH_fleet.json).
constexpr std::int64_t kFleetPlanSeed1Fingerprint = -732642021213534688LL;
constexpr std::size_t kFleetPlanSeed1Sectors = 5274;

struct WorkloadSpec {
  std::string name;
  bool fleet = true;          ///< fleet-* (WavePlanner) vs market-joint
  bool execute = false;       ///< run the planned wave through execute()
  std::size_t markets = 0;    ///< fleet size
  /// Generate the markets from this seed instead of --seed (0 = --seed);
  /// see kFixedInputsWhy.
  std::uint64_t input_seed = 0;
  std::size_t sites = 1;      ///< upgrade sites planned per market
  double region_km = 5.0;
  double study_km = 3.0;
  core::TuningMode mode = core::TuningMode::kPower;
  std::vector<radio::TiltIndex> tilts = {0};
  /// Store byte budget; 0 = unbounded.
  std::size_t budget_bytes = 0;
  /// Per-step fault probabilities of the seeded RandomFaultInjector.
  double outage_p = 0.0;
  double storm_p = 0.0;
  double reject_p = 0.0;
  int reject_attempts = 1;  ///< consecutive rejects per push-reject fault
  /// Share of each maintenance window usable for configuration work; the
  /// executor's deadline watchdog skips recovery rungs that would overrun.
  double window_utilization = 0.25;
};

/// Fleet markets re-planned through a standalone planner per run.
constexpr std::size_t kCrossChecks = 2;

// kFixedInputsWhy: market-joint and fleet-execute plan the same markets
// for every --seed. Planning cost depends on a market's layout: one
// market's per-site latencies span 1.1-3.9 s (a 4-site mean differed 2.2x
// between two seeds), and per-market latency in a fleet has a coefficient
// of variation of 0.47, so a 25-market fleet's planning rate moved 55%
// across ten seeds. No regression bound could absorb that. There --seed
// drives what is random at run time instead: the execution fault streams
// and which plans the standalone cross-check re-plans.

/// bench_fig12_convergence's default market (suburban, market index 0,
/// base seed 1).
constexpr std::uint64_t kFig12MarketSeed =
    1 + static_cast<std::uint64_t>(data::Morphology::kSuburban);

[[nodiscard]] std::vector<radio::TiltIndex> all_tilts() {
  std::vector<radio::TiltIndex> tilts;
  for (int t = -8; t <= 8; ++t) {
    tilts.push_back(static_cast<radio::TiltIndex>(t));
  }
  return tilts;
}

[[nodiscard]] WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fleet-plan") {
    spec.markets = 100;
    spec.sites = 1;
  } else if (name == "market-joint") {
    spec.fleet = false;
    spec.input_seed = kFig12MarketSeed;
    spec.markets = 1;
    spec.sites = 4;
    spec.region_km = 14.0;
    spec.study_km = 6.0;
    spec.mode = core::TuningMode::kJoint;
    spec.tilts = all_tilts();
  } else if (name == "fleet-execute") {
    spec.execute = true;
    spec.input_seed = 1;  // the first 25 markets of fleet-plan's seed-1 fleet
    spec.markets = 25;
    spec.sites = 2;
    spec.budget_bytes = 8u << 20;
    spec.outage_p = 0.15;
    spec.storm_p = 0.2;
    spec.reject_p = 0.3;
    spec.reject_attempts = 8;
    spec.window_utilization = 0.01;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

[[nodiscard]] std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct Span {
  std::string layer;
  std::string name;
  int parent = -1;
  int market = -1;
  int upgrade = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder for the one calling thread. Spans nest
/// strictly (a stack), so a span's children never overlap each other and
/// its self time is its duration minus the sum of its children's.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(std::string layer, std::string name, int market, int upgrade) {
    Span span;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.market = market;
    span.upgrade = upgrade;
    span.start_s = seconds_since(origin_);
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (open_.empty() || open_.back() != id) {
      throw std::logic_error("Tracer: spans closed out of order");
    }
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (duration minus child coverage).
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -=
            span.end_s - span.start_s;
      }
    }
    return self;
  }

  /// Writes every span as one JSON array (once, at the end of the run).
  void write(const std::string& path) const {
    util::JsonArray out;
    for (const Span& span : spans_) {
      util::JsonObject entry;
      entry.set("layer", span.layer);
      entry.set("name", span.name);
      entry.set("parent", static_cast<std::int64_t>(span.parent));
      entry.set("market", static_cast<std::int64_t>(span.market));
      entry.set("upgrade", static_cast<std::int64_t>(span.upgrade));
      entry.set("start_s", span.start_s);
      entry.set("end_s", span.end_s);
      out.push_back(std::move(entry));
    }
    util::JsonObject root;
    root.set("spans", std::move(out));
    root.write_file(path);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer* g_tracer = nullptr;  ///< non-null only inside the traced run

/// RAII span; a no-op when no tracer is installed.
class Scope {
 public:
  Scope(const char* layer, const char* name, int market = -1,
        int upgrade = -1) {
    if (g_tracer != nullptr) {
      id_ = g_tracer->begin(layer, name, market, upgrade);
    }
  }
  ~Scope() {
    if (id_ >= 0) g_tracer->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Counter deltas
// ---------------------------------------------------------------------------

/// MetricsRegistry is process-cumulative; every count this harness reports
/// is the difference of two snapshots taken around one region.
class CounterDelta {
 public:
  CounterDelta() : before_(obs::MetricsRegistry::global().snapshot()) {}

  void stop() { after_ = obs::MetricsRegistry::global().snapshot(); }

  [[nodiscard]] double count(const std::string& name) const {
    return static_cast<double>(after_.counter_value(name) -
                               before_.counter_value(name));
  }
  [[nodiscard]] double histogram_sum(const std::string& name) const {
    return sum_of(after_, name) - sum_of(before_, name);
  }

 private:
  [[nodiscard]] static double sum_of(const obs::MetricsSnapshot& snapshot,
                                     const std::string& name) {
    for (const auto& [key, histogram] : snapshot.histograms) {
      if (key == name) return histogram.sum;
    }
    return 0.0;
  }

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
      std::cerr << "CHECK FAILED: " << what << '\n';
    }
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A workload's generated inputs plus its path-loss files on disk.
struct Inputs {
  std::vector<fleet::MarketSpec> specs;
  std::size_t sectors = 0;
  fleet::StoreOptions store;
};

[[nodiscard]] std::vector<fleet::MarketSpec> generate_specs(
    const WorkloadSpec& w, std::uint64_t seed) {
  if (w.input_seed != 0) seed = w.input_seed;
  if (w.fleet) {
    data::FleetParams params;
    params.seed = seed;
    params.markets = w.markets;
    params.base.region_size_m = w.region_km * 1000.0;
    params.base.study_size_m = w.study_km * 1000.0;
    return fleet::specs_from_fleet(params);
  }
  data::MarketParams params;
  params.morphology = data::Morphology::kSuburban;
  params.seed = seed;
  params.region_size_m = w.region_km * 1000.0;
  params.study_size_m = w.study_km * 1000.0;
  return {fleet::MarketSpec{0, params}};
}

/// Generates the workload's markets and writes one v3 path-loss file per
/// market (every tilt the workload tunes) into `db_dir`, which must not
/// hold files yet. Nothing later in the run builds path-loss data.
[[nodiscard]] Inputs set_up(const WorkloadSpec& w, std::uint64_t seed,
                            const fs::path& db_dir) {
  Inputs inputs;
  {
    const Scope span{"data", "data.generate"};
    inputs.specs = generate_specs(w, seed);
    for (const fleet::MarketSpec& spec : inputs.specs) {
      inputs.sectors +=
          data::generate_market(spec.params).network.sectors().size();
    }
  }
  fs::create_directories(db_dir);
  inputs.store.db_dir = db_dir.string();
  inputs.store.threads = pool_threads();
  inputs.store.tilts = w.tilts;
  inputs.store.byte_budget = w.budget_bytes;
  const fleet::MarketStore naming{inputs.specs, inputs.store};
  for (const fleet::MarketSpec& spec : inputs.specs) {
    // Terrain, propagation stack and every (sector x tilt) matrix, saved as
    // v3 — the same build a store miss on a missing file would run.
    const Scope span{"pathloss", "pathloss.build", spec.id};
    data::Experiment experiment{spec.params, inputs.store.experiment};
    pathloss::PathLossDatabase::LoadReport report;
    const pathloss::PathLossDatabase db = experiment.open_footprint_db(
        naming.db_path(spec.id), w.tilts, pool_threads(), &report);
    if (!report.resaved) {
      throw std::runtime_error("set-up could not write " +
                               naming.db_path(spec.id));
    }
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Planning, one level below WavePlanner (traced run) — the same public
// calls MagusPlanner::plan_upgrade and WavePlanner::plan_market make.
// ---------------------------------------------------------------------------

struct PlanTally {
  double pre_plan_steps = 0;
  double polish_steps = 0;
  double search_accepted = 0;
  double search_candidates = 0;
};

[[nodiscard]] core::MitigationPlan plan_upgrade_traced(
    core::Evaluator& evaluator, const core::MagusPlanner& planner,
    const core::PlannerOptions& options,
    std::span<const net::SectorId> targets, int market, int upgrade,
    PlanTally& tally) {
  const Scope plan_span{"core", "core.plan_upgrade", market, upgrade};
  model::AnalysisModel& model = evaluator.model();
  core::MitigationPlan plan;
  plan.targets.assign(targets.begin(), targets.end());
  {
    const Scope span{"core", "core.involved", market, upgrade};
    plan.involved = planner.involved_sectors(targets);
  }
  {
    const Scope span{"model", "model.reset", market, upgrade};
    model.set_configuration(model.network().default_configuration());
  }
  if (options.pre_plan) {
    std::vector<net::SectorId> neighborhood = plan.involved;
    neighborhood.insert(neighborhood.end(), plan.targets.begin(),
                        plan.targets.end());
    {
      const Scope span{"model", "model.freeze_density", market, upgrade};
      model.freeze_uniform_ue_density();
    }
    const Scope span{"core", "core.pre_plan", market, upgrade};
    tally.pre_plan_steps += core::pre_plan_power(
        evaluator, neighborhood, options.pre_plan_step_db,
        options.pre_plan_sweeps);
  }
  plan.c_before = model.configuration();
  {
    const Scope span{"model", "model.freeze_density", market, upgrade};
    model.freeze_uniform_ue_density();
  }
  std::vector<double> baseline_rates;
  {
    const Scope span{"core", "core.evaluate", market, upgrade};
    plan.f_before = evaluator.evaluate();
    baseline_rates = core::capture_rates(model);
  }
  {
    const Scope span{"model", "model.set_active", market, upgrade};
    for (const net::SectorId t : targets) model.set_active(t, false);
  }
  {
    const Scope span{"core", "core.evaluate", market, upgrade};
    plan.f_upgrade = evaluator.evaluate();
  }
  {
    const Scope span{"core", "core.search", market, upgrade};
    if (options.mode == core::TuningMode::kJoint) {
      const core::JointSearch search{
          core::JointSearchOptions{options.tilt, options.power}};
      plan.search = search.run(planner.parallel_evaluator(), plan.involved,
                               baseline_rates);
    } else if (options.mode == core::TuningMode::kPower) {
      const core::PowerSearch search{options.power};
      plan.search = search.run(planner.parallel_evaluator(), plan.involved,
                               baseline_rates);
    } else {
      throw std::logic_error("traced planning covers power and joint modes");
    }
  }
  tally.search_accepted += plan.search.accepted_steps;
  tally.search_candidates +=
      static_cast<double>(plan.search.candidate_evaluations);
  if (options.hybrid_polish) {
    const Scope span{"core", "core.polish", market, upgrade};
    core::FeedbackOptions polish;
    polish.unit_db = options.power.unit_db;
    polish.allow_power = options.mode != core::TuningMode::kTilt;
    polish.allow_tilt = options.mode != core::TuningMode::kPower;
    polish.max_steps = options.polish_max_steps;
    const core::FeedbackRun result =
        core::run_feedback_search(evaluator, plan.involved, polish);
    if (!result.utility_per_step.empty()) {
      plan.search.utility = result.utility_per_step.back();
      plan.search.config = result.final_config;
      plan.search.accepted_steps +=
          static_cast<int>(result.utility_per_step.size());
      tally.polish_steps += static_cast<double>(result.utility_per_step.size());
    }
    plan.search.candidate_evaluations += result.probe_count;
  }
  plan.f_after = plan.search.utility;
  plan.recovery =
      core::recovery_ratio({plan.f_before, plan.f_upgrade, plan.f_after});
  {
    const Scope span{"model", "model.reset", market, upgrade};
    model.set_configuration(plan.c_before);
  }
  {
    const Scope span{"core", "core.gradual", market, upgrade};
    const core::GradualTuner tuner{options.gradual};
    plan.gradual = tuner.plan(evaluator, targets, plan.search.config);
  }
  return plan;
}

[[nodiscard]] core::PlannerOptions planner_options(const WorkloadSpec& w,
                                                   util::ThreadPool* pool) {
  core::PlannerOptions options;
  options.mode = w.mode;
  options.shared_pool = pool;
  return options;
}

[[nodiscard]] fleet::WavePlannerOptions wave_options(const WorkloadSpec& w) {
  fleet::WavePlannerOptions options;
  options.planner.mode = w.mode;
  options.threads = pool_threads();
  return options;
}

/// WavePlanner::plan, one level down: acquire, index build, per-upgrade
/// planning, local schedule, budget settle per market; wave composition
/// at the end. Same markets, same order, same pool size.
[[nodiscard]] fleet::FleetWavePlan plan_fleet_traced(
    const WorkloadSpec& w, fleet::MarketStore& store, util::ThreadPool& pool,
    PlanTally& tally) {
  const fleet::WavePlannerOptions wopts = wave_options(w);
  const core::PlannerOptions popts = planner_options(w, &pool);
  fleet::FleetWavePlan plan;
  std::vector<traffic::MarketWaveInput> chains;
  for (const fleet::MarketSpec& spec : store.specs()) {
    const Scope market_span{"fleet", "fleet.plan_market", spec.id};
    std::shared_ptr<fleet::MarketHandle> handle;
    {
      const Scope span{"fleet", "fleet.acquire", spec.id};
      handle = store.acquire(spec.id);
    }
    {
      const Scope span{"model", "model.index_build", spec.id};
      handle->model().market_context().ensure_coverage_index();
    }
    std::unique_ptr<core::Evaluator> evaluator;
    std::unique_ptr<core::MagusPlanner> planner;
    {
      const Scope span{"core", "core.planner_init", spec.id};
      evaluator = std::make_unique<core::Evaluator>(&handle->model(),
                                                    wopts.utility);
      planner = std::make_unique<core::MagusPlanner>(evaluator.get(), popts);
    }
    fleet::MarketPlan market_plan;
    market_plan.market = spec.id;
    market_plan.db_rebuilt = handle->rebuilt();
    market_plan.fingerprint = util::kFnv1aOffsetBasis;
    int upgrade = 0;
    for (const std::vector<net::SectorId>& targets :
         fleet::upgrade_targets_for(handle->network(), w.sites)) {
      const core::MitigationPlan site_plan = plan_upgrade_traced(
          *evaluator, *planner, popts, targets, spec.id, upgrade++, tally);
      traffic::PlannedUpgrade planned;
      planned.targets = site_plan.targets;
      planned.involved = site_plan.involved;
      market_plan.upgrades.push_back(std::move(planned));
      market_plan.recoveries.push_back(site_plan.recovery);
      market_plan.min_recovery =
          std::min(market_plan.min_recovery, site_plan.recovery);
      market_plan.fingerprint = fleet::plan_fingerprint(
          site_plan.search.config, site_plan.recovery, market_plan.fingerprint);
    }
    {
      const Scope span{"traffic", "traffic.schedule", spec.id};
      market_plan.schedule = traffic::schedule_campaign(
          market_plan.upgrades, wopts.max_windows_per_market);
    }
    {
      const Scope span{"fleet", "fleet.settle", spec.id};
      store.enforce_budget();
    }
    chains.push_back({market_plan.market, market_plan.schedule.window_count()});
    plan.markets.push_back(std::move(market_plan));
  }
  const Scope span{"traffic", "traffic.schedule"};
  plan.wave = traffic::compose_wave(chains, wopts.crew_cap);
  return plan;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Per-market fault stream: seeded from the market's campaign seed and the
/// upgrade index, outages drawn from the upgrade's involved sectors.
[[nodiscard]] std::function<
    std::function<std::unique_ptr<exec::FaultInjector>(std::size_t)>(
        fleet::MarketId)>
fault_factory(const WorkloadSpec& w, const fleet::FleetWavePlan& plan,
              std::uint64_t fleet_seed) {
  return [&w, &plan, fleet_seed](fleet::MarketId market) {
    const fleet::MarketPlan* market_plan = nullptr;
    for (const fleet::MarketPlan& m : plan.markets) {
      if (m.market == market) market_plan = &m;
    }
    const std::uint64_t campaign =
        exec::market_campaign_seed(fleet_seed, market);
    return [&w, market_plan, campaign](std::size_t upgrade)
               -> std::unique_ptr<exec::FaultInjector> {
      exec::RandomFaultOptions options;
      options.outage_probability_per_step = w.outage_p;
      options.storm_probability_per_step = w.storm_p;
      options.push_reject_probability_per_step = w.reject_p;
      options.reject_attempts = w.reject_attempts;
      options.outage_candidates = market_plan->upgrades.at(upgrade).involved;
      // Salted so the fault stream does not share the executor's own
      // per-upgrade seed.
      return std::make_unique<exec::RandomFaultInjector>(
          exec::upgrade_seed(campaign, upgrade) ^ 0x5EEDFA17ULL, options);
    };
  };
}

[[nodiscard]] fleet::FleetExecutionOptions execution_options(
    const WorkloadSpec& w, const fleet::FleetWavePlan& plan,
    std::uint64_t seed, const fs::path& journal_dir) {
  fleet::FleetExecutionOptions options;
  options.campaign.seed = seed;
  options.campaign.window_utilization = w.window_utilization;
  options.journal_dir = journal_dir.string();
  options.injectors = fault_factory(w, plan, seed);
  return options;
}

struct ExecTally {
  double attempted = 0;
  double failed = 0;  ///< rolled back + quarantine-skipped
  std::uint64_t fingerprint = util::kFnv1aOffsetBasis;
};

void tally_market(const exec::CampaignResult& result, fleet::MarketId market,
                  ExecTally& tally) {
  for (const exec::UpgradeResult& upgrade : result.upgrades) {
    tally.attempted += 1;
    if (upgrade.outcome != exec::UpgradeOutcome::kCompleted) tally.failed += 1;
  }
  const std::string digest = result.to_json().dump();
  tally.fingerprint = util::fnv1a(&market, sizeof(market), tally.fingerprint);
  tally.fingerprint =
      util::fnv1a(digest.data(), digest.size(), tally.fingerprint);
}

/// WavePlanner::execute, one level down: per market in wave order,
/// acquire, re-bind a planner, FleetRunner::run_market, settle.
[[nodiscard]] ExecTally execute_fleet_traced(
    const WorkloadSpec& w, fleet::MarketStore& store, util::ThreadPool& pool,
    const fleet::FleetWavePlan& plan,
    const fleet::FleetExecutionOptions& options) {
  const Scope exec_span{"exec", "exec.fleet"};
  fs::create_directories(options.journal_dir);
  const core::PlannerOptions popts = planner_options(w, &pool);
  std::vector<fleet::MarketId> order;
  for (const traffic::WaveSlot& slot : plan.wave.slots) {
    for (const auto& [market, window] : slot.assignments) {
      if (std::find(order.begin(), order.end(), market) == order.end()) {
        order.push_back(market);
      }
    }
  }
  const exec::FleetRunner runner{options.campaign};
  ExecTally tally;
  for (const fleet::MarketId market : order) {
    const auto it = std::find_if(
        plan.markets.begin(), plan.markets.end(),
        [&](const fleet::MarketPlan& m) { return m.market == market; });
    if (it == plan.markets.end() || it->upgrades.empty()) continue;
    std::shared_ptr<fleet::MarketHandle> handle;
    {
      const Scope span{"fleet", "fleet.acquire", market};
      handle = store.acquire(market);
    }
    std::unique_ptr<core::Evaluator> evaluator;
    std::unique_ptr<core::MagusPlanner> planner;
    {
      const Scope span{"core", "core.planner_init", market};
      evaluator = std::make_unique<core::Evaluator>(
          &handle->model(), core::Utility::performance());
      planner = std::make_unique<core::MagusPlanner>(evaluator.get(), popts);
    }
    exec::MarketCampaignRefs refs;
    refs.market_key = market;
    refs.upgrades = it->upgrades;
    refs.schedule = &it->schedule;
    refs.evaluator = evaluator.get();
    refs.planner = planner.get();
    refs.injector_factory = options.injectors(market);
    refs.journal_path = (fs::path{options.journal_dir} /
                         ("market_" + std::to_string(market) + ".journal"))
                            .string();
    exec::CampaignResult result;
    {
      const Scope span{"exec", "exec.run_market", market};
      result = runner.run_market(refs, false);
    }
    tally_market(result, market, tally);
    const Scope span{"fleet", "fleet.settle", market};
    store.enforce_budget();
  }
  return tally;
}

[[nodiscard]] ExecTally tally_execution(const fleet::FleetExecutionResult& r) {
  ExecTally tally;
  for (const fleet::MarketExecution& m : r.markets) {
    tally_market(m.result, m.market, tally);
  }
  return tally;
}

// ---------------------------------------------------------------------------
// Standalone cross-check: a plain Experiment + MagusPlanner, no store, no
// database file (lazy path-loss construction).
// ---------------------------------------------------------------------------

/// Fingerprint chain over upgrade sites [first, first + count) of one
/// market, planned on a fresh Experiment with its own planner and pool.
[[nodiscard]] std::uint64_t standalone_fingerprint(
    const WorkloadSpec& w, const fleet::MarketSpec& spec, std::size_t first,
    std::size_t count) {
  data::Experiment experiment{spec.params};
  core::Evaluator evaluator{&experiment.model(), core::Utility::performance()};
  core::PlannerOptions options;
  options.mode = w.mode;
  options.threads = pool_threads();
  const core::MagusPlanner planner{&evaluator, options};
  const auto targets =
      fleet::upgrade_targets_for(experiment.network(), first + count);
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (std::size_t i = first; i < targets.size(); ++i) {
    const core::MitigationPlan plan = planner.plan_upgrade(targets[i]);
    hash = fleet::plan_fingerprint(plan.search.config, plan.recovery, hash);
  }
  return hash;
}

// ---------------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path dir;
};

/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One repetition of a workload's timed regions.
struct RepResult {
  double plan_s = 0.0;
  double exec_s = 0.0;
  double upgrades = 0.0;
  /// Planning latency samples: one per plan_upgrade (market-joint), one
  /// per repetition's mean per upgrade (fleets).
  std::vector<double> upgrade_ms;
  /// Per-upgrade fingerprints (market-joint), for the standalone check.
  std::vector<std::uint64_t> upgrade_fingerprints;
  std::uint64_t plan_fingerprint = 0;
  ExecTally exec;
  double db_rebuilds = 0.0;  ///< pathloss.db.rebuilds delta
  bool any_handle_rebuilt = false;
  /// The store's misses, evictions, releases and enforced peak (MiB).
  std::array<double, 4> store{};
  fleet::FleetWavePlan plan;
};

[[nodiscard]] std::array<double, 4> store_stats(const fleet::MarketStore& s) {
  return {static_cast<double>(s.misses()), static_cast<double>(s.evictions()),
          static_cast<double>(s.releases()),
          static_cast<double>(s.enforced_peak_bytes()) / kMiB};
}

/// The timed regions of one workload over inputs set up once.
///
/// Fleet workloads plan through WavePlanner::plan (and, for
/// fleet-execute, run the wave through WavePlanner::execute) on a fresh
/// store per repetition; the path-loss files stay on disk from set-up.
/// market-joint acquires its one market when the runner is built (set-up)
/// and plans its sites through MagusPlanner::plan_upgrade.
///
/// rep(i, nullptr) is the untraced region; rep(i, &tally) does the same
/// work one layer below, through the public calls WavePlanner and
/// MagusPlanner make, each wrapped in a span.
class Runner {
 public:
  Runner(const WorkloadSpec& w, const Options& options, Inputs inputs)
      : w_(w), options_(options), inputs_(std::move(inputs)) {
    if (w_.fleet) return;
    const fleet::MarketId id = inputs_.specs.front().id;
    store_ = std::make_unique<fleet::MarketStore>(inputs_.specs, inputs_.store);
    {
      const Scope span{"fleet", "fleet.acquire", id};
      handle_ = store_->acquire(id);
    }
    pool_ = std::make_unique<util::ThreadPool>(pool_threads());
    {
      const Scope span{"model", "model.index_build", id};
      handle_->model().market_context().ensure_coverage_index();
    }
    const Scope span{"core", "core.planner_init", id};
    evaluator_ = std::make_unique<core::Evaluator>(
        &handle_->model(), core::Utility::performance());
    planner_ = std::make_unique<core::MagusPlanner>(
        evaluator_.get(), planner_options(w_, pool_.get()));
    targets_ = fleet::upgrade_targets_for(handle_->network(), w_.sites);
  }

  [[nodiscard]] RepResult rep(std::size_t index, PlanTally* tally) {
    CounterDelta counts;
    RepResult out = w_.fleet ? fleet_rep(index, tally) : market_rep(tally);
    counts.stop();
    out.db_rebuilds = counts.count("pathloss.db.rebuilds");
    out.upgrades = static_cast<double>(out.plan.upgrades_total());
    for (const fleet::MarketPlan& m : out.plan.markets) {
      out.any_handle_rebuilt = out.any_handle_rebuilt || m.db_rebuilt;
    }
    return out;
  }

  [[nodiscard]] const Inputs& inputs() const { return inputs_; }

 private:
  [[nodiscard]] RepResult fleet_rep(std::size_t index, PlanTally* tally) {
    RepResult out;
    fleet::MarketStore store{inputs_.specs, inputs_.store};
    const fs::path journals =
        options_.dir / ("journals_" + std::to_string(index));
    if (tally == nullptr) {
      fleet::WavePlanner planner{&store, wave_options(w_)};
      std::vector<fleet::MarketUpgradeRequest> requests;
      for (const fleet::MarketSpec& spec : inputs_.specs) {
        requests.push_back({spec.id, w_.sites});
      }
      const auto plan_start = Clock::now();
      out.plan = planner.plan(requests);
      out.plan_s = seconds_since(plan_start);
      // A fleet repetition contributes one latency sample: its mean per
      // upgrade. The median of per-market latencies would hinge on which
      // markets a seed's fleet puts near the middle of the distribution.
      const std::size_t planned =
          std::max<std::size_t>(out.plan.upgrades_total(), 1);
      out.upgrade_ms.push_back(out.plan_s * 1000.0 /
                               static_cast<double>(planned));
      if (w_.execute) {
        const auto exec_start = Clock::now();
        const fleet::FleetExecutionResult executed = planner.execute(
            out.plan, execution_options(w_, out.plan, options_.seed, journals));
        out.exec_s = seconds_since(exec_start);
        out.exec = tally_execution(executed);
      }
    } else {
      util::ThreadPool pool{pool_threads()};
      const auto plan_start = Clock::now();
      out.plan = plan_fleet_traced(w_, store, pool, *tally);
      out.plan_s = seconds_since(plan_start);
      if (w_.execute) {
        const auto exec_start = Clock::now();
        out.exec = execute_fleet_traced(
            w_, store, pool, out.plan,
            execution_options(w_, out.plan, options_.seed, journals));
        out.exec_s = seconds_since(exec_start);
      }
    }
    out.plan_fingerprint = out.plan.fleet_fingerprint();
    out.store = store_stats(store);
    fs::remove_all(journals);
    return out;
  }

  [[nodiscard]] RepResult market_rep(PlanTally* tally) {
    RepResult out;
    fleet::MarketPlan market_plan;
    market_plan.market = handle_->id();
    market_plan.db_rebuilt = handle_->rebuilt();
    market_plan.fingerprint = util::kFnv1aOffsetBasis;
    const core::PlannerOptions popts = planner_options(w_, pool_.get());
    const auto plan_start = Clock::now();
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      const auto start = Clock::now();
      const core::MitigationPlan plan =
          tally == nullptr
              ? planner_->plan_upgrade(targets_[i])
              : plan_upgrade_traced(*evaluator_, *planner_, popts, targets_[i],
                                    handle_->id(), static_cast<int>(i), *tally);
      out.upgrade_ms.push_back(seconds_since(start) * 1000.0);
      traffic::PlannedUpgrade planned;
      planned.targets = plan.targets;
      planned.involved = plan.involved;
      market_plan.upgrades.push_back(std::move(planned));
      market_plan.recoveries.push_back(plan.recovery);
      market_plan.fingerprint = fleet::plan_fingerprint(
          plan.search.config, plan.recovery, market_plan.fingerprint);
      out.upgrade_fingerprints.push_back(fleet::plan_fingerprint(
          plan.search.config, plan.recovery, util::kFnv1aOffsetBasis));
    }
    {
      const Scope span{"traffic", "traffic.schedule", handle_->id()};
      market_plan.schedule = traffic::schedule_campaign(market_plan.upgrades);
    }
    out.plan_s = seconds_since(plan_start);
    out.plan_fingerprint = market_plan.fingerprint;
    out.plan.markets.push_back(std::move(market_plan));
    out.store = store_stats(*store_);
    return out;
  }

  const WorkloadSpec& w_;
  const Options& options_;
  Inputs inputs_;
  // market-joint: one acquire, one planner reused across upgrades.
  std::unique_ptr<fleet::MarketStore> store_;
  std::shared_ptr<fleet::MarketHandle> handle_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<core::Evaluator> evaluator_;
  std::unique_ptr<core::MagusPlanner> planner_;
  std::vector<std::vector<net::SectorId>> targets_;
};

/// Set-up into a fresh directory: generation, path-loss files and, for
/// market-joint, the store acquire.
[[nodiscard]] std::unique_ptr<Runner> set_up_runner(const WorkloadSpec& w,
                                                    const Options& options,
                                                    const fs::path& db_dir) {
  if (fs::exists(db_dir)) {
    throw std::runtime_error("set-up directory already exists: " +
                             db_dir.string());
  }
  Inputs inputs = set_up(w, options.seed, db_dir);
  return std::make_unique<Runner>(w, options, std::move(inputs));
}

void check_rep(const WorkloadSpec& w, const RepResult& rep,
               const RepResult& first, const std::string& tag,
               Checks& checks) {
  checks.expect(rep.plan_fingerprint == first.plan_fingerprint,
                "plan fingerprint repeats" + tag);
  checks.expect(rep.db_rebuilds == 0 && !rep.any_handle_rebuilt,
                "timed region rebuilt no path-loss data" + tag);
  checks.expect(rep.upgrades == first.upgrades && rep.upgrades > 0,
                "every requested upgrade was planned" + tag);
  if (!w.execute) return;
  checks.expect(rep.exec.fingerprint == first.exec.fingerprint,
                "execution fingerprint repeats" + tag);
  checks.expect(rep.exec.attempted == rep.upgrades,
                "execution attempted every planned upgrade" + tag);
  if (w.budget_bytes > 0) {
    checks.expect(rep.store[1] > 0, "budgeted store evicted" + tag);
  }
}

/// Re-plans a few fleet markets, or one market-joint upgrade, through a
/// standalone planner (no store, no database file) and compares
/// fingerprints. The picks depend on the seed and nothing is compared
/// against committed values, so any seed is checked.
void cross_check(const WorkloadSpec& w, const Options& options,
                 const Runner& runner, const RepResult& rep, Checks& checks) {
  if (!w.fleet) {
    const std::size_t pick = options.seed % rep.upgrade_fingerprints.size();
    const std::uint64_t solo =
        standalone_fingerprint(w, runner.inputs().specs.front(), pick, 1);
    checks.expect(solo == rep.upgrade_fingerprints[pick],
                  "upgrade " + std::to_string(pick) +
                      " matches the standalone planner");
    return;
  }
  const std::size_t n = rep.plan.markets.size();
  const std::size_t samples = std::min(kCrossChecks, n);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t pick = (options.seed + i * (n / samples)) % n;
    const fleet::MarketPlan& market = rep.plan.markets[pick];
    const std::uint64_t solo = standalone_fingerprint(
        w, runner.inputs().specs.at(static_cast<std::size_t>(market.market)),
        0, w.sites);
    checks.expect(solo == market.fingerprint,
                  "market " + std::to_string(market.market) +
                      " matches the standalone planner");
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> metrics;
  util::JsonObject info;  ///< sample counts, fingerprints
  double attempted = 0.0;
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// End-to-end metrics: kSetupRepeats set-ups, then timed repetitions
/// until --seconds have been spent inside timed regions.
[[nodiscard]] RunOutput run_untraced(const WorkloadSpec& w,
                                     const Options& options, Checks& checks) {
  std::vector<double> setup_s;
  std::unique_ptr<Runner> runner;
  for (int k = 0; k < kSetupRepeats; ++k) {
    runner.reset();
    if (k > 0) fs::remove_all(options.dir / ("db_" + std::to_string(k - 1)));
    const auto start = Clock::now();
    runner =
        set_up_runner(w, options, options.dir / ("db_" + std::to_string(k)));
    setup_s.push_back(seconds_since(start));
  }

  std::vector<RepResult> reps;
  double timed = 0.0;
  while (reps.empty() || timed < options.seconds) {
    reps.push_back(runner->rep(reps.size(), nullptr));
    const RepResult& r = reps.back();
    timed += r.plan_s + r.exec_s;
    std::cerr << w.name << " rep " << reps.size() - 1 << ": plan " << r.plan_s
              << " s for " << r.upgrades << " upgrades";
    if (w.execute) {
      std::cerr << ", execute " << r.exec_s << " s (" << r.exec.failed << "/"
                << r.exec.attempted << " failed)";
    }
    std::cerr << '\n';
  }
  const double rss = peak_rss_mb();

  RunOutput out;
  std::vector<double> rates;  ///< upgrades per second, one per repetition
  std::vector<double> latency_ms;
  for (const RepResult& r : reps) {
    check_rep(w, r, reps.front(), " (" + w.name + " rep)", checks);
    rates.push_back(r.upgrades / r.plan_s);
    out.attempted += r.upgrades + r.exec.attempted;
    latency_ms.insert(latency_ms.end(), r.upgrade_ms.begin(),
                      r.upgrade_ms.end());
  }
  if (w.name == "fleet-plan" && options.seed == 1) {
    checks.expect(static_cast<std::int64_t>(reps.front().plan_fingerprint) ==
                      kFleetPlanSeed1Fingerprint,
                  "fleet-plan seed-1 fleet fingerprint");
    checks.expect(runner->inputs().sectors == kFleetPlanSeed1Sectors,
                  "fleet-plan seed-1 sector count");
  }
  cross_check(w, options, *runner, reps.front(), checks);

  out.info.set("sectors", static_cast<std::int64_t>(runner->inputs().sectors));
  out.info.set("reps", static_cast<std::int64_t>(reps.size()));
  out.info.set("plan_samples", static_cast<std::int64_t>(latency_ms.size()));
  // The highest whole percentile with at least ten samples beyond it.
  const double n = static_cast<double>(latency_ms.size());
  const double top = std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0;
  if (top > 0.5) {
    out.info.set("plan_tail_quantile", top);
    out.info.set("plan_tail_ms", quantile(latency_ms, top));
  }
  out.info.set("plan_fingerprint",
               static_cast<std::int64_t>(reps.front().plan_fingerprint));
  if (w.execute) {
    out.info.set("exec_fingerprint",
                 static_cast<std::int64_t>(reps.front().exec.fingerprint));
  }
  out.metrics = {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"plans_per_s", quantile(rates, 0.5), "1/s"},
      {"plan_p50_ms", quantile(latency_ms, 0.5), "ms"},
      {"peak_rss_mb", rss, "MiB"},
  };
  return out;
}

/// Per-layer metrics: one untraced repetition as the overhead reference,
/// then set-up and one repetition again, traced, in a fresh directory.
[[nodiscard]] RunOutput run_traced(const WorkloadSpec& w,
                                   const Options& options, Checks& checks) {
  RunOutput out;
  RepResult reference;
  {
    const std::unique_ptr<Runner> runner =
        set_up_runner(w, options, options.dir / "db_reference");
    reference = runner->rep(0, nullptr);
    check_rep(w, reference, reference, " (" + w.name + " reference)", checks);
    cross_check(w, options, *runner, reference, checks);
  }
  fs::remove_all(options.dir / "db_reference");

  Tracer tracer;
  g_tracer = &tracer;
  PlanTally tally;
  RepResult traced;
  CounterDelta counts;
  {
    const Scope root{"trace", "trace.run"};
    Inputs inputs = set_up(w, options.seed, options.dir / "db_traced");
    counts = CounterDelta{};
    Runner runner{w, options, std::move(inputs)};
    traced = runner.rep(1, &tally);
    counts.stop();
  }
  g_tracer = nullptr;
  tracer.write((options.dir / "spans.json").string());
  out.attempted = reference.upgrades + reference.exec.attempted +
                  traced.upgrades + traced.exec.attempted;

  check_rep(w, traced, reference, " (" + w.name + " traced)", checks);
  checks.expect(counts.count("pathloss.db.rebuilds") == 0,
                "traced region rebuilt no path-loss data");

  // Self time per layer and per span name; the root span's self time is
  // the unattributed residual.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_times();
  std::map<std::string, double> layer_self;
  std::map<std::string, double> name_self;
  double wall = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      wall += spans[i].end_s - spans[i].start_s;
      continue;
    }
    layer_self[spans[i].layer] += self[i];
    name_self[spans[i].name] += self[i];
  }
  double attributed = 0.0;
  for (const auto& [layer, seconds] : layer_self) attributed += seconds;
  const double traced_work = traced.plan_s + traced.exec_s;
  const double reference_work = reference.plan_s + reference.exec_s;
  const auto self_of = [&](const char* name) {
    const auto it = name_self.find(name);
    return it == name_self.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  out.info.set("span_count", static_cast<std::int64_t>(spans.size()));
  out.info.set("plan_fingerprint",
               static_cast<std::int64_t>(traced.plan_fingerprint));
  out.metrics = {
      {"fleet.acquire_s", self_of("fleet.acquire"), "s"},
      {"fleet.settle_s", self_of("fleet.settle"), "s"},
      {"fleet.misses", traced.store[0], "count"},
      {"fleet.evictions", traced.store[1], "count"},
      {"fleet.releases", traced.store[2], "count"},
      {"fleet.enforced_peak_mb", traced.store[3], "MiB"},
      {"pathloss.build_s", self_of("pathloss.build"), "s"},
      {"pathloss.first_touches", counts.count("pathloss.mmap.first_touches"),
       "count"},
      {"pathloss.touch_mb", counts.count("pathloss.mmap.touch_bytes") / kMiB,
       "MiB"},
      {"model.reset_s", self_of("model.reset"), "s"},
      {"model.index_build_s", self_of("model.index_build"), "s"},
      {"model.rebuilds", counts.count("model.rebuilds"), "count"},
      {"model.index_builds", counts.count("model.index.builds"), "count"},
      {"model.add_cells", counts.count("model.kernel.add_cells"), "count"},
      {"core.pre_plan_s", self_of("core.pre_plan"), "s"},
      {"core.polish_s", self_of("core.polish"), "s"},
      {"core.pre_plan_steps", tally.pre_plan_steps, "count"},
      {"core.polish_steps", tally.polish_steps, "count"},
      {"core.search_s", self_of("core.search"), "s"},
      {"core.gradual_s", self_of("core.gradual"), "s"},
      {"core.evals", counts.count("evaluator.evals"), "count"},
      {"core.batches", counts.count("evaluator.batches"), "count"},
      {"core.accept_ratio",
       ratio(tally.search_accepted, tally.search_candidates), "ratio"},
      {"core.queue_wait_s",
       counts.histogram_sum("evaluator.queue_wait_us") / 1e6, "s"},
      {"traffic.schedule_s", self_of("traffic.schedule"), "s"},
      {"exec.run_s", self_of("exec.run_market"), "s"},
      {"exec.upgrades_per_s", ratio(traced.exec.attempted, traced.exec_s),
       "1/s"},
      {"exec.fail_ratio", ratio(traced.exec.failed, traced.exec.attempted),
       "ratio"},
      {"exec.steps", counts.count("exec.steps"), "count"},
      {"exec.retries", counts.count("exec.retries"), "count"},
      {"exec.replans", counts.count("exec.replans"), "count"},
      {"exec.rollbacks", counts.count("exec.rollbacks"), "count"},
      {"exec.journal_appends", counts.count("exec.journal.appends"), "count"},
      {"exec.journal_mb", counts.count("exec.journal.append_bytes") / kMiB,
       "MiB"},
      {"data.generate_s", self_of("data.generate"), "s"},
      {"trace.wall_s", wall, "s"},
      {"trace.overhead", ratio(traced_work - reference_work, reference_work),
       "ratio"},
      {"trace.unattributed_s", wall - attributed, "s"},
  };
  for (const char* layer :
       {"fleet", "pathloss", "model", "core", "traffic", "exec", "data"}) {
    const auto it = layer_self.find(layer);
    out.metrics.push_back({std::string{layer} + ".self_s",
                           it == layer_self.end() ? 0.0 : it->second, "s"});
  }
  return out;
}

[[nodiscard]] util::JsonObject provenance(const Options& options) {
  util::JsonObject out = obs::run_metadata_json();
  out.set("simd_backend", util::simd::kBackendName);
  out.set("nproc",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  out.set("threads", static_cast<std::int64_t>(pool_threads()));
  out.set("seed", static_cast<std::int64_t>(options.seed));
  out.set("workload", options.workload);
  out.set("seconds", options.seconds);
  out.set("trace", options.trace);
  return out;
}

[[nodiscard]] Options parse(int argc, char** argv) {
  Options options;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
      have_dir = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_dir) {
    throw std::invalid_argument("--workload and --dir are required");
  }
  return options;
}

/// The library's build type as stamped into run metadata.
[[nodiscard]] bool measurable_build() {
  const std::string meta = obs::run_metadata_json().dump();
  for (const char* refused : {"\"Debug\"", "\"Sanitize\"", "\"Tsan\""}) {
    if (meta.find(refused) != std::string::npos) return false;
  }
  return MAGUS_PERFBENCH_UNOPTIMIZED == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!measurable_build()) {
    std::cerr << "refusing to measure a Debug, Sanitize or Tsan build\n";
    return 2;
  }
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 2;
  }
  try {
    const WorkloadSpec w = workload_spec(options.workload);
    Checks checks;
    RunOutput run = options.trace ? run_traced(w, options, checks)
                                  : run_untraced(w, options, checks);

    util::JsonObject metrics;
    for (const Metric& m : run.metrics) {
      util::JsonObject entry;
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
    }
    util::JsonArray failures;
    for (const std::string& f : checks.failures()) failures.push_back(f);
    const auto attempted =
        std::max<std::int64_t>(static_cast<std::int64_t>(run.attempted), 1);
    util::JsonObject result;
    result.set("correct", checks.ok());
    result.set("attempted", attempted);
    result.set("failed", checks.ok() ? std::int64_t{0} : attempted);
    result.set("metrics", std::move(metrics));
    result.set("check_failures", std::move(failures));
    result.set("info", std::move(run.info));
    result.set("provenance", provenance(options));
    result.write_file((options.dir / "result.json").string());
  } catch (const std::exception& error) {
    std::cerr << "benchmark run failed: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
