#include "core/planner.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/strategies.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magus::core {

namespace {

struct PlannerMetrics {
  obs::Counter& plans;
  obs::Counter& replans;
  obs::Counter& pre_plan_steps;
  obs::Counter& polish_steps;
  obs::Histogram& plan_latency_us;

  [[nodiscard]] static PlannerMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static PlannerMetrics metrics{
        registry.counter("planner.plans"),
        registry.counter("planner.replans"),
        registry.counter("planner.pre_plan_steps"),
        registry.counter("planner.polish_steps"),
        registry.histogram("planner.plan_latency_us",
                           obs::exponential_bounds(1'000.0, 4.0, 12)),
    };
    return metrics;
  }
};

}  // namespace

std::string tuning_mode_name(TuningMode mode) {
  switch (mode) {
    case TuningMode::kPower:
      return "power";
    case TuningMode::kTilt:
      return "tilt";
    case TuningMode::kJoint:
      return "joint";
    case TuningMode::kNaive:
      return "naive";
  }
  return "?";
}

MagusPlanner::MagusPlanner(Evaluator* evaluator, PlannerOptions options)
    : evaluator_(evaluator), options_(options) {
  if (evaluator_ == nullptr) {
    throw std::invalid_argument("MagusPlanner: evaluator must not be null");
  }
  parallel_ =
      options_.shared_pool != nullptr
          ? std::make_unique<ParallelEvaluator>(
                &evaluator_->model(), evaluator_->utility(),
                options_.shared_pool, options_.use_coverage_index)
          : std::make_unique<ParallelEvaluator>(
                &evaluator_->model(), evaluator_->utility(), options_.threads,
                options_.use_coverage_index);
}

SearchResult MagusPlanner::run_search(
    std::span<const net::SectorId> involved,
    std::span<const double> baseline_rates) const {
  switch (options_.mode) {
    case TuningMode::kPower: {
      const PowerSearch search{options_.power};
      return search.run(*parallel_, involved, baseline_rates);
    }
    case TuningMode::kTilt: {
      const TiltSearch search{options_.tilt};
      return search.run(*parallel_, involved);
    }
    case TuningMode::kJoint: {
      const JointSearch search{JointSearchOptions{options_.tilt,
                                                  options_.power}};
      return search.run(*parallel_, involved, baseline_rates);
    }
    case TuningMode::kNaive: {
      const NaiveSearch search{};
      return search.run(*parallel_, involved);
    }
  }
  throw std::logic_error("MagusPlanner: unknown tuning mode");
}

void MagusPlanner::polish(MitigationPlan& plan) const {
  if (!options_.hybrid_polish || options_.mode == TuningMode::kNaive) return;
  MAGUS_TRACE_SPAN("planner.polish", "planner");
  FeedbackOptions polish_options;
  polish_options.unit_db = options_.power.unit_db;
  polish_options.allow_power = options_.mode != TuningMode::kTilt;
  polish_options.allow_tilt = options_.mode != TuningMode::kPower;
  polish_options.max_steps = options_.polish_max_steps;
  const FeedbackRun result =
      run_feedback_search(*parallel_, plan.involved, polish_options);
  if (!result.utility_per_step.empty()) {
    plan.search.utility = result.utility_per_step.back();
    plan.search.config = result.final_config;
    plan.search.accepted_steps +=
        static_cast<int>(result.utility_per_step.size());
    PlannerMetrics::get().polish_steps.add(result.utility_per_step.size());
  }
  plan.search.candidate_evaluations += result.probe_count;
}

std::vector<net::SectorId> MagusPlanner::involved_sectors(
    std::span<const net::SectorId> targets,
    std::span<const net::SectorId> excluded) const {
  const net::Network& network = evaluator_->model().network();
  std::vector<net::SectorId> involved =
      network.neighbors_of(targets, options_.neighbor_radius_m);
  if (!excluded.empty()) {
    std::vector<net::SectorId> vetoed(excluded.begin(), excluded.end());
    std::sort(vetoed.begin(), vetoed.end());
    std::erase_if(involved, [&](net::SectorId s) {
      return std::binary_search(vetoed.begin(), vetoed.end(), s);
    });
  }

  // Order nearest-first (minimum distance to any target's site); the tilt
  // and naive greedy passes visit sectors in this order.
  const auto distance_to_targets = [&](net::SectorId s) {
    double best = std::numeric_limits<double>::infinity();
    for (const net::SectorId t : targets) {
      best = std::min(best, geo::distance_m(network.sector(s).position,
                                            network.sector(t).position));
    }
    return best;
  };
  std::sort(involved.begin(), involved.end(),
            [&](net::SectorId a, net::SectorId b) {
              return distance_to_targets(a) < distance_to_targets(b);
            });
  if (involved.size() > options_.max_neighbors) {
    involved.resize(options_.max_neighbors);
  }
  return involved;
}

MitigationPlan MagusPlanner::plan_upgrade(
    std::span<const net::SectorId> targets,
    std::span<const net::SectorId> excluded) const {
  if (targets.empty()) {
    throw std::invalid_argument("MagusPlanner: no target sectors");
  }
  for (const net::SectorId t : targets) {
    if (std::find(excluded.begin(), excluded.end(), t) != excluded.end()) {
      throw std::invalid_argument(
          "MagusPlanner: target sector is excluded (quarantined)");
    }
  }
  MAGUS_TRACE_SPAN("planner.plan_upgrade", "planner");
  PlannerMetrics& metrics = PlannerMetrics::get();
  metrics.plans.add(1);
  const obs::ScopedTimerUs plan_timer{metrics.plan_latency_us};
  model::AnalysisModel& model = evaluator_->model();

  MitigationPlan plan;
  plan.targets.assign(targets.begin(), targets.end());
  plan.involved = involved_sectors(targets, excluded);

  // C_before: the *planned* configuration. Starting from the deployment
  // defaults, locally optimize the neighborhood (targets included — the
  // planners tuned it with everything on-air), then freeze the UE density
  // there.
  model.set_configuration(model.network().default_configuration());
  if (options_.pre_plan) {
    MAGUS_TRACE_SPAN("planner.pre_plan", "planner");
    std::vector<net::SectorId> neighborhood = plan.involved;
    neighborhood.insert(neighborhood.end(), plan.targets.begin(),
                        plan.targets.end());
    model.freeze_uniform_ue_density();
    metrics.pre_plan_steps.add(static_cast<std::uint64_t>(
        pre_plan_power(*parallel_, neighborhood, options_.pre_plan_step_db,
                       options_.pre_plan_sweeps)));
  }
  plan.c_before = model.configuration();
  model.freeze_uniform_ue_density();
  plan.f_before = evaluator_->evaluate();
  const std::vector<double> baseline_rates = capture_rates(model);

  // C_upgrade: targets off-air, nothing tuned.
  for (const net::SectorId t : targets) model.set_active(t, false);
  plan.f_upgrade = evaluator_->evaluate();

  // Search for C_after (candidate batches scored across the worker pool).
  {
    MAGUS_TRACE_SPAN("planner.search", "planner");
    plan.search = run_search(plan.involved, baseline_rates);
  }
  // The hybrid phase's move set matches the tuning mode so the Table-1
  // rows stay comparable.
  polish(plan);
  plan.f_after = plan.search.utility;
  plan.recovery =
      recovery_ratio({plan.f_before, plan.f_upgrade, plan.f_after});

  // Gradual migration schedule, starting again from C_before.
  MAGUS_TRACE_SPAN("planner.gradual", "planner");
  model.set_configuration(plan.c_before);
  const GradualTuner tuner{options_.gradual};
  plan.gradual = tuner.plan(*parallel_, targets, plan.search.config);

  return plan;
}

MitigationPlan MagusPlanner::replan_from_current(
    std::span<const net::SectorId> targets,
    std::span<const double> baseline_rates,
    std::span<const net::SectorId> excluded) const {
  if (targets.empty()) {
    throw std::invalid_argument("MagusPlanner: no target sectors");
  }
  MAGUS_TRACE_SPAN("planner.replan_from_current", "planner");
  PlannerMetrics::get().replans.add(1);
  model::AnalysisModel& model = evaluator_->model();

  MitigationPlan plan;
  plan.targets.assign(targets.begin(), targets.end());
  plan.involved = involved_sectors(targets, excluded);
  plan.c_before = model.configuration();
  plan.f_before = evaluator_->evaluate();

  const std::vector<double> baseline =
      baseline_rates.empty()
          ? capture_rates(model)
          : std::vector<double>(baseline_rates.begin(), baseline_rates.end());

  for (const net::SectorId t : targets) model.set_active(t, false);
  plan.f_upgrade = evaluator_->evaluate();

  plan.search = run_search(plan.involved, baseline);
  polish(plan);
  plan.f_after = plan.search.utility;
  plan.recovery =
      recovery_ratio({plan.f_before, plan.f_upgrade, plan.f_after});
  return plan;
}

int pre_plan_power(ParallelEvaluator& evaluator,
                   std::span<const net::SectorId> sectors, double step_db,
                   int sweeps) {
  model::AnalysisModel& model = evaluator.model();
  const net::Network& network = model.network();
  SearchMetrics metrics{"pre_plan"};
  // Speculation depth: rungs scored per batch. The accepted path does not
  // depend on it, only how many scored rungs are thrown away.
  const std::size_t depth = evaluator.thread_count();
  constexpr double kMinImprovement = 1e-9;
  const std::array<double, 2> directions = {step_db, -step_db};
  int accepted = 0;
  double current_utility = evaluator.evaluate();

  // Climbs sector s in `direction` from the current state, whose first
  // rung was just accepted. Rung k replays the serial walk's k set_power
  // calls as one multi-mutation candidate, never as an absolute jump:
  // set_power accumulates total_mw incrementally, so only the replayed
  // path is bit-identical to stepping.
  const auto climb = [&](net::SectorId s, double direction) {
    const net::Sector& meta = network.sector(s);
    CandidateBatch ladder;
    while (true) {
      ladder.clear();
      Candidate rung;
      double power = model.configuration()[s].power_dbm;
      while (ladder.size() < depth) {
        if (meta.clamp_power(power + direction) == power) break;  // cap
        rung.mutations.push_back(Mutation::power(s, power + direction));
        power = meta.clamp_power(power + direction);
        ladder.push_back(rung);
      }
      if (ladder.empty()) return;
      const std::vector<double> utilities = evaluator.score(ladder);
      metrics.batch(ladder.size());
      // Longest improving prefix == the serial accept-or-stop rule.
      std::size_t steps = 0;
      while (steps < ladder.size() &&
             utilities[steps] > current_utility + kMinImprovement) {
        current_utility = utilities[steps];
        ++steps;
      }
      metrics.ladder_prefix(steps);
      metrics.accept(steps);
      metrics.reject(ladder.size() - steps);
      accepted += static_cast<int>(steps);
      if (steps > 0) apply_candidate(model, ladder[steps - 1]);
      if (steps < ladder.size()) return;
    }
  };

  // Walk position 2 * i + d is the first rung of sectors[i] in
  // directions[d]; positions ascend in the order the serial walk probes.
  const std::size_t end = 2 * sectors.size();
  std::vector<std::size_t> probes;
  CandidateBatch batch;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    std::size_t next = 0;  // the next position the serial walk would probe
    while (next < end) {
      // Speculate: the walk's next `depth` probes, all from the current
      // state. Until one is accepted they are exactly the probes the walk
      // makes, since a rejected probe leaves the state unchanged.
      probes.clear();
      batch.clear();
      const net::Configuration& config = model.configuration();
      for (std::size_t pos = next; pos < end && batch.size() < depth; ++pos) {
        const net::SectorId s = sectors[pos / 2];
        if (!config[s].active) continue;
        const double target = config[s].power_dbm + directions[pos % 2];
        if (network.sector(s).clamp_power(target) == config[s].power_dbm) {
          continue;  // capped: the walk moves on without probing
        }
        probes.push_back(pos);
        batch.push_back(Candidate::single(Mutation::power(s, target)));
      }
      if (batch.empty()) break;
      const std::vector<double> utilities = evaluator.score(batch);
      metrics.batch(batch.size());

      // Resolve in walk order. Probes after the first accepted one were
      // scored from a state the walk has left, so they are dropped.
      std::size_t first = 0;
      while (first < batch.size() &&
             utilities[first] <= current_utility + kMinImprovement) {
        ++first;
      }
      if (first == batch.size()) {
        metrics.reject(batch.size());
        next = probes.back() + 1;
        continue;
      }
      metrics.accept(1);
      metrics.reject(batch.size() - 1);
      apply_candidate(model, batch[first]);
      current_utility = utilities[first];
      ++accepted;
      const std::size_t pos = probes[first];
      climb(sectors[pos / 2], directions[pos % 2]);
      // A sector that improved in one direction does not probe the other
      // this sweep.
      next = 2 * (pos / 2 + 1);
    }
  }
  return accepted;
}

int pre_plan_power(Evaluator& evaluator,
                   std::span<const net::SectorId> sectors, double step_db,
                   int sweeps) {
  ParallelEvaluator inline_pool = inline_evaluator(evaluator);
  return pre_plan_power(inline_pool, sectors, step_db, sweeps);
}

}  // namespace magus::core
