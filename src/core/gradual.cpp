#include "core/gradual.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "model/handover_delta.h"

namespace magus::core {

namespace {

[[nodiscard]] std::vector<bool> on_air_flags(const net::Configuration& c) {
  std::vector<bool> flags(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    flags[i] = c[static_cast<net::SectorId>(i)].active;
  }
  return flags;
}

/// Appends the model's current state as a plan step, computing handover
/// counts against the previous snapshot.
void record_step(GradualPlan& plan, const model::AnalysisModel& model,
                 double utility, int compensations, bool is_final) {
  sim::ServiceSnapshot snapshot;
  snapshot.service_map = model.service_map();
  snapshot.on_air = on_air_flags(model.configuration());
  snapshot.utility = utility;

  GradualStepInfo info;
  info.config = model.configuration();
  info.utility = utility;
  info.compensations = compensations;
  info.is_final = is_final;
  if (!plan.snapshots.empty()) {
    const auto& prev = plan.snapshots.back();
    const auto delta = model::handover_delta(
        prev.service_map, snapshot.service_map, model.ue_density(),
        snapshot.on_air);
    info.handover_ues = delta.total_ues();
    info.hard_handover_ues = delta.hard_ues;
  }
  plan.snapshots.push_back(std::move(snapshot));
  plan.steps.push_back(std::move(info));
}

/// One move toward c_after: the single-unit neighbor change (power or
/// tilt) with the best resulting utility. When `require_improvement` is
/// set, only applies if it beats `current_utility` (the floor-guard mode);
/// otherwise applies the best available move as long as the result stays
/// at or above `floor_utility` (the proactive-spreading mode). Returns the
/// achieved utility; `*moved` reports whether anything was applied.
///
/// Every move is one candidate of a single batch, in sector order; the
/// winner is the first strictly best utility, as a one-at-a-time scan would
/// pick it.
[[nodiscard]] double compensate_once(ParallelEvaluator& evaluator,
                                     SearchMetrics& metrics,
                                     std::span<const net::SectorId> targets,
                                     const net::Configuration& c_after,
                                     double step_db, double current_utility,
                                     bool require_improvement,
                                     double floor_utility, bool* moved) {
  model::AnalysisModel& model = evaluator.model();
  const net::Configuration& current = model.configuration();
  const auto is_target = [&](net::SectorId s) {
    return std::find(targets.begin(), targets.end(), s) != targets.end();
  };

  CandidateBatch moves;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const auto s = static_cast<net::SectorId>(i);
    if (is_target(s)) continue;
    const auto& now = current[s];
    const auto& goal = c_after[s];
    if (goal.power_dbm > now.power_dbm) {
      const double delta = std::min(step_db, goal.power_dbm - now.power_dbm);
      moves.push_back(
          Candidate::single(Mutation::power(s, now.power_dbm + delta)));
    }
    if (goal.tilt != now.tilt) {
      moves.push_back(Candidate::single(
          Mutation::tilt_to(s, now.tilt + (goal.tilt > now.tilt ? 1 : -1))));
    }
  }
  *moved = false;
  if (moves.empty()) return current_utility;

  const std::vector<double> utilities = evaluator.score(moves);
  metrics.batch(moves.size());
  double best_utility = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (utilities[i] > best_utility) {
      best_utility = utilities[i];
      best = i;
    }
  }
  if ((require_improvement && best_utility <= current_utility) ||
      (!require_improvement && best_utility < floor_utility)) {
    // No gain, or the move would sink under the guaranteed floor.
    metrics.reject(moves.size());
    return current_utility;
  }
  metrics.accept(1);
  metrics.reject(moves.size() - 1);
  apply_candidate(model, moves[best]);
  *moved = true;
  return best_utility;
}

}  // namespace

double GradualPlan::max_simultaneous_handover_ues() const {
  double peak = 0.0;
  for (const auto& step : steps) peak = std::max(peak, step.handover_ues);
  return peak;
}

double GradualPlan::total_handover_ues() const {
  double total = 0.0;
  for (const auto& step : steps) total += step.handover_ues;
  return total;
}

double GradualPlan::seamless_fraction() const {
  double total = 0.0;
  double hard = 0.0;
  for (const auto& step : steps) {
    total += step.handover_ues;
    hard += step.hard_handover_ues;
  }
  return total > 0.0 ? (total - hard) / total : 1.0;
}

GradualTuner::GradualTuner(GradualOptions options) : options_(options) {
  if (options_.target_step_db <= 0.0) {
    throw std::invalid_argument("GradualTuner: step must be positive");
  }
}

GradualPlan GradualTuner::plan(ParallelEvaluator& evaluator,
                               std::span<const net::SectorId> targets,
                               const net::Configuration& c_after) const {
  model::AnalysisModel& model = evaluator.model();
  SearchMetrics metrics{"gradual"};
  GradualPlan plan;
  plan.floor_utility = evaluator.evaluate_configuration(c_after);

  // Step 0: the C_before state.
  record_step(plan, model, evaluator.evaluate(), 0, false);

  for (int step = 0; step < options_.max_steps; ++step) {
    // Stop lowering once no UEs remain on the targets or the targets have
    // bottomed out.
    double target_load = 0.0;
    bool can_lower = false;
    for (const net::SectorId t : targets) {
      target_load += model.sector_loads()[static_cast<std::size_t>(t)];
      if (model.configuration()[t].power_dbm >
          model.network().sector(t).min_power_dbm) {
        can_lower = true;
      }
    }
    if (target_load <= 0.0 || !can_lower) break;

    // Lower the targets one notch.
    for (const net::SectorId t : targets) {
      model.set_power(t,
                      model.configuration()[t].power_dbm -
                          options_.target_step_db);
    }
    double utility = evaluator.evaluate();

    // Spread the neighbor tuning across the ramp: advance a few moves
    // toward C_after every step (they need not improve the utility, only
    // respect the floor).
    int compensations = 0;
    for (int k = 0; k < options_.proactive_moves_per_step; ++k) {
      bool moved = false;
      utility = compensate_once(evaluator, metrics, targets, c_after,
                                options_.compensation_step_db, utility,
                                /*require_improvement=*/false,
                                plan.floor_utility, &moved);
      if (!moved) break;
      ++compensations;
    }

    // Keep the utility at or above the floor by tuning toward C_after.
    bool exhausted = false;
    while (utility < plan.floor_utility) {
      bool moved = false;
      utility = compensate_once(evaluator, metrics, targets, c_after,
                                options_.compensation_step_db, utility,
                                /*require_improvement=*/true,
                                plan.floor_utility, &moved);
      if (!moved) {
        exhausted = true;
        break;
      }
      ++compensations;
    }
    if (exhausted) {
      plan.jumped_to_final = true;
      break;  // jump directly to C_after below
    }
    record_step(plan, model, utility, compensations, false);
  }

  // Final step: targets off-air, full C_after.
  model.set_configuration(c_after);
  record_step(plan, model, evaluator.evaluate(), 0, true);
  return plan;
}

GradualPlan GradualTuner::plan(Evaluator& evaluator,
                               std::span<const net::SectorId> targets,
                               const net::Configuration& c_after) const {
  ParallelEvaluator inline_pool = inline_evaluator(evaluator);
  return plan(inline_pool, targets, c_after);
}

GradualPlan direct_switch_plan(Evaluator& evaluator,
                               std::span<const net::SectorId> targets,
                               const net::Configuration& c_after) {
  (void)targets;  // the jump makes every migration happen at once
  model::AnalysisModel& model = evaluator.model();
  GradualPlan plan;
  plan.floor_utility = evaluator.evaluate_configuration(c_after);
  record_step(plan, model, evaluator.evaluate(), 0, false);
  model.set_configuration(c_after);
  record_step(plan, model, evaluator.evaluate(), 0, true);
  return plan;
}

}  // namespace magus::core
