#include "core/strategies.h"

#include <algorithm>
#include <limits>

namespace magus::core {

std::string strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNoTuning:
      return "no-tuning";
    case StrategyKind::kReactiveFeedback:
      return "reactive-feedback";
    case StrategyKind::kReactiveModel:
      return "reactive-model";
    case StrategyKind::kProactiveModel:
      return "proactive-model";
  }
  return "?";
}

FeedbackRun run_feedback_search(ParallelEvaluator& evaluator,
                                std::span<const net::SectorId> involved,
                                const FeedbackOptions& options) {
  model::AnalysisModel& model = evaluator.model();
  const net::Network& network = model.network();
  SearchMetrics metrics{"polish"};
  FeedbackRun run;
  double current_utility = evaluator.evaluate();
  ++run.probe_count;

  CandidateBatch batch;
  for (int step = 0; step < options.max_steps; ++step) {
    // This step's frontier in probe order: per active sector, +unit and
    // -unit power, then up- and downtilt. Moves the sector's limits clamp
    // to a no-op are never probed.
    const net::Configuration& config = model.configuration();
    batch.clear();
    for (const net::SectorId b : involved) {
      if (!config[b].active) continue;
      const net::Sector& meta = network.sector(b);
      if (options.allow_power) {
        for (const double delta : {options.unit_db, -options.unit_db}) {
          const double target = config[b].power_dbm + delta;
          if (meta.clamp_power(target) == config[b].power_dbm) continue;
          batch.push_back(Candidate::single(Mutation::power(b, target)));
        }
      }
      if (options.allow_tilt) {
        for (const int delta : {-1, +1}) {
          const int target = config[b].tilt + delta;
          if (meta.clamp_tilt(target) == config[b].tilt) continue;
          batch.push_back(Candidate::single(Mutation::tilt_to(b, target)));
        }
      }
    }
    if (batch.empty()) break;  // every move clamped

    const std::vector<double> utilities = evaluator.score(batch);
    run.probe_count += static_cast<long>(batch.size());
    metrics.batch(batch.size());

    // Serial scan in candidate order: an earlier move wins a tie.
    double best_utility = current_utility + options.min_improvement;
    std::size_t best = batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (utilities[i] > best_utility) {
        best_utility = utilities[i];
        best = i;
      }
    }
    if (best == batch.size()) {
      metrics.reject(batch.size());
      break;  // converged
    }
    metrics.accept(1);
    metrics.reject(batch.size() - 1);
    apply_candidate(model, batch[best]);
    current_utility = best_utility;
    run.utility_per_step.push_back(current_utility);
  }

  run.final_config = model.configuration();
  return run;
}

FeedbackRun run_feedback_search(Evaluator& evaluator,
                                std::span<const net::SectorId> involved,
                                const FeedbackOptions& options) {
  ParallelEvaluator inline_pool = inline_evaluator(evaluator);
  return run_feedback_search(inline_pool, involved, options);
}

std::vector<StrategyTimeline> build_strategy_timelines(
    Evaluator& evaluator, std::span<const net::SectorId> targets,
    std::span<const net::SectorId> involved, const net::Configuration& c_after,
    const TimelineOptions& options) {
  model::AnalysisModel& model = evaluator.model();
  const net::Configuration c_before = model.configuration();

  const double f_before = evaluator.evaluate();
  net::Configuration c_upgrade = c_before;
  for (const net::SectorId t : targets) {
    c_upgrade = c_upgrade.with_sector_off(t);
  }
  const double f_upgrade = evaluator.evaluate_configuration(c_upgrade);
  const double f_after = evaluator.evaluate_configuration(c_after);

  std::vector<StrategyTimeline> timelines;

  const auto make_series = [&](StrategyKind kind) {
    StrategyTimeline timeline;
    timeline.kind = kind;
    for (int s = -options.pre_steps; s < 0; ++s) {
      timeline.series.push_back({s, f_before});
    }
    return timeline;
  };

  // No tuning: the utility stays at f(C_upgrade) for the whole window.
  {
    StrategyTimeline t = make_series(StrategyKind::kNoTuning);
    for (int s = 0; s <= options.post_steps; ++s) {
      t.series.push_back({s, f_upgrade});
    }
    t.final_utility = f_upgrade;
    timelines.push_back(std::move(t));
  }

  // Reactive model-based: one step at f_upgrade (computing + pushing the
  // configuration), then f_after.
  {
    StrategyTimeline t = make_series(StrategyKind::kReactiveModel);
    t.series.push_back({0, f_upgrade});
    for (int s = 1; s <= options.post_steps; ++s) {
      t.series.push_back({s, f_after});
    }
    t.convergence_steps = 1;
    t.probe_count = 1;
    t.final_utility = f_after;
    timelines.push_back(std::move(t));
  }

  // Proactive model-based: neighbors pre-tuned, so the utility lands at
  // f_after the moment the targets go down and never dips below it.
  {
    StrategyTimeline t = make_series(StrategyKind::kProactiveModel);
    for (int s = 0; s <= options.post_steps; ++s) {
      t.series.push_back({s, f_after});
    }
    t.convergence_steps = 0;
    t.probe_count = 0;
    t.final_utility = f_after;
    timelines.push_back(std::move(t));
  }

  // Reactive feedback-based: starts at f_upgrade and climbs one accepted
  // unit-change per step; each step costs |candidates| on-air probes.
  {
    model.set_configuration(c_upgrade);
    FeedbackRun run = run_feedback_search(evaluator, involved,
                                          options.feedback);
    StrategyTimeline t = make_series(StrategyKind::kReactiveFeedback);
    t.series.push_back({0, f_upgrade});
    double last = f_upgrade;
    for (std::size_t i = 0; i < run.utility_per_step.size(); ++i) {
      last = run.utility_per_step[i];
      t.series.push_back({static_cast<int>(i) + 1, last});
    }
    for (int s = static_cast<int>(run.utility_per_step.size()) + 1;
         s <= options.post_steps; ++s) {
      t.series.push_back({s, last});
    }
    t.convergence_steps = static_cast<int>(run.utility_per_step.size());
    t.probe_count = run.probe_count;
    t.final_utility = last;
    timelines.push_back(std::move(t));
  }

  model.set_configuration(c_before);
  return timelines;
}

}  // namespace magus::core
