// The four strategies of the solution space (paper §2, Figure 1) as
// utility-vs-time timelines, plus the reactive-feedback convergence
// simulation behind Figure 12.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel_evaluator.h"
#include "core/search_types.h"

namespace magus::core {

enum class StrategyKind {
  kNoTuning,
  kReactiveFeedback,
  kReactiveModel,
  kProactiveModel,
};

[[nodiscard]] std::string strategy_name(StrategyKind kind);

struct TimelinePoint {
  int step = 0;  ///< 0 = the moment the targets go off-air
  double utility = 0.0;
};

struct StrategyTimeline {
  StrategyKind kind = StrategyKind::kNoTuning;
  std::vector<TimelinePoint> series;
  /// Tuning steps needed after the upgrade to reach the final utility
  /// (0 for proactive strategies; the paper's idealized feedback count).
  int convergence_steps = 0;
  /// Model/measurement probes consumed. For the feedback strategy this is
  /// the paper's "realistic" estimate: each probe is an on-air
  /// trial-and-measure iteration.
  long probe_count = 0;
  double final_utility = 0.0;
};

/// Iterative feedback optimizer: at each step, tries every single-unit
/// change (±1 power unit, ±1 tilt step) on every involved sector, measures
/// each (a probe), and keeps the best. This idealizes SON-style reactive
/// adaptation with a perfect oracle per step.
struct FeedbackOptions {
  double unit_db = 1.0;
  bool allow_power = true;
  bool allow_tilt = true;
  int max_steps = 400;
  double min_improvement = 1e-9;
};

struct FeedbackRun {
  std::vector<double> utility_per_step;  ///< utility after each accepted step
  long probe_count = 0;
  net::Configuration final_config;
};

/// Each step is one candidate batch — every unclamped move of every
/// active involved sector, in the order the one-at-a-time loop would probe
/// them — scored on the evaluator's pool. The winner is the candidate that
/// loop would keep (the first strictly best utility above current +
/// min_improvement), so the run is bit-identical for any thread count.
/// Clamped moves are dropped unscored and do not count as probes.
[[nodiscard]] FeedbackRun run_feedback_search(
    ParallelEvaluator& evaluator, std::span<const net::SectorId> involved,
    const FeedbackOptions& options);

/// The same search inline on the calling thread (a size-1 evaluator over
/// `evaluator`'s model; see inline_evaluator).
[[nodiscard]] FeedbackRun run_feedback_search(
    Evaluator& evaluator, std::span<const net::SectorId> involved,
    const FeedbackOptions& options);

struct TimelineOptions {
  int pre_steps = 5;   ///< steps shown before the upgrade
  int post_steps = 30; ///< steps shown after (feedback may need them all)
  FeedbackOptions feedback;
};

/// Builds the four timelines. The evaluator's model must be at C_before
/// with UE density frozen; `c_after` is the tuned configuration (targets
/// off). The model is restored to C_before on return.
[[nodiscard]] std::vector<StrategyTimeline> build_strategy_timelines(
    Evaluator& evaluator, std::span<const net::SectorId> targets,
    std::span<const net::SectorId> involved, const net::Configuration& c_after,
    const TimelineOptions& options = {});

}  // namespace magus::core
