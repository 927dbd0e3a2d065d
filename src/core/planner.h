// MagusPlanner: the end-to-end facade tying Figure 6 together.
//
// Given an analysis model (network + path-loss provider) and a utility, the
// planner takes a set of sectors scheduled for upgrade and produces the
// full mitigation plan: the involved-neighbor set, C_after (via the chosen
// search), the predicted recovery ratio, and the gradual migration
// schedule. This is the public entry point the examples use.
#pragma once

#include <span>
#include <vector>

#include <memory>

#include "core/evaluator.h"
#include "core/gradual.h"
#include "core/joint_search.h"
#include "core/naive_search.h"
#include "core/parallel_evaluator.h"
#include "core/recovery.h"

namespace magus::core {

enum class TuningMode { kPower, kTilt, kJoint, kNaive };

[[nodiscard]] std::string tuning_mode_name(TuningMode mode);

struct PlannerOptions {
  TuningMode mode = TuningMode::kJoint;
  /// Worker threads for candidate-batch scoring (0 = hardware
  /// concurrency). The search results are bit-identical for any value —
  /// see core/parallel_evaluator.h — so this is purely a speed knob.
  std::size_t threads = 0;
  /// When non-null, candidate batches are scored on this externally owned
  /// pool instead of a per-planner one and `threads` is ignored. The pool
  /// must outlive the planner. This is how the fleet WavePlanner shares
  /// one worker pool across hundreds of per-market planners.
  util::ThreadPool* shared_pool = nullptr;
  /// Run the model's CSR coverage-index fast paths (bit-identical; see
  /// model/coverage_index.h). Off is only interesting for benchmarking
  /// the legacy scan.
  bool use_coverage_index = true;
  /// Locally optimize the neighborhood's powers *before* planning (the
  /// paper's premise: "radio network planners attempt to maximize coverage
  /// and minimize interference" — C_before is a planned configuration, not
  /// an arbitrary one). Without this, any tuner can harvest generic
  /// utility unrelated to the outage and recovery comparisons lose
  /// meaning.
  bool pre_plan = true;
  int pre_plan_sweeps = 2;
  double pre_plan_step_db = 1.0;
  /// §2's hybrid: after the model-based search reaches C_so, a short
  /// feedback phase (k << K steps) corrects residual model error and
  /// captures gains outside Algorithm 1's degraded-grid focus. Disabled
  /// for the naive baseline, which is already pure feedback.
  bool hybrid_polish = true;
  int polish_max_steps = 30;
  /// Neighbor selection: sectors whose site is within this radius of any
  /// target's site form the involved set B...
  double neighbor_radius_m = 10'000.0;
  /// ...capped to the closest `max_neighbors` (urban areas would otherwise
  /// pull in hundreds).
  std::size_t max_neighbors = 24;
  PowerSearchOptions power;
  TiltSearchOptions tilt;
  GradualOptions gradual;
};

struct MitigationPlan {
  std::vector<net::SectorId> targets;
  std::vector<net::SectorId> involved;  ///< ordered nearest-first
  /// The (pre-planned) configuration the network runs before the upgrade.
  net::Configuration c_before;
  double f_before = 0.0;
  double f_upgrade = 0.0;
  double f_after = 0.0;
  double recovery = 0.0;  ///< Formula 7
  SearchResult search;
  GradualPlan gradual;
};

class MagusPlanner {
 public:
  /// `evaluator` must outlive the planner.
  MagusPlanner(Evaluator* evaluator, PlannerOptions options = {});

  /// Plans mitigation for taking `targets` off-air. On entry the model may
  /// be in any configuration; the planner resets it to the network default
  /// (C_before), freezes the UE density there, and leaves the model at the
  /// final (C_after) state with the plan's gradual schedule computed.
  ///
  /// `excluded` is the reduced-set entry point for degraded campaigns:
  /// sectors in it (typically the executor's quarantine list) are removed
  /// from the involved-neighbor tuning set before the search runs, so the
  /// plan never leans on fenced-off equipment. Targets may not be
  /// excluded.
  [[nodiscard]] MitigationPlan plan_upgrade(
      std::span<const net::SectorId> targets,
      std::span<const net::SectorId> excluded = {}) const;

  /// Emergency re-plan from the model's *current* (possibly faulted)
  /// state, the entry point the fault-aware executor escalates to when an
  /// unplanned outage invalidates a precomputed schedule mid-migration.
  /// Unlike plan_upgrade it does NOT reset to the network default, does
  /// not re-run pre-planning and does not re-freeze the UE density: the
  /// configuration as found *is* C_before, `targets` are taken off-air
  /// (no-ops for sectors already down), and the search tunes their
  /// neighbors from there. `baseline_rates`, when non-empty, supplies the
  /// healthy per-grid rates that define the degraded set (capture them
  /// before the fault); when empty the current rates are captured, which
  /// makes the power search see no degradation of its own — pass real
  /// baselines for meaningful recovery. No gradual schedule is computed:
  /// the result is a single emergency push. The model is left at the
  /// re-planned configuration.
  [[nodiscard]] MitigationPlan replan_from_current(
      std::span<const net::SectorId> targets,
      std::span<const double> baseline_rates = {},
      std::span<const net::SectorId> excluded = {}) const;

  /// Neighbor selection used by plan_upgrade, exposed for benches that
  /// drive the searches directly. Sectors in `excluded` never enter the
  /// involved set (they also don't count against max_neighbors).
  [[nodiscard]] std::vector<net::SectorId> involved_sectors(
      std::span<const net::SectorId> targets,
      std::span<const net::SectorId> excluded = {}) const;

  /// The batch evaluator the search drivers run on; exposed so callers
  /// (benches) can read the aggregated evaluation count.
  [[nodiscard]] ParallelEvaluator& parallel_evaluator() const {
    return *parallel_;
  }

 private:
  /// Runs the configured tuning mode on the parallel evaluator.
  [[nodiscard]] SearchResult run_search(
      std::span<const net::SectorId> involved,
      std::span<const double> baseline_rates) const;
  /// §2's hybrid phase: a short feedback pass from C_so toward C_after
  /// (batched on the parallel evaluator; skipped for the naive baseline,
  /// which is already pure feedback).
  void polish(MitigationPlan& plan) const;

  Evaluator* evaluator_;
  PlannerOptions options_;
  /// Owns the worker pool + per-worker eval contexts. Every probing phase
  /// runs on it: pre-planning, the searches, the feedback polish and
  /// gradual scheduling. evaluator_ only scores the single states f_before
  /// and f_upgrade.
  std::unique_ptr<ParallelEvaluator> parallel_;
};

/// Local power planning: per-sector hill climbing (±step, best direction,
/// until the utility stops improving), swept `sweeps` times over `sectors`
/// in order. Models what the operator's planning process has already done
/// to the neighborhood; also usable to "plan" custom networks. Returns the
/// number of accepted steps; the model is left at the planned configuration.
///
/// The first-improvement walk is scored speculatively: each batch holds the
/// walk's next thread_count() probes from the current state, resolved in
/// walk order, and a climb's later rungs are scored as a ladder of replayed
/// paths. The accepted steps and the final state are bit-identical for any
/// thread count (DESIGN.md §8).
int pre_plan_power(ParallelEvaluator& evaluator,
                   std::span<const net::SectorId> sectors,
                   double step_db = 1.0, int sweeps = 2);

/// The same climb inline on the calling thread (see inline_evaluator).
int pre_plan_power(Evaluator& evaluator,
                   std::span<const net::SectorId> sectors,
                   double step_db = 1.0, int sweeps = 2);

}  // namespace magus::core
