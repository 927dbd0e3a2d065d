// Gradual tuning (paper §6, "Benefits of Gradual Tuning").
//
// Switching from C_before straight to C_after forces every migrating UE to
// hand over simultaneously at upgrade time, and UEs still attached to the
// target when it goes dark suffer hard (source-offline) handovers. Magus
// instead walks the target's power down in small steps ahead of the
// upgrade, spreading the handovers out — and because it knows f(C_after)
// a priori (only the model-based approach does), it guarantees the utility
// never dips below that floor: whenever a step would sink under it, Magus
// compensates by tuning the neighbors a bit toward C_after first.
#pragma once

#include <span>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel_evaluator.h"
#include "core/search_types.h"
#include "sim/migration_sim.h"

namespace magus::core {

struct GradualOptions {
  double target_step_db = 2.0;  ///< per-step power-down on the targets
  double compensation_step_db = 1.0;  ///< neighbor power move per compensation
  int max_steps = 64;
  /// Neighbor moves toward C_after applied every step regardless of the
  /// utility floor. Spreading the neighbor tuning across the ramp-down
  /// (instead of one bulk change at the upgrade instant) is what smears
  /// the inter-neighbor handovers over time; the floor guard then only
  /// needs to fire when the target's shrinkage outruns it.
  int proactive_moves_per_step = 2;
};

struct GradualStepInfo {
  net::Configuration config;
  double utility = 0.0;
  /// UEs forced to hand over by this step (vs the previous one).
  double handover_ues = 0.0;
  double hard_handover_ues = 0.0;
  /// Number of neighbor compensation tweaks applied within this step (the
  /// "∧" marks in Figure 11).
  int compensations = 0;
  bool is_final = false;  ///< the step that takes the targets off-air
};

struct GradualPlan {
  /// steps[0] is the C_before state (no handovers); the last step has the
  /// targets off-air at C_after.
  std::vector<GradualStepInfo> steps;
  /// Aligned snapshots (service map + on-air flags + utility) consumable
  /// by sim::MigrationSimulator.
  std::vector<sim::ServiceSnapshot> snapshots;
  double floor_utility = 0.0;  ///< f(C_after), the guaranteed floor
  /// True when compensation ran out and the plan had to jump directly to
  /// C_after before fully draining the targets.
  bool jumped_to_final = false;

  [[nodiscard]] double max_simultaneous_handover_ues() const;
  [[nodiscard]] double total_handover_ues() const;
  /// Fraction of handover UEs whose source was still on-air.
  [[nodiscard]] double seamless_fraction() const;
};

class GradualTuner {
 public:
  explicit GradualTuner(GradualOptions options = {});

  /// Builds the migration schedule. The evaluator's model must be at
  /// C_before with the UE density frozen; `c_after` is the tuned final
  /// configuration (targets off) found by a search. The model is left at
  /// the final configuration. Each compensation's best-of-moves probe is
  /// one candidate batch on the evaluator's pool; the schedule is
  /// bit-identical for any thread count.
  [[nodiscard]] GradualPlan plan(ParallelEvaluator& evaluator,
                                 std::span<const net::SectorId> targets,
                                 const net::Configuration& c_after) const;

  /// The same schedule inline on the calling thread (see
  /// inline_evaluator).
  [[nodiscard]] GradualPlan plan(Evaluator& evaluator,
                                 std::span<const net::SectorId> targets,
                                 const net::Configuration& c_after) const;

 private:
  GradualOptions options_;
};

/// The one-shot alternative for comparison: a two-snapshot "plan" that
/// jumps from the model's current state (C_before) straight to c_after.
/// Leaves the model at c_after.
[[nodiscard]] GradualPlan direct_switch_plan(
    Evaluator& evaluator, std::span<const net::SectorId> targets,
    const net::Configuration& c_after);

}  // namespace magus::core
