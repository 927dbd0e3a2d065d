// Batched planner phases vs their one-at-a-time originals.
//
// The feedback polish, the pre-plan hill climb and gradual compensation
// score their probes as candidate batches on a ParallelEvaluator. The
// `oracle` namespace below keeps verbatim copies of the serial loops they
// replaced; every case runs both from the same model snapshot and requires
// bit-identical results — utilities compared as bit patterns, probe counts,
// accepted counts, final configurations and every gradual step — at the
// thread count the suite is instantiated with. The starting states pin
// sectors at the power cap and floor, at both tilt limits and off-air, so
// the clamp-skipping rules are exercised too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/gradual.h"
#include "core/parallel_evaluator.h"
#include "core/planner.h"
#include "core/strategies.h"
#include "model/handover_delta.h"
#include "test_helpers.h"

namespace magus::core {
namespace {

// ---------------------------------------------------------------------------
// Serial oracles: the loops as they were before batching, unchanged.
// ---------------------------------------------------------------------------
namespace oracle {

FeedbackRun run_feedback_search(Evaluator& evaluator,
                                std::span<const net::SectorId> involved,
                                const FeedbackOptions& options) {
  model::AnalysisModel& model = evaluator.model();
  FeedbackRun run;
  double current_utility = evaluator.evaluate();
  ++run.probe_count;

  for (int step = 0; step < options.max_steps; ++step) {
    const auto snapshot = model.snapshot();
    double best_utility = current_utility + options.min_improvement;
    net::SectorId best_sector = net::kInvalidSector;
    double best_power_delta = 0.0;
    int best_tilt_delta = 0;

    const auto probe = [&](net::SectorId b, double power_delta,
                           int tilt_delta) {
      if (power_delta != 0.0) {
        const double before = model.configuration()[b].power_dbm;
        model.set_power(b, before + power_delta);
        if (model.configuration()[b].power_dbm == before) return;  // clamped
      } else {
        const auto before = model.configuration()[b].tilt;
        model.set_tilt(b, before + tilt_delta);
        if (model.configuration()[b].tilt == before) return;  // clamped
      }
      const double utility = evaluator.evaluate();
      ++run.probe_count;
      model.restore(snapshot);
      if (utility > best_utility) {
        best_utility = utility;
        best_sector = b;
        best_power_delta = power_delta;
        best_tilt_delta = tilt_delta;
      }
    };

    for (const net::SectorId b : involved) {
      if (!model.configuration()[b].active) continue;
      if (options.allow_power) {
        probe(b, options.unit_db, 0);
        probe(b, -options.unit_db, 0);
      }
      if (options.allow_tilt) {
        probe(b, 0.0, -1);
        probe(b, 0.0, +1);
      }
    }

    if (best_sector == net::kInvalidSector) break;  // converged
    if (best_power_delta != 0.0) {
      model.set_power(best_sector, model.configuration()[best_sector].power_dbm +
                                       best_power_delta);
    } else {
      model.set_tilt(best_sector,
                     model.configuration()[best_sector].tilt + best_tilt_delta);
    }
    current_utility = best_utility;
    run.utility_per_step.push_back(current_utility);
  }

  run.final_config = model.configuration();
  return run;
}

int pre_plan_power(Evaluator& evaluator,
                   std::span<const net::SectorId> sectors, double step_db,
                   int sweeps) {
  model::AnalysisModel& model = evaluator.model();
  int accepted = 0;
  double current_utility = evaluator.evaluate();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (const net::SectorId s : sectors) {
      if (!model.configuration()[s].active) continue;
      for (const double direction : {step_db, -step_db}) {
        bool improved_any = false;
        while (true) {
          const double before = model.configuration()[s].power_dbm;
          const auto snapshot = model.snapshot();
          model.set_power(s, before + direction);
          if (model.configuration()[s].power_dbm == before) break;  // cap
          const double utility = evaluator.evaluate();
          if (utility > current_utility + 1e-9) {
            current_utility = utility;
            ++accepted;
            improved_any = true;
          } else {
            model.restore(snapshot);
            break;
          }
        }
        // If the first direction helped, don't immediately undo it by
        // probing the other direction this sweep.
        if (improved_any) break;
      }
    }
  }
  return accepted;
}

[[nodiscard]] std::vector<bool> on_air_flags(const net::Configuration& c) {
  std::vector<bool> flags(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    flags[i] = c[static_cast<net::SectorId>(i)].active;
  }
  return flags;
}

void record_step(GradualPlan& plan, Evaluator& evaluator, double utility,
                 int compensations, bool is_final) {
  const auto& model = evaluator.model();
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

[[nodiscard]] double compensate_once(Evaluator& evaluator,
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

  struct Move {
    net::SectorId sector;
    double power_delta = 0.0;
    int tilt_delta = 0;
  };
  std::vector<Move> moves;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const auto s = static_cast<net::SectorId>(i);
    if (is_target(s)) continue;
    const auto& now = current[s];
    const auto& goal = c_after[s];
    if (goal.power_dbm > now.power_dbm) {
      moves.push_back(
          {s, std::min(step_db, goal.power_dbm - now.power_dbm), 0});
    }
    if (goal.tilt != now.tilt) {
      moves.push_back({s, 0.0, goal.tilt > now.tilt ? 1 : -1});
    }
  }
  *moved = false;
  if (moves.empty()) return current_utility;

  const auto snapshot = model.snapshot();
  double best_utility = -std::numeric_limits<double>::infinity();
  Move best_move{};
  for (const auto& move : moves) {
    if (move.power_delta != 0.0) {
      model.set_power(move.sector,
                      current[move.sector].power_dbm + move.power_delta);
    } else {
      model.set_tilt(move.sector, current[move.sector].tilt + move.tilt_delta);
    }
    const double utility = evaluator.evaluate();
    model.restore(snapshot);
    if (utility > best_utility) {
      best_utility = utility;
      best_move = move;
    }
  }
  if (require_improvement && best_utility <= current_utility) {
    return current_utility;  // no gain
  }
  if (!require_improvement && best_utility < floor_utility) {
    return current_utility;  // would sink under the guaranteed floor
  }
  if (best_move.power_delta != 0.0) {
    model.set_power(best_move.sector,
                    current[best_move.sector].power_dbm +
                        best_move.power_delta);
  } else {
    model.set_tilt(best_move.sector,
                   current[best_move.sector].tilt + best_move.tilt_delta);
  }
  *moved = true;
  return best_utility;
}

/// GradualTuner::plan's loop driving the serial compensate_once above.
GradualPlan gradual_plan(const GradualOptions& options, Evaluator& evaluator,
                         std::span<const net::SectorId> targets,
                         const net::Configuration& c_after) {
  model::AnalysisModel& model = evaluator.model();
  GradualPlan plan;
  plan.floor_utility = evaluator.evaluate_configuration(c_after);

  // Step 0: the C_before state.
  record_step(plan, evaluator, evaluator.evaluate(), 0, false);

  for (int step = 0; step < options.max_steps; ++step) {
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
                          options.target_step_db);
    }
    double utility = evaluator.evaluate();

    // Spread the neighbor tuning across the ramp: advance a few moves
    // toward C_after every step (they need not improve the utility, only
    // respect the floor).
    int compensations = 0;
    for (int k = 0; k < options.proactive_moves_per_step; ++k) {
      bool moved = false;
      utility = compensate_once(evaluator, targets, c_after,
                                options.compensation_step_db, utility,
                                /*require_improvement=*/false,
                                plan.floor_utility, &moved);
      if (!moved) break;
      ++compensations;
    }

    // Keep the utility at or above the floor by tuning toward C_after.
    bool exhausted = false;
    while (utility < plan.floor_utility) {
      bool moved = false;
      utility = compensate_once(evaluator, targets, c_after,
                                options.compensation_step_db, utility,
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
    record_step(plan, evaluator, utility, compensations, false);
  }

  // Final step: targets off-air, full C_after.
  model.set_configuration(c_after);
  record_step(plan, evaluator, evaluator.evaluate(), 0, true);
  return plan;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Fixtures and comparisons
// ---------------------------------------------------------------------------

#ifdef MAGUS_BATCHED_PHASES_TSAN
// Under ThreadSanitizer every evaluation is ~10x slower: one market.
constexpr std::uint64_t kSeeds[] = {42};
#else
constexpr std::uint64_t kSeeds[] = {42, 7, 2024};
#endif

[[nodiscard]] std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// A small generated market bound to its coverage index with the UE
/// density frozen at the defaults, one target near the centre and its
/// nearest neighbors (at least five).
struct Scene {
  std::unique_ptr<data::Experiment> experiment;
  net::SectorId target = net::kInvalidSector;
  std::vector<net::SectorId> involved;

  explicit Scene(std::uint64_t seed)
      : experiment(std::make_unique<data::Experiment>(
            magus::testing::small_market_params(data::Morphology::kSuburban,
                                                seed))) {
    model::AnalysisModel& m = model();
    m.market_context().ensure_coverage_index();
    m.set_use_coverage_index(true);
    m.freeze_uniform_ue_density();
    const net::Network& network = experiment->network();
    target = network.nearest_sectors(experiment->study_area().center(), 1)[0];
    const std::vector<net::SectorId> targets = {target};
    involved = network.neighbors_of(targets, 3'000.0);
    if (involved.size() > 12) involved.resize(12);
  }

  [[nodiscard]] model::AnalysisModel& model() { return experiment->model(); }

  /// Pins the first involved sectors at the limits the clamp rules guard:
  /// power cap, power floor, deepest uptilt, deepest downtilt, off-air.
  void pin_limits() {
    ASSERT_GE(involved.size(), 5u);
    model::AnalysisModel& m = model();
    const net::Network& network = experiment->network();
    const auto& at_cap = network.sector(involved[0]);
    const auto& at_floor = network.sector(involved[1]);
    const auto& uptilted = network.sector(involved[2]);
    const auto& downtilted = network.sector(involved[3]);
    m.set_power(at_cap.id, at_cap.max_power_dbm);
    m.set_power(at_floor.id, at_floor.min_power_dbm);
    m.set_tilt(uptilted.id, uptilted.antenna.min_tilt_index);
    m.set_tilt(downtilted.id, downtilted.antenna.max_tilt_index);
    m.set_active(involved[4], false);
  }
};

template <typename T>
[[nodiscard]] bool same_bytes(const std::vector<T>& a,
                              const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// The model's whole derived state must match the oracle's byte for byte,
/// not just the utility it scores to: a path that reaches the same
/// configuration through different floating-point steps (an absolute power
/// jump instead of the walk's single steps) leaves different interference
/// sums, which the CQI thresholds usually hide.
void expect_same_state(const model::GridState& expected,
                       const model::GridState& actual) {
  EXPECT_TRUE(same_bytes(actual.total_mw, expected.total_mw));
  EXPECT_TRUE(same_bytes(actual.best, expected.best));
  EXPECT_TRUE(same_bytes(actual.best_rp_dbm, expected.best_rp_dbm));
  EXPECT_TRUE(same_bytes(actual.best_mw, expected.best_mw));
  EXPECT_TRUE(same_bytes(actual.second, expected.second));
  EXPECT_TRUE(same_bytes(actual.second_rp_dbm, expected.second_rp_dbm));
}

void expect_same_run(const FeedbackRun& expected, const FeedbackRun& actual) {
  EXPECT_EQ(actual.probe_count, expected.probe_count);
  EXPECT_TRUE(actual.final_config == expected.final_config);
  ASSERT_EQ(actual.utility_per_step.size(), expected.utility_per_step.size());
  for (std::size_t i = 0; i < expected.utility_per_step.size(); ++i) {
    EXPECT_EQ(bits(actual.utility_per_step[i]),
              bits(expected.utility_per_step[i]))
        << "step " << i;
  }
}

void expect_same_gradual(const GradualPlan& expected,
                         const GradualPlan& actual) {
  EXPECT_EQ(bits(actual.floor_utility), bits(expected.floor_utility));
  EXPECT_EQ(actual.jumped_to_final, expected.jumped_to_final);
  ASSERT_EQ(actual.steps.size(), expected.steps.size());
  ASSERT_EQ(actual.snapshots.size(), expected.snapshots.size());
  for (std::size_t i = 0; i < expected.steps.size(); ++i) {
    const GradualStepInfo& e = expected.steps[i];
    const GradualStepInfo& a = actual.steps[i];
    EXPECT_TRUE(a.config == e.config) << "step " << i;
    EXPECT_EQ(bits(a.utility), bits(e.utility)) << "step " << i;
    EXPECT_EQ(bits(a.handover_ues), bits(e.handover_ues)) << "step " << i;
    EXPECT_EQ(bits(a.hard_handover_ues), bits(e.hard_handover_ues))
        << "step " << i;
    EXPECT_EQ(a.compensations, e.compensations) << "step " << i;
    EXPECT_EQ(a.is_final, e.is_final) << "step " << i;
    EXPECT_EQ(actual.snapshots[i].service_map,
              expected.snapshots[i].service_map)
        << "step " << i;
    EXPECT_EQ(actual.snapshots[i].on_air, expected.snapshots[i].on_air);
  }
}

void expect_same_plan(const MitigationPlan& expected,
                      const MitigationPlan& actual) {
  EXPECT_EQ(actual.targets, expected.targets);
  EXPECT_EQ(actual.involved, expected.involved);
  EXPECT_TRUE(actual.c_before == expected.c_before);
  EXPECT_EQ(bits(actual.f_before), bits(expected.f_before));
  EXPECT_EQ(bits(actual.f_upgrade), bits(expected.f_upgrade));
  EXPECT_EQ(bits(actual.f_after), bits(expected.f_after));
  EXPECT_EQ(bits(actual.recovery), bits(expected.recovery));
  EXPECT_TRUE(actual.search.config == expected.search.config);
  EXPECT_EQ(bits(actual.search.utility), bits(expected.search.utility));
  EXPECT_EQ(actual.search.accepted_steps, expected.search.accepted_steps);
  EXPECT_EQ(actual.search.candidate_evaluations,
            expected.search.candidate_evaluations);
  ASSERT_EQ(actual.search.trace.size(), expected.search.trace.size());
  for (std::size_t i = 0; i < expected.search.trace.size(); ++i) {
    EXPECT_EQ(actual.search.trace[i].sector, expected.search.trace[i].sector);
    EXPECT_EQ(bits(actual.search.trace[i].utility_after),
              bits(expected.search.trace[i].utility_after));
  }
  expect_same_gradual(expected.gradual, actual.gradual);
}

class BatchedPhasesTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] std::size_t threads() const { return GetParam(); }
};

// ---------------------------------------------------------------------------
// Polish (run_feedback_search)
// ---------------------------------------------------------------------------

TEST_P(BatchedPhasesTest, PolishMatchesSerialOracle) {
  struct MoveSet {
    const char* name;
    bool power;
    bool tilt;
  };
  constexpr MoveSet kMoveSets[] = {
      {"power-only", true, false},
      {"tilt-only", false, true},
      {"joint", true, true},
  };
  for (const std::uint64_t seed : kSeeds) {
    Scene scene{seed};
    model::AnalysisModel& model = scene.model();
    scene.pin_limits();
    model.set_active(scene.target, false);  // C_upgrade
    const auto start = model.snapshot();

    for (const MoveSet& moves : kMoveSets) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", "
                                        << moves.name);
      FeedbackOptions options;
      options.allow_power = moves.power;
      options.allow_tilt = moves.tilt;
      options.max_steps = 40;

      model.restore(start);
      Evaluator serial{&model, Utility::performance()};
      const FeedbackRun expected =
          oracle::run_feedback_search(serial, scene.involved, options);
      const model::GridState expected_state = model.state();
      EXPECT_FALSE(expected.utility_per_step.empty());

      model.restore(start);
      ParallelEvaluator pool{&model, Utility::performance(), threads()};
      const FeedbackRun actual =
          run_feedback_search(pool, scene.involved, options);
      expect_same_run(expected, actual);
      expect_same_state(expected_state, model.state());

      if (threads() == 1) {
        // The Evaluator& adapter is the same search, inline.
        model.restore(start);
        expect_same_run(expected,
                        run_feedback_search(serial, scene.involved, options));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pre-plan (pre_plan_power)
// ---------------------------------------------------------------------------

TEST_P(BatchedPhasesTest, PrePlanMatchesSerialOracle) {
  struct Setting {
    double step_db;
    int sweeps;
  };
  constexpr Setting kSettings[] = {{1.0, 2}, {2.0, 3}};
  for (const std::uint64_t seed : kSeeds) {
    Scene scene{seed};
    model::AnalysisModel& model = scene.model();
    scene.pin_limits();
    std::vector<net::SectorId> neighborhood = scene.involved;
    neighborhood.push_back(scene.target);
    const auto start = model.snapshot();

    for (const Setting& setting : kSettings) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", step "
                                        << setting.step_db << " dB");
      model.restore(start);
      Evaluator serial{&model, Utility::performance()};
      const int expected_accepted = oracle::pre_plan_power(
          serial, neighborhood, setting.step_db, setting.sweeps);
      const net::Configuration expected_config = model.configuration();
      const model::GridState expected_state = model.state();
      EXPECT_GT(expected_accepted, 0);

      model.restore(start);
      ParallelEvaluator pool{&model, Utility::performance(), threads()};
      EXPECT_EQ(pre_plan_power(pool, neighborhood, setting.step_db,
                               setting.sweeps),
                expected_accepted);
      EXPECT_TRUE(model.configuration() == expected_config);
      expect_same_state(expected_state, model.state());

      if (threads() == 1) {
        model.restore(start);
        EXPECT_EQ(pre_plan_power(serial, neighborhood, setting.step_db,
                                 setting.sweeps),
                  expected_accepted);
        EXPECT_TRUE(model.configuration() == expected_config);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gradual compensation (GradualTuner::plan)
// ---------------------------------------------------------------------------

TEST_P(BatchedPhasesTest, GradualMatchesSerialOracle) {
  for (const std::uint64_t seed : kSeeds) {
    Scene scene{seed};
    model::AnalysisModel& model = scene.model();
    const std::vector<net::SectorId> targets = {scene.target};
    const auto c_before = model.snapshot();

    // Two C_after goals: a genuinely tuned one (the joint polish from
    // C_upgrade: power and tilt moves that recover utility, so the floor
    // guard fires), and a synthetic one that moves powers both ways and
    // tilts to both limits.
    std::vector<net::Configuration> goals;
    {
      model.set_active(scene.target, false);
      Evaluator serial{&model, Utility::performance()};
      FeedbackOptions options;
      options.max_steps = 30;
      goals.push_back(
          oracle::run_feedback_search(serial, scene.involved, options)
              .final_config);
    }
    {
      net::Configuration goal = c_before.config.with_sector_off(scene.target);
      const net::Network& network = scene.experiment->network();
      for (std::size_t i = 0; i < scene.involved.size(); ++i) {
        const net::Sector& sector = network.sector(scene.involved[i]);
        auto& setting = goal[sector.id];
        switch (i % 4) {
          case 0:
            setting.power_dbm = sector.clamp_power(setting.power_dbm + 3.0);
            break;
          case 1:
            setting.power_dbm = sector.clamp_power(setting.power_dbm - 2.0);
            setting.tilt = sector.antenna.min_tilt_index;
            break;
          case 2:
            setting.tilt = sector.antenna.max_tilt_index;
            break;
          default:
            setting.power_dbm = sector.max_power_dbm;
            setting.tilt = sector.clamp_tilt(setting.tilt - 2);
            break;
        }
      }
      goals.push_back(std::move(goal));
    }

    for (std::size_t g = 0; g < goals.size(); ++g) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", goal " << g);
      const GradualTuner tuner{};
      model.restore(c_before);
      Evaluator serial{&model, Utility::performance()};
      const GradualPlan expected =
          oracle::gradual_plan(GradualOptions{}, serial, targets, goals[g]);
      EXPECT_GE(expected.steps.size(), 3u);

      model.restore(c_before);
      ParallelEvaluator pool{&model, Utility::performance(), threads()};
      expect_same_gradual(expected, tuner.plan(pool, targets, goals[g]));

      if (threads() == 1) {
        model.restore(c_before);
        expect_same_gradual(expected, tuner.plan(serial, targets, goals[g]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Planner level: a whole plan_upgrade at one thread vs this suite's count
// ---------------------------------------------------------------------------

TEST_P(BatchedPhasesTest, PlanUpgradeMatchesOneThread) {
  const auto plan_with = [](std::size_t threads, std::uint64_t seed) {
    data::Experiment experiment{
        magus::testing::small_market_params(data::Morphology::kSuburban,
                                            seed)};
    Evaluator evaluator{&experiment.model(), Utility::performance()};
    PlannerOptions options;
    options.mode = TuningMode::kJoint;
    options.threads = threads;
    options.max_neighbors = 10;
    const MagusPlanner planner{&evaluator, options};
    const std::vector<net::SectorId> targets = {
        experiment.network().nearest_sectors(
            experiment.study_area().center(), 1)[0]};
    return planner.plan_upgrade(targets);
  };
  const std::uint64_t seed = kSeeds[0];
  const MitigationPlan reference = plan_with(1, seed);
  EXPECT_GT(reference.search.accepted_steps, 0);
  expect_same_plan(reference, plan_with(threads(), seed));
}

[[nodiscard]] std::string thread_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  return "t" + std::to_string(info.param);
}

#ifdef MAGUS_BATCHED_PHASES_TSAN
// The ThreadSanitizer binary (magus_parallel_tests): 4 threads only.
INSTANTIATE_TEST_SUITE_P(Tsan, BatchedPhasesTest,
                         ::testing::Values(std::size_t{4}), thread_name);
#else
INSTANTIATE_TEST_SUITE_P(Threads, BatchedPhasesTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}),
                         thread_name);
#endif

}  // namespace
}  // namespace magus::core
