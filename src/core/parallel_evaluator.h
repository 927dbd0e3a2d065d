// ParallelEvaluator: scores candidate batches across worker threads.
//
// Owns one EvalContext clone (plus scratch buffers) per worker. score()
// snapshots the driver model's current state once, then every candidate is
// evaluated from that identical base: the worker restores its clone to the
// base, applies the candidate's mutations incrementally, and runs the same
// fused utility pass the serial Evaluator uses. A candidate's utility
// therefore depends only on (base state, candidate) — never on which worker
// scored it, in what order, or how many threads exist — so search drivers
// built on batches return bit-identical results for any thread count,
// including 1 (where the pool runs inline with zero synchronization).
//
// Thread-safety: the driver model is read (snapshot/clone) but never
// mutated during score(); worker clones are single-owner per worker; the
// shared MarketContext is immutable during evaluation (see
// model/market_context.h). The evaluation counter aggregates across
// workers atomically.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "core/search_types.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace magus::core {

class ParallelEvaluator {
 public:
  /// `model` must outlive the evaluator. `threads == 0` resolves to the
  /// hardware concurrency; 1 gives the exact serial path.
  ///
  /// `use_coverage_index` (the default) builds the market's grid-major
  /// coverage index if absent and binds the driver model to it before any
  /// worker clone exists, so every evaluation runs the CSR fast paths
  /// (bit-identical results — see model/coverage_index.h). Pass false to
  /// stay on the legacy all-sectors scan (benchmark baselines).
  ParallelEvaluator(model::AnalysisModel* model, Utility utility,
                    std::size_t threads = 1, bool use_coverage_index = true);

  /// Shares an externally owned worker pool instead of spawning one. The
  /// fleet WavePlanner plans hundreds of markets with one pool: a fresh
  /// per-market pool would pay thread spawn/join per market and oversubscribe
  /// nothing in return. `pool` must outlive the evaluator; batches still run
  /// one at a time (ThreadPool::run is not reentrant), which the sequential
  /// per-market planning loop guarantees.
  ParallelEvaluator(model::AnalysisModel* model, Utility utility,
                    util::ThreadPool* pool, bool use_coverage_index = true);

  [[nodiscard]] model::AnalysisModel& model() const { return *model_; }
  [[nodiscard]] const Utility& utility() const { return utility_; }
  [[nodiscard]] std::size_t thread_count() const { return pool_->size(); }

  /// f of the driver model's current state (serial, on the calling
  /// thread). Counts as one evaluation.
  [[nodiscard]] double evaluate();

  /// Utility of an arbitrary configuration, serially on the bound model:
  /// applies it, evaluates, and restores the previous state via snapshot
  /// (the same steps as Evaluator::evaluate_configuration).
  [[nodiscard]] double evaluate_configuration(const net::Configuration& c);

  /// Scores every candidate applied on top of the model's *current* state;
  /// returns the utilities in candidate order. The model itself is left
  /// untouched. Counts batch.size() evaluations.
  [[nodiscard]] std::vector<double> score(std::span<const Candidate> batch);

  /// Evaluations performed so far, aggregated across all workers. Replaces
  /// Evaluator::evaluation_count() as the search-cost metric on the
  /// parallel path; the total is deterministic (it counts candidates, not
  /// per-thread work shares).
  [[nodiscard]] long evaluation_count() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::unique_ptr<model::EvalContext> context;  ///< lazily cloned
    EvalScratch scratch;
    /// "evaluator.worker.<i>.evals" in the global registry; the per-worker
    /// counts always sum to evaluation_count() (the serial-equivalent
    /// total), which is the invariant the metrics artifact exposes.
    obs::Counter* evals = nullptr;
    bool measured_wait = false;  ///< first-task queue wait taken this batch
  };

  /// Shared tail of both constructors: index binding + worker slots.
  void init(bool use_coverage_index);

  model::AnalysisModel* model_;
  Utility utility_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  ///< null when shared
  util::ThreadPool* pool_;
  std::vector<Worker> workers_;
  EvalScratch scratch_;  ///< for the serial evaluate()
  std::atomic<long> evaluations_{0};
};

/// A size-1 evaluator over `serial`'s model and utility that leaves the
/// model's coverage-index binding as it is. The Evaluator& entry points of
/// the batched planner phases (run_feedback_search, pre_plan_power,
/// GradualTuner::plan) run through one, so the serial callers get the same
/// code path, inline on the calling thread.
[[nodiscard]] ParallelEvaluator inline_evaluator(const Evaluator& serial);

}  // namespace magus::core
