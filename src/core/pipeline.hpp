// End-to-end automatic layout pipeline (paper Fig. 1):
// netlist -> structure recognition -> multi-shape configuration ->
// floorplanning (R-GCN + RL agent, or any registered metaheur::Optimizer) ->
// OARSMT global routing -> procedural layout generation -> DRC/LVS checks.
//
// The floorplanner is selected by *data*: PipelineConfig names a registry
// optimizer plus a key=value option map (see metaheur/optimizer.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "layoutgen/layoutgen.hpp"
#include "metaheur/optimizer.hpp"
#include "rl/agent.hpp"

namespace afp::core {

/// Cooperative cancellation flag shared between a controller and a running
/// job.  Copies observe the same flag; cancel() is sticky.  The token now
/// lives in metaheur (metaheur/stop.hpp) so optimizer inner loops can poll
/// it directly: cancellation latency is bounded by one iteration, and an
/// armed deadline (set_deadline_after) turns the same token into the
/// watchdog.
using CancelToken = metaheur::CancelToken;

/// Thrown when a run is cancelled before it produced any result.
struct CancelledError : std::runtime_error {
  CancelledError() : std::runtime_error("run cancelled") {}
};

/// Thrown when the job's watchdog deadline expires; `quantum` is the search
/// quantum that was running (or about to run; -1 = before the search).
/// A deadline overrun is a hard failure: partial results are discarded.
struct DeadlineExceededError : std::runtime_error {
  explicit DeadlineExceededError(long quantum_index)
      : std::runtime_error("job deadline exceeded at quantum " +
                           std::to_string(quantum_index)),
        quantum(quantum_index) {}
  long quantum;
};

/// Exception firewall record: any non-signalling exception escaping an
/// optimizer invocation is wrapped so the failing quantum is attributed.
struct OptimizerError : std::runtime_error {
  OptimizerError(long quantum_index, const std::string& what)
      : std::runtime_error(what), quantum(quantum_index) {}
  long quantum;
};

struct StageTimings {
  double recognition_s = 0.0;
  double floorplan_s = 0.0;
  double route_s = 0.0;
  double layout_s = 0.0;
  double total() const {
    return recognition_s + floorplan_s + route_s + layout_s;
  }
};

struct PipelineResult {
  structrec::Recognition recognition;
  graphir::CircuitGraph graph;
  floorplan::Instance instance;
  std::vector<geom::Rect> rects;
  floorplan::Evaluation eval;
  route::GlobalRoute route;
  layoutgen::Layout layout;
  layoutgen::DrcReport drc;
  layoutgen::LvsReport lvs;
  StageTimings timings;
  /// Search provenance: registry key ("sa", "pt", ...; "rgcn-rl" for the
  /// agent path), packed-and-scored candidates, and wall-clock quanta run
  /// (1 unless a time budget raced several).
  std::string optimizer;
  long evaluations = 0;
  long quanta = 1;
  /// Transposition-cache counters for the job-scoped cache the search ran
  /// against (all zero on the RL path, which has no cache).  hits/misses
  /// split is thread-schedule dependent when restarts or replicas share the
  /// cache, so reports treat this object like `timings`: informational, and
  /// stripped before bitwise comparisons.
  struct TtStats {
    long hits = 0;
    long misses = 0;
    long dropped = 0;  ///< inserts dropped because a stripe was full
    long entries = 0;  ///< resident entries when the search finished
  };
  TtStats tt;
};

/// Bounded retry for retryable failures (optimizer_failure,
/// resource_exhausted).  Backoff before retry k is capped-exponential with
/// a jitter factor drawn from the job's SplitMix64 stream, so the schedule
/// — like the report — is a pure function of the job seed.
struct RetryPolicy {
  int max_retries = 0;         ///< extra attempts after the first failure
  double backoff_s = 0.01;     ///< base backoff before the first retry
  double backoff_cap_s = 1.0;  ///< upper bound on any single backoff
};

/// Multi-start / budget configuration shared by every registry optimizer.
struct SearchConfig {
  int restarts = 1;             ///< > 1: best-of-restarts on the pool
  std::uint64_t base_seed = 0;  ///< 0: drawn from the pipeline rng
  /// Budget overrides.  budget.iterations > 0 overrides the optimizer's
  /// primary knob; budget.wall_clock_s > 0 or budget.quanta > 0 switches to
  /// the quantum mode: quanta of the configured iteration budget race the
  /// clock and/or count against the cap (seeded restart_rng(base_seed, q)),
  /// the best quantum wins, and the result is a pure function of
  /// (base_seed, #quanta completed).  budget.deadline_s arms the watchdog.
  /// Quantum mode takes precedence over `restarts`.
  metaheur::SearchBudget budget{};
  RetryPolicy retry{};
  /// Quantum-mode checkpoint file ("" = off): per-quantum search state
  /// (incumbent best, quantum index, evaluation count, base seed) written
  /// atomically after every completed quantum through numeric/serialize's
  /// exact word format.
  std::string checkpoint_path;
  /// Load checkpoint_path before searching and continue from the recorded
  /// quantum; a resumed run is bitwise identical to an uninterrupted one.
  /// A missing checkpoint file degrades to a fresh run (crash-before-
  /// first-quantum semantics).
  bool resume = false;
};

/// The one rule set for search configurations, shared by the afp_cli flags
/// and afpd requests: field ranges, restarts > 1 excludes the quantum mode
/// (wall_clock_s and quanta), a checkpoint needs the quantum mode, and
/// resume needs a checkpoint.  Throws std::invalid_argument naming the
/// offending search.* member.
void validate_search(const SearchConfig& search);

/// Identity hash of a search configuration: the optimizer, its options,
/// the instance size and the per-quantum iteration budget — everything the
/// quantum stream depends on besides the base seed.  Guards checkpoint
/// resume against mismatched searches and names orphaned jobs in the afpd
/// crash-recovery journal.
std::uint64_t checkpoint_identity(const std::string& optimizer,
                                  const metaheur::Options& options,
                                  int num_blocks, int iterations);

struct PipelineConfig {
  bool constrained = false;  ///< apply default positional constraints
  env::EnvConfig env{};
  layoutgen::LayoutConfig layout{};
  double hpwl_ref = 0.0;  ///< 0: estimate via short SA
  /// Sampled-episode attempts when floorplanning with the RL agent.
  int rl_attempts = 4;
  /// Registry optimizer and its key=value options (metaheur/optimizer.hpp).
  std::string optimizer = "sa";
  metaheur::Options options{};
  SearchConfig search{};
  /// Scenario constraint overlay (src/ingest): name-keyed symmetry /
  /// matching / keep-out / pre-placement constraints resolved against the
  /// recognized block graph in prepare() and merged with the defaults when
  /// `constrained` is also set.  Also carries the scenario's target aspect
  /// and extra-whitespace canvas scaling.  Empty = no effect.
  graphir::NamedConstraintSpec scenario_constraints{};
};

class FloorplanPipeline {
 public:
  explicit FloorplanPipeline(PipelineConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// Front half of the pipeline: recognition, graph, constraints, instance.
  /// Shared by both floorplanning paths.
  struct Prepared {
    structrec::Recognition recognition;
    graphir::CircuitGraph graph;
    floorplan::Instance instance;
    double recognition_s = 0.0;
  };
  Prepared prepare(const netlist::Netlist& nl, std::mt19937_64& rng) const;

  /// Full pipeline with the RL agent.
  PipelineResult run(const netlist::Netlist& nl,
                     const rl::ActorCritic& policy,
                     const rgcn::RewardModel& encoder,
                     std::mt19937_64& rng) const;

  /// Full pipeline with the configured registry optimizer
  /// (cfg.optimizer/cfg.options).  Honors cfg.search: multi-start fan-out,
  /// budget overrides, the quantum race, checkpoint-resume and the
  /// watchdog.  `cancel` (optional) is threaded into the optimizer inner
  /// loops (latency: one iteration); a cancellation that fires before any
  /// result exists throws CancelledError, an expired deadline throws
  /// DeadlineExceededError, and any exception escaping an optimizer
  /// invocation is rethrown as OptimizerError with the failing quantum.
  PipelineResult run(const netlist::Netlist& nl, std::mt19937_64& rng,
                     const CancelToken* cancel = nullptr) const;

  /// Same, with a caller-constructed optimizer (cfg.optimizer ignored).
  PipelineResult run(const netlist::Netlist& nl,
                     const metaheur::Optimizer& opt, std::mt19937_64& rng,
                     const CancelToken* cancel = nullptr) const;

  const PipelineConfig& config() const { return cfg_; }

 private:
  PipelineResult back_half(Prepared prep, std::vector<geom::Rect> rects,
                           double floorplan_s, double constraint_tol) const;

  PipelineConfig cfg_;
};

}  // namespace afp::core
