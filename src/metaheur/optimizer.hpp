// Polymorphic optimizer interface + string-keyed factory registry.
//
// Every search family (SA, GA, PSO, RL-SA, RL-SP, SA over B*-trees, parallel
// tempering over both encodings) is exposed behind one virtual surface:
//
//   auto opt = metaheur::make_optimizer("pt", {{"replicas", "4"}});
//   SearchResult r = opt->run(instance, /*budget=*/{}, rng);
//
// so the solver choice is *data* (a registry key plus a key=value option
// map), not a cross-cutting enum edit.  Adding a search means registering a
// factory — the pipeline, the CLI, the benches and the JobService all pick
// it up without modification.
//
// Parity contract: a registry optimizer constructed from its name and
// defaults calls the exact run_* entry point with the exact parameter
// struct a direct caller would use, so results are bitwise identical to
// calling that entry point for every method, thread count and seed
// (tests/registry_parity_test.cpp locks pt-bstar against run_pt).
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metaheur/baselines.hpp"
#include "metaheur/bstar.hpp"
#include "metaheur/stop.hpp"
#include "metaheur/tempering.hpp"

namespace afp::metaheur {

/// Key=value option map; values are parsed per option (int/double/bool).
using Options = std::map<std::string, std::string>;

/// Result of one optimizer run (the historical baseline record).
using SearchResult = BaselineResult;

/// Budget overrides shared by every optimizer.  Zero fields mean "use the
/// configured options".  `iterations` overrides the optimizer's *primary*
/// budget knob (SA/RL-SA/SA-B*: moves, GA: generations, PSO: sweeps, RL-SP:
/// episodes, PT: per-replica moves).  `wall_clock_s` is not consumed by the
/// optimizer itself: callers (core::FloorplanPipeline / core::JobService)
/// implement it as a deterministic race of fixed-size iteration quanta, so a
/// run is reproducible given the number of quanta that fit the clock.
struct SearchBudget {
  int iterations = 0;
  double wall_clock_s = 0.0;
  /// Hard per-job watchdog deadline in seconds (0 = none).  Not consumed
  /// here either: core::JobService arms the job's CancelToken with it and
  /// core::FloorplanPipeline converts an overrun into deadline_exceeded at
  /// quantum granularity.
  double deadline_s = 0.0;
  /// Quantum-mode cap: with quanta > 0 the pipeline runs exactly this many
  /// quanta (racing the clock too when wall_clock_s > 0).  quanta > 0 with
  /// wall_clock_s == 0 is the fully deterministic quantum mode used by
  /// checkpoint-resume and the fault soak.
  int quanta = 0;
  /// Cooperative stop flag polled by the optimizer inner loops (per
  /// iteration/generation/sweep/episode/replica-move); a stopped run breaks
  /// early and returns its best-so-far.  Null = never stops (the legacy
  /// paths, bitwise unchanged).
  const CancelToken* stop = nullptr;
  /// Optional job-scoped transposition cache (metaheur/eval_cache) threaded
  /// through to the single-chain optimizers so restarts, quanta and PT
  /// replicas of one job share memoized costs.  Null = no memoization.
  TranspositionCache* tt = nullptr;
};

/// Strict full-string numeric parsing (errno + end-pointer checks; doubles
/// must be finite; uints reject a leading '-').  Shared by the option
/// binder and the CLI so the two exit-2 validation surfaces cannot drift.
bool parse_strict_int(const std::string& s, long long* out);
bool parse_strict_uint(const std::string& s, std::uint64_t* out);
bool parse_strict_double(const std::string& s, double* out);

/// One tunable option of an optimizer: key, current value (stringified) and
/// a one-line help text.  Returned by Optimizer::describe for `afp
/// list-baselines` and the JSON config emission.
struct OptionSpec {
  std::string key;
  std::string value;
  std::string help;
};

/// Binds string option keys to typed fields of a parameter struct; used by
/// every optimizer to implement configure()/options()/describe() from one
/// bind() enumeration.  apply() throws std::invalid_argument on an unknown
/// key or an unparsable value.
class OptionBinder {
 public:
  /// `min_value` lets an optimizer reject out-of-range ints at configure
  /// time (exit-2 usage territory) instead of deep inside run().
  void bind(const std::string& key, int* v, const std::string& help,
            int min_value = INT_MIN);
  void bind(const std::string& key, double* v, const std::string& help);
  void bind(const std::string& key, bool* v, const std::string& help);

  void apply(const Options& opts, const std::string& owner) const;
  std::vector<OptionSpec> specs() const;

 private:
  enum class Kind { kInt, kDouble, kBool };
  struct Entry {
    std::string key;
    Kind kind;
    void* ptr;
    std::string help;
    int min_value;
  };
  std::vector<Entry> entries_;
};

/// A floorplan search algorithm with a uniform run surface.  Implementations
/// are cheap value-like objects: construct (from the registry), configure
/// from an option map, run any number of times.  run() is const and
/// thread-compatible — concurrent runs on one instance are safe because all
/// mutable state lives in locals and the caller-provided rng.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Registry key ("sa", "pt-bstar", ...).
  virtual const char* name() const = 0;
  /// Candidate encoding the search operates on ("sequence-pair"/"b*-tree").
  virtual const char* encoding() const = 0;

  /// Applies a key=value option map; throws std::invalid_argument on an
  /// unknown key or a malformed value (the message names both).
  void configure(const Options& opts);
  /// Current configuration as a key=value map (defaults unless configured).
  Options options();
  /// Current configuration with help text, for list-baselines.
  std::vector<OptionSpec> describe();

  /// Runs the search on `inst`.  Budget overrides apply on top of the
  /// configured options; the passed rng is the single entropy source.
  virtual SearchResult run(const floorplan::Instance& inst,
                           const SearchBudget& budget,
                           std::mt19937_64& rng) const = 0;

 protected:
  /// Enumerates the tunable options over the implementation's param struct.
  virtual void bind(OptionBinder& b) = 0;
};

using OptimizerFactory = std::unique_ptr<Optimizer> (*)();

/// Global name -> factory registry.  The built-in optimizers (sa, ga, pso,
/// rlsa, rlsp, sab, pt, pt-bstar) are registered on first access; user code
/// can add() more at startup.
class OptimizerRegistry {
 public:
  static OptimizerRegistry& global();

  /// Registers a factory; throws std::invalid_argument on a duplicate name.
  void add(const std::string& name, OptimizerFactory factory);
  bool contains(const std::string& name) const;
  /// Sorted list of registered names.
  std::vector<std::string> names() const;
  /// Creates and configures an optimizer; throws std::invalid_argument on an
  /// unknown name (the message lists the registered names).
  std::unique_ptr<Optimizer> create(const std::string& name,
                                    const Options& opts = {}) const;

 private:
  OptimizerRegistry();
  std::map<std::string, OptimizerFactory> factories_;
};

/// Convenience: OptimizerRegistry::global().create(name, opts).
std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          const Options& opts = {});

/// Convenience: sorted registered names.
std::vector<std::string> optimizer_names();

}  // namespace afp::metaheur
