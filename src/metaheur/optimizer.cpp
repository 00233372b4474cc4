#include "metaheur/optimizer.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace afp::metaheur {

namespace {

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool parse_int(const std::string& s, int* out) {
  long long v = 0;
  if (!parse_strict_int(s, &v) || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_bool(const std::string& s, bool* out) {
  if (s == "1" || s == "true" || s == "on" || s == "yes") {
    *out = true;
    return true;
  }
  if (s == "0" || s == "false" || s == "off" || s == "no") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

bool parse_strict_int(const std::string& s, long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_strict_uint(const std::string& s, std::uint64_t* out) {
  // strtoull silently wraps negative input, so reject it explicitly.
  if (s.empty() || s.front() == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_strict_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;  // inf/nan are never valid options
  *out = v;
  return true;
}

// ------------------------------------------------------------ OptionBinder

void OptionBinder::bind(const std::string& key, int* v,
                        const std::string& help, int min_value) {
  entries_.push_back({key, Kind::kInt, v, help, min_value});
}

void OptionBinder::bind(const std::string& key, double* v,
                        const std::string& help) {
  entries_.push_back({key, Kind::kDouble, v, help, INT_MIN});
}

void OptionBinder::bind(const std::string& key, bool* v,
                        const std::string& help) {
  entries_.push_back({key, Kind::kBool, v, help, INT_MIN});
}

void OptionBinder::apply(const Options& opts, const std::string& owner) const {
  for (const auto& [key, value] : opts) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.key == key; });
    if (it == entries_.end()) {
      std::string known;
      for (const auto& e : entries_) {
        known += (known.empty() ? "" : ", ") + e.key;
      }
      throw std::invalid_argument("optimizer '" + owner +
                                  "': unknown option '" + key +
                                  "' (known: " + known + ")");
    }
    bool ok = false;
    switch (it->kind) {
      case Kind::kInt: {
        int parsed = 0;
        ok = parse_int(value, &parsed);
        if (ok && parsed < it->min_value) {
          throw std::invalid_argument(
              "optimizer '" + owner + "': option '" + key + "' must be >= " +
              std::to_string(it->min_value) + ", got '" + value + "'");
        }
        if (ok) *static_cast<int*>(it->ptr) = parsed;
        break;
      }
      case Kind::kDouble:
        ok = parse_strict_double(value, static_cast<double*>(it->ptr));
        break;
      case Kind::kBool:
        ok = parse_bool(value, static_cast<bool*>(it->ptr));
        break;
    }
    if (!ok) {
      throw std::invalid_argument("optimizer '" + owner + "': option '" +
                                  key + "' has malformed value '" + value +
                                  "'");
    }
  }
}

std::vector<OptionSpec> OptionBinder::specs() const {
  std::vector<OptionSpec> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    std::string value;
    switch (e.kind) {
      case Kind::kInt:
        value = std::to_string(*static_cast<int*>(e.ptr));
        break;
      case Kind::kDouble:
        value = format_double(*static_cast<double*>(e.ptr));
        break;
      case Kind::kBool:
        value = *static_cast<bool*>(e.ptr) ? "true" : "false";
        break;
    }
    out.push_back({e.key, value, e.help});
  }
  return out;
}

// --------------------------------------------------------------- Optimizer

void Optimizer::configure(const Options& opts) {
  OptionBinder b;
  bind(b);
  b.apply(opts, name());
}

Options Optimizer::options() {
  Options out;
  for (const auto& s : describe()) out[s.key] = s.value;
  return out;
}

std::vector<OptionSpec> Optimizer::describe() {
  OptionBinder b;
  bind(b);
  return b.specs();
}

// ------------------------------------------------------ built-in optimizers
//
// Each wrapper owns the search's parameter struct and forwards run() to its
// run_* entry point, so the registry path is bitwise identical to a direct
// call.  budget.iterations overrides the primary budget knob only.

namespace {

constexpr const char* kSeqPair = "sequence-pair";
constexpr const char* kBStar = "b*-tree";

class SaOptimizer : public Optimizer {
 public:
  const char* name() const override { return "sa"; }
  const char* encoding() const override { return kSeqPair; }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    SAParams p = p_;
    if (budget.iterations > 0) p.iterations = budget.iterations;
    p.stop = budget.stop;
    p.tt = budget.tt;
    return run_sa(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("iterations", &p_.iterations, "annealing move budget", 0);
    b.bind("t_start", &p_.t_start, "initial temperature");
    b.bind("t_end", &p_.t_end, "final temperature");
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  SAParams p_;
};

class GaOptimizer : public Optimizer {
 public:
  const char* name() const override { return "ga"; }
  const char* encoding() const override { return kSeqPair; }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    GAParams p = p_;
    if (budget.iterations > 0) p.generations = budget.iterations;
    p.stop = budget.stop;
    return run_ga(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("population", &p_.population, "individuals per generation", 1);
    b.bind("generations", &p_.generations, "generation budget", 0);
    b.bind("crossover_rate", &p_.crossover_rate, "crossover probability");
    b.bind("mutation_rate", &p_.mutation_rate, "mutation probability");
    b.bind("tournament", &p_.tournament, "tournament selection size", 1);
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  GAParams p_;
};

class PsoOptimizer : public Optimizer {
 public:
  const char* name() const override { return "pso"; }
  const char* encoding() const override { return kSeqPair; }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    PSOParams p = p_;
    if (budget.iterations > 0) p.iterations = budget.iterations;
    p.stop = budget.stop;
    return run_pso(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("particles", &p_.particles, "swarm size", 1);
    b.bind("iterations", &p_.iterations, "synchronous sweep budget", 0);
    b.bind("inertia", &p_.inertia, "velocity inertia weight");
    b.bind("c1", &p_.c1, "cognitive coefficient");
    b.bind("c2", &p_.c2, "social coefficient");
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  PSOParams p_;
};

class RlsaOptimizer : public Optimizer {
 public:
  const char* name() const override { return "rlsa"; }
  const char* encoding() const override { return kSeqPair; }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    RLSAParams p = p_;
    if (budget.iterations > 0) p.iterations = budget.iterations;
    p.stop = budget.stop;
    p.tt = budget.tt;
    return run_rlsa(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("iterations", &p_.iterations, "annealing move budget", 0);
    b.bind("t_start", &p_.t_start, "initial temperature");
    b.bind("t_end", &p_.t_end, "final temperature");
    b.bind("learning_rate", &p_.learning_rate,
           "REINFORCE step for the move-type policy");
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  RLSAParams p_;
};

class RlspOptimizer : public Optimizer {
 public:
  const char* name() const override { return "rlsp"; }
  const char* encoding() const override { return kSeqPair; }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    RLSPParams p = p_;
    if (budget.iterations > 0) p.episodes = budget.iterations;
    p.stop = budget.stop;
    p.tt = budget.tt;
    return run_rlsp(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("episodes", &p_.episodes, "policy-gradient episode budget", 0);
    b.bind("steps_per_episode", &p_.steps_per_episode, "moves per episode", 0);
    b.bind("learning_rate", &p_.learning_rate, "policy-gradient step size");
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  RLSPParams p_;
};

class SaBstarOptimizer : public Optimizer {
 public:
  const char* name() const override { return "sab"; }
  const char* encoding() const override { return kBStar; }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    BStarSAParams p = p_;
    if (budget.iterations > 0) p.iterations = budget.iterations;
    p.stop = budget.stop;
    p.tt = budget.tt;
    return run_sa_bstar(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("iterations", &p_.iterations, "annealing move budget", 0);
    b.bind("t_start", &p_.t_start, "initial temperature");
    b.bind("t_end", &p_.t_end, "final temperature");
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  BStarSAParams p_;
};

/// Parallel tempering; `Rep` selects the chain encoding so "pt" and
/// "pt-bstar" are two registry entries over one implementation.
template <Representation Rep>
class PtOptimizer : public Optimizer {
 public:
  PtOptimizer() { p_.representation = Rep; }
  const char* name() const override {
    return Rep == Representation::kSequencePair ? "pt" : "pt-bstar";
  }
  const char* encoding() const override {
    return Rep == Representation::kSequencePair ? kSeqPair : kBStar;
  }
  SearchResult run(const floorplan::Instance& inst, const SearchBudget& budget,
                   std::mt19937_64& rng) const override {
    PTParams p = p_;
    if (budget.iterations > 0) p.iterations = budget.iterations;
    p.stop = budget.stop;
    p.tt = budget.tt;
    return run_pt(inst, p, rng);
  }

 protected:
  void bind(OptionBinder& b) override {
    b.bind("replicas", &p_.replicas, "temperature-ladder size K (>= 2)", 2);
    b.bind("iterations", &p_.iterations,
           "mean moves per replica (total = K * this)", 0);
    b.bind("anneal", &p_.anneal,
           "annealed ladder (true) vs fixed rungs (false)");
    b.bind("t_start", &p_.t_start, "annealed mode: coldest start temp");
    b.bind("t_end", &p_.t_end, "annealed mode: coldest final temp");
    b.bind("hot_factor", &p_.hot_factor,
           "annealed mode: hottest/coldest multiplier");
    b.bind("t_cold", &p_.t_cold, "fixed mode: coldest rung");
    b.bind("t_hot", &p_.t_hot, "fixed mode: hottest rung; < 0 = auto");
    b.bind("budget_skew", &p_.budget_skew,
           "cold-chain move-budget skew (1 = equal chains)");
    b.bind("swap_interval", &p_.swap_interval,
           "cold-chain moves between exchange rounds", 1);
    b.bind("adaptive_swap", &p_.adaptive_swap,
           "adapt the swap interval to the exchange acceptance");
    b.bind("spacing_um", &p_.spacing_um,
           "congestion margin; < 0 = auto (one grid cell)");
  }

 private:
  PTParams p_;
};

template <typename T>
std::unique_ptr<Optimizer> make() {
  return std::make_unique<T>();
}

}  // namespace

// ---------------------------------------------------------------- registry

OptimizerRegistry::OptimizerRegistry() {
  add("sa", &make<SaOptimizer>);
  add("ga", &make<GaOptimizer>);
  add("pso", &make<PsoOptimizer>);
  add("rlsa", &make<RlsaOptimizer>);
  add("rlsp", &make<RlspOptimizer>);
  add("sab", &make<SaBstarOptimizer>);
  add("pt", &make<PtOptimizer<Representation::kSequencePair>>);
  add("pt-bstar", &make<PtOptimizer<Representation::kBStarTree>>);
}

OptimizerRegistry& OptimizerRegistry::global() {
  static OptimizerRegistry registry;
  return registry;
}

void OptimizerRegistry::add(const std::string& name,
                            OptimizerFactory factory) {
  if (factories_.count(name)) {
    throw std::invalid_argument("OptimizerRegistry: duplicate name '" + name +
                                "'");
  }
  factories_[name] = factory;
}

bool OptimizerRegistry::contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> OptimizerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<Optimizer> OptimizerRegistry::create(
    const std::string& name, const Options& opts) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown optimizer '" + name +
                                "' (registered: " + known + ")");
  }
  auto opt = it->second();
  opt->configure(opts);
  return opt;
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          const Options& opts) {
  return OptimizerRegistry::global().create(name, opts);
}

std::vector<std::string> optimizer_names() {
  return OptimizerRegistry::global().names();
}

}  // namespace afp::metaheur
