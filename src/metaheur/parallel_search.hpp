// Parallel multi-restart driver for the metaheuristic baselines.
//
// A single annealing / GA / B*-SA run is inherently sequential, so the
// scalable axis is restarts: K independent searches from per-restart seeded
// RNG streams, run concurrently on the shared numeric thread pool
// (numeric/parallel.hpp), with the best result selected deterministically.
//
// Reproducibility contract: restart k always draws from restart_rng(seed, k)
// — a SplitMix64-derived stream independent of the others — and each search
// runs entirely inside one parallel_for chunk without touching the pool
// (nested parallel_for calls run serially on the worker).  Results are
// therefore bitwise identical for any AFP_NUM_THREADS, including 1, and the
// winning restart is a pure function of the seed.
#pragma once

#include <cstdint>
#include <functional>

#include "metaheur/baselines.hpp"
#include "metaheur/bstar.hpp"

namespace afp::metaheur {

/// SplitMix64 finalizer used to derive all the independent search streams
/// (restart_rng here, replica_rng in metaheur/tempering) — one definition so
/// the domain-separation contract between them cannot silently diverge.
std::uint64_t splitmix64(std::uint64_t x);

/// Independent RNG stream for restart `restart` of `base_seed` (SplitMix64
/// over the pair, so neighboring seeds/restarts are decorrelated).
std::mt19937_64 restart_rng(std::uint64_t base_seed, int restart);

struct MultiStartOptions {
  int restarts = 4;
  std::uint64_t base_seed = 1;
};

/// Runs `opt.restarts` searches of `search(restart, rng)` on the pool and
/// returns the winner: lowest sp_cost of the packed result, ties broken by
/// the lowest restart index.  `evaluations` is summed over all restarts;
/// `runtime_s` is the wall time of the whole fan-out.
BaselineResult run_multistart(
    const floorplan::Instance& inst,
    const std::function<BaselineResult(int restart, std::mt19937_64& rng)>&
        search,
    const MultiStartOptions& opt);

}  // namespace afp::metaheur
