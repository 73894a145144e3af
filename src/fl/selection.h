#ifndef RFED_FL_SELECTION_H_
#define RFED_FL_SELECTION_H_

#include <vector>

#include "util/rng.h"

namespace rfed {

/// Cohort selection strategies. FedAvg samples uniformly without
/// replacement; the adaptive strategy (the "adaptive participant
/// selection" future-work direction of the paper, in the spirit of
/// Power-of-Choice) over-samples clients whose last known local loss is
/// high, which speeds convergence on skewed data at some fairness risk.

/// Uniform sample of cohort_size of num_clients clients without
/// replacement. Aborts if cohort_size > num_clients; the full-cohort
/// case (cohort_size == num_clients) returns 0..N-1 in order without
/// consuming randomness, so SR = 1.0 runs are RNG-neutral.
std::vector<int> UniformSelection(int num_clients, int cohort_size, Rng* rng);

/// Loss-proportional sampling without replacement (sequential weighted
/// draws): client k is drawn with probability proportional to its last
/// known local loss. Clients that never reported a loss (NaN/<=0
/// entries) get the mean of the known losses, so unseen clients are
/// neither starved nor favored. Consumes exactly cohort_size Uniform()
/// draws from `rng`.
std::vector<int> LossProportionalSelection(
    const std::vector<double>& last_losses, int cohort_size, Rng* rng);

/// Uniform sample of cohort_size distinct clients in O(cohort_size) time
/// and memory, independent of num_clients — the cross-device path, where
/// materializing a length-N permutation per round (as UniformSelection
/// does) would dominate the round at N = 10^6. Uses Robert Floyd's
/// algorithm; the returned cohort is sorted ascending, which doubles as
/// the canonical leaf order of the server's tree mean
/// (fl/shard_agg.h). Consumes exactly cohort_size UniformInt draws; the
/// full-cohort case consumes none, mirroring UniformSelection.
///
/// Note: the sampled *set* is uniform but the draw sequence differs from
/// UniformSelection, so this is only used in pool mode (lazy client
/// state), never on the golden-pinned legacy path.
std::vector<int> SparseUniformSelection(int num_clients, int cohort_size,
                                        Rng* rng);

}  // namespace rfed

#endif  // RFED_FL_SELECTION_H_
