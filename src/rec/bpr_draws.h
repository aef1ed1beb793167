#ifndef COPYATTACK_REC_BPR_DRAWS_H_
#define COPYATTACK_REC_BPR_DRAWS_H_

#include <cstddef>
#include <functional>

#include "data/dataset.h"
#include "data/types.h"
#include "util/rng.h"

namespace copyattack::rec {

/// One BPR training sample: `user` interacted with `pos` and not with `neg`.
struct BprTriple {
  data::UserId user;
  data::ItemId pos;
  data::ItemId neg;
};

/// Triples per block of the producer/consumer ring, and blocks in the
/// ring: 8 × 1,024 × 12 bytes = 96 KB per epoch.
inline constexpr std::size_t kBprBlockTriples = 1024;
inline constexpr std::size_t kBprRingBlocks = 8;

/// Runs one epoch of BPR draws over `train` and hands each kept triple's
/// block to `apply_block(triples, count)` on the calling thread, in draw
/// order. An epoch is `train.num_interactions()` steps; each draws a
/// uniform user, one item of that user's profile, then up to 32 uniform
/// candidates for a negative the user has not interacted with. A step
/// whose user has an empty profile, or whose 32 candidates all miss, is
/// skipped. Only the model update reads the embeddings, so the draws
/// depend on nothing but `train` and `rng`.
///
/// A dedicated producer thread (never a pool worker: the ring needs its
/// producer and consumer on different threads) runs the draws into a ring
/// of `kBprRingBlocks` blocks of `kBprBlockTriples` triples. The producer
/// owns `rng` for the whole call and is joined before it returns, so the
/// triples, their order and the final `rng` state equal a sequential
/// loop's. An idle side blocks rather than spins. `train` must not change
/// during the call.
void ForEachBprBlock(
    const data::Dataset& train, util::Rng& rng,
    const std::function<void(const BprTriple*, std::size_t)>& apply_block);

/// `ForEachBprBlock`, calling `apply(triple)` for every triple in order.
template <typename Apply>
void ForEachBprTriple(const data::Dataset& train, util::Rng& rng,
                      Apply&& apply) {
  ForEachBprBlock(train, rng,
                  [&apply](const BprTriple* triples, std::size_t count) {
                    for (std::size_t i = 0; i < count; ++i) apply(triples[i]);
                  });
}

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_BPR_DRAWS_H_
