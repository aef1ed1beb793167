#include "rec/bpr_draws.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace copyattack::rec {

namespace {

/// Ring size in the block counters' type. The counters wrap mod 2^32, so
/// the ring size must divide it.
constexpr std::uint32_t kSlots = kBprRingBlocks;
static_assert(kSlots > 0 && (kSlots & (kSlots - 1)) == 0,
              "the ring size must be a power of two");

/// The BPR draw loop: one step per training interaction, each a uniform
/// user, one of that user's items, then up to 32 rejection draws for a
/// negative. `emit` receives every triple kept, in draw order.
template <typename Emit>
void DrawBprTriples(const data::Dataset& train, util::Rng& rng,
                    Emit&& emit) {
  const std::size_t steps = train.num_interactions();
  for (std::size_t s = 0; s < steps; ++s) {
    const data::UserId u = static_cast<data::UserId>(
        rng.UniformUint64(train.num_users()));
    const data::Profile& profile = train.UserProfile(u);
    if (profile.empty()) continue;
    const data::ItemId pos = profile[rng.UniformUint64(profile.size())];
    // Rejection-sample a negative item the user has not interacted with.
    data::ItemId neg = pos;
    for (std::size_t attempt = 0; attempt < 32; ++attempt) {
      const data::ItemId candidate = static_cast<data::ItemId>(
          rng.UniformUint64(train.num_items()));
      if (!train.HasInteraction(u, candidate)) {
        neg = candidate;
        break;
      }
    }
    if (neg == pos) continue;
    emit(BprTriple{u, pos, neg});
  }
}

struct Block {
  std::array<BprTriple, kBprBlockTriples> triples;
  std::size_t count = 0;
  bool last = false;  ///< the epoch's final block (possibly empty)
};

/// Single-producer/single-consumer ring of blocks. Block `n` of the epoch
/// lives in slot `n % kBprRingBlocks`. `published_` counts blocks the
/// producer has filled and `released_` blocks the consumer has applied;
/// each is written by one side only, and the other side waits on it.
class BlockRing {
 public:
  BlockRing() : blocks_(kSlots) {}
  BlockRing(const BlockRing&) = delete;
  BlockRing& operator=(const BlockRing&) = delete;

  /// Producer: the next slot to fill, emptied, once the consumer has
  /// released it.
  Block& NextEmpty() {
    while (filled_ - released_.load() == kSlots) {
      released_.wait(filled_ - kSlots);
    }
    Block& block = blocks_[filled_ % kSlots];
    block.count = 0;
    block.last = false;
    return block;
  }

  /// Producer: hands the slot from `NextEmpty` to the consumer.
  void Publish() {
    ++filled_;
    published_.store(filled_);
    published_.notify_one();
  }

  /// Consumer: the next published block, in publication order.
  const Block& NextFull() {
    while (published_.load() == applied_) {
      published_.wait(applied_);
    }
    return blocks_[applied_ % kSlots];
  }

  /// Consumer: returns the block from `NextFull` to the producer.
  void Release() {
    ++applied_;
    released_.store(applied_);
    released_.notify_one();
  }

 private:
  std::vector<Block> blocks_;
  // Each counter on its own cache line, so neither side's writes evict
  // the line the other side polls.
  alignas(64) std::atomic<std::uint32_t> published_{0};
  alignas(64) std::atomic<std::uint32_t> released_{0};
  alignas(64) std::uint32_t filled_ = 0;   // producer-owned
  alignas(64) std::uint32_t applied_ = 0;  // consumer-owned
};

}  // namespace

void ForEachBprBlock(
    const data::Dataset& train, util::Rng& rng,
    const std::function<void(const BprTriple*, std::size_t)>& apply_block) {
  BlockRing ring;
  std::thread producer([&train, &rng, &ring] {
    Block* block = &ring.NextEmpty();
    DrawBprTriples(train, rng, [&ring, &block](const BprTriple& triple) {
      block->triples[block->count++] = triple;
      if (block->count == kBprBlockTriples) {
        ring.Publish();
        block = &ring.NextEmpty();
      }
    });
    block->last = true;
    ring.Publish();
  });

  // A throwing `apply_block` still drains the ring, so the producer
  // finishes its epoch and is joined before the exception propagates.
  std::exception_ptr error;
  for (bool last = false; !last;) {
    const Block& block = ring.NextFull();
    if (!error) {
      try {
        apply_block(block.triples.data(), block.count);
      } catch (...) {
        error = std::current_exception();
      }
    }
    last = block.last;
    ring.Release();
  }
  producer.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace copyattack::rec
