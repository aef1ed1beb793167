#ifndef COPYATTACK_UTIL_RNG_H_
#define COPYATTACK_UTIL_RNG_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/annotations.h"
#include "util/check.h"

namespace copyattack::util {

/// Derives the seed of an independent child stream from a base seed and a
/// stream index (golden-ratio multiplicative mix, the same constant the
/// xoshiro seeding uses). Deterministic: equal `(base, stream)` pairs give
/// equal seeds, and distinct stream indices give well-separated seeds even
/// for adjacent bases. This is the one sanctioned way to give each shard,
/// thread, or experiment arm of a campaign its own reproducible stream —
/// the derived seed depends only on the logical stream index, never on how
/// many draws any other stream consumed.
std::uint64_t DeriveStreamSeed(std::uint64_t base, std::uint64_t stream);

/// The complete serializable state of an `Rng` stream. Capturing and
/// restoring it mid-stream resumes the exact draw sequence — the basis of
/// crash-safe campaign checkpointing (core/checkpoint.h).
struct RngState CA_CHECKPOINTED(WriteRngState, ReadRngState) {
  std::uint64_t words[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// Binary codec for `RngState` (little-endian words, a cached-normal flag
/// byte, then the cached deviate's raw bytes), shared by every checkpoint
/// that embeds a stream position. `ReadRngState` returns false on a short
/// read.
void WriteRngState(std::ostream& out, const RngState& state);
bool ReadRngState(std::istream& in, RngState* state);

/// Deterministic, fast pseudo-random number generator (xoshiro256**),
/// seeded through splitmix64 so that any 64-bit seed gives a well-mixed
/// state. Every stochastic component of the project draws from an `Rng`
/// instance that it receives explicitly, which makes experiments exactly
/// reproducible from a single seed.
class Rng CA_CHECKPOINTED(Rng::SaveState, Rng::RestoreState) {
 public:
  /// Constructs a generator from a 64-bit seed. Equal seeds yield equal
  /// streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Constructs a generator positioned at a saved stream state, so a
  /// component can replay draws from where `SaveState` captured them.
  explicit Rng(const RngState& state);

  /// Returns the next raw 64-bit value.
  std::uint64_t NextUint64();

  /// Returns an unbiased uniform integer in `[0, bound)`. `bound` must be > 0.
  std::uint64_t UniformUint64(std::uint64_t bound);

  /// Returns a uniform double in `[0, 1)`.
  double UniformDouble();

  /// Returns a uniform double in `[lo, hi)`.
  double UniformDouble(double lo, double hi);

  /// Returns a standard normal deviate (Marsaglia polar method).
  double Normal();

  /// Returns a normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Advances the stream exactly as `n` calls to `Normal()` would — same
  /// resulting `SaveState()`, cached deviate included — without computing
  /// the deviates it discards: whole polar pairs run only their rejection
  /// loop. Lets a component reserve a stretch of draws now and replay it
  /// later from a saved state.
  void SkipNormals(std::size_t n);

  /// Fisher–Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(UniformUint64(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples `k` distinct indices from `[0, n)` uniformly (partial
  /// Fisher–Yates). Requires `k <= n`. Order of the result is random.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Creates an independent child generator; useful for giving each thread
  /// or each experiment arm its own deterministic stream.
  Rng Fork();

  /// Snapshots the full generator state (see `RngState`).
  RngState SaveState() const;

  /// Restores a previously saved state; the stream continues bit-exactly
  /// from where `SaveState` captured it.
  void RestoreState(const RngState& state);

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace copyattack::util

#endif  // COPYATTACK_UTIL_RNG_H_
