#include "util/rng.h"

#include <cmath>
#include <istream>
#include <ostream>

namespace copyattack::util {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t DeriveStreamSeed(std::uint64_t base, std::uint64_t stream) {
  // Golden-ratio mix: stream indices land on well-separated points of the
  // splitmix sequence, then one splitmix round decorrelates the bits so
  // that stream 1 of base b and stream 0 of base b+1 share nothing.
  std::uint64_t x = base ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return SplitMix64(x);
}

void WriteRngState(std::ostream& out, const RngState& state) {
  out.write(reinterpret_cast<const char*>(state.words), sizeof(state.words));
  const std::uint8_t cached = state.has_cached_normal ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&cached), sizeof(cached));
  out.write(reinterpret_cast<const char*>(&state.cached_normal),
            sizeof(state.cached_normal));
}

bool ReadRngState(std::istream& in, RngState* state) {
  std::uint8_t cached = 0;
  in.read(reinterpret_cast<char*>(state->words), sizeof(state->words));
  in.read(reinterpret_cast<char*>(&cached), sizeof(cached));
  state->has_cached_normal = cached != 0;
  in.read(reinterpret_cast<char*>(&state->cached_normal),
          sizeof(state->cached_normal));
  return static_cast<bool>(in);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

Rng::Rng(const RngState& state) { RestoreState(state); }

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::UniformUint64(std::uint64_t bound) {
  CA_CHECK_GT(bound, 0ULL);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::UniformDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    // Zero the consumed deviate so equal stream positions save equal
    // states.
    const double cached = cached_normal_;
    has_cached_normal_ = false;
    cached_normal_ = 0.0;
    return cached;
  }
  double u, v, s;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);  // analyze:allow(float-eq): polar-method rejection guard
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

void Rng::SkipNormals(std::size_t n) {
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    cached_normal_ = 0.0;
    --n;
  }
  // Two calls to Normal() consume one accepted point of the polar method,
  // so every point but the last needs only Normal()'s rejection test. The
  // last one or two deviates are drawn for real, so the state ends exactly
  // as Normal() leaves it: the last point's second deviate cached, or
  // consumed and zeroed.
  if (n > 2) {
    const std::size_t points = (n - 1) / 2;
    n -= 2 * points;
    // Accept exactly when Normal() would: 0 < s < 1 (s is a sum of
    // squares). Counting instead of branching keeps the loop free of
    // mispredicted rejections.
    for (std::size_t accepted = 0; accepted < points;) {
      const double u = UniformDouble(-1.0, 1.0);
      const double v = UniformDouble(-1.0, 1.0);
      const double s = u * u + v * v;
      accepted += static_cast<std::size_t>(s < 1.0) &
                  static_cast<std::size_t>(s > 0.0);
    }
  }
  for (; n > 0; --n) Normal();
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  CA_CHECK_LE(k, n);
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(UniformUint64(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

RngState Rng::SaveState() const {
  RngState state;
  for (std::size_t i = 0; i < 4; ++i) state.words[i] = state_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (std::size_t i = 0; i < 4; ++i) state_[i] = state.words[i];
  has_cached_normal_ = state.has_cached_normal;
  // States saved before consumed deviates were zeroed may carry a dead
  // value; drop it so the restored generator saves canonically.
  cached_normal_ = state.has_cached_normal ? state.cached_normal : 0.0;
}

}  // namespace copyattack::util
