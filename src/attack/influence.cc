#include "attack/influence.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "core/crafting.h"
#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace copyattack::attack {

namespace {

/// Fraction of each candidate profile kept around the target item when
/// crafting the injected window (cf. TargetAttack's keep fraction).
constexpr double kKeepFraction = 0.7;
static_assert(kKeepFraction > 0.0 && kKeepFraction <= 1.0);

/// Cap on the candidate source holders scored per target item.
constexpr std::size_t kMaxCandidates = 512;

}  // namespace

InfluenceAttack::InfluenceAttack(
    const data::CrossDomainDataset* dataset,
    std::shared_ptr<const TargetSurrogate> surrogate, std::uint64_t seed)
    : dataset_(dataset), surrogate_(std::move(surrogate)) {
  (void)seed;  // the analytic pick is deterministic; kept for factory parity
  CA_CHECK(dataset_ != nullptr);
  CA_CHECK(surrogate_ != nullptr);
  CA_CHECK_EQ(surrogate_->num_items(), dataset_->target.num_items());
}

void InfluenceAttack::BeginTargetItem(data::ItemId target_item) {
  OBS_SPAN("attack.influence_rank");
  target_item_ = target_item;
  std::vector<data::UserId> candidates = dataset_->SourceHolders(target_item);
  CA_CHECK(!candidates.empty())
      << "target item " << target_item << " has no source holders";
  if (candidates.size() > kMaxCandidates) candidates.resize(kMaxCandidates);

  // Score each candidate by the influence estimate ⟨v̄, μ_P⟩ of its
  // *crafted* profile (the window actually injected), then rank
  // descending; ties break on user id so the ranking is
  // platform-independent.
  const std::vector<float>& mean_user = surrogate_->mean_user_embedding();
  std::vector<std::pair<double, data::UserId>> scored;
  scored.reserve(candidates.size());
  for (const data::UserId user : candidates) {
    const data::Profile window = core::ClipProfileAroundTarget(
        dataset_->source.UserProfile(user), target_item_, kKeepFraction);
    const std::vector<float> fold_in = surrogate_->FoldInProfile(window);
    double influence = 0.0;
    for (std::size_t c = 0; c < fold_in.size(); ++c) {
      influence += static_cast<double>(mean_user[c]) *
                   static_cast<double>(fold_in[c]);
    }
    scored.emplace_back(influence, user);
    ++influence_evals_;
    OBS_COUNTER_INC("attack.influence_evals");
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  ranked_.clear();
  ranked_.reserve(scored.size());
  for (const auto& [influence, user] : scored) ranked_.push_back(user);
}

double InfluenceAttack::RunEpisode(core::AttackEnvironment& env,
                                   util::Rng& rng) {
  (void)rng;  // the pick is analytic; nothing to sample
  CA_CHECK_NE(target_item_, data::kNoItem);
  OBS_SPAN("attack.influence_episode");

  double last_reward = 0.0;
  std::size_t position = cursor_;
  while (!env.done()) {
    const data::UserId user = ranked_[position % ranked_.size()];
    ++position;
    data::Profile crafted = core::ClipProfileAroundTarget(
        dataset_->source.UserProfile(user), target_item_, kKeepFraction);
    const auto result = env.Step(std::move(crafted));
    if (result.queried) {
      last_reward = result.reward;
      OBS_COUNTER_INC("attack.transfer_queries");
    }
  }

  ++episodes_run_;
  if (!eval_mode_) {
    if (last_reward > best_reward_) {
      best_reward_ = last_reward;
    } else {
      // The head of the window underperformed: slide one position down the
      // influence ranking for the next episode.
      cursor_ = (cursor_ + 1) % ranked_.size();
    }
  }
  return last_reward;
}

bool InfluenceAttack::SaveState(std::ostream& out) {
  util::WritePod<std::uint64_t>(out, cursor_);
  util::WritePod(out, best_reward_);
  util::WritePod(out, episodes_run_);
  util::WritePod(out, influence_evals_);
  return static_cast<bool>(out);
}

bool InfluenceAttack::LoadState(std::istream& in) {
  std::uint64_t cursor = 0;
  if (!util::ReadPod(in, &cursor)) return false;
  cursor_ = static_cast<std::size_t>(cursor);
  return util::ReadPod(in, &best_reward_) &&
         util::ReadPod(in, &episodes_run_) &&
         util::ReadPod(in, &influence_evals_);
}

}  // namespace copyattack::attack
