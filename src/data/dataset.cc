#include "data/dataset.h"

#include <algorithm>

#include "util/check.h"

namespace copyattack::data {

namespace {

/// RAII claim on a dataset's mutation sentinel. The exchange/store pair is
/// sequentially consistent, so back-to-back mutations from different
/// threads synchronize through the flag and the fatal check fires before
/// any overlapping writer touches the underlying vectors.
class ScopedMutation {
 public:
  explicit ScopedMutation(internal_dataset::MutationSentinel& sentinel)
      : sentinel_(sentinel) {
    CA_CHECK(!sentinel_.busy.exchange(true))
        << "concurrent Dataset mutation — datasets are single-writer; give "
           "each thread its own environment/dataset";
  }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
  ~ScopedMutation() { sentinel_.busy.store(false); }

 private:
  internal_dataset::MutationSentinel& sentinel_;
};

}  // namespace

Dataset::Dataset(std::size_t num_items)
    : num_items_(num_items),
      words_per_user_((num_items + kBitsPerWord - 1) / kBitsPerWord),
      item_profiles_(num_items) {
  CA_CHECK_GT(num_items, 0U);
}

UserId Dataset::AddUser(Profile profile) {
  ScopedMutation mutation(mutation_sentinel_);
  const UserId user = static_cast<UserId>(profiles_.size());
  for (const ItemId item : profile) CA_CHECK_LT(item, num_items_);
  membership_.resize(membership_.size() + words_per_user_, 0);
  std::uint64_t* row = membership_.data() + user * words_per_user_;
  for (const ItemId item : profile) {
    std::uint64_t& word = row[item / kBitsPerWord];
    const std::uint64_t bit = std::uint64_t{1} << (item % kBitsPerWord);
    CA_CHECK((word & bit) == 0)
        << "duplicate item in profile of user " << user;
    word |= bit;
    item_profiles_[item].push_back(user);
  }
  num_interactions_ += profile.size();
  profiles_.push_back(std::move(profile));
  return user;
}

void Dataset::AppendInteraction(UserId user, ItemId item) {
  ScopedMutation mutation(mutation_sentinel_);
  CA_CHECK(!checkpointed_)
      << "AppendInteraction after a Checkpoint: rollback cannot undo it";
  CA_CHECK_LT(user, profiles_.size());
  CA_CHECK_LT(item, num_items_);
  CA_CHECK(!HasInteraction(user, item))
      << "user " << user << " already interacted with item " << item;
  profiles_[user].push_back(item);
  membership_[user * words_per_user_ + item / kBitsPerWord] |=
      std::uint64_t{1} << (item % kBitsPerWord);
  item_profiles_[item].push_back(user);
  ++num_interactions_;
}

DatasetCheckpoint Dataset::Checkpoint() {
  ScopedMutation mutation(mutation_sentinel_);
  checkpointed_ = true;
  DatasetCheckpoint checkpoint;
  checkpoint.num_users = profiles_.size();
  checkpoint.num_interactions = num_interactions_;
  checkpoint.item_profile_sizes.reserve(num_items_);
  for (const auto& item_profile : item_profiles_) {
    checkpoint.item_profile_sizes.push_back(
        static_cast<std::uint32_t>(item_profile.size()));
  }
  return checkpoint;
}

void Dataset::RollbackTo(const DatasetCheckpoint& checkpoint) {
  ScopedMutation mutation(mutation_sentinel_);
  CA_CHECK(checkpointed_) << "RollbackTo without a prior Checkpoint";
  CA_CHECK_LE(checkpoint.num_users, profiles_.size());
  CA_CHECK_EQ(checkpoint.item_profile_sizes.size(), num_items_);

  // Truncates `item`'s inverted list back to its checkpointed length.
  // Idempotent, so items touched by several appended users cost one
  // resize each time but converge to the same state.
  const auto truncate_item = [&](ItemId item) {
    auto& item_profile = item_profiles_[item];
    const std::size_t base = checkpoint.item_profile_sizes[item];
    if (item_profile.size() > base) item_profile.resize(base);
  };

  // Drop appended users and their inverted-list entries.
  for (std::size_t u = checkpoint.num_users; u < profiles_.size(); ++u) {
    for (const ItemId item : profiles_[u]) truncate_item(item);
  }
  profiles_.resize(checkpoint.num_users);
  membership_.resize(checkpoint.num_users * words_per_user_);
  num_interactions_ = checkpoint.num_interactions;
}

const Profile& Dataset::UserProfile(UserId user) const {
  CA_CHECK_LT(user, profiles_.size());
  return profiles_[user];
}

const std::vector<UserId>& Dataset::ItemProfile(ItemId item) const {
  CA_CHECK_LT(item, num_items_);
  return item_profiles_[item];
}

std::vector<Interaction> Dataset::AllInteractions() const {
  std::vector<Interaction> interactions;
  interactions.reserve(num_interactions_);
  for (UserId u = 0; u < profiles_.size(); ++u) {
    const Profile& profile = profiles_[u];
    for (std::uint32_t pos = 0; pos < profile.size(); ++pos) {
      interactions.push_back({u, profile[pos], pos});
    }
  }
  return interactions;
}

std::vector<ItemId> Dataset::ItemsByPopularity() const {
  std::vector<ItemId> items(num_items_);
  for (ItemId i = 0; i < num_items_; ++i) items[i] = i;
  std::stable_sort(items.begin(), items.end(), [this](ItemId a, ItemId b) {
    return item_profiles_[a].size() > item_profiles_[b].size();
  });
  return items;
}

double Dataset::MeanProfileLength() const {
  if (profiles_.empty()) return 0.0;
  return static_cast<double>(num_interactions_) /
         static_cast<double>(profiles_.size());
}

}  // namespace copyattack::data
