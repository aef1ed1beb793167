#ifndef COPYATTACK_DATA_DATASET_H_
#define COPYATTACK_DATA_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/types.h"
#include "util/annotations.h"
#include "util/check.h"

namespace copyattack::data {

namespace internal_dataset {

/// Cheap always-on detector for concurrent mutation of one `Dataset`.
/// Mutating entry points flip `busy` and abort if it was already set — the
/// structure is single-writer by contract (each campaign worker owns its
/// environment's dataset), so an overlap is a caller bug that would
/// otherwise corrupt state silently. Copies and moves reset the flag: the
/// new object starts with no mutation in flight.
struct MutationSentinel {
  MutationSentinel() = default;
  MutationSentinel(const MutationSentinel&) noexcept {}
  MutationSentinel& operator=(const MutationSentinel&) noexcept {
    return *this;
  }
  std::atomic<bool> busy CA_ATOMIC_ONLY{false};
};

}  // namespace internal_dataset

/// A point-in-time marker of a `Dataset` produced by `Dataset::Checkpoint`.
/// Rolling back to it removes every user and interaction appended after the
/// checkpoint was taken. Checkpoints nest: taking a later checkpoint and
/// rolling back to it keeps an earlier one valid, and rolling back to an
/// earlier checkpoint invalidates every later one.
struct DatasetCheckpoint {
  std::size_t num_users = 0;
  std::size_t num_interactions = 0;
  /// `ItemProfile(i).size()` for every item at checkpoint time; rollback
  /// truncates only the item profiles actually touched afterwards.
  std::vector<std::uint32_t> item_profile_sizes;
};

/// An implicit-feedback interaction dataset for one domain: every user has a
/// temporally ordered profile of item interactions, and every item has a
/// profile of interacting users (paper §3). The structure supports the
/// injection attack directly: `AddUser` appends a new (copied) user and
/// updates the item profiles, polluting the interaction matrix Y.
class Dataset {
 public:
  /// Creates an empty dataset over a fixed item universe of `num_items`.
  explicit Dataset(std::size_t num_items);

  /// Appends a new user with the given ordered profile and returns its id.
  /// Every item must lie in the universe and appear once: a duplicate is
  /// fatal (a user interacts with a movie once in the filtered rating-5
  /// data the paper uses), caught by its bit already being set. Cost:
  /// O(profile) plus one bitset row, amortized.
  UserId AddUser(Profile profile);

  /// Appends one interaction to an existing user's profile. Only for
  /// building a dataset: fatal once a `Checkpoint` was taken, since
  /// rollback removes appended users but cannot undo these appends.
  void AppendInteraction(UserId user, ItemId item);

  std::size_t num_users() const { return profiles_.size(); }
  std::size_t num_items() const { return num_items_; }
  std::size_t num_interactions() const { return num_interactions_; }

  /// The ordered item sequence of `user`.
  const Profile& UserProfile(UserId user) const;

  /// The users who interacted with `item`, in insertion order.
  const std::vector<UserId>& ItemProfile(ItemId item) const;

  /// Number of users who interacted with `item` (the item's popularity).
  std::size_t ItemPopularity(ItemId item) const {
    return ItemProfile(item).size();
  }

  /// True if `user` interacted with `item`: one word of the membership
  /// bitset. An item outside the universe is never interacted with.
  bool HasInteraction(UserId user, ItemId item) const {
    CA_CHECK_LT(user, profiles_.size());
    if (item >= num_items_) return false;
    const std::uint64_t word =
        membership_[user * words_per_user_ + item / kBitsPerWord];
    return ((word >> (item % kBitsPerWord)) & 1U) != 0;
  }

  /// Flattens all interactions (user order, then sequence order).
  std::vector<Interaction> AllInteractions() const;

  /// Returns items sorted by descending popularity (ties by id).
  std::vector<ItemId> ItemsByPopularity() const;

  /// Average profile length over users; 0 when empty.
  double MeanProfileLength() const;

  /// Records the current extent of the dataset so a later `RollbackTo`
  /// can truncate every user added afterwards, and ends
  /// `AppendInteraction`. Cost: O(num_items) to snapshot the item
  /// profile sizes — taken once per attack target, amortized over the
  /// episode loop.
  DatasetCheckpoint Checkpoint();

  /// Reverts the dataset to the state captured by `checkpoint`: users
  /// added since are removed, the item profiles they touched are
  /// truncated and the membership bitset is cut back to the checkpointed
  /// users' rows. Cost: one truncation per interaction appended since the
  /// checkpoint, plus freeing the removed users' profiles; cutting the
  /// bitset is O(1). Never O(dataset) — this replaces the per-episode
  /// deep copy in the attack environment.
  /// `checkpoint` must originate from this dataset (or a copy sharing its
  /// history) and still describe a prefix of it.
  void RollbackTo(const DatasetCheckpoint& checkpoint);

 private:
  static constexpr std::size_t kBitsPerWord = 64;

  std::size_t num_items_;
  /// ⌈num_items / 64⌉: the length of one user's row in `membership_`.
  std::size_t words_per_user_;
  std::size_t num_interactions_ = 0;
  std::vector<Profile> profiles_;  // ordered, per user
  /// Membership bitset, one row of `words_per_user_` words per user in
  /// user order: bit `item % 64` of word `item / 64` of a user's row is
  /// set iff the user interacted with `item`. It costs
  /// users × ⌈items/64⌉ × 8 bytes (2.9 MB at 20,000 × 1,100). Rollback
  /// truncates it and keeps its capacity, so rows added again after a
  /// rollback allocate nothing.
  std::vector<std::uint64_t> membership_;
  std::vector<std::vector<UserId>> item_profiles_;
  /// Set by the first `Checkpoint()`; `AppendInteraction` is fatal after.
  bool checkpointed_ = false;
  /// Trips a fatal check when two threads mutate this dataset at once.
  mutable internal_dataset::MutationSentinel mutation_sentinel_;
};

}  // namespace copyattack::data

#endif  // COPYATTACK_DATA_DATASET_H_
