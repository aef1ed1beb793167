#include "rec/black_box.h"

#include <algorithm>

#include "math/top_k.h"
#include "obs/obs.h"
#include "util/check.h"

namespace copyattack::rec {
namespace {

/// Score row(s) and selected positions of the query kernels. One per
/// thread, because threads may query one oracle concurrently; it grows to
/// the largest round seen and is reused, so a warm round allocates only
/// the answer lists it returns.
struct QueryScratch {
  std::vector<float> scores;
  std::vector<std::size_t> top;
};

QueryScratch& ThreadQueryScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

/// Scores `rows` equal-length candidate lists into the scratch block and
/// selects the Top-`select` positions of each row.
void ScoreAndSelect(const Recommender& model,
                    const data::UserId* users,
                    const std::vector<data::ItemId>* candidates,
                    std::size_t rows, std::size_t cols, std::size_t select,
                    QueryScratch& scratch) CA_HOT_PATH {
  scratch.scores.resize(rows * cols);
  scratch.top.resize(rows * select);
  for (std::size_t row = 0; row < rows; ++row) {
    model.ScoreCandidatesInto(users[row], candidates[row],
                              scratch.scores.data() + row * cols);
  }
  if (select > 0) {
    math::TopKPerRow(scratch.scores.data(), rows, cols, select,
                     scratch.top.data());
  }
}

}  // namespace

const char* ToString(BlackBoxStatus status) {
  switch (status) {
    case BlackBoxStatus::kOk:
      return "ok";
    case BlackBoxStatus::kTransientError:
      return "transient_error";
    case BlackBoxStatus::kTimeout:
      return "timeout";
    case BlackBoxStatus::kRateLimited:
      return "rate_limited";
    case BlackBoxStatus::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

BlackBoxRecommender::BlackBoxRecommender(Recommender* model,
                                         data::Dataset* polluted)
    : model_(model), polluted_(polluted) {
  CA_CHECK(model != nullptr);
  CA_CHECK(polluted != nullptr);
}

data::UserId BlackBoxRecommender::InjectUser(data::Profile profile) {
  OBS_COUNTER_INC("blackbox.injected_profiles");
  OBS_COUNTER_ADD("blackbox.injected_interactions", profile.size());
  injected_interactions_.fetch_add(profile.size(),
                                   std::memory_order_relaxed);
  injected_profiles_.fetch_add(1, std::memory_order_relaxed);
  const data::UserId user = polluted_->AddUser(std::move(profile));
  model_->ObserveNewUser(*polluted_, user);
  return user;
}

std::vector<data::ItemId> BlackBoxRecommender::QueryTopK(
    data::UserId user, const std::vector<data::ItemId>& candidates,
    std::size_t k) {
  OBS_SCOPED_TIMER_US("blackbox.query_topk_us");
  OBS_COUNTER_INC("blackbox.queries");
  query_count_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t select = std::min(k, candidates.size());
  QueryScratch& scratch = ThreadQueryScratch();
  ScoreAndSelect(*model_, &user, &candidates, 1, candidates.size(), select,
                 scratch);
  std::vector<data::ItemId> items(select);
  for (std::size_t j = 0; j < select; ++j) {
    items[j] = candidates[scratch.top[j]];
  }
  return items;
}

std::vector<QueryResult> BlackBoxRecommender::QueryTopKBatch(
    const std::vector<data::UserId>& users,
    const std::vector<std::vector<data::ItemId>>& candidates,
    std::size_t k) {
  OBS_SCOPED_TIMER_US("blackbox.query_batch_us");
  CA_CHECK_EQ(users.size(), candidates.size());
  std::vector<QueryResult> results(users.size());
  if (users.empty()) return results;

  const std::size_t cols = candidates.front().size();
  for (const auto& list : candidates) {
    CA_CHECK_EQ(list.size(), cols)
        << "batched queries require equal-length candidate lists";
  }
  OBS_COUNTER_ADD("blackbox.queries", users.size());
  OBS_HIST_OBSERVE("blackbox.batch_users", users.size());
  query_count_.fetch_add(users.size(), std::memory_order_relaxed);

  // One contiguous users x candidates score block, filled row by row
  // with the model's row scorer, then one exact select per row. The
  // per-row results are bit-identical to QueryTopK's because both run the
  // same kernels.
  const std::size_t select = std::min(k, cols);
  QueryScratch& scratch = ThreadQueryScratch();
  ScoreAndSelect(*model_, users.data(), candidates.data(), users.size(),
                 cols, select, scratch);
  for (std::size_t row = 0; row < users.size(); ++row) {
    std::vector<data::ItemId>& items = results[row].items;
    items.resize(select);
    for (std::size_t j = 0; j < select; ++j) {
      items[j] = candidates[row][scratch.top[row * select + j]];
    }
  }
  return results;
}

InjectResult BlackBoxRecommender::Inject(data::Profile profile) {
  InjectResult result;
  result.user = InjectUser(std::move(profile));
  return result;
}

QueryResult BlackBoxRecommender::Query(
    data::UserId user, const std::vector<data::ItemId>& candidates,
    std::size_t k) {
  QueryResult result;
  result.items = QueryTopK(user, candidates, k);
  return result;
}

void BlackBoxRecommender::ResetCounters() {
  query_count_.store(0, std::memory_order_relaxed);
  injected_profiles_.store(0, std::memory_order_relaxed);
  injected_interactions_.store(0, std::memory_order_relaxed);
}

}  // namespace copyattack::rec
