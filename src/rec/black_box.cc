#include "rec/black_box.h"

#include <algorithm>

#include "math/top_k.h"
#include "obs/obs.h"
#include "util/check.h"

namespace copyattack::rec {
namespace {

/// Score row and selected positions of the query kernel. One per thread,
/// because threads may query one oracle concurrently; it grows to the
/// longest candidate list seen and is reused, so a warm query allocates
/// only the answer list it returns.
struct QueryScratch {
  std::vector<float> scores;
  std::vector<std::size_t> top;
};

QueryScratch& ThreadQueryScratch() {
  thread_local QueryScratch scratch;
  return scratch;
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
    std::size_t k) CA_HOT_PATH {
  OBS_SCOPED_TIMER_US("blackbox.query_topk_us");
  OBS_COUNTER_INC("blackbox.queries");
  query_count_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cols = candidates.size();
  const std::size_t select = std::min(k, cols);
  QueryScratch& scratch = ThreadQueryScratch();
  scratch.scores.resize(cols);
  scratch.top.resize(select);
  model_->ScoreCandidatesInto(user, candidates, scratch.scores.data());
  if (select > 0) {
    math::TopKPerRow(scratch.scores.data(), 1, cols, select,
                     scratch.top.data());
  }
  std::vector<data::ItemId> items(select);
  for (std::size_t j = 0; j < select; ++j) {
    items[j] = candidates[scratch.top[j]];
  }
  return items;
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
