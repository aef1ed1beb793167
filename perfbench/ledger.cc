#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/attack_strategy.h"
#include "rec/recommender.h"

namespace copyattack::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Accounting of the one target item a model clone serves. Score time is
/// kept as a sample and scaled up when the target finishes.
struct TargetRecord {
  LayerTotals totals;
  Clock::time_point start;
  std::uint64_t sampled_query_calls = 0;
  std::uint64_t sampled_eval_calls = 0;
  double sampled_query_s = 0.0;
  double sampled_eval_s = 0.0;
};

/// The target the current thread is playing: set when its model clone is
/// created (the first thing core::PlayTargetItem does) and cleared when
/// the clone is destroyed (the last thing).
thread_local TargetRecord* t_current = nullptr;
thread_local std::uint64_t t_score_tick = 0;

std::mutex g_mutex;
LayerTotals g_totals;  // guarded by g_mutex

/// What one timed interval costs beyond the work inside it: the minimum
/// of many back-to-back clock reads.
double ClockOverheadSeconds() {
  static const double overhead = [] {
    double best = 1.0;
    for (int i = 0; i < 1000; ++i) {
      const Clock::time_point start = Clock::now();
      best = std::min(best, Since(start));
    }
    return best;
  }();
  return overhead;
}

double ScaleSample(double sampled_s, std::uint64_t sampled_calls,
                   std::uint64_t calls) {
  if (sampled_calls == 0) return 0.0;
  const double per_call = std::max(
      0.0, sampled_s / static_cast<double>(sampled_calls) -
               ClockOverheadSeconds());
  return per_call * static_cast<double>(calls);
}

void Merge(const LayerTotals& t) {
  std::lock_guard<std::mutex> lock(g_mutex);
  LayerTotals& g = g_totals;
  g.targets += 1;
  g.target_wall_s += t.target_wall_s;
  g.clone_s += t.clone_s;
  g.clones += t.clones;
  g.strategy_build_s += t.strategy_build_s;
  g.begin_target_s += t.begin_target_s;
  g.episode_s += t.episode_s;
  g.episodes += t.episodes;
  g.query_score_s += t.query_score_s;
  g.query_score_calls += t.query_score_calls;
  g.eval_score_s += t.eval_score_s;
  g.eval_score_calls += t.eval_score_calls;
  g.observe_s += t.observe_s;
  g.observe_calls += t.observe_calls;
  g.reset_s += t.reset_s;
  g.begin_serving_calls += t.begin_serving_calls;
  g.rollbacks += t.rollbacks;
  g.target_ms.push_back(t.target_wall_s * 1e3);
}

class TracedRecommender final : public rec::Recommender {
 public:
  TracedRecommender(std::unique_ptr<rec::Recommender> inner,
                    std::size_t real_users, Clock::time_point start,
                    double clone_s)
      : inner_(std::move(inner)), real_users_(real_users) {
    record_.start = start;
    record_.totals.clone_s = clone_s;
    record_.totals.clones = 1;
    t_current = &record_;
  }
  TracedRecommender(const TracedRecommender&) = delete;
  TracedRecommender& operator=(const TracedRecommender&) = delete;

  ~TracedRecommender() override {
    inner_.reset();
    LayerTotals& t = record_.totals;
    t.target_wall_s = Since(record_.start);
    t.query_score_s = ScaleSample(record_.sampled_query_s,
                                  record_.sampled_query_calls,
                                  t.query_score_calls);
    t.eval_score_s = ScaleSample(record_.sampled_eval_s,
                                 record_.sampled_eval_calls,
                                 t.eval_score_calls);
    if (t_current == &record_) t_current = nullptr;
    Merge(t);
  }

  void InitTraining(const data::Dataset& train, util::Rng& rng) override {
    inner_->InitTraining(train, rng);
  }
  void TrainEpoch(const data::Dataset& train, util::Rng& rng) override {
    inner_->TrainEpoch(train, rng);
  }

  void BeginServing(const data::Dataset& current) override {
    const Clock::time_point start = Clock::now();
    inner_->BeginServing(current);
    record_.totals.reset_s += Since(start);
    ++record_.totals.begin_serving_calls;
  }

  void ObserveNewUser(const data::Dataset& current,
                      data::UserId user) override {
    const Clock::time_point start = Clock::now();
    inner_->ObserveNewUser(current, user);
    record_.totals.observe_s += Since(start);
    ++record_.totals.observe_calls;
  }

  bool CheckpointServing() override {
    const Clock::time_point start = Clock::now();
    const bool ok = inner_->CheckpointServing();
    record_.totals.reset_s += Since(start);
    return ok;
  }

  bool RollbackServing() override {
    const Clock::time_point start = Clock::now();
    const bool ok = inner_->RollbackServing();
    record_.totals.reset_s += Since(start);
    ++record_.totals.rollbacks;
    return ok;
  }

  float Score(data::UserId user, data::ItemId item) const override {
    // Pretend users are appended after the real ones, so the user id alone
    // tells a query-round probe from a final-evaluation score.
    const bool query = user >= real_users_;
    LayerTotals& t = record_.totals;
    ++(query ? t.query_score_calls : t.eval_score_calls);
    if (++t_score_tick % kScoreSample != 0) return inner_->Score(user, item);
    const Clock::time_point start = Clock::now();
    const float score = inner_->Score(user, item);
    const double elapsed = Since(start);
    if (query) {
      record_.sampled_query_s += elapsed;
      ++record_.sampled_query_calls;
    } else {
      record_.sampled_eval_s += elapsed;
      ++record_.sampled_eval_calls;
    }
    return score;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rec::Recommender> inner_;
  const std::size_t real_users_;
  /// Mutated from the const Score path; a model clone serves one target
  /// on one thread, so no synchronisation is needed.
  mutable TargetRecord record_;
};

class TracedStrategy final : public core::AttackStrategy {
 public:
  explicit TracedStrategy(std::unique_ptr<core::AttackStrategy> inner)
      : inner_(std::move(inner)) {}
  TracedStrategy(const TracedStrategy&) = delete;
  TracedStrategy& operator=(const TracedStrategy&) = delete;

  ~TracedStrategy() override {
    const Clock::time_point start = Clock::now();
    inner_.reset();
    if (t_current != nullptr) {
      t_current->totals.strategy_build_s += Since(start);
    }
  }

  std::string name() const override { return inner_->name(); }

  void BeginTargetItem(data::ItemId target_item) override {
    const Clock::time_point start = Clock::now();
    inner_->BeginTargetItem(target_item);
    if (t_current != nullptr) {
      t_current->totals.begin_target_s += Since(start);
    }
  }

  double RunEpisode(core::AttackEnvironment& env, util::Rng& rng) override {
    const Clock::time_point start = Clock::now();
    const double reward = inner_->RunEpisode(env, rng);
    if (t_current != nullptr) {
      t_current->totals.episode_s += Since(start);
      ++t_current->totals.episodes;
    }
    return reward;
  }

  void SetEvalMode(bool eval_mode) override { inner_->SetEvalMode(eval_mode); }
  bool SaveState(std::ostream& out) override { return inner_->SaveState(out); }
  bool LoadState(std::istream& in) override { return inner_->LoadState(in); }

 private:
  std::unique_ptr<core::AttackStrategy> inner_;
};

}  // namespace

double LayerTotals::TargetOverheadSeconds() const {
  return target_wall_s - clone_s - strategy_build_s - begin_target_s -
         episode_s - reset_s - eval_score_s;
}

double LayerTotals::StrategySelfSeconds() const {
  return episode_s - query_score_s - observe_s;
}

void ResetLedger() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_totals = LayerTotals{};
}

LayerTotals LedgerSnapshot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_totals;
}

core::ModelFactory TraceModels(core::ModelFactory inner,
                               std::size_t real_users) {
  return [inner = std::move(inner), real_users] {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<rec::Recommender> model = inner();
    const double clone_s = Since(start);
    return std::make_unique<TracedRecommender>(std::move(model), real_users,
                                               start, clone_s);
  };
}

core::StrategyFactory TraceStrategies(core::StrategyFactory inner) {
  return [inner = std::move(inner)](std::uint64_t seed) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<core::AttackStrategy> strategy = inner(seed);
    if (t_current != nullptr) {
      t_current->totals.strategy_build_s += Since(start);
    }
    return std::make_unique<TracedStrategy>(std::move(strategy));
  };
}

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace copyattack::perfbench
