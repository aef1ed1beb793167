#include "core/selection_policy.h"

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "math/sampling.h"
#include "math/vector_ops.h"
#include "nn/optimizer.h"
#include "nn/reinforce.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace copyattack::core {
namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

}  // namespace

HierarchicalSelectionPolicy::HierarchicalSelectionPolicy(
    const cluster::HierarchicalTree* tree,
    const math::Matrix* user_embeddings, const math::Matrix* item_embeddings,
    const Config& config, util::Rng& rng)
    : tree_(tree),
      user_embeddings_(user_embeddings),
      item_embeddings_(item_embeddings),
      config_(config) {
  CA_CHECK(tree != nullptr);
  CA_CHECK(user_embeddings != nullptr);
  CA_CHECK(item_embeddings != nullptr);
  CA_CHECK_EQ(user_embeddings->rows(), tree->num_leaves());

  const std::size_t embed_dim = item_embeddings->cols();
  state_dim_ = embed_dim + config.rnn_hidden_dim;
  if (config.encoder == SequenceEncoderType::kGru) {
    gru_ = std::make_unique<nn::GruEncoder>(
        "selection/gru", user_embeddings->cols(), config.rnn_hidden_dim,
        rng, config.init_stddev);
  } else {
    rnn_ = std::make_unique<nn::RnnEncoder>(
        "selection/rnn", user_embeddings->cols(), config.rnn_hidden_dim,
        rng, config.init_stddev);
  }

  // One policy MLP per internal node, output arity = its child count.
  node_to_mlp_.assign(tree->num_nodes(), kNpos);
  std::size_t num_mlps = 0;
  for (std::size_t id = 0; id < tree->num_nodes(); ++id) {
    if (!tree->IsLeaf(id)) node_to_mlp_[id] = num_mlps++;
  }
  mlps_.resize(num_mlps);
  tree_init_ = rng.SaveState();
  ReserveNodeStreams(rng);
}

std::vector<std::size_t> HierarchicalSelectionPolicy::NodeDims(
    std::size_t node) const {
  return {state_dim_, config_.mlp_hidden_dim,
          tree_->node(node).children.size()};
}

void HierarchicalSelectionPolicy::ReserveNodeStreams(util::Rng& rng) {
  node_init_.resize(mlps_.size());
  for (std::size_t id = 0; id < tree_->num_nodes(); ++id) {
    if (node_to_mlp_[id] == kNpos) continue;
    node_init_[node_to_mlp_[id]] = rng.SaveState();
    rng.SkipNormals(nn::Mlp::InitDrawCount(NodeDims(id)));
  }
}

nn::Mlp& HierarchicalSelectionPolicy::NodeMlp(std::size_t node) {
  const std::size_t mlp_index = node_to_mlp_[node];
  CA_CHECK_NE(mlp_index, kNpos);
  if (mlps_[mlp_index] == nullptr) MaterializeNode(node);
  return *mlps_[mlp_index];
}

void HierarchicalSelectionPolicy::MaterializeNode(std::size_t node)
    CA_COLD_OK("first visit of a tree node, once per node per target") {
  const std::size_t mlp_index = node_to_mlp_[node];
  util::Rng rng(node_init_[mlp_index]);
  mlps_[mlp_index] = std::make_unique<nn::Mlp>(
      "selection/node" + std::to_string(node), NodeDims(node), rng,
      nn::Activation::kRelu, config_.init_stddev);
}

void HierarchicalSelectionPolicy::SetTargetItem(
    data::ItemId item, std::vector<bool> static_mask) {
  CA_CHECK_EQ(static_mask.size(), tree_->num_nodes());
  target_item_ = item;
  static_mask_ = std::move(static_mask);
  ResetEpisodeMask();
}

void HierarchicalSelectionPolicy::ResetEpisodeMask() {
  mask_ = static_mask_;
}

void HierarchicalSelectionPolicy::MarkUserSelected(data::UserId user) {
  std::size_t node = tree_->LeafOfUser(user);
  CA_CHECK_NE(node, cluster::kNoNode);
  mask_[node] = false;
  // Propagate up while a node's children are all masked.
  for (std::size_t parent = tree_->node(node).parent;
       parent != cluster::kNoNode; parent = tree_->node(parent).parent) {
    bool any = false;
    for (const std::size_t child : tree_->node(parent).children) {
      if (mask_[child]) {
        any = true;
        break;
      }
    }
    if (any) break;
    mask_[parent] = false;
  }
}

bool HierarchicalSelectionPolicy::AnyAvailable() const {
  return !mask_.empty() && mask_[tree_->root()];
}

std::size_t HierarchicalSelectionPolicy::AvailableCount() const {
  std::size_t count = 0;
  for (const std::size_t leaf : tree_->leaves()) {
    if (mask_[leaf]) ++count;
  }
  return count;
}

std::vector<std::vector<float>>
HierarchicalSelectionPolicy::SelectedEmbeddings(
    const std::vector<data::UserId>& selected) const {
  std::vector<std::vector<float>> sequence;
  sequence.reserve(selected.size());
  const std::size_t dim = user_embeddings_->cols();
  for (const data::UserId user : selected) {
    const float* row = user_embeddings_->Row(user);
    sequence.emplace_back(row, row + dim);
  }
  return sequence;
}

HierarchicalSelectionPolicy::EncoderRun
HierarchicalSelectionPolicy::RunEncoder(
    const std::vector<data::UserId>& selected) const {
  EncoderRun run;
  const auto sequence = SelectedEmbeddings(selected);
  if (gru_ != nullptr) {
    run.hidden = gru_->Forward(sequence, &run.gru_ctx);
  } else {
    run.hidden = rnn_->Forward(sequence, &run.rnn_ctx);
  }
  return run;
}

void HierarchicalSelectionPolicy::BackwardEncoder(
    const EncoderRun& run, const std::vector<float>& dhidden) {
  if (gru_ != nullptr) {
    gru_->Backward(run.gru_ctx, dhidden);
  } else {
    rnn_->Backward(run.rnn_ctx, dhidden);
  }
}

nn::ParameterList HierarchicalSelectionPolicy::EncoderParameters() {
  return gru_ != nullptr ? gru_->Parameters() : rnn_->Parameters();
}

std::vector<float> HierarchicalSelectionPolicy::StateVector(
    const std::vector<data::UserId>& selected, EncoderRun* run) const {
  CA_CHECK_NE(target_item_, data::kNoItem);
  const std::size_t embed_dim = item_embeddings_->cols();
  std::vector<float> state;
  state.reserve(state_dim_);
  const float* q = item_embeddings_->Row(target_item_);
  state.insert(state.end(), q, q + embed_dim);
  *run = RunEncoder(selected);
  state.insert(state.end(), run->hidden.begin(), run->hidden.end());
  return state;
}

data::UserId HierarchicalSelectionPolicy::SampleUser(
    const std::vector<data::UserId>& selected_so_far, util::Rng& rng,
    SelectionStepRecord* record, bool greedy) {
  CA_CHECK(record != nullptr);
  CA_CHECK(AnyAvailable()) << "no selectable user under the current mask";
  record->selected_prefix = selected_so_far;
  record->path.clear();

  EncoderRun run;
  const std::vector<float> state = StateVector(selected_so_far, &run);

  OBS_SPAN("selection.sample_user");
  OBS_COUNTER_INC("selection.samples");
  std::size_t pruned_children = 0;
  std::size_t node = tree_->root();
  while (!tree_->IsLeaf(node)) {
    const auto& children = tree_->node(node).children;
    std::vector<bool> child_mask(children.size());
    for (std::size_t slot = 0; slot < children.size(); ++slot) {
      child_mask[slot] = mask_[children[slot]];
      if (!child_mask[slot]) ++pruned_children;
    }

    nn::MlpContext ctx;
    std::vector<float> logits = NodeMlp(node).Forward(state, &ctx);
    math::MaskedSoftmaxInPlace(logits, child_mask);
    const std::size_t action = greedy ? math::ArgMax(logits)
                                      : math::SampleCategorical(logits, rng);
    CA_CHECK(child_mask[action]);

    record->path.push_back({node, action, std::move(child_mask)});
    node = children[action];
  }
  record->chosen_user =
      static_cast<data::UserId>(tree_->node(node).leaf_user);
  // Walk cost telemetry: tree depth actually traversed plus how many child
  // slots the masking mechanism pruned from the walk's softmaxes.
  OBS_HIST_OBSERVE("selection.walk_depth", record->path.size());
  OBS_COUNTER_ADD("selection.mask_pruned_children", pruned_children);
  return record->chosen_user;
}

void HierarchicalSelectionPolicy::AccumulateGradients(
    const SelectionStepRecord& record, double advantage) {
  if (record.path.empty()) return;

  EncoderRun run;
  const std::vector<float> state =
      StateVector(record.selected_prefix, &run);
  const std::size_t embed_dim = item_embeddings_->cols();

  std::vector<float> dhidden(config_.rnn_hidden_dim, 0.0f);
  for (const auto& decision : record.path) {
    nn::Mlp& mlp = NodeMlp(decision.node_id);

    nn::MlpContext ctx;
    std::vector<float> probs = mlp.Forward(state, &ctx);
    math::MaskedSoftmaxInPlace(probs, decision.child_mask);
    std::vector<float> dlogits = nn::PolicyGradientLogits(
        probs, decision.action, advantage, decision.child_mask);
    nn::AddEntropyBonusGrad(probs, config_.entropy_beta, decision.child_mask,
                            dlogits);

    std::vector<float> dstate;
    mlp.Backward(ctx, dlogits, &dstate);
    touched_mlps_.insert(node_to_mlp_[decision.node_id]);
    // The q_{v*} half of the state is a frozen pre-trained embedding; only
    // the RNN half receives gradient.
    for (std::size_t h = 0; h < config_.rnn_hidden_dim; ++h) {
      dhidden[h] += dstate[embed_dim + h];
    }
  }
  BackwardEncoder(run, dhidden);
}

void HierarchicalSelectionPolicy::ApplyUpdates(float learning_rate,
                                               float clip_norm) {
  nn::ParameterList params = EncoderParameters();
  for (const std::size_t mlp_index : touched_mlps_) {
    nn::AppendParameters(params, mlps_[mlp_index]->Parameters());
  }
  touched_mlps_.clear();
  nn::Sgd optimizer(learning_rate, clip_norm);
  optimizer.Step(params);
}

std::size_t HierarchicalSelectionPolicy::TotalParameterCount() {
  std::size_t count = 0;
  for (std::size_t id = 0; id < tree_->num_nodes(); ++id) {
    if (node_to_mlp_[id] != kNpos) {
      count += nn::Mlp::ParameterCount(NodeDims(id));
    }
  }
  for (const nn::Parameter* p : EncoderParameters()) {
    count += p->value.size();
  }
  return count;
}

std::size_t HierarchicalSelectionPolicy::materialized_nodes() const {
  std::size_t count = 0;
  for (const auto& mlp : mlps_) {
    if (mlp != nullptr) ++count;
  }
  return count;
}

bool HierarchicalSelectionPolicy::SaveState(std::ostream& out) {
  if (!nn::SaveParameters(
          gru_ != nullptr ? gru_->Parameters() : rnn_->Parameters(), out)) {
    return false;
  }
  util::WriteRngState(out, tree_init_);
  util::WritePod<std::uint32_t>(out, materialized_nodes());
  // Node ids ascend because MLP indices follow node id order.
  for (std::size_t id = 0; id < tree_->num_nodes(); ++id) {
    const std::size_t mlp_index = node_to_mlp_[id];
    if (mlp_index == kNpos || mlps_[mlp_index] == nullptr) continue;
    util::WritePod<std::uint32_t>(out, id);
    if (!nn::SaveParameters(mlps_[mlp_index]->Parameters(), out)) {
      return false;
    }
  }
  return static_cast<bool>(out);
}

bool HierarchicalSelectionPolicy::LoadState(std::istream& in) {
  if (!nn::LoadParameters(
          gru_ != nullptr ? gru_->Parameters() : rnn_->Parameters(), in) ||
      !util::ReadRngState(in, &tree_init_)) {
    return false;
  }
  util::Rng stream(tree_init_);
  ReserveNodeStreams(stream);
  for (auto& mlp : mlps_) mlp.reset();
  touched_mlps_.clear();

  std::uint32_t count = 0;
  if (!util::ReadPod(in, &count) || count > mlps_.size()) return false;
  std::size_t next_id = 0;  // ids must strictly ascend
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t node_id = 0;
    if (!util::ReadPod(in, &node_id) || node_id < next_id ||
        node_id >= tree_->num_nodes() || node_to_mlp_[node_id] == kNpos) {
      return false;
    }
    next_id = static_cast<std::size_t>(node_id) + 1;
    if (!nn::LoadParameters(NodeMlp(node_id).Parameters(), in)) {
      return false;
    }
  }
  return true;
}

}  // namespace copyattack::core
