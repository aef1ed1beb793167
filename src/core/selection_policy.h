#ifndef COPYATTACK_CORE_SELECTION_POLICY_H_
#define COPYATTACK_CORE_SELECTION_POLICY_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <set>
#include <vector>

#include "cluster/hierarchical_tree.h"
#include "data/types.h"
#include "math/matrix.h"
#include "nn/gru.h"
#include "nn/mlp.h"
#include "nn/rnn.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace copyattack::core {

/// Record of one user-selection decision: everything needed to replay the
/// forward pass at update time (parameters only change at episode
/// boundaries, so the replayed activations equal the originals).
struct SelectionStepRecord {
  /// Users already selected when this decision was made (RNN input).
  std::vector<data::UserId> selected_prefix;

  struct NodeDecision {
    std::size_t node_id = 0;
    std::size_t action = 0;          ///< chosen child slot
    std::vector<bool> child_mask;    ///< mask over child slots at play time
  };
  /// Root-to-leaf decisions, in order.
  std::vector<NodeDecision> path;

  data::UserId chosen_user = data::kNoUser;
};

/// Which recurrent encoder summarizes the selected-user history.
enum class SequenceEncoderType {
  kVanillaRnn,  ///< the paper's plain RNN
  kGru,         ///< gated variant; helps on longer selection histories
};

/// Hierarchical-structure policy gradient over the balanced clustering
/// tree (paper §4.3.3): every internal node hosts an MLP that maps the
/// state [q_{v*} ⊕ RNN(selected users)] to a distribution over its
/// children; selecting a source user is a root-to-leaf walk sampling one
/// child per node under the masking mechanism (§4.3.2). The per-decision
/// cost is O(branching · depth) instead of O(#users) for a flat policy.
///
/// Node MLPs are built lazily: masking keeps a target's walks inside the
/// ancestors of its source holders, so most nodes are never visited. The
/// constructor only records where each node's initial weights start in
/// the shared init stream and skips past them, so a node built on its
/// first visit holds exactly the weights an eager build would have drawn.
class HierarchicalSelectionPolicy CA_CHECKPOINTED(
    HierarchicalSelectionPolicy::SaveState,
    HierarchicalSelectionPolicy::LoadState) {
 public:
  struct Config {
    SequenceEncoderType encoder = SequenceEncoderType::kVanillaRnn;
  };

  /// Hidden width of every node MLP, width of the encoder state, and the
  /// standard deviation of the Gaussian initial weights of both.
  static constexpr std::size_t kMlpHiddenDim = 16;
  static constexpr std::size_t kRnnHiddenDim = 8;
  static constexpr float kInitStddev = 0.1f;

  /// `tree`, `user_embeddings` (p^B, one row per source user) and
  /// `item_embeddings` (q^B) are borrowed and must outlive the policy.
  /// The embeddings are the frozen pre-trained MF representations. `rng`
  /// advances past every node MLP's initial draws, built or not.
  HierarchicalSelectionPolicy(const cluster::HierarchicalTree* tree,
                              const math::Matrix* user_embeddings,
                              const math::Matrix* item_embeddings,
                              const Config& config, util::Rng& rng);

  /// Installs the target item and its *static* node mask (from
  /// `HierarchicalTree::ComputeMask`); resets the dynamic exclusions.
  void SetTargetItem(data::ItemId item, std::vector<bool> static_mask);

  /// Re-arms the dynamic mask to the static one (new episode).
  void ResetEpisodeMask();

  /// Dynamically masks `user`'s leaf (e.g. it was just copied) and
  /// propagates the mask up through fully-masked ancestors.
  void MarkUserSelected(data::UserId user);

  /// True while at least one leaf is selectable.
  bool AnyAvailable() const;

  /// Number of currently selectable leaves.
  std::size_t AvailableCount() const;

  /// Samples one source user by walking the tree; fills `record` for the
  /// later policy update. Requires `AnyAvailable()`. With `greedy` the
  /// walk takes the argmax child at every node (evaluation mode).
  data::UserId SampleUser(const std::vector<data::UserId>& selected_so_far,
                          util::Rng& rng, SelectionStepRecord* record,
                          bool greedy = false);

  /// Accumulates REINFORCE gradients for a recorded decision.
  void AccumulateGradients(const SelectionStepRecord& record,
                           double advantage);

  /// Applies one SGD step to every module touched since the last call
  /// (visited node MLPs + the RNN encoder) and clears the gradients.
  void ApplyUpdates(float learning_rate, float clip_norm);

  /// Total number of learnable parameters across all node policies and
  /// the encoder, counted from the tree shape without building any node.
  std::size_t TotalParameterCount();

  /// Node MLPs built so far (first visits since construction or the last
  /// `LoadState`).
  std::size_t materialized_nodes() const;

  /// Cross-episode state (DESIGN.md §11): the encoder's parameters, the
  /// init-stream position of the first node, then the built node MLPs
  /// keyed by node id in ascending order.
  bool SaveState(std::ostream& out);

  /// Restores a `SaveState` blob written over the same tree and config.
  /// Nodes the blob does not hold are dropped and re-derived, on their
  /// next visit, from the blob's init stream — not from this policy's own
  /// seed. Returns false on a short read, a size mismatch, or a node id
  /// that is out of range, a leaf, repeated or out of order; the policy
  /// is then valid but its weights are unspecified.
  bool LoadState(std::istream& in);

  std::size_t state_dim() const { return state_dim_; }

 private:
  /// One encoder forward pass: contexts for either encoder type plus the
  /// resulting hidden state.
  struct EncoderRun {
    nn::RnnContext rnn_ctx;
    nn::GruContext gru_ctx;
    std::vector<float> hidden;
  };

  /// Encodes the selected-user history with the configured encoder.
  EncoderRun RunEncoder(const std::vector<data::UserId>& selected) const;

  /// Backpropagates dL/dh through the configured encoder.
  void BackwardEncoder(const EncoderRun& run,
                       const std::vector<float>& dhidden);

  /// Learnable parameters of the configured encoder.
  nn::ParameterList EncoderParameters();

  /// Layer widths of `node`'s MLP: state → hidden → one logit per child.
  std::vector<std::size_t> NodeDims(std::size_t node) const;

  /// Records each internal node's init-stream position, in node id
  /// order, and advances `rng` past the draws its MLP takes.
  void ReserveNodeStreams(util::Rng& rng);

  /// `node`'s MLP, built from its reserved stream on the first visit.
  nn::Mlp& NodeMlp(std::size_t node);

  /// Builds `node`'s MLP from its reserved init-stream position.
  void MaterializeNode(std::size_t node);

  /// Builds the state vector [q_{v*} ⊕ encoder(selected)]; `run` receives
  /// the encoder activations for a later backward pass.
  std::vector<float> StateVector(
      const std::vector<data::UserId>& selected, EncoderRun* run) const;

  /// Embedding sequence of the selected users (encoder input).
  std::vector<std::vector<float>> SelectedEmbeddings(
      const std::vector<data::UserId>& selected) const;

  const cluster::HierarchicalTree* tree_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  const math::Matrix* user_embeddings_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  const math::Matrix* item_embeddings_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  std::size_t state_dim_
      CA_NOT_CHECKPOINTED("derived from the embedding width");

  std::unique_ptr<nn::RnnEncoder> rnn_;  // exactly one encoder is non-null
  std::unique_ptr<nn::GruEncoder> gru_;

  /// Init-stream position at the first internal node.
  util::RngState tree_init_;
  /// node_to_mlp_[node] is the MLP index for an internal node, or npos.
  std::vector<std::size_t> node_to_mlp_
      CA_NOT_CHECKPOINTED("derived from the tree at construction");
  /// Init-stream position of each node MLP, by MLP index.
  std::vector<util::RngState> node_init_
      CA_NOT_CHECKPOINTED("derived from tree_init_");
  /// Node MLPs by MLP index; null until the node's first visit.
  std::vector<std::unique_ptr<nn::Mlp>> mlps_;

  data::ItemId target_item_
      CA_NOT_CHECKPOINTED("per-target, set by SetTargetItem") =
          data::kNoItem;
  std::vector<bool> static_mask_
      CA_NOT_CHECKPOINTED("per-target, set by SetTargetItem");
  std::vector<bool> mask_
      CA_NOT_CHECKPOINTED("per-episode, re-armed by ResetEpisodeMask");

  std::set<std::size_t> touched_mlps_
      CA_NOT_CHECKPOINTED("per-episode scratch, cleared by ApplyUpdates");
};

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_SELECTION_POLICY_H_
