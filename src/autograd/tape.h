#ifndef RFED_AUTOGRAD_TAPE_H_
#define RFED_AUTOGRAD_TAPE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "tensor/buffer_pool.h"

namespace rfed::ag {

/// Execution strategy for one local-training bout (autograd/tape.h is
/// the implementation; docs/AUTOGRAD.md the prose).
struct TapeOptions {
  /// Record the step-0 graph and replay it (same nodes, same cached
  /// backward order, fresh batch data) for the bout's remaining steps.
  /// Off = rebuild the graph every step (still arena-pooled).
  bool static_graph = true;
  /// Drop intra-segment LSTM activations at each timestep boundary and
  /// rematerialize them just before their backward fires. Trades ~one
  /// extra forward pass per segment for O(1)-per-timestep peak
  /// activation memory. Bit-identical on/off by construction: the
  /// backward schedule and every kernel call are unchanged.
  bool checkpoint = false;
};

/// What a recorded graph is re-bound to on each replayed step. Pointers
/// alias the caller's Batch; only the fields the model consumed during
/// recording are read.
struct ReplayBindings {
  const Tensor* images = nullptr;
  const std::vector<std::vector<int>>* tokens = nullptr;
  const std::vector<int>* labels = nullptr;
};

/// Arena-backed tape for one client's local-training bout.
///
/// Construction activates the thread-local BufferPool scope and installs
/// the session as the thread's recorder; every op built until
/// destruction flows through it. The session owns up to two recorded
/// graphs keyed by batch signature (the last batch of an epoch can be
/// smaller, so full-size and remainder-size graphs alternate) and
/// replays whichever matches; a signature with no recorded graph falls
/// back to recording.
///
/// Replay needs every op's forward_fn to recompute its value from its
/// inputs or from a tagged batch binding (kImages, kTokenStep, kLabels):
/// no op captures step-varying state the bindings cannot refresh.
///
/// Replay is bit-identical to a fresh build: the same tensor_ops run in
/// the same creation order over the same input bits, and the backward
/// pass reuses the exact execution order captured on the recording step.
/// Sessions are strictly per-thread (one bout per worker), so no state
/// here is shared across threads.
class TapeSession {
 public:
  explicit TapeSession(const TapeOptions& options);
  ~TapeSession();
  TapeSession(const TapeSession&) = delete;
  TapeSession& operator=(const TapeSession&) = delete;

  /// True iff a finalized graph matches the bindings' shapes (image
  /// dims, token matrix dims, label count).
  bool CanReplay(const ReplayBindings& bindings) const;

  /// Re-executes the matching recorded graph over fresh batch data and
  /// returns the loss Variable. Increments autograd.tape_reuse_hits.
  /// Requires CanReplay(bindings).
  Variable Replay(const ReplayBindings& bindings);

  /// Starts recording a new graph for the bindings' signature, evicting
  /// the least-recently-used graph if the two slots are full. Every op
  /// node created until EndRecord() is appended to the new graph.
  void BeginRecord(const ReplayBindings& bindings);

  /// Stops recording and finalizes the graph rooted at `loss`. The
  /// first Backward() on `loss` caches the backward execution order.
  void EndRecord(const Variable& loss);

  // ---- Hooks driven by Variable::Backward (via internal::) ----

  /// Runs the cached backward order when `root` is the loss of a graph
  /// whose order was already captured. Returns false (caller falls back
  /// to the DFS walk) otherwise.
  bool TryCachedBackward(GraphNode* root);
  /// Captures the DFS post-order of the just-recorded graph.
  void OnBackwardOrderComputed(GraphNode* root,
                               std::vector<GraphNode*> order);
  /// Rematerializes checkpoint-dropped values `node`'s backward reads.
  void EnsureMaterialized(GraphNode* node);
  /// Eagerly releases `node`'s grad — and its value when no external
  /// Variable still holds the node — once its backward has run.
  void AfterNodeBackward(GraphNode* node);

  // ---- Hooks driven by op construction / nn layers ----

  /// Appends a node created while recording; counts input consumers.
  void RecordNode(const std::shared_ptr<GraphNode>& node);
  /// Opens / closes one checkpoint segment (an LSTM timestep). At close,
  /// activations no external Variable holds are dropped and remembered
  /// for rematerialization. No-ops unless recording with checkpoint on.
  void BeginSegment();
  void CloseSegment();

  /// Replayed steps so far (this session).
  int64_t reuse_hits() const { return reuse_hits_; }
  /// Graphs recorded (this session).
  int64_t rebuilds() const { return rebuilds_; }

 private:
  struct Segment {
    int32_t first = 0;  ///< index of the segment's first node
    int32_t last = 0;   ///< one past the segment's last node
    std::vector<int32_t> drop;  ///< nodes whose values drop at close
  };
  struct Signature {
    std::vector<int64_t> image_dims;
    int64_t token_rows = 0;
    int64_t token_cols = 0;
    int64_t label_count = 0;
    bool operator==(const Signature& other) const {
      return image_dims == other.image_dims &&
             token_rows == other.token_rows &&
             token_cols == other.token_cols &&
             label_count == other.label_count;
    }
  };
  struct Graph {
    Signature signature;
    std::vector<std::shared_ptr<GraphNode>> nodes;
    std::vector<GraphNode*> backward_order;  ///< DFS post-order
    std::shared_ptr<GraphNode> loss;
    std::vector<Segment> segments;
    bool finalized = false;
    bool order_cached = false;
    int64_t last_used = 0;
  };

  static Signature MakeSignature(const ReplayBindings& bindings);
  Graph* FindGraph(const Signature& sig) const;
  void DropSegmentValues(Graph* g, const Segment& seg);
  void RematSegment(int32_t segment);

  TapeOptions options_;
  BufferPool::Scope pool_scope_;  // destroyed last: graph teardown pools
  std::vector<std::unique_ptr<Graph>> graphs_;
  Graph* current_ = nullptr;   // graph being recorded or replayed
  bool recording_ = false;
  int32_t open_segment_ = -1;  // index into current_->segments while open
  int64_t reuse_hits_ = 0;
  int64_t rebuilds_ = 0;
  int64_t clock_ = 0;  // LRU stamp
};

namespace internal {

/// The calling thread's active session, if any. Installed by the
/// TapeSession constructor, cleared by its destructor.
TapeSession* ActiveSession();

/// Called by ops.cc MakeOp for every node built; records it when the
/// active session is recording.
void NotifyNodeCreated(const std::shared_ptr<GraphNode>& node);

/// Checkpoint segment markers for nn/lstm.cc. No-ops unless the active
/// session is recording with checkpointing enabled.
void BeginSegment();
void CloseSegment();

/// Shared backward driver: seeds root's gradient with 1 and applies the
/// (reverse of the) post-order walk, with the session's remat/release
/// hooks when `session` is non-null. Used by both the DFS path and the
/// cached-order replay path so the two are the same code.
void RunBackwardPass(GraphNode* root, const std::vector<GraphNode*>& order,
                     TapeSession* session);

}  // namespace internal

}  // namespace rfed::ag

#endif  // RFED_AUTOGRAD_TAPE_H_
