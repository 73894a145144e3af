#ifndef RFED_AUTOGRAD_VARIABLE_H_
#define RFED_AUTOGRAD_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {

/// One node of the computation graph. Holds the forward value, the
/// accumulated gradient, the parent nodes, a closure that pushes this
/// node's gradient into its parents, and (for ops built while an
/// ag::TapeSession records) a closure that recomputes the forward value
/// in place. Users interact with Variable below; ops in autograd/ops.h
/// construct the nodes, and autograd/tape.h replays them.
class GraphNode : public std::enable_shared_from_this<GraphNode> {
 public:
  /// Wraps `value` as a graph node. Leaves pass requires_grad directly;
  /// ops derive it from their inputs (ops.cc MakeOp).
  explicit GraphNode(Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  /// The forward value. Empty ({0}-shaped) while checkpointing has
  /// dropped this node's activation; the tape rematerializes it before
  /// any backward closure reads it.
  const Tensor& value() const { return value_; }
  Tensor& mutable_value() { return value_; }

  /// True iff some gradient path reaches a parameter through this node.
  bool requires_grad() const { return requires_grad_; }

  /// Gradient with the same shape as the forward value. A gradient that
  /// no contribution reached is +0: allocated zero-filled on first use,
  /// and zero-filled here if ZeroGrad left it pending. Valid even while
  /// the value itself is checkpoint-dropped — the shape is remembered
  /// across ReleaseValue().
  Tensor& grad();
  /// True once a gradient exists for the current backward pass (a
  /// pending zero counts).
  bool has_grad() const { return has_grad_; }
  /// grad() += g, bit for bit, without zero-filling first: the first
  /// contribution since the gradient was created or zeroed is written as
  /// 0.0f + g in one pass; later ones are added in call order. Checks g
  /// against the (possibly dropped) value shape.
  void AccumulateGrad(const Tensor& g);
  /// The same sum, but a first contribution adopts g's storage (after
  /// the in-place 0.0f + g pass) instead of writing into grad()'s.
  void AccumulateGrad(Tensor&& g);
  /// Marks an existing gradient zero without touching its storage; the
  /// next contribution overwrites it, and grad() fills it with +0 if
  /// none arrives.
  void ZeroGrad();

  /// Shape of the forward value, dropped or not.
  const Shape& value_shape() const {
    return value_dropped ? dropped_shape_ : value_.shape();
  }

  /// Frees the forward value's storage (to the active BufferPool scope),
  /// remembering its shape. Used by checkpointing at segment close and
  /// by the tape's eager release once a node's backward has run.
  void ReleaseValue();
  /// Frees the gradient's storage and marks the node grad-less, so the
  /// next backward pass starts from a fresh zero gradient.
  void ReleaseGrad();

  /// Parents in the computation graph (inputs of the producing op).
  std::vector<std::shared_ptr<GraphNode>> inputs;
  /// Propagates grad() into the inputs' grads. Null for leaves.
  std::function<void()> backward_fn;
  /// Recomputes value() from the inputs' current values, refreshing any
  /// op-internal caches (argmax, inv_std, dlogits). Set for every op
  /// node; null for leaves. Drives tape replay and checkpoint
  /// rematerialization.
  std::function<void(GraphNode*)> forward_fn;

  // ---- Tape bookkeeping (written by ag::TapeSession; see ----
  // ---- autograd/tape.h for the lifecycle)                ----

  /// How a recorded leaf/op is refreshed with the next step's batch.
  enum class InputTag : uint8_t {
    kNone = 0,   ///< pure op or constant leaf; replay just reruns forward_fn
    kImages,     ///< leaf bound to Batch::images (reshaped if recorded so)
    kTokenStep,  ///< gather over Batch::tokens column `tag_index`
    kLabels,     ///< op consuming Batch::labels via `ids`
  };
  InputTag input_tag = InputTag::kNone;
  /// Timestep for kTokenStep.
  int32_t tag_index = 0;
  /// Integer side input (gather ids / cross-entropy labels), shared with
  /// the forward/backward closures so replay can refresh it in place.
  std::shared_ptr<std::vector<int>> ids;
  /// True iff this node was recorded by the active TapeSession (and is
  /// therefore subject to replay, eager release and checkpointing).
  bool tape_owned = false;
  /// True while the forward value's storage is released.
  bool value_dropped = false;
  /// True once this node's backward ran in the current step's pass.
  bool backward_done = false;
  /// Checkpoint segment this node belongs to; -1 = outside any segment.
  int32_t segment = -1;
  /// Number of recorded nodes listing this node as an input. Together
  /// with the session's own reference this bounds the node's use_count
  /// when no external Variable holds it — the release-safety test.
  uint32_t consumers = 0;

 private:
  Tensor value_;
  Tensor grad_;
  Shape dropped_shape_;
  bool requires_grad_;
  bool has_grad_ = false;
  /// True while grad_'s contents are stale and the gradient reads +0.
  bool grad_pending_zero_ = false;
};

/// Lightweight handle to a GraphNode with value semantics on the handle
/// (copies share the node). A Variable wraps every tensor flowing through
/// a model; parameters are leaf Variables with requires_grad = true.
class Variable {
 public:
  /// Invalid/empty handle.
  Variable() = default;

  /// Leaf node (no producer).
  explicit Variable(Tensor value, bool requires_grad = false)
      : node_(std::make_shared<GraphNode>(std::move(value), requires_grad)) {}

  /// Wraps an existing node (used by ops).
  explicit Variable(std::shared_ptr<GraphNode> node) : node_(std::move(node)) {}

  /// False for a default-constructed handle (e.g. a hook returning "no
  /// extra loss"). Every other accessor requires valid().
  bool valid() const { return node_ != nullptr; }

  /// The node's forward value (see GraphNode::value()).
  const Tensor& value() const { return node_->value(); }
  Tensor& mutable_value() { return node_->mutable_value(); }
  const Shape& shape() const { return node_->value().shape(); }

  /// True iff gradients flow through this Variable (GraphNode contract).
  bool requires_grad() const { return node_->requires_grad(); }
  /// The node's gradient; +0 where no contribution reached it.
  Tensor& grad() { return node_->grad(); }
  bool has_grad() const { return node_->has_grad(); }
  /// Zeroes the gradient if one exists (GraphNode::ZeroGrad).
  void ZeroGrad() { node_->ZeroGrad(); }

  /// The underlying shared node (used by ops and the optimizers).
  std::shared_ptr<GraphNode> node() const { return node_; }

  /// Runs reverse-mode differentiation from this scalar node: seeds
  /// d(self)/d(self) = 1 and applies every producing op's backward in
  /// reverse topological order. Gradients *accumulate* into leaves, so
  /// callers can sum several losses by calling Backward on each. When an
  /// ag::TapeSession is active the recorded execution order is cached on
  /// the first pass and reused verbatim by replayed steps, and node
  /// storage is released eagerly as the pass retires it.
  void Backward();

 private:
  std::shared_ptr<GraphNode> node_;
};

}  // namespace rfed

#endif  // RFED_AUTOGRAD_VARIABLE_H_
