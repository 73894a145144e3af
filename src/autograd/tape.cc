#include "autograd/tape.h"

#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace rfed::ag {
namespace {

thread_local TapeSession* g_session = nullptr;

obs::Counter* ReuseHitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("autograd.tape_reuse_hits");
  return c;
}

// True when no Variable outside the tape (and the input lists of later
// recorded nodes) still references the node: the session's own vector
// holds one count, each consumer's `inputs` entry one more. Anything
// above that is an external handle (model output, loss, an x_seq entry)
// whose value must stay materialized.
bool OnlyTapeHoldsNode(const GraphNode* node) {
  return node->weak_from_this().use_count() ==
         1 + static_cast<long>(node->consumers);
}

}  // namespace

TapeSession::TapeSession(const TapeOptions& options) : options_(options) {
  RFED_CHECK(g_session == nullptr)
      << "nested TapeSessions on one thread are not supported";
  g_session = this;
  // Touch the metric eagerly so every run's CSV has the same columns.
  ReuseHitsCounter();
}

TapeSession::~TapeSession() {
  // Graphs die before pool_scope_ (member order), so every recorded
  // tensor's storage is donated to the thread's freelists for the next
  // bout on this thread.
  graphs_.clear();
  g_session = nullptr;
}

TapeSession::Signature TapeSession::MakeSignature(
    const ReplayBindings& bindings) {
  Signature sig;
  if (bindings.images != nullptr && bindings.images->size() > 0) {
    sig.image_dims = bindings.images->shape().dims();
  }
  if (bindings.tokens != nullptr && !bindings.tokens->empty()) {
    sig.token_rows = static_cast<int64_t>(bindings.tokens->size());
    sig.token_cols = static_cast<int64_t>((*bindings.tokens)[0].size());
  }
  if (bindings.labels != nullptr) {
    sig.label_count = static_cast<int64_t>(bindings.labels->size());
  }
  return sig;
}

TapeSession::Graph* TapeSession::FindGraph(const Signature& sig) const {
  for (const auto& g : graphs_) {
    if (g->signature == sig) return g.get();
  }
  return nullptr;
}

bool TapeSession::CanReplay(const ReplayBindings& bindings) const {
  if (!options_.static_graph) return false;
  const Graph* g = FindGraph(MakeSignature(bindings));
  return g != nullptr && g->finalized;
}

void TapeSession::BeginRecord(const ReplayBindings& bindings) {
  RFED_CHECK(!recording_);
  const Signature sig = MakeSignature(bindings);
  // A graph already recorded for this signature (every step's, when
  // static_graph is off) is rebuilt in place; otherwise evict the LRU
  // slot. Two slots cover the steady state: the epoch's full-size batch
  // and its remainder batch alternate without evicting each other.
  if (Graph* stale = FindGraph(sig)) {
    for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
      if (it->get() == stale) {
        graphs_.erase(it);
        break;
      }
    }
  } else if (graphs_.size() >= 2) {
    auto oldest = graphs_.begin();
    for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
      if ((*it)->last_used < (*oldest)->last_used) oldest = it;
    }
    graphs_.erase(oldest);
  }
  graphs_.push_back(std::make_unique<Graph>());
  current_ = graphs_.back().get();
  current_->signature = sig;
  current_->last_used = ++clock_;
  recording_ = true;
  ++rebuilds_;
}

void TapeSession::EndRecord(const Variable& loss) {
  RFED_CHECK(recording_);
  RFED_CHECK(loss.valid());
  recording_ = false;
  current_->loss = loss.node();
  current_->finalized = true;
}

void TapeSession::RecordNode(const std::shared_ptr<GraphNode>& node) {
  if (!recording_) return;
  node->tape_owned = true;
  node->segment = open_segment_;
  for (const auto& in : node->inputs) {
    if (in->tape_owned) ++in->consumers;
  }
  current_->nodes.push_back(node);
}

void TapeSession::BeginSegment() {
  if (!recording_ || !options_.checkpoint) return;
  RFED_CHECK_EQ(open_segment_, -1) << "checkpoint segments cannot nest";
  current_->segments.push_back(Segment{});
  open_segment_ = static_cast<int32_t>(current_->segments.size()) - 1;
  current_->segments.back().first =
      static_cast<int32_t>(current_->nodes.size());
}

void TapeSession::CloseSegment() {
  if (!recording_ || !options_.checkpoint) return;
  RFED_CHECK_GE(open_segment_, 0);
  Segment& seg = current_->segments[static_cast<size_t>(open_segment_)];
  seg.last = static_cast<int32_t>(current_->nodes.size());
  // Drop every intra-segment activation nothing outside the tape still
  // holds. Boundary values (h_t, c_t, the embedded x_t) are protected by
  // their live Variables; gates, slices and products are not and go
  // back to the pool until rematerialization.
  for (int32_t i = seg.first; i < seg.last; ++i) {
    GraphNode* node = current_->nodes[static_cast<size_t>(i)].get();
    if (node->forward_fn && node->input_tag == GraphNode::InputTag::kNone &&
        OnlyTapeHoldsNode(node)) {
      seg.drop.push_back(i);
    }
  }
  DropSegmentValues(current_, seg);
  open_segment_ = -1;
}

void TapeSession::DropSegmentValues(Graph* g, const Segment& seg) {
  for (int32_t i : seg.drop) {
    g->nodes[static_cast<size_t>(i)]->ReleaseValue();
  }
}

Variable TapeSession::Replay(const ReplayBindings& bindings) {
  Graph* g = FindGraph(MakeSignature(bindings));
  RFED_CHECK(g != nullptr && g->finalized);
  current_ = g;
  g->last_used = ++clock_;
  size_t next_segment = 0;
  for (size_t i = 0; i < g->nodes.size(); ++i) {
    GraphNode* node = g->nodes[i].get();
    node->backward_done = false;
    node->value_dropped = false;
    switch (node->input_tag) {
      case GraphNode::InputTag::kImages: {
        RFED_CHECK(bindings.images != nullptr);
        if (bindings.images->shape() == node->value_shape()) {
          node->mutable_value() = *bindings.images;
        } else {
          node->mutable_value() =
              bindings.images->Reshaped(node->value_shape());
        }
        break;
      }
      case GraphNode::InputTag::kTokenStep: {
        RFED_CHECK(bindings.tokens != nullptr);
        std::vector<int>& ids = *node->ids;
        const auto& tokens = *bindings.tokens;
        ids.resize(tokens.size());
        for (size_t b = 0; b < tokens.size(); ++b) {
          ids[b] = tokens[b][static_cast<size_t>(node->tag_index)];
        }
        node->forward_fn(node);
        break;
      }
      case GraphNode::InputTag::kLabels: {
        RFED_CHECK(bindings.labels != nullptr);
        *node->ids = *bindings.labels;
        node->forward_fn(node);
        break;
      }
      case GraphNode::InputTag::kNone: {
        if (node->forward_fn) node->forward_fn(node);
        break;
      }
    }
    // Re-drop checkpointed activations as each segment completes, so a
    // replayed forward has the same peak footprint as a recorded one.
    while (next_segment < g->segments.size() &&
           static_cast<int32_t>(i) + 1 ==
               g->segments[next_segment].last) {
      DropSegmentValues(g, g->segments[next_segment]);
      ++next_segment;
    }
  }
  ++reuse_hits_;
  ReuseHitsCounter()->Increment();
  return Variable(g->loss);
}

bool TapeSession::TryCachedBackward(GraphNode* root) {
  if (current_ == nullptr || !current_->order_cached ||
      current_->loss.get() != root) {
    return false;
  }
  internal::RunBackwardPass(root, current_->backward_order, this);
  return true;
}

void TapeSession::OnBackwardOrderComputed(GraphNode* root,
                                          std::vector<GraphNode*> order) {
  if (current_ == nullptr || !current_->finalized ||
      current_->loss.get() != root || current_->order_cached) {
    return;
  }
  current_->backward_order = std::move(order);
  current_->order_cached = true;
}

void TapeSession::EnsureMaterialized(GraphNode* node) {
  if (current_ == nullptr) return;
  if (node->value_dropped) {
    RematSegment(node->segment);
  }
  for (const auto& in : node->inputs) {
    if (in->value_dropped) RematSegment(in->segment);
  }
}

void TapeSession::RematSegment(int32_t segment) {
  RFED_CHECK_GE(segment, 0);
  const Segment& seg =
      current_->segments[static_cast<size_t>(segment)];
  // Forward closures run in creation order, so intra-segment data
  // dependencies resolve exactly as they did on the original forward.
  // Nodes whose backward already ran are dead — their values are never
  // read again — and are skipped.
  for (int32_t i = seg.first; i < seg.last; ++i) {
    GraphNode* node = current_->nodes[static_cast<size_t>(i)].get();
    if (node->value_dropped && !node->backward_done) {
      node->forward_fn(node);
      node->value_dropped = false;
    }
  }
}

void TapeSession::AfterNodeBackward(GraphNode* node) {
  if (!node->tape_owned) return;
  // Reverse topological order guarantees every consumer's backward has
  // run, so the gradient is dead; the value is too unless an external
  // Variable (the loss, a model output) still reads it.
  node->ReleaseGrad();
  if (OnlyTapeHoldsNode(node)) node->ReleaseValue();
}

namespace internal {

TapeSession* ActiveSession() { return g_session; }

void NotifyNodeCreated(const std::shared_ptr<GraphNode>& node) {
  if (g_session != nullptr) g_session->RecordNode(node);
}

void BeginSegment() {
  if (g_session != nullptr) g_session->BeginSegment();
}

void CloseSegment() {
  if (g_session != nullptr) g_session->CloseSegment();
}

void RunBackwardPass(GraphNode* root, const std::vector<GraphNode*>& order,
                     TapeSession* session) {
  root->grad().Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    GraphNode* node = *it;
    if (node->backward_fn && node->requires_grad() && node->has_grad()) {
      if (session != nullptr) session->EnsureMaterialized(node);
      node->backward_fn();
      node->backward_done = true;
      if (session != nullptr) session->AfterNodeBackward(node);
    }
  }
}

}  // namespace internal

}  // namespace rfed::ag
