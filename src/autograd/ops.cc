#include "autograd/ops.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "autograd/tape.h"
#include "util/check.h"

namespace rfed::ag {
namespace {

using NodePtr = std::shared_ptr<GraphNode>;

bool AnyRequiresGrad(const std::vector<NodePtr>& inputs) {
  for (const auto& in : inputs) {
    if (in->requires_grad()) return true;
  }
  return false;
}

/// Rank-0 scalar tensor through the pooled-storage path (the
/// initializer-list Tensor constructor would heap-allocate per call).
Tensor ScalarTensor(float v) {
  Tensor out((Shape{}));
  out.at(0) = v;
  return out;
}

/// Builds the result node: wires inputs, runs `forward` once to compute
/// the value, installs it for tape replay/rematerialization, wraps
/// `backward`, and reports the node to the active TapeSession. Both
/// closures receive the raw result node so they can read inputs and the
/// upstream grad through it.
Variable MakeOp(std::vector<NodePtr> inputs,
                std::function<void(GraphNode*)> forward,
                std::function<void(GraphNode*)> backward) {
  const bool needs_grad = AnyRequiresGrad(inputs);
  auto node = std::make_shared<GraphNode>(Tensor(), needs_grad);
  node->inputs = std::move(inputs);
  node->forward_fn = std::move(forward);
  node->forward_fn(node.get());
  if (needs_grad && backward) {
    GraphNode* raw = node.get();
    node->backward_fn = [raw, backward = std::move(backward)] { backward(raw); };
  }
  internal::NotifyNodeCreated(node);
  return Variable(node);
}

}  // namespace

Variable Input(const Tensor& value) {
  auto node = std::make_shared<GraphNode>(value, /*requires_grad=*/false);
  node->input_tag = GraphNode::InputTag::kImages;
  internal::NotifyNodeCreated(node);
  return Variable(node);
}

Variable Add(const Variable& a, const Variable& b) {
  return MakeOp({a.node(), b.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::Add(out->inputs[0]->value(),
                                                   out->inputs[1]->value());
                },
                [](GraphNode* out) {
                  for (auto& in : out->inputs) {
                    if (in->requires_grad()) in->AccumulateGrad(out->grad());
                  }
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOp({a.node(), b.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::Sub(out->inputs[0]->value(),
                                                   out->inputs[1]->value());
                },
                [](GraphNode* out) {
                  if (out->inputs[0]->requires_grad()) {
                    out->inputs[0]->AccumulateGrad(out->grad());
                  }
                  if (out->inputs[1]->requires_grad()) {
                    out->inputs[1]->AccumulateGrad(rfed::Scale(out->grad(), -1.0f));
                  }
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  return MakeOp({a.node(), b.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::Mul(out->inputs[0]->value(),
                                                   out->inputs[1]->value());
                },
                [](GraphNode* out) {
                  GraphNode* a = out->inputs[0].get();
                  GraphNode* b = out->inputs[1].get();
                  if (a->requires_grad()) {
                    a->AccumulateGrad(rfed::Mul(out->grad(), b->value()));
                  }
                  if (b->requires_grad()) {
                    b->AccumulateGrad(rfed::Mul(out->grad(), a->value()));
                  }
                });
}

Variable Scale(const Variable& a, float s) {
  return MakeOp({a.node()},
                [s](GraphNode* out) {
                  out->mutable_value() = rfed::Scale(out->inputs[0]->value(), s);
                },
                [s](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(rfed::Scale(out->grad(), s));
                });
}

Variable Relu(const Variable& x) {
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::Relu(out->inputs[0]->value());
                },
                [](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(
                      ReluBackward(out->grad(), out->inputs[0]->value()));
                });
}

Variable Tanh(const Variable& x) {
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::Tanh(out->inputs[0]->value());
                },
                [](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(
                      TanhBackwardFromOutput(out->grad(), out->value()));
                });
}

Variable Sigmoid(const Variable& x) {
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::Sigmoid(out->inputs[0]->value());
                },
                [](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(
                      SigmoidBackwardFromOutput(out->grad(), out->value()));
                });
}

Variable MatMul(const Variable& a, const Variable& b) {
  return MakeOp({a.node(), b.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::MatMul(out->inputs[0]->value(),
                                                      out->inputs[1]->value());
                },
                [](GraphNode* out) {
                  GraphNode* a = out->inputs[0].get();
                  GraphNode* b = out->inputs[1].get();
                  if (a->requires_grad()) {
                    a->AccumulateGrad(MatMulTransB(out->grad(), b->value()));
                  }
                  if (b->requires_grad()) {
                    b->AccumulateGrad(MatMulTransA(a->value(), out->grad()));
                  }
                });
}

Variable AddRowBroadcast(const Variable& x, const Variable& bias) {
  return MakeOp({x.node(), bias.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::AddRowBroadcast(
                      out->inputs[0]->value(), out->inputs[1]->value());
                },
                [](GraphNode* out) {
                  if (out->inputs[0]->requires_grad()) {
                    out->inputs[0]->AccumulateGrad(out->grad());
                  }
                  if (out->inputs[1]->requires_grad()) {
                    out->inputs[1]->AccumulateGrad(SumRows(out->grad()));
                  }
                });
}

Variable LinearBiasRelu(const Variable& x, const Variable& w,
                        const Variable& bias) {
  return MakeOp(
      {x.node(), w.node(), bias.node()},
      [](GraphNode* out) {
        out->mutable_value() = LinearBiasReluForward(out->inputs[0]->value(),
                                                     out->inputs[1]->value(),
                                                     out->inputs[2]->value());
      },
      [](GraphNode* out) {
        GraphNode* x = out->inputs[0].get();
        GraphNode* w = out->inputs[1].get();
        GraphNode* b = out->inputs[2].get();
        Tensor dx, dw, db;
        LinearBiasReluBackward(out->grad(), out->value(), x->value(),
                               w->value(), x->requires_grad() ? &dx : nullptr,
                               w->requires_grad() ? &dw : nullptr,
                               b->requires_grad() ? &db : nullptr);
        if (x->requires_grad()) x->AccumulateGrad(dx);
        if (w->requires_grad()) w->AccumulateGrad(dw);
        if (b->requires_grad()) b->AccumulateGrad(db);
      });
}

Variable Reshape(const Variable& x, Shape new_shape) {
  const Shape old_shape = x.shape();
  return MakeOp({x.node()},
                [new_shape](GraphNode* out) {
                  out->mutable_value() =
                      out->inputs[0]->value().Reshaped(new_shape);
                },
                [old_shape](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(
                      out->grad().Reshaped(old_shape));
                });
}

Variable SliceCols(const Variable& x, int64_t begin, int64_t end) {
  const Tensor& v = x.value();
  RFED_CHECK_EQ(v.rank(), 2);
  RFED_CHECK_GE(begin, 0);
  RFED_CHECK_LE(end, v.dim(1));
  RFED_CHECK_LT(begin, end);
  const int64_t cols = v.dim(1), width = end - begin;
  return MakeOp({x.node()},
                [begin, width, cols](GraphNode* out) {
                  const Tensor& v = out->inputs[0]->value();
                  const int64_t rows = v.dim(0);
                  Tensor sliced(Shape{rows, width});
                  for (int64_t r = 0; r < rows; ++r) {
                    const float* src = v.data() + r * cols + begin;
                    std::copy(src, src + width, sliced.data() + r * width);
                  }
                  out->mutable_value() = std::move(sliced);
                },
                [begin, width, cols](GraphNode* out) {
                  GraphNode* in = out->inputs[0].get();
                  Tensor dx(in->value_shape());
                  const int64_t rows = dx.dim(0);
                  for (int64_t r = 0; r < rows; ++r) {
                    const float* src = out->grad().data() + r * width;
                    float* dst = dx.data() + r * cols + begin;
                    for (int64_t c = 0; c < width; ++c) dst[c] += src[c];
                  }
                  in->AccumulateGrad(dx);
                });
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  const int64_t rows_a = a.value().dim(0);
  return MakeOp({a.node(), b.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::ConcatRows(
                      out->inputs[0]->value(), out->inputs[1]->value());
                },
                [rows_a](GraphNode* out) {
                  const Tensor& g = out->grad();
                  if (out->inputs[0]->requires_grad()) {
                    out->inputs[0]->AccumulateGrad(SliceRows(g, 0, rows_a));
                  }
                  if (out->inputs[1]->requires_grad()) {
                    out->inputs[1]->AccumulateGrad(
                        SliceRows(g, rows_a, g.dim(0)));
                  }
                });
}

Variable Sum(const Variable& x) {
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() =
                      ScalarTensor(out->inputs[0]->value().Sum());
                },
                [](GraphNode* out) {
                  GraphNode* in = out->inputs[0].get();
                  Tensor dx(in->value_shape(), out->grad().ToScalar());
                  in->AccumulateGrad(dx);
                });
}

Variable Mean(const Variable& x) {
  const float inv = 1.0f / static_cast<float>(x.value().size());
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() =
                      ScalarTensor(out->inputs[0]->value().Mean());
                },
                [inv](GraphNode* out) {
                  GraphNode* in = out->inputs[0].get();
                  Tensor dx(in->value_shape(), out->grad().ToScalar() * inv);
                  in->AccumulateGrad(dx);
                });
}

Variable MeanRows(const Variable& x) {
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() = rfed::MeanRows(out->inputs[0]->value());
                },
                [](GraphNode* out) {
                  GraphNode* in = out->inputs[0].get();
                  const Shape& in_shape = in->value_shape();
                  const int64_t rows = in_shape.dim(0), cols = in_shape.dim(1);
                  const float inv = 1.0f / static_cast<float>(rows);
                  Tensor dx(in_shape);
                  for (int64_t r = 0; r < rows; ++r) {
                    float* row = dx.data() + r * cols;
                    for (int64_t c = 0; c < cols; ++c) {
                      row[c] = out->grad().at(c) * inv;
                    }
                  }
                  in->AccumulateGrad(dx);
                });
}

Variable SquaredDistanceToConst(const Variable& x, const Tensor& target) {
  auto diff = std::make_shared<Tensor>();
  return MakeOp({x.node()},
                [target, diff](GraphNode* out) {
                  *diff = rfed::Sub(out->inputs[0]->value(), target);
                  out->mutable_value() = ScalarTensor(diff->SquaredNorm());
                },
                [diff](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(
                      rfed::Scale(*diff, 2.0f * out->grad().ToScalar()));
                });
}

Variable SquaredNorm(const Variable& x) {
  return MakeOp({x.node()},
                [](GraphNode* out) {
                  out->mutable_value() =
                      ScalarTensor(out->inputs[0]->value().SquaredNorm());
                },
                [](GraphNode* out) {
                  out->inputs[0]->AccumulateGrad(rfed::Scale(
                      out->inputs[0]->value(), 2.0f * out->grad().ToScalar()));
                });
}

Variable GatherRows(const Variable& table, const std::vector<int>& ids,
                    int timestep) {
  auto ids_sp = std::make_shared<std::vector<int>>(ids);
  Variable out = MakeOp({table.node()},
                        [ids_sp](GraphNode* out) {
                          out->mutable_value() = rfed::GatherRows(
                              out->inputs[0]->value(), *ids_sp);
                        },
                        [ids_sp](GraphNode* out) {
                          GraphNode* in = out->inputs[0].get();
                          Tensor dtable(in->value_shape());
                          ScatterAddRows(out->grad(), *ids_sp, &dtable);
                          in->AccumulateGrad(dtable);
                        });
  out.node()->input_tag = GraphNode::InputTag::kTokenStep;
  out.node()->tag_index = timestep;
  out.node()->ids = std::move(ids_sp);
  return out;
}

Variable Conv2dBiasReluPool(const Variable& x, const Variable& w,
                            const Variable& b, const Conv2dSpec& spec) {
  auto window = std::make_shared<std::vector<uint8_t>>();
  return MakeOp({x.node(), w.node(), b.node()},
                [spec, window](GraphNode* out) {
                  out->mutable_value() = Conv2dBiasReluPoolForward(
                      out->inputs[0]->value(), out->inputs[1]->value(),
                      out->inputs[2]->value(), spec, window.get());
                },
                [spec, window](GraphNode* out) {
                  GraphNode* x = out->inputs[0].get();
                  GraphNode* w = out->inputs[1].get();
                  GraphNode* b = out->inputs[2].get();
                  Tensor dx, dw, db;
                  Conv2dBiasReluPoolBackward(
                      out->grad(), out->value(), *window, x->value(),
                      w->value(), spec, x->requires_grad() ? &dx : nullptr,
                      w->requires_grad() ? &dw : nullptr,
                      b->requires_grad() ? &db : nullptr);
                  if (x->requires_grad()) x->AccumulateGrad(dx);
                  if (w->requires_grad()) w->AccumulateGrad(dw);
                  if (b->requires_grad()) b->AccumulateGrad(db);
                });
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels) {
  auto labels_sp = std::make_shared<std::vector<int>>(labels);
  auto dlogits = std::make_shared<Tensor>();
  Variable out =
      MakeOp({logits.node()},
             [labels_sp, dlogits](GraphNode* out) {
               out->mutable_value() = ScalarTensor(rfed::SoftmaxCrossEntropy(
                   out->inputs[0]->value(), *labels_sp, dlogits.get()));
             },
             [dlogits](GraphNode* out) {
               out->inputs[0]->AccumulateGrad(
                   rfed::Scale(*dlogits, out->grad().ToScalar()));
             });
  out.node()->input_tag = GraphNode::InputTag::kLabels;
  out.node()->ids = std::move(labels_sp);
  return out;
}

}  // namespace rfed::ag
