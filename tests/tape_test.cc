// Tape / arena test suite: the bit-identity contracts of the
// arena-backed autograd (autograd/tape.h, tensor/buffer_pool.h) and the
// fused ops. Everything here asserts *exact* float equality, not
// closeness — static-graph replay, gradient checkpointing and the fused
// linear+bias+relu and conv+bias+relu+pool nodes all promise byte-identical
// results, and any drift is a bug (see docs/AUTOGRAD.md for the
// contracts).
//
// The pool's leak behavior is covered by running this suite under the
// ASan/TSan configurations (RFED_SANITIZE=address|thread): donated
// buffers that outlive their scope or double-recycles trip the
// sanitizers immediately.

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"
#include "fl/fedavg.h"
#include "fl/trainer.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "test_util.h"
#include "util/rng.h"

namespace rfed {
namespace {

using ::rfed::testing::AvailableKernelIsas;
using ::rfed::testing::MaxGradCheckError;
using ::rfed::testing::RefConv2dBackward;
using ::rfed::testing::RefConvReluPool;

constexpr double kTol = 5e-2;  // float32 kernels vs double finite diffs

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

void ExpectBitEqual(const Tensor& a, const Tensor& b,
                    const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << what << " element " << i;
  }
}

// ---- Fused linear+bias+relu and conv+bias+relu+pool ----

TEST(FusedOpsTest, LinearBiasReluMatchesComposedChainBitwise) {
  Rng rng(101);
  Tensor xt = Tensor::Normal(Shape{5, 7}, 0, 1, &rng);
  Tensor wt = Tensor::Normal(Shape{7, 4}, 0, 0.5f, &rng);
  Tensor bt = Tensor::Normal(Shape{4}, 0, 0.5f, &rng);

  Variable x1 = Leaf(xt), w1 = Leaf(wt), b1 = Leaf(bt);
  Variable fused = ag::LinearBiasRelu(x1, w1, b1);
  ag::Sum(fused).Backward();

  Variable x2 = Leaf(xt), w2 = Leaf(wt), b2 = Leaf(bt);
  Variable chain =
      ag::Relu(ag::AddRowBroadcast(ag::MatMul(x2, w2), b2));
  ag::Sum(chain).Backward();

  ExpectBitEqual(fused.value(), chain.value(), "forward");
  ExpectBitEqual(x1.grad(), x2.grad(), "dx");
  ExpectBitEqual(w1.grad(), w2.grad(), "dw");
  ExpectBitEqual(b1.grad(), b2.grad(), "db");
}

TEST(FusedOpsTest, LinearBiasReluGradcheck) {
  // Fixed values whose pre-activations sit away from the relu kink so
  // central finite differences are valid.
  Variable x = Leaf(Tensor(Shape{2, 3}, {0.5f, -1.0f, 2.0f,
                                         -0.5f, 1.5f, -2.0f}));
  Variable w = Leaf(Tensor(Shape{3, 2}, {1.0f, -0.5f,
                                         0.5f, 1.0f,
                                         -1.0f, 0.5f}));
  Variable b = Leaf(Tensor(Shape{2}, {0.3f, -0.4f}));
  auto loss = [&] { return ag::Sum(ag::LinearBiasRelu(x, w, b)); };
  EXPECT_LT(MaxGradCheckError(loss, {&x, &w, &b}), kTol);
}

/// The conv block's gradient on the full-size conv grid, as the dense
/// path sees it: 0 + grad at each window's winner where the pooled
/// output passed the ReLU, +0 everywhere else.
Tensor RoutedGradient(const Tensor& grad, const Tensor& y,
                      const std::vector<uint8_t>& window) {
  const int64_t wo = y.dim(3), wd = 2 * wo;
  Tensor routed(Shape{y.dim(0), y.dim(1), 2 * y.dim(2), wd});
  for (int64_t i = 0; i < y.size(); ++i) {
    const int64_t k = window[static_cast<size_t>(i)];
    routed.at(2 * (i / wo) * wd + (k >> 1) * wd + 2 * (i % wo) + (k & 1)) =
        y.at(i) > 0.0f ? 0.0f + grad.at(i) : 0.0f;
  }
  return routed;
}

TEST(FusedOpsTest, Conv2dBiasReluPoolMatchesReferenceBitwise) {
  // The round's two convolutions, the golden CNN's (2 and 4 channels),
  // a 9-channel conv (a partial second register tile) and a strided
  // shape off the padded grid, at one image, an odd batch, a training
  // batch and a δ-map batch, on every available ISA table, at 1, 2 and
  // 4 threads: the node's pooled value and window bytes memcmp-equal to
  // the reference sums plus the scalar pool rule (RefConvReluPool), and
  // every gradient to ref::Conv2dBackwardKernel on the routed gradient,
  // accumulated into a zeroed leaf gradient as autograd does. The
  // upstream gradient has random signs so the routing decides real
  // values.
  struct Case {
    int64_t cin, side, cout, kernel, stride, pad;
  };
  const Case cases[] = {{3, 12, 4, 5, 1, 2}, {4, 6, 8, 5, 1, 2},
                        {1, 12, 2, 5, 1, 2}, {2, 6, 4, 5, 1, 2},
                        {3, 8, 9, 3, 1, 1},  {2, 8, 3, 3, 2, 1}};
  const std::vector<KernelIsa> isas = AvailableKernelIsas();
  auto same_bytes = [](const void* a, const void* b, size_t n) {
    return std::memcmp(a, b, n) == 0;
  };
  for (const Case& cs : cases) {
    const Conv2dSpec spec{.in_channels = cs.cin, .out_channels = cs.cout,
                          .kernel = cs.kernel, .stride = cs.stride,
                          .pad = cs.pad};
    const int64_t ho = spec.OutDim(cs.side);
    for (int64_t batch : {1, 7, 24, 150}) {
      Rng rng(static_cast<uint64_t>(31 * batch + 7 * cs.cin + cs.cout));
      const Tensor xt =
          Tensor::Normal(Shape{batch, cs.cin, cs.side, cs.side}, 0, 1, &rng);
      const Tensor wt = Tensor::Normal(
          Shape{cs.cout, cs.cin * cs.kernel * cs.kernel}, 0, 0.3f, &rng);
      const Tensor bt = Tensor::Normal(Shape{cs.cout}, 0, 0.3f, &rng);
      const Tensor rt =
          Tensor::Normal(Shape{batch, cs.cout, ho / 2, ho / 2}, 0, 1, &rng);
      std::vector<uint8_t> win_ref;
      const Tensor y_ref = RefConvReluPool(xt, wt, bt, spec, &win_ref);
      Tensor dx_ref, dw_ref, db_ref;
      RefConv2dBackward(RoutedGradient(rt, y_ref, win_ref), xt, wt, spec,
                        &dx_ref, &dw_ref, &db_ref);
      for (Tensor* t : {&dx_ref, &dw_ref, &db_ref}) {
        Tensor accumulated(t->shape());
        accumulated.AddInPlace(*t);
        *t = std::move(accumulated);
      }
      for (KernelIsa isa : isas) {
        for (int threads : {1, 2, 4}) {
          KernelOptions o;
          o.isa = isa;
          o.threads = threads;
          SetKernelOptions(o);
          const std::string what =
              "cin=" + std::to_string(cs.cin) + " side=" +
              std::to_string(cs.side) + " cout=" + std::to_string(cs.cout) +
              " stride=" + std::to_string(cs.stride) + " B=" +
              std::to_string(batch) + " isa=" + KernelIsaName(isa) +
              " threads=" + std::to_string(threads);
          std::vector<uint8_t> win_fused;
          const Tensor y_fused =
              Conv2dBiasReluPoolForward(xt, wt, bt, spec, &win_fused);
          EXPECT_TRUE(win_fused == win_ref) << what << " window";

          const Variable r(rt, false);
          Variable x1 = Leaf(xt), w1 = Leaf(wt), b1 = Leaf(bt);
          Variable fused = ag::Conv2dBiasReluPool(x1, w1, b1, spec);
          ag::Sum(ag::Mul(fused, r)).Backward();
          auto same = [&](const Tensor& a, const Tensor& b,
                          const char* name) {
            ASSERT_EQ(a.shape(), b.shape()) << what << " " << name;
            EXPECT_TRUE(same_bytes(
                a.data(), b.data(),
                sizeof(float) * static_cast<size_t>(a.size())))
                << what << " " << name;
          };
          same(y_fused, y_ref, "op forward");
          same(fused.value(), y_ref, "node forward");
          same(x1.grad(), dx_ref, "dx");
          same(w1.grad(), dw_ref, "dw");
          same(b1.grad(), db_ref, "db");
        }
      }
    }
  }
  SetKernelOptions(KernelOptions{});
}

/// The dense Conv2dBackwardKernel (the fused block's fallback) on the
/// full-size output gradient, into fresh zeroed tensors.
void DenseConv2dBackward(const Tensor& grad_out, const Tensor& x,
                         const Tensor& w, const Conv2dSpec& spec, Tensor* dx,
                         Tensor* dw, Tensor* db) {
  *dx = Tensor(x.shape());
  *dw = Tensor(w.shape());
  *db = Tensor(Shape{spec.out_channels});
  Conv2dBackwardKernel(grad_out.data(), x.data(), w.data(),
                       ::rfed::testing::KernelShapeOf(x, spec), dx->data(),
                       dw->data(), db->data());
}

TEST(FusedOpsTest, SparseConvBlockBackwardMatchesRoutedDenseBitwise) {
  // Conv2dBiasReluPoolBackward adds terms for the live winners only,
  // straight from (grad, y, window); dx, dw and db must memcmp-equal the
  // dense Conv2dBackwardKernel on the routed gradient. The shapes of the composed
  // chain test plus 6 input channels (two channel groups), on the
  // portable and the AVX2 table, serial and threaded. Three kinds of
  // input:
  //  * plain: random values;
  //  * edge: image 0 all zeros (every window a 4-way tie), channel 0's
  //    bias far below zero (every window clamped), a -0 gradient at
  //    every 5th pooled output, and the last image's gradients at
  //    +-denorm_min, so weight x gradient products underflow to +-0
  //    inside the dx chains;
  //  * one NaN or +-Inf in x, in w or in the gradient: the dense
  //    fallback must run (kernel.conv_flops then counts the dense
  //    products) and give the same bits, NaN included.
  struct Case {
    int64_t cin, side, cout, kernel, stride, pad;
  };
  const Case cases[] = {{3, 12, 4, 5, 1, 2}, {4, 6, 8, 5, 1, 2},
                        {1, 12, 2, 5, 1, 2}, {2, 6, 4, 5, 1, 2},
                        {3, 8, 9, 3, 1, 1},  {2, 8, 3, 3, 2, 1},
                        {6, 8, 5, 5, 1, 2}};
  enum class Input { kPlain, kEdge, kNanX, kInfW, kNanGrad, kInfGrad };
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kTiny = std::numeric_limits<float>::denorm_min();
  const std::vector<KernelIsa> isas = AvailableKernelIsas();
  obs::Counter* run_flops =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_flops");
  obs::Counter* dense_flops =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_dense_flops");
  obs::EnableTracing(true);
  for (const Case& cs : cases) {
    const Conv2dSpec spec{.in_channels = cs.cin, .out_channels = cs.cout,
                          .kernel = cs.kernel, .stride = cs.stride,
                          .pad = cs.pad};
    const bool on_grid = cs.stride == 1 && cs.pad < cs.kernel;
    for (int64_t batch : {1, 7, 24, 150}) {
      for (Input input : {Input::kPlain, Input::kEdge, Input::kNanX,
                          Input::kInfW, Input::kNanGrad, Input::kInfGrad}) {
        // The non-finite inputs at two batches keep the test short.
        if (input > Input::kEdge && batch != 1 && batch != 24) continue;
        Rng rng(static_cast<uint64_t>(31 * batch + 7 * cs.cin + cs.cout) +
                static_cast<uint64_t>(input));
        Tensor xt =
            Tensor::Normal(Shape{batch, cs.cin, cs.side, cs.side}, 0, 1, &rng);
        Tensor wt = Tensor::Normal(
            Shape{cs.cout, cs.cin * cs.kernel * cs.kernel}, 0, 0.3f, &rng);
        Tensor bt = Tensor::Normal(Shape{cs.cout}, 0, 0.3f, &rng);
        if (input == Input::kEdge) {
          for (int64_t i = 0; i < xt.size() / batch; ++i) xt.at(i) = 0.0f;
          bt.at(0) = -100.0f;
        }
        if (input == Input::kNanX) xt.at(xt.size() / 3) = kNan;
        if (input == Input::kInfW) wt.at(wt.size() / 2) = -kInf;
        std::vector<uint8_t> window;
        const Tensor y = Conv2dBiasReluPoolForward(xt, wt, bt, spec, &window);
        Tensor gt = Tensor::Normal(y.shape(), 0, 1, &rng);
        const int64_t per_image = gt.size() / batch;
        if (input == Input::kEdge) {
          for (int64_t i = 0; i < gt.size(); i += 5) gt.at(i) = -0.0f;
          for (int64_t i = gt.size() - per_image; i < gt.size(); ++i) {
            gt.at(i) = gt.at(i) < 0.0f ? -kTiny : kTiny;
          }
        }
        // A live window's gradient, so the non-finite value is used.
        int64_t live_at = 0;
        while (live_at + 1 < y.size() && !(y.at(live_at) > 0.0f)) ++live_at;
        if (input == Input::kNanGrad) gt.at(live_at) = kNan;
        if (input == Input::kInfGrad) gt.at(live_at) = kInf;
        const bool fallback = !on_grid || input > Input::kEdge;

        Tensor rdx, rdw, rdb;
        DenseConv2dBackward(RoutedGradient(gt, y, window), xt, wt, spec,
                            &rdx, &rdw, &rdb);
        for (KernelIsa isa : isas) {
          for (int threads : {1, 4}) {
            KernelOptions o;
            o.isa = isa;
            o.threads = threads;
            SetKernelOptions(o);
            const std::string what =
                "cin=" + std::to_string(cs.cin) + " side=" +
                std::to_string(cs.side) + " cout=" + std::to_string(cs.cout) +
                " stride=" + std::to_string(cs.stride) + " B=" +
                std::to_string(batch) + " input=" +
                std::to_string(static_cast<int>(input)) + " isa=" +
                KernelIsaName(isa) + " threads=" + std::to_string(threads);
            const int64_t run0 = run_flops->value();
            const int64_t dense0 = dense_flops->value();
            Tensor dx, dw, db;
            Conv2dBiasReluPoolBackward(gt, y, window, xt, wt, spec, &dx, &dw,
                                       &db);
            EXPECT_EQ(
                run_flops->value() - run0 == dense_flops->value() - dense0,
                fallback)
                << what << " took the wrong path";
            auto same = [&](const Tensor& a, const Tensor& b,
                            const char* name) {
              ASSERT_EQ(a.shape(), b.shape()) << what << " " << name;
              EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                    sizeof(float) *
                                        static_cast<size_t>(a.size())),
                        0)
                  << what << " " << name;
            };
            same(dx, rdx, "dx");
            same(dw, rdw, "dw");
            same(db, rdb, "db");
          }
        }
        obs::ClearTrace();
      }
    }
  }
  obs::EnableTracing(false);
  obs::ClearTrace();
  SetKernelOptions(KernelOptions{});
}

// ---- BufferPool arena ----

TEST(BufferPoolTest, RecyclesExactCapacityWithinScope) {
  const int64_t hits_before = BufferPool::ThreadHitCount();
  BufferPool::Scope scope;
  { Tensor dies(Shape{33}); }  // donated to the capacity-33 bucket
  Tensor reused(Shape{33});    // freelist hit, zero heap traffic
  EXPECT_EQ(BufferPool::ThreadHitCount(), hits_before + 1);
  EXPECT_EQ(reused.size(), 33);
  for (int64_t i = 0; i < reused.size(); ++i) {
    ASSERT_EQ(reused.at(i), 0.0f) << "recycled content leaked through";
  }
}

TEST(BufferPoolTest, EscapedTensorAccountingBalances) {
  // A pooled tensor moved out of its scope must still subtract its bytes
  // from the outstanding counter when it finally dies, or
  // autograd.tape_peak_bytes would drift up forever.
  BufferPool::ResetPeak();
  const int64_t baseline = BufferPool::PeakBytes();
  Tensor escaped;
  {
    BufferPool::Scope scope;
    escaped = Tensor(Shape{64}, 1.0f);
  }
  escaped = Tensor();  // dies outside any scope
  BufferPool::ResetPeak();
  EXPECT_EQ(BufferPool::PeakBytes(), baseline);
}

TEST(BufferPoolTest, PeakTracksLiveBytesInScope) {
  BufferPool::ResetPeak();
  const int64_t baseline = BufferPool::PeakBytes();
  {
    BufferPool::Scope scope;
    Tensor a(Shape{100});  // 400 bytes live
    Tensor b(Shape{50});   // 600 bytes live -> peak
  }
  EXPECT_GE(BufferPool::PeakBytes(), baseline + 600);
}

// ---- Static-graph replay and checkpointing, direct session level ----

Batch FixedTokenBatch(int batch, int steps, int vocab, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.tokens.resize(static_cast<size_t>(batch));
  for (auto& seq : b.tokens) {
    seq.resize(static_cast<size_t>(steps));
    for (int& id : seq) {
      id = static_cast<int>(rng.Uniform(0, 1) * vocab) % vocab;
    }
    b.labels.push_back(static_cast<int>(rng.Uniform(0, 1) * 2) % 2);
  }
  return b;
}

/// Runs `steps` local steps of the LSTM model under one TapeSession and
/// returns the per-step loss plus final flattened parameter grads.
struct SessionTrace {
  std::vector<float> losses;
  std::vector<Tensor> grads;  ///< one per parameter, final step
};

SessionTrace RunLstmSession(const ag::TapeOptions& opts,
                            const std::vector<Batch>& batches) {
  Rng rng(4242);
  LstmConfig mc;
  mc.vocab_size = 32;
  mc.embed_dim = 4;
  mc.hidden_dim = 8;
  mc.feature_dim = 8;
  auto model = std::make_unique<LstmModel>(mc, &rng);

  SessionTrace trace;
  ag::TapeSession session(opts);
  for (const Batch& batch : batches) {
    ag::ReplayBindings bind{nullptr, &batch.tokens, &batch.labels};
    Variable loss;
    if (session.CanReplay(bind)) {
      loss = session.Replay(bind);
    } else {
      session.BeginRecord(bind);
      ModelOutput out = model->Forward(batch);
      loss = CrossEntropyLoss(out.logits, batch.labels);
      session.EndRecord(loss);
    }
    model->ZeroGrad();
    loss.Backward();
    trace.losses.push_back(loss.value().ToScalar());
  }
  for (Variable* p : model->Parameters()) trace.grads.push_back(p->grad());
  return trace;
}

TEST(TapeTest, CheckpointedLstmBpttGradsBitIdenticalToUncheckpointed) {
  std::vector<Batch> batches;
  for (uint64_t s = 0; s < 3; ++s) {
    batches.push_back(FixedTokenBatch(6, 8, 32, 900 + s));
  }
  SessionTrace plain =
      RunLstmSession({/*static_graph=*/true, /*checkpoint=*/false}, batches);
  SessionTrace ckpt =
      RunLstmSession({/*static_graph=*/true, /*checkpoint=*/true}, batches);
  ASSERT_EQ(plain.losses.size(), ckpt.losses.size());
  for (size_t i = 0; i < plain.losses.size(); ++i) {
    EXPECT_EQ(plain.losses[i], ckpt.losses[i]) << "step " << i;
  }
  ASSERT_EQ(plain.grads.size(), ckpt.grads.size());
  for (size_t i = 0; i < plain.grads.size(); ++i) {
    ExpectBitEqual(plain.grads[i], ckpt.grads[i],
                   "grad of parameter " + std::to_string(i));
  }
}

TEST(TapeTest, ReplayGradsBitIdenticalToPerStepRebuild) {
  std::vector<Batch> batches;
  for (uint64_t s = 0; s < 3; ++s) {
    batches.push_back(FixedTokenBatch(6, 8, 32, 700 + s));
  }
  SessionTrace replayed =
      RunLstmSession({/*static_graph=*/true, /*checkpoint=*/false}, batches);
  SessionTrace rebuilt =
      RunLstmSession({/*static_graph=*/false, /*checkpoint=*/false}, batches);
  for (size_t i = 0; i < replayed.losses.size(); ++i) {
    EXPECT_EQ(replayed.losses[i], rebuilt.losses[i]) << "step " << i;
  }
  for (size_t i = 0; i < replayed.grads.size(); ++i) {
    ExpectBitEqual(replayed.grads[i], rebuilt.grads[i],
                   "grad of parameter " + std::to_string(i));
  }
}

TEST(TapeTest, CheckpointingLowersPeakActivationBytes) {
  std::vector<Batch> batches{FixedTokenBatch(8, 16, 32, 55)};
  BufferPool::ResetPeak();
  RunLstmSession({true, /*checkpoint=*/false}, batches);
  const int64_t peak_plain = BufferPool::PeakBytes();
  BufferPool::ResetPeak();
  RunLstmSession({true, /*checkpoint=*/true}, batches);
  const int64_t peak_ckpt = BufferPool::PeakBytes();
  EXPECT_LT(peak_ckpt, peak_plain);
}

TEST(TapeTest, AllocsPerStepReachZeroAfterWarmup) {
  // The headline arena property: once the step-0 graph is recorded and
  // its buffers have cycled through the freelist once, a replayed step
  // performs no heap tensor allocations at all.
  Rng rng(808);
  MlpConfig mc;
  mc.hidden_dim = 16;
  mc.feature_dim = 8;
  auto model = std::make_unique<MlpModel>(mc, &rng);
  Batch batch;
  batch.images = Tensor::Normal(Shape{4, 1, 12, 12}, 0, 1, &rng);
  batch.labels = {1, 3, 5, 7};

  ag::TapeSession session({/*static_graph=*/true, /*checkpoint=*/false});
  std::vector<int64_t> allocs;
  for (int step = 0; step < 6; ++step) {
    const int64_t before = BufferPool::ThreadAllocCount();
    ag::ReplayBindings bind{&batch.images, &batch.tokens, &batch.labels};
    Variable loss;
    if (session.CanReplay(bind)) {
      loss = session.Replay(bind);
    } else {
      session.BeginRecord(bind);
      ModelOutput out = model->Forward(batch);
      loss = CrossEntropyLoss(out.logits, batch.labels);
      session.EndRecord(loss);
    }
    model->ZeroGrad();
    loss.Backward();
    allocs.push_back(BufferPool::ThreadAllocCount() - before);
  }
  EXPECT_EQ(session.rebuilds(), 1);
  EXPECT_EQ(session.reuse_hits(), 5);
  EXPECT_GT(allocs[0], 0);  // recording pays the allocations once
  for (size_t step = 2; step < allocs.size(); ++step) {
    EXPECT_EQ(allocs[step], 0) << "replayed step " << step << " allocated";
  }
}

TEST(TapeTest, ReplayedBoutsKeepPoolBytesAndAllocationsFlat) {
  // Local training as fl::LocalTrain drives it: one TapeSession per
  // bout, a fresh pooled batch per step, record then replay, SGD
  // updates. Once warm, a bout must take out of the freelists exactly
  // what it parks and count every heap allocation it makes, so
  // pool-held bytes and the allocation count read the same after N and
  // after 3N bouts. A buffer that enters a freelist without having been
  // Acquire()d (such as a heap copy into an empty tensor) breaks both.
  Rng rng(919);
  CnnConfig mc;
  mc.in_channels = 3;
  mc.conv1_channels = 4;
  mc.conv2_channels = 8;
  mc.feature_dim = 16;
  auto model = std::make_unique<CnnModel>(mc, &rng);
  const Tensor images = Tensor::Normal(Shape{6, 3, 12, 12}, 0, 1, &rng);
  const std::vector<int> labels = {0, 3, 5, 7, 9, 2};

  int64_t replayed = 0;
  auto bout = [&] {
    ag::TapeSession session({/*static_graph=*/true, /*checkpoint=*/false});
    for (int step = 0; step < 3; ++step) {
      Batch batch;
      batch.images = Tensor(images);
      batch.labels = labels;
      ag::ReplayBindings bind{&batch.images, &batch.tokens, &batch.labels};
      Variable loss;
      if (session.CanReplay(bind)) {
        loss = session.Replay(bind);
      } else {
        session.BeginRecord(bind);
        ModelOutput out = model->Forward(batch);
        loss = CrossEntropyLoss(out.logits, batch.labels);
        session.EndRecord(loss);
      }
      model->ZeroGrad();
      loss.Backward();
      for (Variable* p : model->Parameters()) {
        p->mutable_value().Axpy(-0.01f, p->grad());
      }
    }
    replayed += session.reuse_hits();
  };
  constexpr int kN = 3;
  for (int i = 0; i < kN; ++i) bout();
  const int64_t bytes_n = BufferPool::ThreadPooledBytes();
  const int64_t allocs_n = BufferPool::ThreadAllocCount();
  for (int i = kN; i < 3 * kN; ++i) bout();
  EXPECT_GT(bytes_n, 0);
  EXPECT_EQ(BufferPool::ThreadPooledBytes(), bytes_n);
  EXPECT_EQ(BufferPool::ThreadAllocCount(), allocs_n);
  EXPECT_EQ(replayed, 3 * kN * 2);
}

// ---- Federated byte-identity across execution strategies ----

std::vector<ClientView> ViewsOf(const ClientSplit& split) {
  std::vector<ClientView> views;
  for (const auto& idx : split.client_indices) views.push_back({idx, {}});
  return views;
}

struct FedResult {
  Tensor state;
  std::vector<double> losses;
};

void ExpectSameRun(const FedResult& a, const FedResult& b,
                   const std::string& what) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << what;
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << what << " round " << i;
  }
  ExpectBitEqual(a.state, b.state, what + " final state");
}

FedResult RunCnnFederated(bool static_graph, int num_threads) {
  Rng rng(1234);
  auto data = GenerateImageData(MnistLikeProfile(), 240, 120, &rng);
  auto split = SimilarityPartition(data.train, 4, 0.5, &rng);
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 3;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 77;
  config.num_threads = num_threads;
  config.max_examples_per_pass = 64;
  config.autograd.static_graph = static_graph;
  FedAvg algo(config, &data.train, ViewsOf(split), MakeCnnFactory(mc));
  TrainerOptions options;
  options.eval_max_examples = 120;
  FederatedTrainer trainer(&algo, &data.test, options);
  RunHistory history = trainer.Run(2);
  FedResult result;
  for (const RoundMetrics& r : history.rounds) {
    result.losses.push_back(r.train_loss);
  }
  result.state = algo.global_state();
  return result;
}

TEST(TapeFederatedTest, StaticGraphOnOffByteIdentical) {
  ExpectSameRun(RunCnnFederated(true, 1), RunCnnFederated(false, 1),
                "static vs rebuilt");
}

TEST(TapeFederatedTest, StaticGraphByteIdenticalAcrossThreadCounts) {
  FedResult base = RunCnnFederated(true, 1);
  ExpectSameRun(base, RunCnnFederated(true, 4), "1 vs 4 threads, static");
  ExpectSameRun(base, RunCnnFederated(false, 4), "1 vs 4 threads, rebuilt");
}

FedResult RunLstmFederated(bool checkpoint) {
  Rng rng(2024);
  TextProfile profile = Sent140LikeProfile();
  profile.num_users = 20;
  auto data = GenerateTextData(profile, 300, 100, &rng);
  auto split = NaturalPartition(data.train_users, profile.num_users, 4, &rng);
  LstmConfig mc;
  mc.vocab_size = profile.vocab_size;
  mc.embed_dim = 4;
  mc.hidden_dim = 8;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 3;
  config.batch_size = 10;
  config.lr = 0.01;
  config.optimizer = OptimizerKind::kRmsProp;
  config.seed = 6;
  config.max_examples_per_pass = 64;
  config.autograd.checkpoint = checkpoint;
  FedAvg algo(config, &data.train, ViewsOf(split), MakeLstmFactory(mc));
  TrainerOptions options;
  options.eval_max_examples = 100;
  FederatedTrainer trainer(&algo, &data.test, options);
  RunHistory history = trainer.Run(2);
  FedResult result;
  for (const RoundMetrics& r : history.rounds) {
    result.losses.push_back(r.train_loss);
  }
  result.state = algo.global_state();
  return result;
}

TEST(TapeFederatedTest, GradCheckpointOnOffByteIdentical) {
  ExpectSameRun(RunLstmFederated(false), RunLstmFederated(true),
                "checkpoint off vs on");
}

}  // namespace
}  // namespace rfed
