// Tier-1 tests for the fused multi-head attention op: ag::MultiHeadAttention
// and its kernel (KernelTable::MultiHeadAttention), checked bit for bit
// against the per-head graph they replaced — ColSlice, Transpose, MatMul,
// Scale, SoftmaxRows, Dropout, MatMul, ConcatCols — which survives here as
// the reference.
//
// Covered: outputs and probabilities; the gradients of q, k, v and of the
// module's input and its 8 parameter tensors; training forwards with
// dropout, which must draw the same mask and leave the Rng in the same
// state; the Figure-6 capture and the EMBA_ATTN_STATS histograms; head dims
// {1, 3, 8, 12, 16} × heads 1..5 × every L % 8; NaN, ±Inf and exact-zero
// inputs and rows whose exp underflows to 0; both kernel backends and 1 vs
// 4 pool threads. Equality is on bit patterns with the kernel layer's NaN
// carve-out (kernels.h): a NaN matches any NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autograd/var.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "train_obs/train_obs.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace emba {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

::testing::AssertionResult BitEqual(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) {
    return ::testing::AssertionFailure()
           << "shapes differ: " << a.ToString(0) << " vs " << b.ToString(0);
  }
  for (int64_t i = 0; i < a.size(); ++i) {
    const float x = a[i], y = b[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    uint32_t bx, by;
    std::memcpy(&bx, &x, 4);
    std::memcpy(&by, &y, 4);
    if (bx != by) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << x << " (0x" << std::hex << bx
             << ") vs " << y << " (0x" << by << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Every case runs under each backend at 1 and 4 pool threads.
struct Config {
  kernels::Backend backend;
  int threads;
};

std::vector<Config> Configs() {
  std::vector<Config> configs = {{kernels::Backend::kScalar, 1},
                                 {kernels::Backend::kScalar, 4}};
  if (kernels::Avx2KernelsOrNull() != nullptr && kernels::CpuSupportsAvx2()) {
    configs.push_back({kernels::Backend::kAvx2, 1});
    configs.push_back({kernels::Backend::kAvx2, 4});
  }
  return configs;
}

std::string ConfigName(const Config& c) {
  return std::string(kernels::BackendName(c.backend)) + "@" +
         std::to_string(c.threads);
}

class AttentionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    kernels::ResetBackend();
    SetGlobalThreads(1);
  }

  static void Apply(const Config& c) {
    kernels::ForceBackend(c.backend);
    SetGlobalThreads(c.threads);
  }
};

// ---- the reference: the per-head graph the fused op replaced ----

ag::Var ComposedAttention(const ag::Var& q, const ag::Var& k, const ag::Var& v,
                          int64_t heads, float scale,
                          const ag::DropoutSpec& dropout,
                          std::vector<Tensor>* head_probs) {
  const int64_t hd = q.cols() / heads;
  std::vector<ag::Var> outputs;
  for (int64_t h = 0; h < heads; ++h) {
    const int64_t begin = h * hd, end = (h + 1) * hd;
    ag::Var qh = ag::ColSlice(q, begin, end);
    ag::Var kh = ag::ColSlice(k, begin, end);
    ag::Var vh = ag::ColSlice(v, begin, end);
    ag::Var scores = ag::Scale(ag::MatMul(qh, ag::Transpose(kh)), scale);
    ag::Var weights = ag::SoftmaxRows(scores);
    if (head_probs != nullptr) head_probs->push_back(weights.value());
    weights = ag::Dropout(weights, dropout.p, dropout.rng, dropout.training);
    outputs.push_back(ag::MatMul(weights, vh));
  }
  return heads == 1 ? outputs[0] : ag::ConcatCols(outputs);
}

// nn::MultiHeadSelfAttention as it was before the fused op: the same
// parameters, drawn from the Rng in the same order, around the composed
// core, with its capture and attention-stats hooks.
class ComposedSelfAttention : public nn::Module {
 public:
  ComposedSelfAttention(int64_t dim, int64_t heads, float dropout_p, Rng* rng)
      : heads_(heads),
        wq_(dim, dim, rng),
        wk_(dim, dim, rng),
        wv_(dim, dim, rng),
        wo_(dim, dim, rng),
        dropout_(dropout_p, rng) {
    RegisterModule("wq", &wq_);
    RegisterModule("wk", &wk_);
    RegisterModule("wv", &wv_);
    RegisterModule("wo", &wo_);
    RegisterModule("dropout", &dropout_);
  }

  /// `capture` receives the head-averaged attention; `stats_family` >= 0
  /// observes each head's probabilities, in head order.
  ag::Var Forward(const ag::Var& x, Tensor* capture = nullptr,
                  int stats_family = -1) const {
    const int64_t len = x.rows();
    ag::Var q = wq_.Forward(x);
    ag::Var k = wk_.Forward(x);
    ag::Var v = wv_.Forward(x);
    const float scale =
        1.0f / std::sqrt(static_cast<float>(x.cols() / heads_));
    std::vector<Tensor> probs;
    ag::Var heads =
        ComposedAttention(q, k, v, heads_, scale, dropout_.spec(), &probs);
    if (capture != nullptr) {
      Tensor accum = Tensor::Zeros({len, len});
      for (const Tensor& p : probs) {
        accum.Axpy(1.0f / static_cast<float>(heads_), p);
      }
      *capture = accum.HeapClone();
    }
    for (const Tensor& p : probs) {
      if (stats_family >= 0) train_obs::ObserveAttentionRows(stats_family, p);
    }
    return wo_.Forward(heads);
  }

 private:
  int64_t heads_;
  nn::Linear wq_, wk_, wv_, wo_;
  nn::DropoutLayer dropout_;
};

// ---- inputs ----

Tensor Random(int64_t rows, int64_t cols, Rng* rng) {
  return Tensor::RandomNormal({rows, cols}, rng);
}

// Overwrites q, k, v with the values that reach every skip and exp path,
// with k and v finite unless asked otherwise:
//  * q rows scaled until most of their exp(x − max) underflow to exact 0
//    (the P·V zero-skip), and exact zeros in q (the score zero-skip);
//  * a NaN and ±inf in q: rows whose scores are all NaN or have an
//    infinite max;
//  * a score that is inf − inf = NaN in a row whose other scores stay
//    finite, so the row max is finite and only the NaN scan keeps its exp
//    exact (needs head dim ≥ 2 and L > 8);
//  * `nonfinite_k` / `nonfinite_v`: ±inf and NaN entries in k or v facing
//    those zeros, so that a skipped 0·inf keeps a NaN out. The AVX2 kernel
//    hands such calls to the scalar reference, so each is set on its own.
void AddSpecials(Tensor* q, Tensor* k, Tensor* v, bool nonfinite_k,
                 bool nonfinite_v) {
  const int64_t len = q->rows(), dim = q->cols();
  for (int64_t r = 1; r < len; r += 3) {
    for (int64_t c = 0; c < dim; ++c) q->at(r, c) *= 80.0f;
  }
  for (int64_t i = 0; i < q->size(); i += 5) (*q)[i] = 0.0f;
  for (int64_t i = 3; i < k->size(); i += 7) (*k)[i] = 0.0f;
  for (int64_t i = 1; i < v->size(); i += 7) (*v)[i] = 0.0f;
  if (len > 2) q->at(2, dim - 1) = kNaN;
  if (len > 4) q->at(4, 0) = kInf;
  if (len > 5) q->at(5, dim - 1) = -kInf;
  if (len > 8 && dim >= 2) {
    q->at(len - 1, 0) = 1e37f;
    q->at(len - 1, 1) = 1e37f;
    k->at(0, 0) = 100.0f;
    k->at(0, 1) = -100.0f;
  }
  if (nonfinite_k) {
    k->at(len - 1, 0) = kInf;
    if (len > 1) k->at(0, dim - 1) = -kInf;
  }
  if (nonfinite_v) {
    v->at(len / 2, 0) = kInf;
    if (len > 3) v->at(3, dim - 1) = kNaN;
  }
}

// What one run of an attention op produced.
struct OpRun {
  Tensor out, probs, dq, dk, dv;
  uint64_t rng_after = 0;
};

// Runs the fused op (fused = true) or the reference on fresh leaf copies of
// q, k, v, then backpropagates MeanAll(out ⊙ w). Dropout, when p > 0, draws
// from an Rng seeded with `seed`; rng_after is its next draw.
OpRun RunOp(bool fused, const Tensor& q, const Tensor& k, const Tensor& v,
            const Tensor& w, int64_t heads, float dropout_p, uint64_t seed) {
  Rng rng(seed);
  const ag::DropoutSpec dropout{dropout_p, &rng, dropout_p > 0.0f};
  const float scale = 1.0f / std::sqrt(static_cast<float>(q.cols() / heads));
  ag::Var qv(q, true), kv(k, true), vv(v, true);
  OpRun run;
  ag::Var out;
  if (fused) {
    out = ag::MultiHeadAttention(qv, kv, vv, heads, scale, dropout,
                                 &run.probs);
  } else {
    std::vector<Tensor> probs;
    out = ComposedAttention(qv, kv, vv, heads, scale, dropout, &probs);
    const int64_t len = q.rows();
    run.probs = Tensor({heads * len, len});
    for (int64_t h = 0; h < heads; ++h) {
      std::copy(probs[h].data(), probs[h].data() + len * len,
                run.probs.data() + h * len * len);
    }
  }
  run.rng_after = rng.NextU64();
  ag::MeanAll(ag::Mul(out, ag::Var(w))).Backward();
  run.out = out.value();
  run.dq = qv.grad();
  run.dk = kv.grad();
  run.dv = vv.grad();
  return run;
}

void ExpectSameRun(const OpRun& a, const OpRun& b, const std::string& where) {
  EXPECT_TRUE(BitEqual(a.out, b.out)) << where << " output";
  EXPECT_TRUE(BitEqual(a.probs, b.probs)) << where << " probabilities";
  EXPECT_EQ(a.rng_after, b.rng_after) << where << " Rng state";
  EXPECT_TRUE(BitEqual(a.dq, b.dq)) << where << " dq";
  EXPECT_TRUE(BitEqual(a.dk, b.dk)) << where << " dk";
  EXPECT_TRUE(BitEqual(a.dv, b.dv)) << where << " dv";
}

// ---- the op against the reference ----

TEST_F(AttentionTest, OpMatchesComposedGraphAcrossShapesBackendsAndThreads) {
  // Every L % 8 and L % 4, a head's row block of 1..4 query rows, and the
  // wdc / abt sequence lengths.
  const std::vector<int64_t> lengths = {1, 2, 3,  4,  5,  6,  7,
                                        8, 9, 12, 22, 31, 39, 57};
  const std::vector<int64_t> head_dims = {1, 3, 8, 12, 16};
  struct Variant {
    const char* name;
    bool specials, nonfinite_k, nonfinite_v;
    float dropout_p;
  };
  const Variant variants[] = {
      {"clean", false, false, false, 0.0f},
      {"dropout", false, false, false, 0.3f},
      {"specials", true, false, false, 0.0f},
      {"specials+dropout", true, false, false, 0.3f},
      {"specials, non-finite k", true, true, false, 0.0f},
      {"specials, non-finite v, dropout", true, false, true, 0.3f}};
  // The first configuration's fused runs, which every other configuration
  // must reproduce exactly.
  std::vector<OpRun> first;
  bool record = true;
  for (const Config& config : Configs()) {
    Apply(config);
    size_t index = 0;
    for (int64_t hd : head_dims) {
      for (int64_t heads = 1; heads <= 5; ++heads) {
        for (int64_t len : lengths) {
          for (const Variant& variant : variants) {
            const uint64_t seed = 1000 + index;
            Rng rng(seed);
            const int64_t dim = heads * hd;
            Tensor q = Random(len, dim, &rng);
            Tensor k = Random(len, dim, &rng);
            Tensor v = Random(len, dim, &rng);
            Tensor w = Random(len, dim, &rng);
            if (variant.specials) {
              AddSpecials(&q, &k, &v, variant.nonfinite_k,
                          variant.nonfinite_v);
            }
            const std::string where =
                ConfigName(config) + " " + variant.name +
                " hd=" + std::to_string(hd) +
                " heads=" + std::to_string(heads) +
                " L=" + std::to_string(len);
            const OpRun fused =
                RunOp(true, q, k, v, w, heads, variant.dropout_p, seed);
            const OpRun reference =
                RunOp(false, q, k, v, w, heads, variant.dropout_p, seed);
            ExpectSameRun(fused, reference, where);
            if (record) {
              first.push_back(fused);
            } else {
              ExpectSameRun(fused, first[index], where + " vs first config");
            }
            ++index;
            if (HasFailure()) return;  // one report, not thousands
          }
        }
      }
    }
    record = false;
  }
}

TEST_F(AttentionTest, DropoutDrawsTheComposedMaskInHeadOrder) {
  // The mask is drawn head by head, L×L row-major per head — exactly the
  // stream the per-head Dropout calls consumed — so both runs zero the same
  // probabilities and leave the Rng at the same point.
  Rng rng(7);
  const int64_t len = 13, heads = 3, dim = 24;
  Tensor q = Random(len, dim, &rng), k = Random(len, dim, &rng);
  Tensor v = Random(len, dim, &rng), w = Random(len, dim, &rng);
  for (const Config& config : Configs()) {
    Apply(config);
    const OpRun fused = RunOp(true, q, k, v, w, heads, 0.5f, 99);
    const OpRun reference = RunOp(false, q, k, v, w, heads, 0.5f, 99);
    ExpectSameRun(fused, reference, ConfigName(config));
    // The draws really happened: heads·L² Bernoulli draws moved the stream.
    Rng untouched(99);
    EXPECT_NE(fused.rng_after, untouched.NextU64());
  }
}

// ---- the module against the module it replaced ----

struct ModuleRun {
  Tensor out, dx, capture;
  std::vector<Tensor> grads;  // the 8 parameter gradients, registry order
  uint64_t rng_after = 0;
};

ModuleRun RunModule(bool fused, int64_t dim, int64_t heads, float dropout_p,
                    bool training, const Tensor& x, const Tensor& w,
                    int stats_family, const std::string& stats_name) {
  Rng rng(5);
  nn::MultiHeadSelfAttention fused_module(dim, heads, dropout_p, &rng);
  Rng ref_rng(5);
  ComposedSelfAttention ref_module(dim, heads, dropout_p, &ref_rng);
  nn::Module& module =
      fused ? static_cast<nn::Module&>(fused_module) : ref_module;
  module.SetTraining(training);
  ag::Var input(x, true);
  ModuleRun run;
  ag::Var out;
  if (fused) {
    fused_module.CaptureAttention(true);
    if (!stats_name.empty()) fused_module.SetAttnStatsName(stats_name);
    out = fused_module.Forward(input);
    run.capture = *fused_module.last_attention();
  } else {
    out = ref_module.Forward(input, &run.capture, stats_family);
  }
  run.rng_after = (fused ? rng : ref_rng).NextU64();
  ag::MeanAll(ag::Mul(out, ag::Var(w))).Backward();
  run.out = out.value();
  run.dx = input.grad();
  for (const ag::Var& p : module.Parameters()) run.grads.push_back(p.grad());
  return run;
}

TEST_F(AttentionTest, ModuleMatchesComposedModuleWithGradientsAndHooks) {
  // (dim, heads): head dims 1, 3, 8, 12 and 16.
  const int64_t shapes[][2] = {{4, 4}, {9, 3}, {8, 1}, {32, 4}, {60, 5},
                               {64, 4}};
  const int64_t lengths[] = {1, 6, 13, 57};
  for (const Config& config : Configs()) {
    Apply(config);
    for (const auto& shape : shapes) {
      const int64_t dim = shape[0], heads = shape[1];
      for (int64_t len : lengths) {
        for (bool training : {false, true}) {
          Rng rng(static_cast<uint64_t>(dim * 1000 + len));
          const Tensor x = Random(len, dim, &rng);
          const Tensor w = Random(len, dim, &rng);
          const std::string where =
              ConfigName(config) + " dim=" + std::to_string(dim) +
              " heads=" + std::to_string(heads) + " L=" + std::to_string(len) +
              (training ? " training" : " eval");
          const ModuleRun fused =
              RunModule(true, dim, heads, 0.1f, training, x, w, -1, "");
          const ModuleRun reference =
              RunModule(false, dim, heads, 0.1f, training, x, w, -1, "");
          EXPECT_TRUE(BitEqual(fused.out, reference.out)) << where;
          EXPECT_TRUE(BitEqual(fused.dx, reference.dx)) << where << " dx";
          EXPECT_TRUE(BitEqual(fused.capture, reference.capture))
              << where << " capture";
          EXPECT_EQ(fused.rng_after, reference.rng_after) << where;
          ASSERT_EQ(fused.grads.size(), 8u);
          ASSERT_EQ(reference.grads.size(), 8u);
          for (size_t p = 0; p < 8; ++p) {
            EXPECT_TRUE(BitEqual(fused.grads[p], reference.grads[p]))
                << where << " parameter " << p;
          }
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST_F(AttentionTest, ComposedModuleHasTheSameParameters) {
  // The module comparison above rests on both modules drawing the same
  // weights; pin that, names included.
  Rng a(5), b(5);
  nn::MultiHeadSelfAttention fused(24, 3, 0.1f, &a);
  ComposedSelfAttention reference(24, 3, 0.1f, &b);
  const auto fused_params = fused.NamedParameters();
  const auto ref_params = reference.NamedParameters();
  ASSERT_EQ(fused_params.size(), 8u);
  ASSERT_EQ(ref_params.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fused_params[i].first, ref_params[i].first);
    EXPECT_TRUE(BitEqual(fused_params[i].second.value(),
                         ref_params[i].second.value()))
        << fused_params[i].first;
  }
}

TEST_F(AttentionTest, AttentionStatsSeeEveryHeadInHeadOrder) {
  const bool was_enabled = train_obs::AttnStatsEnabled();
  train_obs::SetAttnStatsEnabled(true);
  const int ref_family =
      train_obs::RegisterAttentionFamily("attention_test_reference");
  Rng rng(11);
  const int64_t dim = 32, heads = 4, len = 29;
  const Tensor x = Random(len, dim, &rng);
  const Tensor w = Random(len, dim, &rng);
  RunModule(true, dim, heads, 0.1f, true, x, w, -1, "attention_test_fused");
  RunModule(false, dim, heads, 0.1f, true, x, w, ref_family, "");
  train_obs::SetAttnStatsEnabled(was_enabled);
  for (const char* kind : {"entropy", "rowmax"}) {
    const auto fused =
        metrics::GetHistogram(std::string("training.attn.") + kind +
                              ".attention_test_fused")
            .GetSnapshot();
    const auto reference =
        metrics::GetHistogram(std::string("training.attn.") + kind +
                              ".attention_test_reference")
            .GetSnapshot();
    EXPECT_EQ(fused.count, static_cast<uint64_t>(heads * len)) << kind;
    EXPECT_EQ(fused.count, reference.count) << kind;
    EXPECT_EQ(fused.sum, reference.sum) << kind;
    EXPECT_EQ(fused.bucket_counts, reference.bucket_counts) << kind;
  }
}

TEST_F(AttentionTest, InferenceModeMatchesComposedModule) {
  // The serving path: pooled inference Vars and arena storage.
  Rng rng(3);
  const int64_t dim = 32, heads = 4;
  for (const Config& config : Configs()) {
    Apply(config);
    for (int64_t len : {1, 7, 39, 57}) {
      const Tensor x = Random(len, dim, &rng);
      Rng a(5), b(5);
      nn::MultiHeadSelfAttention fused(dim, heads, 0.1f, &a);
      ComposedSelfAttention reference(dim, heads, 0.1f, &b);
      fused.SetTraining(false);
      reference.SetTraining(false);
      fused.CaptureAttention(true);
      ag::InferenceModeGuard inference;
      ActivationArena::Scope arena;
      Tensor capture;
      const Tensor fused_out = fused.Forward(ag::Var(x)).value().HeapClone();
      const Tensor ref_out =
          reference.Forward(ag::Var(x), &capture).value().HeapClone();
      EXPECT_TRUE(BitEqual(fused_out, ref_out))
          << ConfigName(config) << " L=" << len;
      EXPECT_TRUE(BitEqual(*fused.last_attention(), capture))
          << ConfigName(config) << " L=" << len << " capture";
    }
  }
}

}  // namespace
}  // namespace emba
