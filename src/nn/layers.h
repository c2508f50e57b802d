// Basic trainable layers: Linear, Embedding, LayerNorm, Dropout.
#pragma once

#include "nn/module.h"
#include "tensor/int8.h"

namespace emba {
namespace nn {

/// y = x · W + b, with W [in × out], b [out]. x may be 1-D (a single vector)
/// or 2-D (rows of vectors).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  ag::Var Forward(const ag::Var& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  const ag::Var& weight() const { return weight_; }
  const ag::Var& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool has_bias_;
  ag::Var weight_;
  ag::Var bias_;
  // Quantized-weight slot for the int8 inference path; mutable because
  // Forward() is const and the cache is a pure acceleration structure.
  mutable int8::LinearWeightCache int8_cache_;
};

/// Token-id to vector lookup table.
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t dim, Rng* rng);

  /// ids -> [len(ids) × dim]
  ag::Var Forward(const std::vector<int>& ids) const;

  int64_t vocab_size() const { return vocab_size_; }
  int64_t dim() const { return dim_; }
  const ag::Var& table() const { return table_; }

 private:
  int64_t vocab_size_;
  int64_t dim_;
  ag::Var table_;
};

/// Learned row-wise layer normalization.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  ag::Var Forward(const ag::Var& x) const;

 private:
  float eps_;
  ag::Var gamma_;
  ag::Var beta_;
};

/// Inverted dropout driven by the module training flag.
class DropoutLayer : public Module {
 public:
  DropoutLayer(float p, Rng* rng) : p_(p), rng_(rng) {}

  ag::Var Forward(const ag::Var& x) const {
    return ag::Dropout(x, p_, rng_, training());
  }

  /// The settings Forward applies, for ops that draw their own mask.
  ag::DropoutSpec spec() const { return {p_, rng_, training()}; }

 private:
  float p_;
  Rng* rng_;
};

}  // namespace nn
}  // namespace emba
