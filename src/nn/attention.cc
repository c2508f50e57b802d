#include "nn/attention.h"

#include <cmath>

#include "tensor/kernels.h"
#include "train_obs/train_obs.h"

namespace emba {
namespace nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               float dropout_p, Rng* rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng),
      dropout_(dropout_p, rng) {
  EMBA_CHECK_MSG(dim % num_heads == 0, "dim must be divisible by num_heads");
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
  RegisterModule("dropout", &dropout_);
}

ag::Var MultiHeadSelfAttention::Forward(const ag::Var& x) const {
  EMBA_CHECK_MSG(x.cols() == dim_, "attention input dim mismatch");
  const int64_t len = x.rows();
  ag::Var q = wq_.Forward(x);
  ag::Var k = wk_.Forward(x);
  ag::Var v = wv_.Forward(x);

  // EMBA_ATTN_STATS introspection: one relaxed load per forward when off;
  // the family id resolves once per named module when on.
  const bool attn_stats =
      !attn_stats_name_.empty() && train_obs::AttnStatsEnabled();
  if (attn_stats && attn_family_ < 0) {
    attn_family_ = train_obs::RegisterAttentionFamily(attn_stats_name_);
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Tensor probs;  // pre-dropout, head h in rows [h·len, (h+1)·len)
  ag::Var heads =
      ag::MultiHeadAttention(q, k, v, num_heads_, scale, dropout_.spec(),
                             capture_attention_ || attn_stats ? &probs
                                                              : nullptr);
  if (capture_attention_) {
    // Head average, summed in head order.
    Tensor attn_accum = Tensor::Zeros({len, len});
    const float inv_heads = 1.0f / static_cast<float>(num_heads_);
    for (int64_t h = 0; h < num_heads_; ++h) {
      kernels::Active().Axpy(attn_accum.data(), inv_heads,
                             probs.data() + h * len * len, len * len);
    }
    // The accumulator may be arena-backed; the capture outlives the sample's
    // arena scope, so it must move to the heap first.
    attn_accum.EnsureHeap();
    last_attention_ = std::move(attn_accum);
  }
  if (attn_stats) {
    // All heads' rows in head order, as one call per head would see them.
    train_obs::ObserveAttentionRows(attn_family_, probs);
  }
  return wo_.Forward(heads);
}

}  // namespace nn
}  // namespace emba
