// Multi-head self-attention for single-sequence (per-sample) processing.
#pragma once

#include <optional>
#include <string>

#include "nn/layers.h"

namespace emba {
namespace nn {

/// Scaled dot-product multi-head self-attention over one sequence [L × H].
///
/// Heads are column ranges of the Q/K/V projections; one fused
/// ag::MultiHeadAttention op computes all of them, in training and in
/// inference. The per-head attention matrices from the most recent forward
/// pass can be captured for the paper's Figure-6 visualization
/// (CaptureAttention(true)).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads, float dropout_p,
                         Rng* rng);

  /// x [L × H] -> [L × H].
  ag::Var Forward(const ag::Var& x) const;

  /// When enabled, Forward stores head-averaged attention [L × L].
  void CaptureAttention(bool capture) { capture_attention_ = capture; }
  /// Head-averaged attention weights of the last Forward (rows = queries).
  const std::optional<Tensor>& last_attention() const {
    return last_attention_;
  }

  int64_t num_heads() const { return num_heads_; }

  /// Names this module's attention-stats family ("layer0", "layer1", ...)
  /// for train_obs introspection (EMBA_ATTN_STATS). Unnamed modules are
  /// skipped by the stats pass. The family id resolves lazily on the first
  /// observed forward, so naming costs nothing when stats stay off.
  void SetAttnStatsName(const std::string& name) {
    attn_stats_name_ = name;
    attn_family_ = -1;
  }

 private:
  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_, wk_, wv_, wo_;
  DropoutLayer dropout_;
  bool capture_attention_ = false;
  mutable std::optional<Tensor> last_attention_;
  std::string attn_stats_name_;
  mutable int attn_family_ = -1;
};

}  // namespace nn
}  // namespace emba
