// Reverse-mode automatic differentiation.
//
// A Var is a handle to a graph node holding a Tensor value, an accumulated
// gradient, and a backward closure. Ops build the graph as they compute;
// Backward() runs a topological sweep from the loss. A thread-global grad
// mode (NoGradGuard) turns recording off for inference, where ops degrade to
// plain tensor kernels.
//
// Serving goes one step further: under InferenceModeGuard every op returns a
// Var backed by a pooled, non-atomically refcounted InferenceNode instead of
// a std::make_shared<VarNode> — zero per-op heap allocation once the
// thread-local pool is warm. Inference Vars carry only a value: Backward(),
// Parameter creation, and graph linking (node()) all fail loudly under an
// active inference scope. They are thread-local objects and must not cross
// threads; EscapeToHeap() converts one into an ordinary heap-backed constant
// Var that may.
//
// Design notes (mirrors the approach of micro-frameworks like tinygrad):
//  * All tensors are 1-D or 2-D; sequence batches are processed per sample,
//    which matches the paper's sample-wise AOA computation (Sec. 4.4).
//  * Gradients are accumulated (+=) so shared subexpressions are handled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace emba {
namespace ag {

struct VarNode {
  Tensor value;
  Tensor grad;  // allocated lazily on first accumulation
  bool requires_grad = false;
  bool grad_allocated = false;
  int64_t id = 0;  // creation order; used for deterministic topo order
  std::vector<std::shared_ptr<VarNode>> parents;
  // Propagates this->grad into parents' grads. Null for leaves.
  std::function<void(VarNode&)> backward;

  /// Accumulates `g` into grad, allocating on first use.
  void AccumulateGrad(const Tensor& g);
};

namespace detail {

/// Pooled value-only node used under inference mode. Lives in a thread-local
/// pool (deque + freelist) so steady-state scoring creates none. Refcounted
/// non-atomically: inference Vars never cross threads.
struct InferenceNode {
  Tensor value;
  uint32_t refs = 0;
  InferenceNode* next_free = nullptr;
};

InferenceNode* AcquireInferenceNode(Tensor value);  ///< refs preset to 1
void ReleaseInferenceNode(InferenceNode* node);     ///< back to the freelist

}  // namespace detail

/// True while gradient recording is enabled (default on).
bool GradEnabled();

/// RAII guard disabling gradient recording (inference / evaluation).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True while the calling thread is inside an InferenceModeGuard.
bool InferenceMode();

/// RAII guard entering the inference fast path on the calling thread: grad
/// recording is forced off and every op result is a pooled value-only Var.
/// Training primitives (Parameter, Backward, node()) abort while active.
class InferenceModeGuard {
 public:
  InferenceModeGuard();
  ~InferenceModeGuard();
  InferenceModeGuard(const InferenceModeGuard&) = delete;
  InferenceModeGuard& operator=(const InferenceModeGuard&) = delete;

 private:
  bool previous_inference_;
  bool previous_grad_;
};

/// Number of InferenceNodes ever created by this thread's pool. Flat across
/// a warm scoring loop — the tier-1 zero-alloc assertion diffs it.
int64_t InferenceNodesCreated();

/// Handle to a graph node. Cheap to copy.
class Var {
 public:
  Var() = default;
  /// Wraps a constant (non-differentiable) tensor. Under inference mode the
  /// value is carried by a pooled node instead of a heap VarNode.
  explicit Var(Tensor value);
  Var(Tensor value, bool requires_grad);
  /// Wraps an existing graph node (used internally by op builders).
  explicit Var(std::shared_ptr<VarNode> node) : node_(std::move(node)) {}

  Var(const Var& other) : node_(other.node_), inode_(other.inode_) {
    if (inode_ != nullptr) ++inode_->refs;
  }
  Var(Var&& other) noexcept
      : node_(std::move(other.node_)), inode_(other.inode_) {
    other.inode_ = nullptr;
  }
  Var& operator=(const Var& other) {
    if (other.inode_ != nullptr) ++other.inode_->refs;  // self-assign safe
    ReleaseInferenceRef();
    node_ = other.node_;
    inode_ = other.inode_;
    return *this;
  }
  Var& operator=(Var&& other) noexcept {
    if (this != &other) {
      ReleaseInferenceRef();
      node_ = std::move(other.node_);
      inode_ = other.inode_;
      other.inode_ = nullptr;
    }
    return *this;
  }
  ~Var() { ReleaseInferenceRef(); }

  bool defined() const { return node_ != nullptr || inode_ != nullptr; }
  const Tensor& value() const {
    return inode_ != nullptr ? inode_->value : node_->value;
  }
  Tensor& mutable_value() {
    return inode_ != nullptr ? inode_->value : node_->value;
  }
  /// Zero tensor if no gradient has been accumulated.
  Tensor GradOrZero() const;
  const Tensor& grad() const;
  bool has_grad() const { return node_ != nullptr && node_->grad_allocated; }
  bool requires_grad() const {
    return node_ != nullptr && node_->requires_grad;
  }
  void ZeroGrad();

  const Shape& shape() const { return value().shape(); }
  int64_t rows() const { return value().rows(); }
  int64_t cols() const { return value().cols(); }
  int64_t size() const { return value().size(); }
  /// Scalar (size-1) value.
  float item() const;

  /// True when backed by a pooled inference node (no graph node).
  bool is_inference() const { return inode_ != nullptr; }

  /// Graph node access. Aborts on inference Vars: they have no graph node,
  /// and reaching here means an inference result leaked into graph building.
  std::shared_ptr<VarNode> node() const {
    EMBA_CHECK_MSG(inode_ == nullptr,
                   "node() on an inference-mode Var — inference results "
                   "cannot join an autograd graph (EscapeToHeap it first)");
    return node_;
  }

  /// Runs reverse-mode accumulation from this (scalar) node; seeds with 1.
  void Backward();

 private:
  friend Var WrapInferenceNode(detail::InferenceNode* node);

  void ReleaseInferenceRef() {
    if (inode_ != nullptr && --inode_->refs == 0) {
      detail::ReleaseInferenceNode(inode_);
    }
    inode_ = nullptr;
  }

  std::shared_ptr<VarNode> node_;
  detail::InferenceNode* inode_ = nullptr;
};

/// Creates a trainable parameter node. Aborts under inference mode.
Var Parameter(Tensor value);

/// Detached, heap-backed constant copy of `v` that survives arena resets and
/// may cross threads. Identity for Vars that are already graph-backed with
/// heap storage; undefined in, undefined out.
Var EscapeToHeap(const Var& v);

// ---- differentiable ops ----

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);               ///< elementwise
Var Scale(const Var& a, float s);
Var AddRowBroadcast(const Var& a, const Var& bias);  ///< bias over rows

Var MatMul(const Var& a, const Var& b);
Var Transpose(const Var& a);
Var Reshape(const Var& a, Shape shape);

Var SoftmaxRows(const Var& a);
Var Gelu(const Var& a);
Var Relu(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);

/// Row-wise layer normalization with learned gain/bias (both 1-D, len = cols).
Var LayerNormRows(const Var& x, const Var& gamma, const Var& beta,
                  float eps = 1e-5f);

/// Inverted dropout; identity when !training or p == 0.
Var Dropout(const Var& x, float p, Rng* rng, bool training);

/// Dropout settings as ag::Dropout takes them.
struct DropoutSpec {
  float p = 0.0f;
  Rng* rng = nullptr;
  bool training = false;
};

/// Multi-head scaled dot-product self-attention over one sequence as one
/// op. q, k, v are [L × dim]; head h owns columns [h·hd, (h+1)·hd) with
/// hd = dim / heads. Returns the heads' outputs side by side, [L × dim]:
/// per head, Dropout(SoftmaxRows(scale · q_h·k_hᵀ)) · v_h. Forward values
/// and all three gradients are bit-identical to that per-head graph of
/// ColSlice / Transpose / MatMul / Scale / SoftmaxRows / Dropout / MatMul /
/// ConcatCols (apart from NaN payload bits), and the dropout mask is drawn
/// in the same order: head by head, L×L row-major per head.
/// When `probs` is non-null it receives the pre-dropout probabilities
/// [heads·L × L], head h in rows [h·L, (h+1)·L).
Var MultiHeadAttention(const Var& q, const Var& k, const Var& v,
                       int64_t heads, float scale, const DropoutSpec& dropout,
                       Tensor* probs = nullptr);

/// Gathers rows of `table` ([V×H]) at `ids`, producing [len(ids)×H].
Var EmbeddingLookup(const Var& table, const std::vector<int>& ids);

Var MeanRows(const Var& a);  ///< [m×n] -> [n]
Var SumRows(const Var& a);   ///< [m×n] -> [n]
Var MeanCols(const Var& a);  ///< [m×n] -> [m]
Var MeanAll(const Var& a);   ///< any -> scalar

Var RowSlice(const Var& a, int64_t begin, int64_t end);
Var ColSlice(const Var& a, int64_t begin, int64_t end);
Var ConcatCols(const std::vector<Var>& parts);
Var Concat1D(const std::vector<Var>& parts);
Var PickRow(const Var& a, int64_t r);  ///< [m×n] -> [n]

/// Scalar dot product of two 1-D vectors.
Var Dot(const Var& a, const Var& b);

/// −log softmax(logits)[target]; logits 1-D, returns scalar.
Var CrossEntropyFromLogits(const Var& logits, int target);

/// Binary cross-entropy on a 2-class logit vector (equivalent to CE with
/// 2 classes; named to mirror the paper's BCEL term in Eq. 3).
Var BinaryCrossEntropyFromLogits(const Var& logits, int target);

/// Sum of scalar losses.
Var AddN(const std::vector<Var>& terms);

}  // namespace ag
}  // namespace emba
