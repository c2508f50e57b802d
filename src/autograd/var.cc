#include "autograd/var.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "tensor/kernels.h"

namespace emba {
namespace ag {
namespace {

thread_local bool g_grad_enabled = true;
thread_local bool g_inference_mode = false;
thread_local int64_t g_next_id = 0;

std::shared_ptr<VarNode> MakeNode(Tensor value, bool requires_grad) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->id = g_next_id++;
  return node;
}

bool AnyRequiresGrad(const std::vector<Var>& vars) {
  for (const auto& v : vars) {
    if (v.requires_grad()) return true;
  }
  return false;
}

// Builds a result node. When grad mode is off or no input needs gradients,
// the node is a detached constant (no parents, no backward closure).
Var MakeResult(Tensor value, const std::vector<Var>& inputs,
               std::function<void(VarNode&)> backward) {
  if (!GradEnabled() || !AnyRequiresGrad(inputs)) {
    return Var(std::move(value));
  }
  auto node = MakeNode(std::move(value), /*requires_grad=*/true);
  node->parents.reserve(inputs.size());
  for (const auto& in : inputs) node->parents.push_back(in.node());
  node->backward = std::move(backward);
  return Var(std::move(node));
}

// Thread-local pool of value-only nodes for the inference fast path. A
// std::deque gives pointer stability as the pool grows; released nodes go on
// an intrusive freelist, so a warm scoring loop recycles the same nodes
// forever and `created` stops moving.
struct InferencePool {
  std::deque<detail::InferenceNode> nodes;
  detail::InferenceNode* free_list = nullptr;
  int64_t created = 0;
};
thread_local InferencePool t_inference_pool;

}  // namespace

namespace detail {

InferenceNode* AcquireInferenceNode(Tensor value) {
  InferencePool& pool = t_inference_pool;
  InferenceNode* node = pool.free_list;
  if (node != nullptr) {
    pool.free_list = node->next_free;
  } else {
    pool.nodes.emplace_back();
    node = &pool.nodes.back();
    ++pool.created;
  }
  node->value = std::move(value);
  node->refs = 1;
  node->next_free = nullptr;
  return node;
}

void ReleaseInferenceNode(InferenceNode* node) {
  // Drop the tensor now (a no-op free for arena storage) rather than holding
  // it hostage until the node is reused.
  node->value = Tensor();
  node->next_free = t_inference_pool.free_list;
  t_inference_pool.free_list = node;
}

}  // namespace detail

Var WrapInferenceNode(detail::InferenceNode* node);  // friend, defined below

void VarNode::AccumulateGrad(const Tensor& g) {
  if (!grad_allocated) {
    grad = Tensor::Zeros(value.shape());
    grad_allocated = true;
  }
  grad.AddInPlace(g);
}

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool InferenceMode() { return g_inference_mode; }

InferenceModeGuard::InferenceModeGuard()
    : previous_inference_(g_inference_mode), previous_grad_(g_grad_enabled) {
  g_inference_mode = true;
  g_grad_enabled = false;
}

InferenceModeGuard::~InferenceModeGuard() {
  g_inference_mode = previous_inference_;
  g_grad_enabled = previous_grad_;
}

int64_t InferenceNodesCreated() { return t_inference_pool.created; }

Var WrapInferenceNode(detail::InferenceNode* node) {
  Var v;
  v.inode_ = node;
  return v;
}

Var::Var(Tensor value) {
  if (g_inference_mode) {
    inode_ = detail::AcquireInferenceNode(std::move(value));
  } else {
    node_ = MakeNode(std::move(value), /*requires_grad=*/false);
  }
}

Var::Var(Tensor value, bool requires_grad) {
  if (requires_grad) {
    EMBA_CHECK_MSG(!g_inference_mode,
                   "cannot create a grad-requiring Var under inference mode");
    node_ = MakeNode(std::move(value), /*requires_grad=*/true);
  } else if (g_inference_mode) {
    inode_ = detail::AcquireInferenceNode(std::move(value));
  } else {
    node_ = MakeNode(std::move(value), /*requires_grad=*/false);
  }
}

Tensor Var::GradOrZero() const {
  if (has_grad()) return node_->grad;
  return Tensor::Zeros(value().shape());
}

const Tensor& Var::grad() const {
  EMBA_CHECK_MSG(has_grad(), "grad() before any accumulation");
  return node_->grad;
}

void Var::ZeroGrad() {
  if (has_grad()) node_->grad.Zero();
}

float Var::item() const {
  EMBA_CHECK_MSG(size() == 1, "item() requires a scalar Var");
  return value()[0];
}

void Var::Backward() {
  EMBA_CHECK_MSG(defined(), "Backward on undefined Var");
  EMBA_CHECK_MSG(!g_inference_mode && inode_ == nullptr,
                 "Backward under inference mode — training and gradient "
                 "accumulation are forbidden inside an InferenceModeGuard");
  EMBA_CHECK_MSG(size() == 1, "Backward requires a scalar loss");
  // Topological order via iterative DFS; reverse for the backward sweep.
  std::vector<VarNode*> order;
  std::unordered_set<VarNode*> visited;
  std::vector<std::pair<VarNode*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      VarNode* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // `order` is a post-order: children before parents-in-graph... we need
  // reverse topological from the loss, i.e. process the loss first.
  node_->AccumulateGrad(Tensor::Ones(node_->value.shape()));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward && node->grad_allocated) {
      node->backward(*node);
    }
  }
}

Var Parameter(Tensor value) {
  EMBA_CHECK_MSG(!g_inference_mode,
                 "Parameter() under inference mode — model construction and "
                 "training must happen outside an InferenceModeGuard");
  return Var(std::move(value), true);
}

Var EscapeToHeap(const Var& v) {
  if (!v.defined()) return Var();
  if (!v.is_inference() && v.value().OnHeap()) return v;
  return Var(MakeNode(v.value().HeapClone(), /*requires_grad=*/false));
}

// ---- ops ----

Var Add(const Var& a, const Var& b) {
  Tensor out = emba::Add(a.value(), b.value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a, b}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(n.grad);
    n.parents[1]->AccumulateGrad(n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = emba::Sub(a.value(), b.value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a, b}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(n.grad);
    Tensor neg = n.grad;
    neg.MulScalarInPlace(-1.0f);
    n.parents[1]->AccumulateGrad(neg);
  });
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = emba::Mul(a.value(), b.value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a, b}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(emba::Mul(n.grad, n.parents[1]->value));
    n.parents[1]->AccumulateGrad(emba::Mul(n.grad, n.parents[0]->value));
  });
}

Var Scale(const Var& a, float s) {
  Tensor out = emba::Scale(a.value(), s);
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a}, [s](VarNode& n) {
    n.parents[0]->AccumulateGrad(emba::Scale(n.grad, s));
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  Tensor out = emba::AddRowBroadcast(a.value(), bias.value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a, bias}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(n.grad);
    n.parents[1]->AccumulateGrad(emba::SumRows(n.grad));
  });
}

Var MatMul(const Var& a, const Var& b) {
  Tensor out = emba::MatMul(a.value(), b.value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a, b}, [](VarNode& n) {
    // dA = dC · Bᵀ ; dB = Aᵀ · dC
    n.parents[0]->AccumulateGrad(
        emba::MatMulTransposedB(n.grad, n.parents[1]->value));
    n.parents[1]->AccumulateGrad(
        emba::MatMulTransposedA(n.parents[0]->value, n.grad));
  });
}

Var Transpose(const Var& a) {
  Tensor out = emba::Transpose(a.value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a}, [](VarNode& n) {
    n.parents[0]->AccumulateGrad(emba::Transpose(n.grad));
  });
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Reshaped(shape);
  if (g_inference_mode) return Var(std::move(out));
  Shape old_shape = a.value().shape();
  return MakeResult(std::move(out), {a}, [old_shape](VarNode& n) {
    n.parents[0]->AccumulateGrad(n.grad.Reshaped(old_shape));
  });
}

Var SoftmaxRows(const Var& a) {
  Tensor y = emba::SoftmaxRows(a.value());
  if (g_inference_mode) return Var(std::move(y));
  Tensor y_saved = y;
  return MakeResult(std::move(y), {a}, [y_saved](VarNode& n) {
    // dx = y ⊙ (dy − rowsum(dy ⊙ y))
    const int64_t rows = y_saved.ndim() == 2 ? y_saved.rows() : 1;
    const int64_t cols = y_saved.ndim() == 2 ? y_saved.cols() : y_saved.size();
    Tensor dx = y_saved;
    const kernels::KernelTable& kern = kernels::Active();
    for (int64_t r = 0; r < rows; ++r) {
      const float* y_row = y_saved.data() + r * cols;
      const float* dy_row = n.grad.data() + r * cols;
      const float dot = kern.Dot(dy_row, y_row, cols);
      kern.SoftmaxBackwardRow(dx.data() + r * cols, y_row, dy_row, dot, cols);
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var Gelu(const Var& a) {
  Tensor out = emba::Gelu(a.value());
  if (g_inference_mode) return Var(std::move(out));
  Tensor x_saved = a.value();
  return MakeResult(std::move(out), {a}, [x_saved](VarNode& n) {
    Tensor dx(x_saved.shape());
    kernels::Active().GeluBackward(dx.data(), x_saved.data(), n.grad.data(),
                                   dx.size());
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var Relu(const Var& a) {
  Tensor out = emba::Relu(a.value());
  if (g_inference_mode) return Var(std::move(out));
  Tensor x_saved = a.value();
  return MakeResult(std::move(out), {a}, [x_saved](VarNode& n) {
    Tensor dx = n.grad;
    for (int64_t i = 0; i < dx.size(); ++i) {
      if (x_saved[i] <= 0.0f) dx[i] = 0.0f;
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var Tanh(const Var& a) {
  Tensor y = emba::Tanh(a.value());
  if (g_inference_mode) return Var(std::move(y));
  Tensor y_saved = y;
  return MakeResult(std::move(y), {a}, [y_saved](VarNode& n) {
    Tensor dx = n.grad;
    kernels::Active().TanhBackward(dx.data(), y_saved.data(), dx.size());
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var Sigmoid(const Var& a) {
  Tensor y = emba::Sigmoid(a.value());
  if (g_inference_mode) return Var(std::move(y));
  Tensor y_saved = y;
  return MakeResult(std::move(y), {a}, [y_saved](VarNode& n) {
    Tensor dx = n.grad;
    kernels::Active().SigmoidBackward(dx.data(), y_saved.data(), dx.size());
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var LayerNormRows(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const Tensor& xv = x.value();
  EMBA_CHECK_MSG(xv.ndim() == 2, "LayerNormRows requires 2-D input");
  const int64_t rows = xv.rows(), cols = xv.cols();
  EMBA_CHECK_MSG(gamma.size() == cols && beta.size() == cols,
                 "LayerNormRows gain/bias size mismatch");
  Tensor xhat({rows, cols});
  Tensor inv_std({rows});
  Tensor out({rows, cols});
  const kernels::KernelTable& fkern = kernels::Active();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = xv.data() + r * cols;
    const double mean = fkern.Sum(row, cols) / static_cast<double>(cols);
    const float mean_f = static_cast<float>(mean);
    const double var =
        fkern.CenteredSumSq(row, mean_f, cols) / static_cast<double>(cols);
    float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_std[r] = istd;
    fkern.LayerNormForwardRow(xhat.data() + r * cols, out.data() + r * cols,
                              row, mean_f, istd, gamma.value().data(),
                              beta.value().data(), cols);
  }
  if (g_inference_mode) return Var(std::move(out));
  Tensor xhat_saved = xhat, istd_saved = inv_std;
  Tensor gamma_saved = gamma.value();
  return MakeResult(
      std::move(out), {x, gamma, beta},
      [xhat_saved, istd_saved, gamma_saved](VarNode& n) {
        const int64_t rows = xhat_saved.rows(), cols = xhat_saved.cols();
        Tensor dx({rows, cols});
        Tensor dgamma({cols});
        Tensor dbeta({cols});
        const kernels::KernelTable& kern = kernels::Active();
        const float inv_n = 1.0f / static_cast<float>(cols);
        for (int64_t r = 0; r < rows; ++r) {
          const float* dy = n.grad.data() + r * cols;
          const float* xh = xhat_saved.data() + r * cols;
          // dxr holds dy ⊙ gamma while the two row statistics are reduced,
          // then is rewritten in place into the input gradient.
          float* dxr = dx.data() + r * cols;
          std::copy(dy, dy + cols, dxr);
          kern.Mul(dxr, gamma_saved.data(), cols);
          const float sum_dy_g = static_cast<float>(kern.Sum(dxr, cols));
          const float sum_dy_g_xh = kern.Dot(dxr, xh, cols);
          kern.MulAdd(dgamma.data(), dy, xh, cols);
          kern.Add(dbeta.data(), dy, cols);
          kern.AddScalar(dxr, -(inv_n * sum_dy_g), cols);
          kern.Axpy(dxr, -(inv_n * sum_dy_g_xh), xh, cols);
          kern.Scale(dxr, istd_saved[r], cols);
        }
        n.parents[0]->AccumulateGrad(dx);
        n.parents[1]->AccumulateGrad(dgamma);
        n.parents[2]->AccumulateGrad(dbeta);
      });
}

Var Dropout(const Var& x, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return x;
  EMBA_CHECK_MSG(p < 1.0f, "dropout probability must be < 1");
  Tensor mask(x.value().shape());
  const float scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = emba::Mul(x.value(), mask);
  return MakeResult(std::move(out), {x}, [mask](VarNode& n) {
    n.parents[0]->AccumulateGrad(emba::Mul(n.grad, mask));
  });
}

namespace {

// Backward of MultiHeadAttention. Per head, on packed [L × hd] and [L × L]
// buffers, it runs the kernels of the per-head graph's backward on the same
// operands in the same order (d· is a gradient, P' = P·keep):
//   dP' = dO·v_hᵀ   and dv_h = P'ᵀ·dO     (the P·V MatMul)
//   dP  = dP'·keep                         (Dropout)
//   dS  = SoftmaxBackward(P, dP)·scale     (SoftmaxRows, Scale)
//   dq_h = dS·k_h   and dk_hᵀ = q_hᵀ·dS    (the q·kᵀ MatMul)
// The graph added each of these into a zero-filled buffer, which turns a
// −0 into +0. Here every value is either a sum started from +0, which is
// never −0, or feeds only such sums, which absorb the sign of a zero; so
// those adds are left out. q, k and v still get theirs in AccumulateGrad.
void MultiHeadAttentionBackward(VarNode& n, int64_t heads, float scale,
                                const Tensor& probs, const Tensor& keep,
                                const Tensor& kt) {
  const Tensor& q = n.parents[0]->value;
  const Tensor& v = n.parents[2]->value;
  const Tensor& g = n.grad;
  const int64_t len = q.rows(), dim = q.cols(), hd = dim / heads;
  const int64_t ll = len * len;
  const kernels::KernelTable& kern = kernels::Active();
  Tensor dq({len, dim}), dk({len, dim}), dv({len, dim});
  Tensor go({len, hd}), vh({len, hd}), dqh({len, hd}), dvh({len, hd});
  Tensor dkt({hd, len}), dp({len, len}), ds({len, len});
  Tensor dropped = keep.size() > 0 ? Tensor({len, len}) : Tensor();
  for (int64_t h = 0; h < heads; ++h) {
    const int64_t col = h * hd;
    const float* p = probs.data() + h * ll;
    for (int64_t r = 0; r < len; ++r) {
      std::copy(g.data() + r * dim + col, g.data() + r * dim + col + hd,
                go.data() + r * hd);
      std::copy(v.data() + r * dim + col, v.data() + r * dim + col + hd,
                vh.data() + r * hd);
    }
    kern.MatMulBlockDot(dp.data(), go.data(), len, vh.data(), hd, len);
    const float* pv = p;
    if (keep.size() > 0) {
      const float* kh = keep.data() + h * ll;
      std::copy(p, p + ll, dropped.data());
      kern.Mul(dropped.data(), kh, ll);
      kern.Mul(dp.data(), kh, ll);
      pv = dropped.data();
    }
    kern.MatMulBlockAxpy(dvh.data(), pv, 1, len, len, go.data(), len, hd);
    for (int64_t i = 0; i < len; ++i) {
      const float* y = p + i * len;
      const float* dy = dp.data() + i * len;
      kern.SoftmaxBackwardRow(ds.data() + i * len, y, dy,
                              kern.Dot(dy, y, len), len);
    }
    kern.Scale(ds.data(), scale, ll);
    kern.MatMulBlockDot(dqh.data(), ds.data(), len, kt.data() + col * len,
                        len, hd);
    kern.MatMulBlockAxpy(dkt.data(), q.data() + col, 1, dim, hd, ds.data(),
                         len, len);
    for (int64_t r = 0; r < len; ++r) {
      std::copy(dqh.data() + r * hd, dqh.data() + (r + 1) * hd,
                dq.data() + r * dim + col);
      std::copy(dvh.data() + r * hd, dvh.data() + (r + 1) * hd,
                dv.data() + r * dim + col);
      for (int64_t c = 0; c < hd; ++c) {
        dk.data()[r * dim + col + c] = dkt.data()[c * len + r];
      }
    }
  }
  n.parents[0]->AccumulateGrad(dq);
  n.parents[1]->AccumulateGrad(dk);
  n.parents[2]->AccumulateGrad(dv);
}

}  // namespace

Var MultiHeadAttention(const Var& q, const Var& k, const Var& v,
                       int64_t heads, float scale, const DropoutSpec& dropout,
                       Tensor* probs) {
  const Tensor& qv = q.value();
  const Tensor& vv = v.value();
  EMBA_CHECK_MSG(qv.ndim() == 2 && qv.SameShape(k.value()) &&
                     qv.SameShape(vv),
                 "MultiHeadAttention requires q, k, v of one [L × dim] shape");
  const int64_t len = qv.rows(), dim = qv.cols();
  EMBA_CHECK_MSG(heads > 0 && dim % heads == 0,
                 "MultiHeadAttention: dim must be divisible by heads");
  Tensor kt = emba::Transpose(k.value());
  // The keep multipliers as ag::Dropout draws them on each head's [L × L]
  // probabilities, one head after another.
  Tensor keep;
  if (dropout.training && dropout.p > 0.0f) {
    EMBA_CHECK_MSG(dropout.p < 1.0f, "dropout probability must be < 1");
    keep = Tensor({heads * len, len});
    const float s = 1.0f / (1.0f - dropout.p);
    for (int64_t i = 0; i < keep.size(); ++i) {
      keep[i] = dropout.rng->Bernoulli(dropout.p) ? 0.0f : s;
    }
  }
  Tensor p({heads * len, len});
  Tensor out({len, dim});
  kernels::Active().MultiHeadAttention(
      out.data(), p.data(), qv.data(), kt.data(), vv.data(),
      keep.size() > 0 ? keep.data() : nullptr, len, dim, heads, scale);
  if (g_inference_mode || !GradEnabled() || !AnyRequiresGrad({q, k, v})) {
    if (probs != nullptr) *probs = std::move(p);
    return Var(std::move(out));
  }
  if (probs != nullptr) *probs = p;
  return MakeResult(
      std::move(out), {q, k, v},
      [heads, scale, p = std::move(p), keep = std::move(keep),
       kt = std::move(kt)](VarNode& n) {
        MultiHeadAttentionBackward(n, heads, scale, p, keep, kt);
      });
}

Var EmbeddingLookup(const Var& table, const std::vector<int>& ids) {
  const Tensor& tv = table.value();
  EMBA_CHECK_MSG(tv.ndim() == 2, "embedding table must be 2-D");
  const int64_t vocab = tv.rows(), dim = tv.cols();
  Tensor out({static_cast<int64_t>(ids.size()), dim});
  for (size_t i = 0; i < ids.size(); ++i) {
    EMBA_CHECK_MSG(ids[i] >= 0 && ids[i] < vocab, "embedding id out of range");
    std::copy(tv.data() + ids[i] * dim, tv.data() + (ids[i] + 1) * dim,
              out.data() + static_cast<int64_t>(i) * dim);
  }
  if (g_inference_mode) return Var(std::move(out));
  std::vector<int> ids_saved = ids;
  return MakeResult(std::move(out), {table}, [ids_saved, dim](VarNode& n) {
    Tensor dt = Tensor::Zeros(n.parents[0]->value.shape());
    const kernels::KernelTable& kern = kernels::Active();
    for (size_t i = 0; i < ids_saved.size(); ++i) {
      const float* g = n.grad.data() + static_cast<int64_t>(i) * dim;
      kern.Add(dt.data() + ids_saved[i] * dim, g, dim);
    }
    n.parents[0]->AccumulateGrad(dt);
  });
}

Var MeanRows(const Var& a) {
  Tensor out = emba::MeanRows(a.value());
  if (g_inference_mode) return Var(std::move(out));
  const int64_t rows = a.rows();
  return MakeResult(std::move(out), {a}, [rows](VarNode& n) {
    const int64_t cols = n.grad.size();
    Tensor dx({rows, cols});
    const float inv = 1.0f / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) dx.at(r, c) = n.grad[c] * inv;
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var SumRows(const Var& a) {
  Tensor out = emba::SumRows(a.value());
  if (g_inference_mode) return Var(std::move(out));
  const int64_t rows = a.rows();
  return MakeResult(std::move(out), {a}, [rows](VarNode& n) {
    const int64_t cols = n.grad.size();
    Tensor dx({rows, cols});
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) dx.at(r, c) = n.grad[c];
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var MeanCols(const Var& a) {
  Tensor out = emba::MeanCols(a.value());
  if (g_inference_mode) return Var(std::move(out));
  const int64_t cols = a.cols();
  return MakeResult(std::move(out), {a}, [cols](VarNode& n) {
    const int64_t rows = n.grad.size();
    Tensor dx({rows, cols});
    const float inv = 1.0f / static_cast<float>(cols);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) dx.at(r, c) = n.grad[r] * inv;
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var MeanAll(const Var& a) {
  Tensor out({1});
  out[0] = a.value().MeanAll();
  if (g_inference_mode) return Var(std::move(out));
  const int64_t n_elems = a.size();
  Shape shape = a.value().shape();
  return MakeResult(std::move(out), {a}, [n_elems, shape](VarNode& n) {
    Tensor dx(shape);
    const float g = n.grad[0] / static_cast<float>(n_elems);
    dx.Fill(g);
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var RowSlice(const Var& a, int64_t begin, int64_t end) {
  Tensor out = a.value().RowSlice(begin, end);
  if (g_inference_mode) return Var(std::move(out));
  const int64_t cols = a.cols();
  return MakeResult(std::move(out), {a}, [begin, cols](VarNode& n) {
    Tensor dx = Tensor::Zeros(n.parents[0]->value.shape());
    std::copy(n.grad.data(), n.grad.data() + n.grad.size(),
              dx.data() + begin * cols);
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var ColSlice(const Var& a, int64_t begin, int64_t end) {
  Tensor out = a.value().ColSlice(begin, end);
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a}, [begin, end](VarNode& n) {
    Tensor dx = Tensor::Zeros(n.parents[0]->value.shape());
    const int64_t w = end - begin;
    const kernels::KernelTable& kern = kernels::Active();
    for (int64_t r = 0; r < dx.rows(); ++r) {
      kern.Add(dx.data() + r * dx.cols() + begin, n.grad.data() + r * w, w);
    }
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  EMBA_CHECK_MSG(!parts.empty(), "ConcatCols requires parts");
  if (g_inference_mode) {
    // Concatenate straight out of the inputs' storage: skips both the
    // per-part Tensor copies and the values vector the grad path builds.
    // Pure row-major copies, so the bytes match emba::ConcatCols exactly.
    const int64_t rows = parts[0].rows();
    int64_t total_cols = 0;
    for (const auto& p : parts) {
      EMBA_CHECK_MSG(p.value().ndim() == 2 && p.rows() == rows,
                     "ConcatCols requires equal row counts");
      total_cols += p.cols();
    }
    Tensor out({rows, total_cols});
    int64_t off = 0;
    for (const auto& p : parts) {
      const Tensor& v = p.value();
      for (int64_t r = 0; r < rows; ++r) {
        std::copy(v.data() + r * v.cols(), v.data() + (r + 1) * v.cols(),
                  out.data() + r * total_cols + off);
      }
      off += v.cols();
    }
    return Var(std::move(out));
  }
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<int64_t> widths;
  for (const auto& p : parts) {
    values.push_back(p.value());
    widths.push_back(p.cols());
  }
  Tensor out = emba::ConcatCols(values);
  return MakeResult(std::move(out), parts, [widths](VarNode& n) {
    int64_t off = 0;
    for (size_t i = 0; i < n.parents.size(); ++i) {
      const int64_t w = widths[i];
      Tensor dp({n.grad.rows(), w});
      for (int64_t r = 0; r < n.grad.rows(); ++r) {
        const float* g = n.grad.data() + r * n.grad.cols() + off;
        std::copy(g, g + w, dp.data() + r * w);
      }
      n.parents[i]->AccumulateGrad(dp);
      off += w;
    }
  });
}

Var Concat1D(const std::vector<Var>& parts) {
  EMBA_CHECK_MSG(!parts.empty(), "Concat1D requires parts");
  if (g_inference_mode) {
    int64_t total = 0;
    for (const auto& p : parts) {
      EMBA_CHECK_MSG(p.value().ndim() == 1, "Concat1D requires 1-D parts");
      total += p.size();
    }
    Tensor out({total});
    int64_t off = 0;
    for (const auto& p : parts) {
      std::copy(p.value().data(), p.value().data() + p.size(),
                out.data() + off);
      off += p.size();
    }
    return Var(std::move(out));
  }
  std::vector<Tensor> values;
  std::vector<int64_t> lens;
  for (const auto& p : parts) {
    values.push_back(p.value());
    lens.push_back(p.size());
  }
  Tensor out = emba::Concat1D(values);
  return MakeResult(std::move(out), parts, [lens](VarNode& n) {
    int64_t off = 0;
    for (size_t i = 0; i < n.parents.size(); ++i) {
      Tensor dp({lens[i]});
      std::copy(n.grad.data() + off, n.grad.data() + off + lens[i], dp.data());
      n.parents[i]->AccumulateGrad(dp);
      off += lens[i];
    }
  });
}

Var PickRow(const Var& a, int64_t r) {
  Tensor out = a.value().Row(r);
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a}, [r](VarNode& n) {
    Tensor dx = Tensor::Zeros(n.parents[0]->value.shape());
    std::copy(n.grad.data(), n.grad.data() + n.grad.size(),
              dx.data() + r * dx.cols());
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var Dot(const Var& a, const Var& b) {
  EMBA_CHECK_MSG(a.size() == b.size(), "Dot size mismatch");
  Tensor out({1});
  out[0] = kernels::Active().Dot(a.value().data(), b.value().data(), a.size());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), {a, b}, [](VarNode& n) {
    const float g = n.grad[0];
    n.parents[0]->AccumulateGrad(emba::Scale(n.parents[1]->value, g));
    n.parents[1]->AccumulateGrad(emba::Scale(n.parents[0]->value, g));
  });
}

Var CrossEntropyFromLogits(const Var& logits, int target) {
  EMBA_CHECK_MSG(logits.value().ndim() == 1, "logits must be 1-D");
  EMBA_CHECK_MSG(target >= 0 && target < logits.size(), "target out of range");
  Tensor probs = emba::SoftmaxRows(logits.value());
  Tensor out({1});
  out[0] = -std::log(std::max(probs[target], 1e-12f));
  if (g_inference_mode) return Var(std::move(out));
  Tensor probs_saved = probs;
  return MakeResult(std::move(out), {logits}, [probs_saved, target](VarNode& n) {
    Tensor dx = probs_saved;
    dx[target] -= 1.0f;
    dx.MulScalarInPlace(n.grad[0]);
    n.parents[0]->AccumulateGrad(dx);
  });
}

Var BinaryCrossEntropyFromLogits(const Var& logits, int target) {
  EMBA_CHECK_MSG(logits.size() == 2, "binary logits must have 2 entries");
  return CrossEntropyFromLogits(logits, target);
}

Var AddN(const std::vector<Var>& terms) {
  EMBA_CHECK_MSG(!terms.empty(), "AddN requires terms");
  Tensor out = terms[0].value();
  for (size_t i = 1; i < terms.size(); ++i) out.AddInPlace(terms[i].value());
  if (g_inference_mode) return Var(std::move(out));
  return MakeResult(std::move(out), terms, [](VarNode& n) {
    for (auto& p : n.parents) p->AccumulateGrad(n.grad);
  });
}

}  // namespace ag
}  // namespace emba
