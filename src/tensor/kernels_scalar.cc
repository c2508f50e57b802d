// Portable scalar backend: the reference semantics of every kernel.
//
// Reductions are written in the lane-blocked form (kLanes partial
// accumulators + shared tail/reduce helpers) rather than as a single running
// accumulator, because that *is* the contract the AVX2 backend matches
// bit for bit. Elementwise loops have no cross-element state, so plain loops
// are already exact. Compiled for the baseline target — no AVX anywhere.
#include "tensor/kernels_detail.h"

namespace emba {
namespace kernels {
namespace {

using namespace detail;

float DotScalar(const float* a, const float* b, int64_t n) {
  float acc[kLanes] = {0};
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      acc[l] = acc[l] + a[i + l] * b[i + l];
    }
  }
  DotTail(acc, a, b, main_end, n);
  return ReduceLanes(acc);
}

double SumScalar(const float* x, int64_t n) {
  double acc[kLanes] = {0};
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      acc[l] = acc[l] + static_cast<double>(x[i + l]);
    }
  }
  SumTail(acc, x, main_end, n);
  return ReduceLanesDouble(acc);
}

double SumSqScalar(const float* x, int64_t n) {
  double acc[kLanes] = {0};
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      double d = static_cast<double>(x[i + l]);
      acc[l] = acc[l] + d * d;
    }
  }
  SumSqTail(acc, x, main_end, n);
  return ReduceLanesDouble(acc);
}

double CenteredSumSqScalar(const float* x, float center, int64_t n) {
  double acc[kLanes] = {0};
  const double c = static_cast<double>(center);
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      double d = static_cast<double>(x[i + l]) - c;
      acc[l] = acc[l] + d * d;
    }
  }
  CenteredSumSqTail(acc, x, center, main_end, n);
  return ReduceLanesDouble(acc);
}

float MaxScalar(const float* x, int64_t n) {
  float acc[kLanes];
  for (int l = 0; l < kLanes; ++l) acc[l] = x[0];
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      acc[l] = MaxLane(acc[l], x[i + l]);
    }
  }
  MaxTail(acc, x, main_end, n);
  return ReduceLanesMax(acc);
}

void AddScalarBackend(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] + x[i];
}

void SubScalarBackend(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] - x[i];
}

void MulScalarBackend(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] * x[i];
}

void ScaleScalar(float* y, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] * s;
}

void AddScalarScalar(float* y, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] + s;
}

void AxpyScalar(float* y, float a, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

void MulAddScalar(float* acc, const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] = acc[i] + a[i] * b[i];
}

void MatMulBlockAxpyScalar(float* c, const float* a, int64_t a_row_stride,
                           int64_t a_col_stride, int64_t num_rows,
                           const float* b, int64_t k, int64_t n) {
  for (int64_t r = 0; r < num_rows; ++r) {
    float* crow = c + r * n;
    const float* arow = a + r * a_row_stride;
    for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p * a_col_stride];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] = crow[j] + av * brow[j];
    }
  }
}

void MatMulBlockDotScalar(float* c, const float* a, int64_t num_rows,
                          const float* b, int64_t k, int64_t n) {
  for (int64_t r = 0; r < num_rows; ++r) {
    float* crow = c + r * n;
    const float* arow = a + r * k;
    for (int64_t j = 0; j < n; ++j) crow[j] = DotScalar(arow, b + j * k, k);
  }
}

float ExpSubSumScalar(float* x, float mx, int64_t n) {
  float acc[kLanes] = {0};
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      float v = ExpApprox(x[i + l] - mx);
      x[i + l] = v;
      acc[l] = acc[l] + v;
    }
  }
  return ExpSubSumTail(acc, x, mx, main_end, n);
}

float ExpSubSumConstScalar(const float* x, float mx, int64_t n) {
  float acc[kLanes] = {0};
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      float v = ExpApprox(x[i + l] - mx);
      acc[l] = acc[l] + v;
    }
  }
  return ExpSubSumConstTail(acc, x, mx, main_end, n);
}

void GeluScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = GeluApprox(x[i]);
}

void ReluScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = (x[i] > 0.0f) ? x[i] : 0.0f;
}

void TanhScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = TanhApprox(x[i]);
}

void SigmoidScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = SigmoidApprox(x[i]);
}

void GeluBackwardScalar(float* dx, const float* x, const float* g,
                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) dx[i] = g[i] * GeluGrad(x[i]);
}

void TanhBackwardScalar(float* dxg, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float t = y[i] * y[i];
    float u = 1.0f - t;
    dxg[i] = dxg[i] * u;
  }
}

void SigmoidBackwardScalar(float* dxg, const float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float t = 1.0f - y[i];
    float u = y[i] * t;
    dxg[i] = dxg[i] * u;
  }
}

void SoftmaxBackwardRowScalar(float* dx, const float* y, const float* dy,
                              float dot, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] = SoftmaxBackwardElem(y[i], dy[i], dot);
  }
}

void LayerNormForwardRowScalar(float* xhat, float* out, const float* x,
                               float mean, float istd, const float* gamma,
                               const float* beta, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    LayerNormForwardElem(x[i], mean, istd, gamma[i], beta[i], &xhat[i],
                         &out[i]);
  }
}

// ---- int8 inference GEMM (see kernels.h; integer math, exact) ----

void MinMaxScalar(const float* x, int64_t n, float* min_out, float* max_out) {
  float mn = x[0];
  float mx = x[0];
  for (int64_t i = 1; i < n; ++i) {
    mn = (x[i] < mn) ? x[i] : mn;
    mx = (x[i] > mx) ? x[i] : mx;
  }
  *min_out = mn;
  *max_out = mx;
}

void Int8QuantizeRowScalar(uint8_t* q, const float* x, float inv_scale,
                           int32_t zero_point, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t v = static_cast<int32_t>(std::lrintf(x[i] * inv_scale)) +
                zero_point;
    v = v < 0 ? 0 : (v > 127 ? 127 : v);
    q[i] = static_cast<uint8_t>(v);
  }
}

void Int8GemmDequantScalar(float* c, const uint8_t* aq, const float* sa,
                           const int32_t* za, int64_t m, const int8_t* wq,
                           const float* sw, const int32_t* colsum, int64_t k,
                           int64_t n) {
  // Walks the same k-packed interleaved weight layout the AVX2 kernel
  // consumes (kernels.h): one 32-byte group holds 4 consecutive depths of 8
  // adjacent columns, so carrying 8 column accumulators per block reads the
  // packed weight sequentially. Depth pads carry zero weights, so the
  // activation pad bytes they meet contribute nothing.
  const int64_t k4 = Int8PaddedK(k);
  const int64_t groups = k4 / 4;
  for (int64_t r = 0; r < m; ++r) {
    const uint8_t* arow = aq + r * k4;
    for (int64_t j0 = 0; j0 < n; j0 += 8) {
      const int8_t* wb = wq + (j0 / 8) * groups * 32;
      int32_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (int64_t g = 0; g < groups; ++g) {
        const uint8_t* a4 = arow + g * 4;
        const int8_t* w32 = wb + g * 32;
        for (int64_t cc = 0; cc < 8; ++cc) {
          const int8_t* w4 = w32 + cc * 4;
          acc[cc] += static_cast<int32_t>(a4[0]) * w4[0] +
                     static_cast<int32_t>(a4[1]) * w4[1] +
                     static_cast<int32_t>(a4[2]) * w4[2] +
                     static_cast<int32_t>(a4[3]) * w4[3];
        }
      }
      const int64_t cols = n - j0 < 8 ? n - j0 : 8;
      for (int64_t cc = 0; cc < cols; ++cc) {
        const int64_t j = j0 + cc;
        c[r * n + j] = static_cast<float>(acc[cc] - za[r] * colsum[j]) *
                       (sa[r] * sw[j]);
      }
    }
  }
}

// 16×16 blocks keep both the row-major reads and the column-major writes
// inside one L1 tile; element order within a block is irrelevant (pure
// copy).
void Transpose2DScalar(float* out, const float* in, int64_t rows,
                       int64_t cols) {
  constexpr int64_t kBlock = 16;
  for (int64_t i0 = 0; i0 < rows; i0 += kBlock) {
    const int64_t imax = i0 + kBlock < rows ? i0 + kBlock : rows;
    for (int64_t j0 = 0; j0 < cols; j0 += kBlock) {
      const int64_t jmax = j0 + kBlock < cols ? j0 + kBlock : cols;
      for (int64_t i = i0; i < imax; ++i) {
        const float* src = in + i * cols;
        for (int64_t j = j0; j < jmax; ++j) out[j * rows + i] = src[j];
      }
    }
  }
}

// The reference semantics, one query row at a time, built from the kernels
// whose sequence it replaces: a one-row MatMulBlockAxpy against Kᵀ, Scale,
// SoftmaxRows' three passes, then the P·V accumulation with its zero-skip.
void MultiHeadAttentionScalar(float* out, float* probs, const float* q,
                              const float* kt, const float* v,
                              const float* keep, int64_t len, int64_t dim,
                              int64_t heads, float scale) {
  const int64_t hd = dim / heads;
  for (int64_t h = 0; h < heads; ++h) {
    const int64_t col = h * hd;
    for (int64_t i = 0; i < len; ++i) {
      float* p = probs + (h * len + i) * len;
      MatMulBlockAxpyScalar(p, q + i * dim + col, 0, 1, 1, kt + col * len,
                            hd, len);
      ScaleScalar(p, scale, len);
      const float mx = MaxScalar(p, len);
      const float sum = ExpSubSumScalar(p, mx, len);
      ScaleScalar(p, 1.0f / sum, len);
      const float* kp = keep != nullptr ? keep + (h * len + i) * len : nullptr;
      float* o = out + i * dim + col;
      for (int64_t c = 0; c < hd; ++c) o[c] = 0.0f;
      for (int64_t j = 0; j < len; ++j) {
        const float pv = kp != nullptr ? p[j] * kp[j] : p[j];
        if (pv == 0.0f) continue;
        const float* vrow = v + j * dim + col;
        for (int64_t c = 0; c < hd; ++c) o[c] = o[c] + pv * vrow[c];
      }
    }
  }
}

constexpr KernelTable kScalarTable = {
    .backend = Backend::kScalar,
    .Dot = DotScalar,
    .Sum = SumScalar,
    .SumSq = SumSqScalar,
    .CenteredSumSq = CenteredSumSqScalar,
    .Max = MaxScalar,
    .Add = AddScalarBackend,
    .Sub = SubScalarBackend,
    .Mul = MulScalarBackend,
    .Scale = ScaleScalar,
    .AddScalar = AddScalarScalar,
    .Axpy = AxpyScalar,
    .MulAdd = MulAddScalar,
    .MatMulBlockAxpy = MatMulBlockAxpyScalar,
    .MatMulBlockDot = MatMulBlockDotScalar,
    .ExpSubSum = ExpSubSumScalar,
    .ExpSubSumConst = ExpSubSumConstScalar,
    .Gelu = GeluScalar,
    .Relu = ReluScalar,
    .Tanh = TanhScalar,
    .Sigmoid = SigmoidScalar,
    .GeluBackward = GeluBackwardScalar,
    .TanhBackward = TanhBackwardScalar,
    .SigmoidBackward = SigmoidBackwardScalar,
    .SoftmaxBackwardRow = SoftmaxBackwardRowScalar,
    .LayerNormForwardRow = LayerNormForwardRowScalar,
    .MinMax = MinMaxScalar,
    .Int8QuantizeRow = Int8QuantizeRowScalar,
    .Int8GemmDequant = Int8GemmDequantScalar,
    .Transpose2D = Transpose2DScalar,
    .MultiHeadAttention = MultiHeadAttentionScalar,
};
static_assert(AllKernelsSet(kScalarTable),
              "the scalar backend leaves a listed kernel unset");

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

}  // namespace kernels
}  // namespace emba
