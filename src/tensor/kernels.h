// Runtime-dispatched SIMD kernel layer for the tensor engine.
//
// Every inner loop of the tensor kernels (matmul rows, elementwise ops,
// softmax passes, activations, reductions) is routed through a table of
// function pointers resolved once per process: an AVX2+FMA-capable CPU gets
// the vectorized backend, everything else the portable scalar backend.
//
// Scalar-exact contract
// ---------------------
// Backend choice — like thread count — is a pure performance knob: both
// backends produce bit-identical outputs for every kernel. This is achieved
// by defining the *semantics* of every reduction as a fixed 8-lane-blocked
// accumulation (kLanes partial accumulators, element i feeding lane i mod 8,
// the tail feeding lanes 0..n%8-1, combined by a fixed binary tree) and by
// giving the transcendental kernels (exp/tanh/sigmoid/GELU) one shared
// polynomial algorithm whose scalar and AVX2 renditions perform the same
// IEEE operations in the same order. FMA contraction is disabled in both
// backends (see CMake `-ffp-contract=off`): a fused multiply-add rounds once
// where mul+add rounds twice, so silent contraction would break the
// contract. tests/kernels_test.cc pins bit-equality across ragged shapes,
// NaN/Inf inputs and autograd backward passes.
//
// One carve-out: when an output is NaN, both backends produce NaN at the
// same position but its sign/payload bits are unspecified. IEEE addition
// and multiplication are commutative in value, so the compiler may swap
// operands of the scalar code (changing which operand's NaN propagates),
// and +inf + -inf manufactures the x86 "indefinite" -NaN wherever the two
// infinities first meet. Those bits never feed back into control flow or
// non-NaN values, so the carve-out is invisible outside the NaN itself.
//
// Dispatch policy
// ---------------
// Resolution order, cached on first use:
//   1. EMBA_SIMD env var: "off"/"0"/"scalar" force the scalar backend,
//      anything else (or unset) means auto.
//   2. If the AVX2 translation unit was compiled in (CMake EMBA_ENABLE_AVX2,
//      default auto-detect) and cpuid reports AVX2+FMA with OS xsave
//      support, the AVX2 backend is selected.
//   3. Otherwise the scalar backend.
// ForceBackend/ResetBackend give tests and benches explicit control.
#pragma once

#include <cstdint>

namespace emba {
namespace kernels {

/// Width of the lane-blocked accumulation contract (see file comment).
inline constexpr int kLanes = 8;

enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" / "avx2".
const char* BackendName(Backend b);

/// One entry per vectorizable inner loop, plus the fused attention op, each
/// with a row in EMBA_KERNEL_LIST below. All pointers are always non-null.
struct KernelTable {
  Backend backend;

  // ---- lane-blocked reductions ----
  /// Σ a[i]·b[i], float accumulation in kLanes lanes.
  float (*Dot)(const float* a, const float* b, int64_t n);
  /// Σ x[i], double accumulation in kLanes lanes.
  double (*Sum)(const float* x, int64_t n);
  /// Σ x[i]², double accumulation in kLanes lanes.
  double (*SumSq)(const float* x, int64_t n);
  /// Σ (x[i] − center)², double accumulation in kLanes lanes.
  double (*CenteredSumSq)(const float* x, float center, int64_t n);
  /// Max over x[0..n) with the lane op (m > v) ? m : v; n must be ≥ 1.
  float (*Max)(const float* x, int64_t n);

  // ---- elementwise (no cross-element accumulation; trivially exact) ----
  void (*Add)(float* y, const float* x, int64_t n);    ///< y[i] += x[i]
  void (*Sub)(float* y, const float* x, int64_t n);    ///< y[i] -= x[i]
  void (*Mul)(float* y, const float* x, int64_t n);    ///< y[i] *= x[i]
  void (*Scale)(float* y, float s, int64_t n);         ///< y[i] *= s
  void (*AddScalar)(float* y, float s, int64_t n);     ///< y[i] += s
  void (*Axpy)(float* y, float a, const float* x, int64_t n);  ///< y += a·x
  void (*MulAdd)(float* acc, const float* a, const float* b,
                 int64_t n);                            ///< acc[i] += a[i]·b[i]

  // ---- matmul block kernels ----
  // A block of output rows per call, so the AVX2 backend can register-block
  // in 2-D: output accumulators live in registers across the whole k-loop
  // (instead of being re-loaded/re-stored per step) and each b load is
  // shared across several output rows. Per output element the accumulation
  // is still 0 then += a·b in ascending p (or the lane-blocked dot), so the
  // blocking is invisible in the results. Both kernels overwrite c.
  /// c[r·n + j] = Σ_p a[r·a_row_stride + p·a_col_stride]·b[p·n + j] for
  /// r in [0, num_rows), skipping p where the a value is exactly 0 (the
  /// seed's sparsity shortcut, decided per row). Serves MatMul
  /// (a_row_stride = k, a_col_stride = 1) and MatMulTransposedA
  /// (a_row_stride = 1, a_col_stride = m).
  void (*MatMulBlockAxpy)(float* c, const float* a, int64_t a_row_stride,
                          int64_t a_col_stride, int64_t num_rows,
                          const float* b, int64_t k, int64_t n);
  /// c[r·n + j] = lane-blocked dot(a + r·k, b + j·k, k) — the
  /// MatMulTransposedB inner loops for a block of a rows.
  void (*MatMulBlockDot)(float* c, const float* a, int64_t num_rows,
                         const float* b, int64_t k, int64_t n);

  // ---- fused softmax passes ----
  /// x[i] = exp(x[i] − mx); returns the lane-blocked float sum of the
  /// rewritten values.
  float (*ExpSubSum)(float* x, float mx, int64_t n);
  /// Same sum without the store (log-softmax needs the original values).
  float (*ExpSubSumConst)(const float* x, float mx, int64_t n);

  // ---- activations, in place ----
  void (*Gelu)(float* x, int64_t n);     ///< tanh-approximation GELU
  void (*Relu)(float* x, int64_t n);
  void (*Tanh)(float* x, int64_t n);
  void (*Sigmoid)(float* x, int64_t n);

  // ---- autograd backward inner loops ----
  /// dx[i] = g[i] · gelu'(x[i])
  void (*GeluBackward)(float* dx, const float* x, const float* g, int64_t n);
  /// dxg[i] *= 1 − y[i]²  (y = tanh forward output)
  void (*TanhBackward)(float* dxg, const float* y, int64_t n);
  /// dxg[i] *= y[i]·(1 − y[i])  (y = sigmoid forward output)
  void (*SigmoidBackward)(float* dxg, const float* y, int64_t n);
  /// dx[i] = y[i]·(dy[i] − dot)  (softmax row backward)
  void (*SoftmaxBackwardRow)(float* dx, const float* y, const float* dy,
                             float dot, int64_t n);
  /// xhat[i] = (x[i] − mean)·istd; out[i] = xhat[i]·gamma[i] + beta[i]
  void (*LayerNormForwardRow)(float* xhat, float* out, const float* x,
                              float mean, float istd, const float* gamma,
                              const float* beta, int64_t n);

  // ---- int8 dynamically-quantized inference GEMM (see src/tensor/int8.h) ----
  // These three kernels carry a *stronger* determinism guarantee than the
  // float kernels need: quantization is elementwise IEEE math (exact under
  // the elementwise contract) and the GEMM accumulates in exact int32, so
  // scalar and AVX2 renditions are bit-identical by construction — across
  // backends AND thread counts. The tolerance contract (DESIGN.md §14) is
  // only between the int8 path and the fp32 path, never within int8.
  /// min/max of x[0..n); n must be ≥ 1. Lane op is (v < m) ? v : m — exact.
  void (*MinMax)(const float* x, int64_t n, float* min_out, float* max_out);
  /// q[i] = clamp(lrint(x[i] · inv_scale) + zero_point, 0, 127), round to
  /// nearest even (the default FP environment; cvtps on AVX2 matches).
  void (*Int8QuantizeRow)(uint8_t* q, const float* x, float inv_scale,
                          int32_t zero_point, int64_t n);
  /// Quantized GEMM with fused dequantize:
  ///   acc_rj  = Σ_p aq_row_r[p] · wq_col_j[p]        (u8 × s8, i32 exact)
  ///   c[r·n+j] = float(acc_rj − za[r]·colsum[j]) · (sa[r] · sw[j])
  /// aq is the per-row asymmetric-quantized activation (values in [0, 127]
  /// so u8·s8 pair sums fit i16 — the maddubs no-saturation bound) with row
  /// stride Int8PaddedK(k); pad bytes may hold anything (the matching
  /// weight pad is zero). wq is the per-column symmetric-quantized weight in
  /// the k-packed interleaved layout produced by Int8PackWeights: column
  /// blocks of 8 × depth groups of 4, so one 32-byte group holds 4
  /// consecutive depths of 8 adjacent columns and a 4-byte activation
  /// broadcast feeds 8 column accumulators with no horizontal reduction.
  /// sw and colsum must be padded to Int8PackedCols(n) entries (pad: scale
  /// 1, colsum 0); colsum[j] = Σ_p wq_col_j[p]. Requires 127·127·k < 2³¹
  /// (k ≤ ~133k).
  void (*Int8GemmDequant)(float* c, const uint8_t* aq, const float* sa,
                          const int32_t* za, int64_t m, const int8_t* wq,
                          const float* sw, const int32_t* colsum, int64_t k,
                          int64_t n);

  // ---- data movement ----
  /// out[j·rows + i] = in[i·cols + j]. Pure copy — trivially exact; the
  /// kernel exists so the AVX2 backend can use 8×8 in-register transposes
  /// instead of a stride-n scatter per element.
  void (*Transpose2D)(float* out, const float* in, int64_t rows,
                      int64_t cols);

  // ---- fused attention ----
  /// Multi-head scaled dot-product attention over one sequence, every head
  /// in one call (the forward of ag::MultiHeadAttention). q, v and out are
  /// [len × dim] with head h in columns [h·hd, (h+1)·hd), hd = dim / heads,
  /// read and written by stride; kt is Kᵀ [dim × len]. For each head h and
  /// query row i, with P the [len × len] block of probs at row h·len:
  ///   P[i][j] = Σ_p q[i][h·hd+p]·kt[h·hd+p][j]    — 0, then ascending p,
  ///             skipping p where the q value is exactly 0 (MatMulBlockAxpy)
  ///   P[i][j] = P[i][j]·scale
  ///   P[i]    = Scale(ExpSubSum(P[i], Max(P[i])), 1/sum)   (SoftmaxRows)
  ///   out[i][h·hd+c] = Σ_j P'[i][j]·v[j][h·hd+c] — 0, then ascending j,
  ///             skipping j where P'[i][j] is exactly 0
  /// where P' = P·keep elementwise when keep is non-null (inverted-dropout
  /// multipliers, same layout as probs) and P' = P otherwise. probs
  /// [heads·len × len] is always written and holds the pre-dropout P. That
  /// is the op sequence of the per-head slice/MatMul/Scale/SoftmaxRows/
  /// dropout/MatMul/concat graph, so out and probs match it bit for bit.
  void (*MultiHeadAttention)(float* out, float* probs, const float* q,
                             const float* kt, const float* v,
                             const float* keep, int64_t len, int64_t dim,
                             int64_t heads, float scale);
};

// The kernel inventory, written once: one row per KernelTable entry above,
// in declaration order, naming the member and its "kernels.calls.<metric>"
// counter. The counting shim, a check that every member has a row (both in
// kernels.cc) and AllKernelsSet below are generated from it. Adding a kernel
// means one row here plus the member and its scalar and AVX2 functions;
// leaving out any of them fails the build.
#define EMBA_KERNEL_LIST(X)                          \
  X(Dot, "dot")                                      \
  X(Sum, "sum")                                      \
  X(SumSq, "sum_sq")                                 \
  X(CenteredSumSq, "centered_sum_sq")                \
  X(Max, "max")                                      \
  X(Add, "add")                                      \
  X(Sub, "sub")                                      \
  X(Mul, "mul")                                      \
  X(Scale, "scale")                                  \
  X(AddScalar, "add_scalar")                         \
  X(Axpy, "axpy")                                    \
  X(MulAdd, "mul_add")                               \
  X(MatMulBlockAxpy, "matmul_block_axpy")            \
  X(MatMulBlockDot, "matmul_block_dot")              \
  X(ExpSubSum, "exp_sub_sum")                        \
  X(ExpSubSumConst, "exp_sub_sum_const")             \
  X(Gelu, "gelu")                                    \
  X(Relu, "relu")                                    \
  X(Tanh, "tanh")                                    \
  X(Sigmoid, "sigmoid")                              \
  X(GeluBackward, "gelu_backward")                   \
  X(TanhBackward, "tanh_backward")                   \
  X(SigmoidBackward, "sigmoid_backward")             \
  X(SoftmaxBackwardRow, "softmax_backward_row")      \
  X(LayerNormForwardRow, "layer_norm_forward_row")   \
  X(MinMax, "min_max")                               \
  X(Int8QuantizeRow, "int8_quantize_row")            \
  X(Int8GemmDequant, "int8_gemm_dequant")            \
  X(Transpose2D, "transpose2d")                      \
  X(MultiHeadAttention, "multi_head_attention")

/// True when every listed entry of `t` is set. Each backend table
/// static_asserts it, so an entry missing from its initializer fails the
/// build instead of a call through a null pointer.
constexpr bool AllKernelsSet(const KernelTable& t) {
#define EMBA_KERNEL_IS_SET(Member, metric) t.Member != nullptr &&
  return EMBA_KERNEL_LIST(EMBA_KERNEL_IS_SET) true;
#undef EMBA_KERNEL_IS_SET
}

/// Activation row stride / padded depth of the int8 GEMM: k rounded up to
/// the 4-byte broadcast group.
constexpr int64_t Int8PaddedK(int64_t k) { return (k + 3) & ~int64_t{3}; }

/// Column count after padding to the 8-wide accumulator block.
constexpr int64_t Int8PackedCols(int64_t n) { return (n + 7) / 8 * 8; }

/// Packs a TRANSPOSED [n×k] per-column-quantized weight (wq_t[j·k + p] =
/// column j, depth p) into the interleaved layout Int8GemmDequant consumes:
/// byte (b·(Int8PaddedK(k)/4) + g)·32 + c·4 + t holds column b·8+c at depth
/// 4g+t. `packed` must hold Int8PackedCols(n)·Int8PaddedK(k) bytes; pad
/// columns and pad depths are zero-filled.
void Int8PackWeights(int8_t* packed, const int8_t* wq_t, int64_t k, int64_t n);

/// The portable scalar reference backend.
const KernelTable& ScalarKernels();

/// The AVX2+FMA backend, or nullptr when the TU was not compiled in
/// (EMBA_ENABLE_AVX2=OFF or no compiler support).
const KernelTable* Avx2KernelsOrNull();

/// True when cpuid reports AVX2 + FMA and the OS enables YMM state.
bool CpuSupportsAvx2();

/// The dispatched table (see dispatch policy above); resolved once, then a
/// single atomic load per call site.
const KernelTable& Active();
Backend ActiveBackend();

/// True when `value` (an EMBA_SIMD setting) disables the SIMD backend.
/// Recognized: "off", "0", "scalar", "false" (case-insensitive).
bool SimdDisabledByEnvValue(const char* value);

/// Explicit override for tests/benches. Forcing kAvx2 aborts when the
/// backend is unavailable on this build/CPU.
void ForceBackend(Backend b);
/// Drops any override and re-resolves from EMBA_SIMD + cpuid.
void ResetBackend();

}  // namespace kernels
}  // namespace emba
