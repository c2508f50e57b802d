// AVX2 backend. Compiled with -mavx2 -mfma (and -ffp-contract=off) as its
// own translation unit; only runtime dispatch (kernels.cc) reaches it, after
// cpuid confirms the CPU executes AVX2.
//
// Bit-identical-to-scalar discipline:
//  * Reductions keep one vector accumulator whose 8 lanes are exactly the
//    scalar backend's kLanes partial sums; the accumulator is stored to a
//    stack array and finished by the *same* tail/reduce helpers
//    (kernels_detail.h) the scalar backend uses.
//  * Vectorized transcendentals perform the scalar algorithm's IEEE ops in
//    the same order, lane-wise; loop tails call the scalar functions.
//  * No _mm256_fmadd_ps in any value computation: FMA rounds once where the
//    scalar backend's mul+add rounds twice. The FMA ISA requirement exists
//    so the dispatcher can assume vdivps/vroundps-era hardware and so a
//    future relaxed-precision mode can fuse; the contract forbids fusing
//    today.
#include "tensor/kernels_detail.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cc must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <cstring>

namespace emba {
namespace kernels {
namespace {

using namespace detail;

// ---- vector renditions of the shared scalar math ----

// ExpApprox's range reduction and polynomial for an x already clamped to
// [kExpLo, kExpHi].
inline __m256 ExpClampedAvx2(__m256 xc) {
  __m256 fx = _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)),
                            _mm256_set1_ps(0.5f));
  __m256 fl = _mm256_round_ps(fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(xc, _mm256_mul_ps(fl, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(fl, _mm256_set1_ps(kLn2Lo)));
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP4));
  y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(kExpP5));
  __m256 r2 = _mm256_mul_ps(r, r);
  y = _mm256_mul_ps(y, r2);
  y = _mm256_add_ps(y, r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  __m256i n = _mm256_cvttps_epi32(fl);
  __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

inline __m256 ExpAvx2(__m256 x) {
  const __m256 hi = _mm256_set1_ps(kExpHi);
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 big_mask = _mm256_cmp_ps(x, hi, _CMP_GT_OQ);
  const __m256 small_mask = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  // Clamp so the int conversion stays defined for the lanes the final
  // blends overwrite anyway.
  __m256 y = ExpClampedAvx2(_mm256_min_ps(_mm256_max_ps(x, lo), hi));
  // Same priority as the scalar early returns: NaN wins over range.
  y = _mm256_blendv_ps(y, _mm256_set1_ps(HUGE_VALF), big_mask);
  y = _mm256_blendv_ps(y, _mm256_setzero_ps(), small_mask);
  y = _mm256_blendv_ps(y, x, nan_mask);
  return y;
}

inline __m256 TanhAvx2(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 z = _mm256_andnot_ps(sign_mask, x);  // |x|
  // NaN compares false, so NaN lanes take the polynomial branch — exactly
  // the scalar control flow.
  __m256 big_mask = _mm256_cmp_ps(z, _mm256_set1_ps(kTanhCut), _CMP_GE_OQ);
  __m256 sat_mask = _mm256_cmp_ps(z, _mm256_set1_ps(kTanhSat), _CMP_GT_OQ);
  __m256 e = ExpAvx2(_mm256_add_ps(z, z));
  __m256 rb = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  rb = _mm256_blendv_ps(rb, one, sat_mask);
  rb = _mm256_or_ps(rb, _mm256_and_ps(x, sign_mask));
  __m256 zz = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kTanhP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, zz), _mm256_set1_ps(kTanhP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, zz), _mm256_set1_ps(kTanhP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, zz), _mm256_set1_ps(kTanhP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, zz), _mm256_set1_ps(kTanhP4));
  y = _mm256_mul_ps(y, zz);
  y = _mm256_mul_ps(y, x);
  y = _mm256_add_ps(y, x);
  return _mm256_blendv_ps(y, rb, big_mask);
}

inline __m256 SigmoidAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 e = ExpAvx2(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));  // exp(-x)
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 GeluAvx2(__m256 x) {
  __m256 x2 = _mm256_mul_ps(x, x);
  __m256 x3 = _mm256_mul_ps(x2, x);
  __m256 t = _mm256_mul_ps(_mm256_set1_ps(kGeluAlpha), x3);
  __m256 inner = _mm256_add_ps(x, t);
  __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluC), inner);
  __m256 th = TanhAvx2(u);
  __m256 h = _mm256_mul_ps(_mm256_set1_ps(0.5f), x);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(1.0f), th);
  return _mm256_mul_ps(h, p);
}

inline __m256 GeluGradAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  __m256 x2 = _mm256_mul_ps(x, x);
  __m256 x3 = _mm256_mul_ps(x2, x);
  __m256 t = _mm256_mul_ps(_mm256_set1_ps(kGeluAlpha), x3);
  __m256 inner = _mm256_add_ps(x, t);
  __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluC), inner);
  __m256 th = TanhAvx2(u);
  __m256 tt = _mm256_mul_ps(th, th);
  __m256 sech2 = _mm256_sub_ps(one, tt);
  __m256 w = _mm256_mul_ps(_mm256_set1_ps(kGelu3Alpha), x2);
  __m256 dinner = _mm256_add_ps(one, w);
  __m256 du = _mm256_mul_ps(_mm256_set1_ps(kGeluC), dinner);
  __m256 dt = _mm256_mul_ps(sech2, du);
  __m256 p = _mm256_add_ps(one, th);
  __m256 a = _mm256_mul_ps(half, p);
  __m256 hx = _mm256_mul_ps(half, x);
  __m256 b = _mm256_mul_ps(hx, dt);
  return _mm256_add_ps(a, b);
}

// ---- lane-blocked reductions ----

float DotAvx2(const float* a, const float* b, int64_t n) {
  __m256 vacc = _mm256_setzero_ps();
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    vacc = _mm256_add_ps(vacc, _mm256_mul_ps(va, vb));
  }
  alignas(32) float acc[kLanes];
  _mm256_store_ps(acc, vacc);
  DotTail(acc, a, b, main_end, n);
  return ReduceLanes(acc);
}

double SumAvx2(const float* x, int64_t n) {
  __m256d acc03 = _mm256_setzero_pd();  // lanes 0..3
  __m256d acc47 = _mm256_setzero_pd();  // lanes 4..7
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    __m256 v = _mm256_loadu_ps(x + i);
    acc03 = _mm256_add_pd(acc03, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc47 = _mm256_add_pd(acc47, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  alignas(32) double acc[kLanes];
  _mm256_store_pd(acc, acc03);
  _mm256_store_pd(acc + 4, acc47);
  SumTail(acc, x, main_end, n);
  return ReduceLanesDouble(acc);
}

double SumSqAvx2(const float* x, int64_t n) {
  __m256d acc03 = _mm256_setzero_pd();
  __m256d acc47 = _mm256_setzero_pd();
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc03 = _mm256_add_pd(acc03, _mm256_mul_pd(lo, lo));
    acc47 = _mm256_add_pd(acc47, _mm256_mul_pd(hi, hi));
  }
  alignas(32) double acc[kLanes];
  _mm256_store_pd(acc, acc03);
  _mm256_store_pd(acc + 4, acc47);
  SumSqTail(acc, x, main_end, n);
  return ReduceLanesDouble(acc);
}

double CenteredSumSqAvx2(const float* x, float center, int64_t n) {
  const __m256d c = _mm256_set1_pd(static_cast<double>(center));
  __m256d acc03 = _mm256_setzero_pd();
  __m256d acc47 = _mm256_setzero_pd();
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), c);
    __m256d hi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), c);
    acc03 = _mm256_add_pd(acc03, _mm256_mul_pd(lo, lo));
    acc47 = _mm256_add_pd(acc47, _mm256_mul_pd(hi, hi));
  }
  alignas(32) double acc[kLanes];
  _mm256_store_pd(acc, acc03);
  _mm256_store_pd(acc + 4, acc47);
  CenteredSumSqTail(acc, x, center, main_end, n);
  return ReduceLanesDouble(acc);
}

float MaxAvx2(const float* x, int64_t n) {
  // vmaxps(m, v) == (m > v) ? m : v lane-wise — the MaxLane contract op.
  __m256 vacc = _mm256_set1_ps(x[0]);
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    vacc = _mm256_max_ps(vacc, _mm256_loadu_ps(x + i));
  }
  alignas(32) float acc[kLanes];
  _mm256_store_ps(acc, vacc);
  MaxTail(acc, x, main_end, n);
  return ReduceLanesMax(acc);
}

// ---- elementwise ----

void AddAvx2(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = y[i] + x[i];
}

void SubAvx2(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = y[i] - x[i];
}

void MulAvx2(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = y[i] * x[i];
}

void ScaleAvx2(float* y, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  }
  for (; i < n; ++i) y[i] = y[i] * s;
}

void AddScalarAvx2(float* y, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), vs));
  }
  for (; i < n; ++i) y[i] = y[i] + s;
}

void AxpyAvx2(float* y, float a, const float* x, int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] = y[i] + a * x[i];
}

void MulAddAvx2(float* acc, const float* a, const float* b, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), prod));
  }
  for (; i < n; ++i) acc[i] = acc[i] + a[i] * b[i];
}

// ---- matmul block kernels (2-D register-blocked) ----

// Output accumulators stay in registers across the whole k-loop (an
// axpy-per-p formulation re-loads and re-stores the output row every step),
// and the main path blocks over *both* output dimensions — 4 a-rows × 16
// b-columns — so every b load is amortized over four output rows. Per output
// element the FP sequence is unchanged — 0, then += av·b in ascending p with
// separate mul and add, and the zero-skip decided per row — so the scalar
// contract holds bit for bit; blocking only reorders work *across* output
// elements, never within one.

// Single-row fallback for the num_rows % 4 remainder: 64/32/8-wide column
// blocks of one output row.
void RowAxpyAvx2(float* crow, const float* a, int64_t a_stride,
                 const float* b, int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 8 * kLanes <= n; j += 8 * kLanes) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps();
    __m256 acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps();
    __m256 acc7 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p * a_stride];
      if (av == 0.0f) continue;
      const __m256 vav = _mm256_set1_ps(av);
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vav, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8)));
      acc2 = _mm256_add_ps(acc2,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 16)));
      acc3 = _mm256_add_ps(acc3,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 24)));
      acc4 = _mm256_add_ps(acc4,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 32)));
      acc5 = _mm256_add_ps(acc5,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 40)));
      acc6 = _mm256_add_ps(acc6,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 48)));
      acc7 = _mm256_add_ps(acc7,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 56)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
    _mm256_storeu_ps(crow + j + 16, acc2);
    _mm256_storeu_ps(crow + j + 24, acc3);
    _mm256_storeu_ps(crow + j + 32, acc4);
    _mm256_storeu_ps(crow + j + 40, acc5);
    _mm256_storeu_ps(crow + j + 48, acc6);
    _mm256_storeu_ps(crow + j + 56, acc7);
  }
  for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p * a_stride];
      if (av == 0.0f) continue;
      const __m256 vav = _mm256_set1_ps(av);
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vav, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8)));
      acc2 = _mm256_add_ps(acc2,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 16)));
      acc3 = _mm256_add_ps(acc3,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
    _mm256_storeu_ps(crow + j + 16, acc2);
    _mm256_storeu_ps(crow + j + 24, acc3);
  }
  for (; j + kLanes <= n; j += kLanes) {
    __m256 acc = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p * a_stride];
      if (av == 0.0f) continue;
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(av),
                             _mm256_loadu_ps(b + p * n + j)));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  if (j < n) {
    for (int64_t jj = j; jj < n; ++jj) crow[jj] = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p * a_stride];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t jj = j; jj < n; ++jj) {
        crow[jj] = crow[jj] + av * brow[jj];
      }
    }
  }
}

// Sliding-window lane masks: loading at offset kLanes − w yields a mask
// whose first w lanes are live. Feeds VMASKMOV for ragged column tails.
alignas(32) constexpr int32_t kTailMaskTable[2 * kLanes] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

inline __m256i TailMask(int64_t w) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMaskTable + kLanes - w));
}

// Narrow helper for the ≤15-column j-tail of an axpy row block: plain
// 8-wide + scalar, pointer-bumped. `b_stride` is the row stride of b (the
// full output width); `n` is the number of columns to produce here.
void RowAxpyRangeAvx2(float* crow, const float* arow, int64_t a_col_stride,
                      const float* b, int64_t b_stride, int64_t k,
                      int64_t n) {
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    __m256 acc = _mm256_setzero_ps();
    const float* pa = arow;
    const float* bp = b + j;
    for (int64_t p = 0; p < k; ++p, pa += a_col_stride, bp += b_stride) {
      const float av = *pa;
      if (av == 0.0f) continue;
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp)));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  if (j < n) {
    for (int64_t jj = j; jj < n; ++jj) crow[jj] = 0.0f;
    const float* pa = arow;
    const float* bp = b;
    for (int64_t p = 0; p < k; ++p, pa += a_col_stride, bp += b_stride) {
      const float av = *pa;
      if (av == 0.0f) continue;
      for (int64_t jj = j; jj < n; ++jj) crow[jj] = crow[jj] + av * bp[jj];
    }
  }
}

void MatMulBlockAxpyAvx2(float* c, const float* a, int64_t a_row_stride,
                         int64_t a_col_stride, int64_t num_rows,
                         const float* b, int64_t k, int64_t n) {
  if (num_rows < 4) {
    // Too few rows for the 4-row block: wide single-row kernel per row.
    for (int64_t r = 0; r < num_rows; ++r) {
      RowAxpyAvx2(c + r * n, a + r * a_row_stride, a_col_stride, b, k, n);
    }
    return;
  }
  // j-strip outermost: one 16-column strip of b (16·k floats) stays hot in
  // L1 across every 4-row block, instead of each row block re-streaming all
  // of b. The (r, j) blocks are mutually independent, so visiting them in
  // strip order changes nothing about any output element's FP sequence.
  int64_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    int64_t r = 0;
    for (; r + 4 <= num_rows; r += 4) {
      const float* a0 = a + r * a_row_stride;
      const float* a1 = a0 + a_row_stride;
      const float* a2 = a1 + a_row_stride;
      const float* a3 = a2 + a_row_stride;
      float* c0 = c + r * n;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
      __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
      __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
      const float* bp = b + j;
      const float* pa0 = a0;
      const float* pa1 = a1;
      const float* pa2 = a2;
      const float* pa3 = a3;
      for (int64_t p = 0; p < k; ++p, bp += n, pa0 += a_col_stride,
                   pa1 += a_col_stride, pa2 += a_col_stride,
                   pa3 += a_col_stride) {
        const __m256 vb0 = _mm256_loadu_ps(bp);
        const __m256 vb1 = _mm256_loadu_ps(bp + 8);
        const float av0 = *pa0;
        if (av0 != 0.0f) {
          const __m256 va = _mm256_set1_ps(av0);
          acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(va, vb0));
          acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(va, vb1));
        }
        const float av1 = *pa1;
        if (av1 != 0.0f) {
          const __m256 va = _mm256_set1_ps(av1);
          acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(va, vb0));
          acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(va, vb1));
        }
        const float av2 = *pa2;
        if (av2 != 0.0f) {
          const __m256 va = _mm256_set1_ps(av2);
          acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(va, vb0));
          acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(va, vb1));
        }
        const float av3 = *pa3;
        if (av3 != 0.0f) {
          const __m256 va = _mm256_set1_ps(av3);
          acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(va, vb0));
          acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(va, vb1));
        }
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    for (; r < num_rows; ++r) {
      RowAxpyRangeAvx2(c + r * n + j, a + r * a_row_stride, a_col_stride,
                       b + j, n, k, 2 * kLanes);
    }
  }
  // n % 16 tail, still 4-row-blocked so each b load feeds 4 rows (the
  // attention shapes n = 43 / 24 put a quarter to a third of all columns
  // here). One full 8-wide strip if it fits, then a masked strip for the
  // last n % 8 columns — VMASKMOV suppresses both the load and the store on
  // dead lanes, so there is no out-of-bounds access and live lanes see the
  // exact same mul+add sequence as the wide path.
  if (j + kLanes <= n) {
    int64_t r = 0;
    for (; r + 4 <= num_rows; r += 4) {
      const float* pa0 = a + r * a_row_stride;
      const float* pa1 = pa0 + a_row_stride;
      const float* pa2 = pa1 + a_row_stride;
      const float* pa3 = pa2 + a_row_stride;
      float* c0 = c + r * n + j;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      const float* bp = b + j;
      for (int64_t p = 0; p < k; ++p, bp += n, pa0 += a_col_stride,
                   pa1 += a_col_stride, pa2 += a_col_stride,
                   pa3 += a_col_stride) {
        const __m256 vb = _mm256_loadu_ps(bp);
        const float av0 = *pa0;
        if (av0 != 0.0f) {
          acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(av0), vb));
        }
        const float av1 = *pa1;
        if (av1 != 0.0f) {
          acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(av1), vb));
        }
        const float av2 = *pa2;
        if (av2 != 0.0f) {
          acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(av2), vb));
        }
        const float av3 = *pa3;
        if (av3 != 0.0f) {
          acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(av3), vb));
        }
      }
      _mm256_storeu_ps(c0, acc0);
      _mm256_storeu_ps(c0 + n, acc1);
      _mm256_storeu_ps(c0 + 2 * n, acc2);
      _mm256_storeu_ps(c0 + 3 * n, acc3);
    }
    for (; r < num_rows; ++r) {
      RowAxpyRangeAvx2(c + r * n + j, a + r * a_row_stride, a_col_stride,
                       b + j, n, k, kLanes);
    }
    j += kLanes;
  }
  if (j < n) {
    const int64_t w = n - j;  // 1..7
    const __m256i mask = TailMask(w);
    int64_t r = 0;
    for (; r + 4 <= num_rows; r += 4) {
      const float* pa0 = a + r * a_row_stride;
      const float* pa1 = pa0 + a_row_stride;
      const float* pa2 = pa1 + a_row_stride;
      const float* pa3 = pa2 + a_row_stride;
      float* c0 = c + r * n + j;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      const float* bp = b + j;
      for (int64_t p = 0; p < k; ++p, bp += n, pa0 += a_col_stride,
                   pa1 += a_col_stride, pa2 += a_col_stride,
                   pa3 += a_col_stride) {
        const __m256 vb = _mm256_maskload_ps(bp, mask);
        const float av0 = *pa0;
        if (av0 != 0.0f) {
          acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(av0), vb));
        }
        const float av1 = *pa1;
        if (av1 != 0.0f) {
          acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(av1), vb));
        }
        const float av2 = *pa2;
        if (av2 != 0.0f) {
          acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(av2), vb));
        }
        const float av3 = *pa3;
        if (av3 != 0.0f) {
          acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(av3), vb));
        }
      }
      _mm256_maskstore_ps(c0, mask, acc0);
      _mm256_maskstore_ps(c0 + n, mask, acc1);
      _mm256_maskstore_ps(c0 + 2 * n, mask, acc2);
      _mm256_maskstore_ps(c0 + 3 * n, mask, acc3);
    }
    for (; r < num_rows; ++r) {
      RowAxpyRangeAvx2(c + r * n + j, a + r * a_row_stride, a_col_stride,
                       b + j, n, k, w);
    }
  }
}

// Eight dot products in flight per step: the arow load is shared and the
// independent add chains cover the vaddps latency. Each dot keeps its own
// single 8-lane accumulator, so per-j the accumulation is exactly DotAvx2 —
// which itself finishes through the scalar tail/reduce helpers. Single-row
// fallback for the num_rows % 4 remainder of the block kernel.
void RowDotAvx2(float* crow, const float* arow, const float* b,
                int64_t k, int64_t n) {
  const int64_t main_end = MainEnd(k);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const float* brows[8];
    for (int t = 0; t < 8; ++t) brows[t] = b + (j + t) * k;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps();
    __m256 acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps();
    __m256 acc7 = _mm256_setzero_ps();
    for (int64_t p = 0; p < main_end; p += kLanes) {
      const __m256 va = _mm256_loadu_ps(arow + p);
      acc0 = _mm256_add_ps(acc0,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[0] + p)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[1] + p)));
      acc2 = _mm256_add_ps(acc2,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[2] + p)));
      acc3 = _mm256_add_ps(acc3,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[3] + p)));
      acc4 = _mm256_add_ps(acc4,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[4] + p)));
      acc5 = _mm256_add_ps(acc5,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[5] + p)));
      acc6 = _mm256_add_ps(acc6,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[6] + p)));
      acc7 = _mm256_add_ps(acc7,
                           _mm256_mul_ps(va, _mm256_loadu_ps(brows[7] + p)));
    }
    alignas(32) float acc[8][kLanes];
    _mm256_store_ps(acc[0], acc0);
    _mm256_store_ps(acc[1], acc1);
    _mm256_store_ps(acc[2], acc2);
    _mm256_store_ps(acc[3], acc3);
    _mm256_store_ps(acc[4], acc4);
    _mm256_store_ps(acc[5], acc5);
    _mm256_store_ps(acc[6], acc6);
    _mm256_store_ps(acc[7], acc7);
    for (int t = 0; t < 8; ++t) {
      DotTail(acc[t], arow, brows[t], main_end, k);
      crow[j + t] = ReduceLanes(acc[t]);
    }
  }
  for (; j + 4 <= n; j += 4) {
    const float* b0 = b + j * k;
    const float* b1 = b0 + k;
    const float* b2 = b1 + k;
    const float* b3 = b2 + k;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (int64_t p = 0; p < main_end; p += kLanes) {
      const __m256 va = _mm256_loadu_ps(arow + p);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(b0 + p)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(b1 + p)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(b2 + p)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(b3 + p)));
    }
    alignas(32) float acc[4][kLanes];
    _mm256_store_ps(acc[0], acc0);
    _mm256_store_ps(acc[1], acc1);
    _mm256_store_ps(acc[2], acc2);
    _mm256_store_ps(acc[3], acc3);
    const float* brows[4] = {b0, b1, b2, b3};
    for (int t = 0; t < 4; ++t) {
      DotTail(acc[t], arow, brows[t], main_end, k);
      crow[j + t] = ReduceLanes(acc[t]);
    }
  }
  for (; j < n; ++j) crow[j] = DotAvx2(arow, b + j * k, k);
}

// 4 a-rows × 2 b-rows per block: 8 accumulators fed from 6 pointer-bumped
// loads per 8-element step, so every va/vb load is shared across multiple
// dots. Each of the 8 dots still owns one 8-lane accumulator fed in
// ascending p — exactly DotAvx2 — and finishes through the shared scalar
// tail/reduce helpers. The j loop is tiled so one tile of b rows stays hot
// in L1 across every 4-row block instead of each block re-streaming all of
// b; the (r, j) dots are mutually independent, so visiting them tile by
// tile changes nothing about any output element's FP sequence.
void MatMulBlockDotAvx2(float* c, const float* a, int64_t num_rows,
                        const float* b, int64_t k, int64_t n) {
  if (num_rows < 4) {
    for (int64_t r = 0; r < num_rows; ++r) {
      RowDotAvx2(c + r * n, a + r * k, b, k, n);
    }
    return;
  }
  const int64_t main_end = MainEnd(k);
  // Even number of b rows per ~24KB L1 tile (half of L1d, leaving room for
  // the a-row slab).
  int64_t tile = 24576 / (4 * (k > 0 ? k : 1));
  tile &= ~int64_t{1};
  if (tile < 2) tile = 2;
  for (int64_t j0 = 0; j0 < n; j0 += tile) {
    const int64_t j1 = (j0 + tile < n) ? j0 + tile : n;
    int64_t r = 0;
    for (; r + 4 <= num_rows; r += 4) {
      const float* a0 = a + r * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* c0 = c + r * n;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      int64_t j = j0;
      for (; j + 2 <= j1; j += 2) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
      __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
      __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
      const float* p0 = a0;
      const float* p1 = a1;
      const float* p2 = a2;
      const float* p3 = a3;
      const float* q0 = b0;
      const float* q1 = b1;
      for (int64_t p = 0; p < main_end; p += kLanes) {
        const __m256 vb0 = _mm256_loadu_ps(q0);
        q0 += kLanes;
        const __m256 vb1 = _mm256_loadu_ps(q1);
        q1 += kLanes;
        __m256 va = _mm256_loadu_ps(p0);
        p0 += kLanes;
        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(va, vb0));
        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(va, vb1));
        va = _mm256_loadu_ps(p1);
        p1 += kLanes;
        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(va, vb0));
        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(va, vb1));
        va = _mm256_loadu_ps(p2);
        p2 += kLanes;
        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(va, vb0));
        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(va, vb1));
        va = _mm256_loadu_ps(p3);
        p3 += kLanes;
        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(va, vb0));
        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(va, vb1));
      }
      alignas(32) float acc[8][kLanes];
      _mm256_store_ps(acc[0], acc00);
      _mm256_store_ps(acc[1], acc01);
      _mm256_store_ps(acc[2], acc10);
      _mm256_store_ps(acc[3], acc11);
      _mm256_store_ps(acc[4], acc20);
      _mm256_store_ps(acc[5], acc21);
      _mm256_store_ps(acc[6], acc30);
      _mm256_store_ps(acc[7], acc31);
      const float* arows[4] = {a0, a1, a2, a3};
      float* crows[4] = {c0, c1, c2, c3};
      for (int t = 0; t < 4; ++t) {
        DotTail(acc[2 * t], arows[t], b0, main_end, k);
        crows[t][j] = ReduceLanes(acc[2 * t]);
        DotTail(acc[2 * t + 1], arows[t], b1, main_end, k);
        crows[t][j + 1] = ReduceLanes(acc[2 * t + 1]);
      }
    }
      for (; j < j1; ++j) {
        const float* bj = b + j * k;
        c0[j] = DotAvx2(a0, bj, k);
        c1[j] = DotAvx2(a1, bj, k);
        c2[j] = DotAvx2(a2, bj, k);
        c3[j] = DotAvx2(a3, bj, k);
      }
    }
    for (; r < num_rows; ++r) {
      RowDotAvx2(c + r * n + j0, a + r * k, b + j0 * k, k, j1 - j0);
    }
  }
}

// ---- fused softmax passes ----

float ExpSubSumAvx2(float* x, float mx, int64_t n) {
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vacc = _mm256_setzero_ps();
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    __m256 v = ExpAvx2(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmx));
    _mm256_storeu_ps(x + i, v);
    vacc = _mm256_add_ps(vacc, v);
  }
  alignas(32) float acc[kLanes];
  _mm256_store_ps(acc, vacc);
  return ExpSubSumTail(acc, x, mx, main_end, n);
}

float ExpSubSumConstAvx2(const float* x, float mx, int64_t n) {
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vacc = _mm256_setzero_ps();
  const int64_t main_end = MainEnd(n);
  for (int64_t i = 0; i < main_end; i += kLanes) {
    __m256 v = ExpAvx2(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmx));
    vacc = _mm256_add_ps(vacc, v);
  }
  alignas(32) float acc[kLanes];
  _mm256_store_ps(acc, vacc);
  return ExpSubSumConstTail(acc, x, mx, main_end, n);
}

// ---- activations ----

void GeluKernelAvx2(float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(x + i, GeluAvx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = GeluApprox(x[i]);
}

void ReluAvx2(float* x, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    // vmaxps(x, 0) == (x > 0) ? x : 0 lane-wise (NaN → 0, matching scalar).
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = (x[i] > 0.0f) ? x[i] : 0.0f;
}

void TanhKernelAvx2(float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(x + i, TanhAvx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = TanhApprox(x[i]);
}

void SigmoidKernelAvx2(float* x, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(x + i, SigmoidAvx2(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = SigmoidApprox(x[i]);
}

// ---- autograd backward inner loops ----

void GeluBackwardAvx2(float* dx, const float* x, const float* g, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 grad = GeluGradAvx2(_mm256_loadu_ps(x + i));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), grad));
  }
  for (; i < n; ++i) dx[i] = g[i] * GeluGrad(x[i]);
}

void TanhBackwardAvx2(float* dxg, const float* y, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 vy = _mm256_loadu_ps(y + i);
    __m256 u = _mm256_sub_ps(one, _mm256_mul_ps(vy, vy));
    _mm256_storeu_ps(dxg + i, _mm256_mul_ps(_mm256_loadu_ps(dxg + i), u));
  }
  for (; i < n; ++i) {
    float t = y[i] * y[i];
    float u = 1.0f - t;
    dxg[i] = dxg[i] * u;
  }
}

void SigmoidBackwardAvx2(float* dxg, const float* y, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 vy = _mm256_loadu_ps(y + i);
    __m256 u = _mm256_mul_ps(vy, _mm256_sub_ps(one, vy));
    _mm256_storeu_ps(dxg + i, _mm256_mul_ps(_mm256_loadu_ps(dxg + i), u));
  }
  for (; i < n; ++i) {
    float t = 1.0f - y[i];
    float u = y[i] * t;
    dxg[i] = dxg[i] * u;
  }
}

void SoftmaxBackwardRowAvx2(float* dx, const float* y, const float* dy,
                            float dot, int64_t n) {
  const __m256 vdot = _mm256_set1_ps(dot);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(dy + i), vdot);
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), d));
  }
  for (; i < n; ++i) dx[i] = SoftmaxBackwardElem(y[i], dy[i], dot);
}

void LayerNormForwardRowAvx2(float* xhat, float* out, const float* x,
                             float mean, float istd, const float* gamma,
                             const float* beta, int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vistd = _mm256_set1_ps(istd);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 c = _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean);
    __m256 xh = _mm256_mul_ps(c, vistd);
    __m256 o = _mm256_mul_ps(xh, _mm256_loadu_ps(gamma + i));
    o = _mm256_add_ps(o, _mm256_loadu_ps(beta + i));
    _mm256_storeu_ps(xhat + i, xh);
    _mm256_storeu_ps(out + i, o);
  }
  for (; i < n; ++i) {
    LayerNormForwardElem(x[i], mean, istd, gamma[i], beta[i], &xhat[i],
                         &out[i]);
  }
}

// ---- int8 inference GEMM (see kernels.h) ----
// Integer accumulation is exact, so these match the scalar backend bit for
// bit with no lane contract needed; only the quantize kernel does float
// math, and it is elementwise with cvtps rounding = lrintf rounding
// (nearest-even, the default FP environment on both paths).

void MinMaxAvx2(const float* x, int64_t n, float* min_out, float* max_out) {
  if (n < kLanes) {
    float mn = x[0], mx = x[0];
    for (int64_t i = 1; i < n; ++i) {
      mn = (x[i] < mn) ? x[i] : mn;
      mx = (x[i] > mx) ? x[i] : mx;
    }
    *min_out = mn;
    *max_out = mx;
    return;
  }
  __m256 vmn = _mm256_loadu_ps(x);
  __m256 vmx = vmn;
  int64_t i = kLanes;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    vmn = _mm256_min_ps(vmn, v);
    vmx = _mm256_max_ps(vmx, v);
  }
  alignas(32) float mns[kLanes], mxs[kLanes];
  _mm256_store_ps(mns, vmn);
  _mm256_store_ps(mxs, vmx);
  float mn = mns[0], mx = mxs[0];
  for (int l = 1; l < kLanes; ++l) {
    mn = (mns[l] < mn) ? mns[l] : mn;
    mx = (mxs[l] > mx) ? mxs[l] : mx;
  }
  for (; i < n; ++i) {
    mn = (x[i] < mn) ? x[i] : mn;
    mx = (x[i] > mx) ? x[i] : mx;
  }
  *min_out = mn;
  *max_out = mx;
}

void Int8QuantizeRowAvx2(uint8_t* q, const float* x, float inv_scale,
                         int32_t zero_point, int64_t n) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256i vzp = _mm256_set1_epi32(zero_point);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i v127 = _mm256_set1_epi32(127);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    // cvtps rounds per MXCSR (nearest-even) — identical to the scalar
    // backend's lrintf in the default FP environment.
    __m256i v = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i),
                                                 vinv));
    v = _mm256_add_epi32(v, vzp);
    v = _mm256_min_epi32(_mm256_max_epi32(v, vzero), v127);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                        _mm256_extracti128_si256(v, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), p8);
  }
  for (; i < n; ++i) {
    int32_t v = static_cast<int32_t>(std::lrintf(x[i] * inv_scale)) +
                zero_point;
    v = v < 0 ? 0 : (v > 127 ? 127 : v);
    q[i] = static_cast<uint8_t>(v);
  }
}

// One packed 32-byte weight group (4 consecutive depths x 8 columns,
// kernels.h layout) against a 4-byte activation broadcast: maddubs pairs
// u8[0,127]xs8 products (pair sum <= 127*127*2 = 32258 < 2^15, saturation
// impossible) and madd-by-ones widens to one exact i32 partial per column.
inline __m256i Int8Group(const uint8_t* a4, const __m256i w,
                         const __m256i ones) {
  int32_t u;
  std::memcpy(&u, a4, sizeof(u));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(_mm256_set1_epi32(u), w),
                           ones);
}

// Dequantizes one row's 8-column accumulator and stores `cols` (<= 8)
// results: the same IEEE ops the scalar backend performs per element (i32
// subtract, int-to-float convert, two float multiplies), so bit-identity
// holds.
inline void Int8DequantStore(float* crow, __m256i acc, int32_t za_r,
                             float sa_r, __m256i cs, __m256 swv,
                             int64_t cols) {
  const __m256i adj =
      _mm256_sub_epi32(acc, _mm256_mullo_epi32(_mm256_set1_epi32(za_r), cs));
  const __m256 vals = _mm256_mul_ps(_mm256_cvtepi32_ps(adj),
                                    _mm256_mul_ps(_mm256_set1_ps(sa_r), swv));
  if (cols >= 8) {
    _mm256_storeu_ps(crow, vals);
    return;
  }
  alignas(32) float tmp[8];
  _mm256_store_ps(tmp, vals);
  for (int64_t i = 0; i < cols; ++i) crow[i] = tmp[i];
}

void Int8GemmDequantAvx2(float* c, const uint8_t* aq, const float* sa,
                         const int32_t* za, int64_t m, const int8_t* wq,
                         const float* sw, const int32_t* colsum, int64_t k,
                         int64_t n) {
  // Each 8-lane accumulator IS 8 output columns (the k-packed interleaved
  // layout, kernels.h), so there is no per-output horizontal reduction --
  // the cost that dominated a dot-product formulation at the model's small
  // k. Rows are blocked by 4 to reuse each 32-byte weight load across four
  // activation broadcasts. Accumulation is exact i32 (k <= ~2^31/16129),
  // so any blocking order matches the scalar backend bit for bit.
  const int64_t k4 = Int8PaddedK(k);
  const int64_t groups = k4 / 4;
  const int64_t blocks = (n + 7) / 8;
  const __m256i ones = _mm256_set1_epi16(1);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const uint8_t* a0 = aq + (r + 0) * k4;
    const uint8_t* a1 = aq + (r + 1) * k4;
    const uint8_t* a2 = aq + (r + 2) * k4;
    const uint8_t* a3 = aq + (r + 3) * k4;
    for (int64_t b = 0; b < blocks; ++b) {
      const int8_t* wb = wq + b * groups * 32;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (int64_t g = 0; g < groups; ++g) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wb + g * 32));
        acc0 = _mm256_add_epi32(acc0, Int8Group(a0 + g * 4, w, ones));
        acc1 = _mm256_add_epi32(acc1, Int8Group(a1 + g * 4, w, ones));
        acc2 = _mm256_add_epi32(acc2, Int8Group(a2 + g * 4, w, ones));
        acc3 = _mm256_add_epi32(acc3, Int8Group(a3 + g * 4, w, ones));
      }
      const int64_t j = b * 8;
      const int64_t cols = n - j < 8 ? n - j : 8;
      const __m256i cs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(colsum + j));
      const __m256 swv = _mm256_loadu_ps(sw + j);
      Int8DequantStore(c + (r + 0) * n + j, acc0, za[r + 0], sa[r + 0], cs,
                       swv, cols);
      Int8DequantStore(c + (r + 1) * n + j, acc1, za[r + 1], sa[r + 1], cs,
                       swv, cols);
      Int8DequantStore(c + (r + 2) * n + j, acc2, za[r + 2], sa[r + 2], cs,
                       swv, cols);
      Int8DequantStore(c + (r + 3) * n + j, acc3, za[r + 3], sa[r + 3], cs,
                       swv, cols);
    }
  }
  for (; r < m; ++r) {
    const uint8_t* arow = aq + r * k4;
    for (int64_t b = 0; b < blocks; ++b) {
      const int8_t* wb = wq + b * groups * 32;
      __m256i acc = _mm256_setzero_si256();
      for (int64_t g = 0; g < groups; ++g) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wb + g * 32));
        acc = _mm256_add_epi32(acc, Int8Group(arow + g * 4, w, ones));
      }
      const int64_t j = b * 8;
      const int64_t cols = n - j < 8 ? n - j : 8;
      Int8DequantStore(
          c + r * n + j, acc, za[r], sa[r],
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colsum + j)),
          _mm256_loadu_ps(sw + j), cols);
    }
  }
}

// In-register 8×8 float transpose: unpack pairs, shuffle quads, then swap
// 128-bit halves. Pure data movement — bit-exact by construction.
inline void Transpose8x8Avx2(const float* in, int64_t in_stride, float* out,
                             int64_t out_stride) {
  const __m256 r0 = _mm256_loadu_ps(in);
  const __m256 r1 = _mm256_loadu_ps(in + in_stride);
  const __m256 r2 = _mm256_loadu_ps(in + 2 * in_stride);
  const __m256 r3 = _mm256_loadu_ps(in + 3 * in_stride);
  const __m256 r4 = _mm256_loadu_ps(in + 4 * in_stride);
  const __m256 r5 = _mm256_loadu_ps(in + 5 * in_stride);
  const __m256 r6 = _mm256_loadu_ps(in + 6 * in_stride);
  const __m256 r7 = _mm256_loadu_ps(in + 7 * in_stride);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  _mm256_storeu_ps(out, _mm256_permute2f128_ps(s0, s4, 0x20));
  _mm256_storeu_ps(out + out_stride, _mm256_permute2f128_ps(s1, s5, 0x20));
  _mm256_storeu_ps(out + 2 * out_stride,
                   _mm256_permute2f128_ps(s2, s6, 0x20));
  _mm256_storeu_ps(out + 3 * out_stride,
                   _mm256_permute2f128_ps(s3, s7, 0x20));
  _mm256_storeu_ps(out + 4 * out_stride,
                   _mm256_permute2f128_ps(s0, s4, 0x31));
  _mm256_storeu_ps(out + 5 * out_stride,
                   _mm256_permute2f128_ps(s1, s5, 0x31));
  _mm256_storeu_ps(out + 6 * out_stride,
                   _mm256_permute2f128_ps(s2, s6, 0x31));
  _mm256_storeu_ps(out + 7 * out_stride,
                   _mm256_permute2f128_ps(s3, s7, 0x31));
}

void Transpose2DAvx2(float* out, const float* in, int64_t rows,
                     int64_t cols) {
  int64_t i = 0;
  for (; i + kLanes <= rows; i += kLanes) {
    int64_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      Transpose8x8Avx2(in + i * cols + j, cols, out + j * rows + i, rows);
    }
    for (; j < cols; ++j) {
      for (int64_t ii = i; ii < i + kLanes; ++ii) {
        out[j * rows + ii] = in[ii * cols + j];
      }
    }
  }
  for (; i < rows; ++i) {
    const float* src = in + i * cols;
    for (int64_t j = 0; j < cols; ++j) out[j * rows + i] = src[j];
  }
}

// ---- fused multi-head attention ----
//
// Per head, query rows go in blocks of R ≤ 4: the scores, the softmax passes
// and the P·V sums of the block's rows are four independent dependency
// chains, where one row at a time waits on each vaddps/vmaxps. Each output
// element still sees the scalar backend's exact op sequence:
//  * scores and P·V: 0, then += a·b in ascending p (or j), mul then add;
//  * softmax: the Max/ExpSubSum lane contract — lane l takes elements l,
//    l+8, ..., the n % 8 tail feeds lanes 0..n%8−1 (here one masked vector,
//    blended into the accumulators), then the ReduceLanes trees;
//  * the zero-skips: an accumulator starts at +0 and a sum reaches −0 only
//    from two −0s, so it is never −0 and adding ±0 leaves it unchanged.
//    Skipping a zero factor therefore changes nothing when the other factor
//    is finite (0·inf would be NaN), so with all of Kᵀ and V finite the
//    loops add every product, branch-free. Other inputs (whose outputs are
//    NaN or inf anyway) go to the scalar reference kernel.
// The `#pragma GCC unroll 4` on every loop over the R rows makes GCC unroll
// it early enough to keep the R accumulators in registers; without it they
// live on the stack and each step waits on a store and a reload.

bool AllFiniteAvx2(const float* x, int64_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf = _mm256_set1_ps(HUGE_VALF);
  __m256 bad = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask);
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(a, inf, _CMP_NLT_UQ));
  }
  if (_mm256_movemask_ps(bad) != 0) return false;
  for (; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

// ExpAvx2 for lanes that hold no NaN and are ≤ 0 (x − max of a row with no
// NaN and a finite max). On such lanes the overflow blend, the NaN blend and
// the upper clamp cannot change the result, so they are left out; the
// underflow blend and the lower clamp stay.
inline __m256 ExpNonPositiveAvx2(__m256 x) {
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 small_mask = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);
  const __m256 y = ExpClampedAvx2(_mm256_max_ps(x, lo));
  return _mm256_blendv_ps(y, _mm256_setzero_ps(), small_mask);
}

// One 8-column strip of R score rows: s[r][0..8) = scale · Σ_p q_r[p]·kp[p].
// q rows have stride `dim`, kp (a strip of Kᵀ) and s rows stride `len`.
template <int R, bool kMasked>
inline void AttnScoreStrip(float* s, const float* q, int64_t dim,
                           const float* kp, int64_t hd, int64_t len,
                           __m256 vscale, __m256i mask) {
  __m256 acc[R];
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (int64_t p = 0; p < hd; ++p, kp += len) {
    const __m256 kv =
        kMasked ? _mm256_maskload_ps(kp, mask) : _mm256_loadu_ps(kp);
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_add_ps(
          acc[r], _mm256_mul_ps(_mm256_set1_ps(q[r * dim + p]), kv));
    }
  }
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    const __m256 out = _mm256_mul_ps(acc[r], vscale);
    if (kMasked) {
      _mm256_maskstore_ps(s + r * len, mask, out);
    } else {
      _mm256_storeu_ps(s + r * len, out);
    }
  }
}

template <int R>
inline void AttnScoresAvx2(float* s, const float* q, int64_t dim,
                           const float* kth, int64_t hd, int64_t len,
                           float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t j = 0;
  for (; j + kLanes <= len; j += kLanes) {
    AttnScoreStrip<R, false>(s + j, q, dim, kth + j, hd, len, vscale, all);
  }
  if (j < len) {
    AttnScoreStrip<R, true>(s + j, q, dim, kth + j, hd, len, vscale,
                            TailMask(len - j));
  }
}

// ExpSubSum over R rows at once; returns each row's lane accumulators.
template <int R, bool kFast>
inline void AttnExpPass(float* s, int64_t len, const float* mx,
                        __m256* sum) {
  const int64_t main_end = MainEnd(len);
  __m256 vmx[R];
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    vmx[r] = _mm256_set1_ps(mx[r]);
    sum[r] = _mm256_setzero_ps();
  }
  for (int64_t j = 0; j < main_end; j += kLanes) {
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* x = s + r * len + j;
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x), vmx[r]);
      const __m256 e = kFast ? ExpNonPositiveAvx2(d) : ExpAvx2(d);
      _mm256_storeu_ps(x, e);
      sum[r] = _mm256_add_ps(sum[r], e);
    }
  }
  if (main_end < len) {
    const __m256i mask = TailMask(len - main_end);
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* x = s + r * len + main_end;
      const __m256 d = _mm256_sub_ps(_mm256_maskload_ps(x, mask), vmx[r]);
      const __m256 e = kFast ? ExpNonPositiveAvx2(d) : ExpAvx2(d);
      _mm256_maskstore_ps(x, mask, e);
      sum[r] = _mm256_blendv_ps(sum[r], _mm256_add_ps(sum[r], e),
                                _mm256_castsi256_ps(mask));
    }
  }
}

// SoftmaxRows on R rows of s (stride len): Max, ExpSubSum, Scale(1/sum).
template <int R>
inline void AttnSoftmaxAvx2(float* s, int64_t len) {
  const int64_t main_end = MainEnd(len);
  __m256 m[R];
  __m256 nan = _mm256_setzero_ps();
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) m[r] = _mm256_set1_ps(s[r * len]);
  for (int64_t j = 0; j < main_end; j += kLanes) {
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 x = _mm256_loadu_ps(s + r * len + j);
      nan = _mm256_or_ps(nan, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
      m[r] = _mm256_max_ps(m[r], x);
    }
  }
  if (main_end < len) {
    const __m256i mask = TailMask(len - main_end);
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      // Dead lanes load as 0: never NaN, and the blend drops their max.
      const __m256 x = _mm256_maskload_ps(s + r * len + main_end, mask);
      nan = _mm256_or_ps(nan, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
      m[r] = _mm256_blendv_ps(m[r], _mm256_max_ps(m[r], x),
                              _mm256_castsi256_ps(mask));
    }
  }
  // vmaxps(NaN, y) returns y, so a finite max does not rule out a NaN in
  // the row; the unordered scan does.
  float mx[R];
  bool fast = _mm256_movemask_ps(nan) == 0;
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    alignas(32) float acc[kLanes];
    _mm256_store_ps(acc, m[r]);
    mx[r] = ReduceLanesMax(acc);
    fast = fast && std::isfinite(mx[r]);
  }
  __m256 sum[R];
  if (fast) {
    AttnExpPass<R, true>(s, len, mx, sum);
  } else {
    AttnExpPass<R, false>(s, len, mx, sum);
  }
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    alignas(32) float acc[kLanes];
    _mm256_store_ps(acc, sum[r]);
    const __m256 inv = _mm256_set1_ps(1.0f / ReduceLanes(acc));
    float* x = s + r * len;
    int64_t j = 0;
    for (; j < main_end; j += kLanes) {
      _mm256_storeu_ps(x + j, _mm256_mul_ps(_mm256_loadu_ps(x + j), inv));
    }
    if (j < len) {
      const __m256i mask = TailMask(len - j);
      _mm256_maskstore_ps(
          x + j, mask, _mm256_mul_ps(_mm256_maskload_ps(x + j, mask), inv));
    }
  }
}

// One ≤8-column strip of R output rows: o_r = Σ_j P'_r[j]·v_j over the
// strip. p and keep rows have stride len; v rows and o rows stride dim.
template <int R, bool kKeep, bool kMasked>
inline void AttnValueStrip(float* o, int64_t dim, const float* p,
                           const float* keep, int64_t len, const float* vp,
                           __m256i mask) {
  __m256 acc[R];
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (int64_t j = 0; j < len; ++j, vp += dim) {
    const __m256 vv =
        kMasked ? _mm256_maskload_ps(vp, mask) : _mm256_loadu_ps(vp);
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float pv = kKeep ? p[r * len + j] * keep[r * len + j]
                             : p[r * len + j];
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(pv), vv));
    }
  }
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    if (kMasked) {
      _mm256_maskstore_ps(o + r * dim, mask, acc[r]);
    } else {
      _mm256_storeu_ps(o + r * dim, acc[r]);
    }
  }
}

template <int R, bool kKeep>
inline void AttnValuesAvx2(float* o, int64_t dim, const float* p,
                           const float* keep, int64_t len, const float* v,
                           int64_t hd) {
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t c = 0;
  for (; c + kLanes <= hd; c += kLanes) {
    AttnValueStrip<R, kKeep, false>(o + c, dim, p, keep, len, v + c, all);
  }
  if (c < hd) {
    AttnValueStrip<R, kKeep, true>(o + c, dim, p, keep, len, v + c,
                                   TailMask(hd - c));
  }
}

// The four steps for query rows [i0, i0 + R) of head h.
template <int R>
void AttnRowBlockAvx2(float* out, float* probs, const float* q,
                      const float* kt, const float* v, const float* keep,
                      int64_t len, int64_t dim, int64_t hd, int64_t h,
                      int64_t i0, float scale) {
  const int64_t col = h * hd;
  float* s = probs + (h * len + i0) * len;
  AttnScoresAvx2<R>(s, q + i0 * dim + col, dim, kt + col * len, hd, len,
                    scale);
  AttnSoftmaxAvx2<R>(s, len);
  float* o = out + i0 * dim + col;
  if (keep != nullptr) {
    AttnValuesAvx2<R, true>(o, dim, s, keep + (h * len + i0) * len, len,
                            v + col, hd);
  } else {
    AttnValuesAvx2<R, false>(o, dim, s, nullptr, len, v + col, hd);
  }
}

void MultiHeadAttentionAvx2(float* out, float* probs, const float* q,
                            const float* kt, const float* v,
                            const float* keep, int64_t len, int64_t dim,
                            int64_t heads, float scale) {
  if (!AllFiniteAvx2(kt, dim * len) || !AllFiniteAvx2(v, len * dim)) {
    ScalarKernels().MultiHeadAttention(out, probs, q, kt, v, keep, len, dim,
                                       heads, scale);
    return;
  }
  const int64_t hd = dim / heads;
  for (int64_t h = 0; h < heads; ++h) {
    int64_t i0 = 0;
    for (; i0 + 4 <= len; i0 += 4) {
      AttnRowBlockAvx2<4>(out, probs, q, kt, v, keep, len, dim, hd, h, i0,
                          scale);
    }
    switch (len - i0) {
      case 3:
        AttnRowBlockAvx2<3>(out, probs, q, kt, v, keep, len, dim, hd, h, i0,
                            scale);
        break;
      case 2:
        AttnRowBlockAvx2<2>(out, probs, q, kt, v, keep, len, dim, hd, h, i0,
                            scale);
        break;
      case 1:
        AttnRowBlockAvx2<1>(out, probs, q, kt, v, keep, len, dim, hd, h, i0,
                            scale);
        break;
      default:
        break;
    }
  }
}

constexpr KernelTable kAvx2Table = {
    .backend = Backend::kAvx2,
    .Dot = DotAvx2,
    .Sum = SumAvx2,
    .SumSq = SumSqAvx2,
    .CenteredSumSq = CenteredSumSqAvx2,
    .Max = MaxAvx2,
    .Add = AddAvx2,
    .Sub = SubAvx2,
    .Mul = MulAvx2,
    .Scale = ScaleAvx2,
    .AddScalar = AddScalarAvx2,
    .Axpy = AxpyAvx2,
    .MulAdd = MulAddAvx2,
    .MatMulBlockAxpy = MatMulBlockAxpyAvx2,
    .MatMulBlockDot = MatMulBlockDotAvx2,
    .ExpSubSum = ExpSubSumAvx2,
    .ExpSubSumConst = ExpSubSumConstAvx2,
    .Gelu = GeluKernelAvx2,
    .Relu = ReluAvx2,
    .Tanh = TanhKernelAvx2,
    .Sigmoid = SigmoidKernelAvx2,
    .GeluBackward = GeluBackwardAvx2,
    .TanhBackward = TanhBackwardAvx2,
    .SigmoidBackward = SigmoidBackwardAvx2,
    .SoftmaxBackwardRow = SoftmaxBackwardRowAvx2,
    .LayerNormForwardRow = LayerNormForwardRowAvx2,
    .MinMax = MinMaxAvx2,
    .Int8QuantizeRow = Int8QuantizeRowAvx2,
    .Int8GemmDequant = Int8GemmDequantAvx2,
    .Transpose2D = Transpose2DAvx2,
    .MultiHeadAttention = MultiHeadAttentionAvx2,
};
static_assert(AllKernelsSet(kAvx2Table),
              "the AVX2 backend leaves a listed kernel unset");

}  // namespace

namespace internal {
const KernelTable& Avx2KernelTable() { return kAvx2Table; }
}  // namespace internal

}  // namespace kernels
}  // namespace emba
