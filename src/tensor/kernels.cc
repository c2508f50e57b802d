// Backend resolution: EMBA_SIMD override → cpuid feature check → scalar.
// Resolved once per process and cached; ForceBackend/ResetBackend exist for
// tests and benches that need to pin or compare backends explicitly.
//
// Observability: when the metrics registry is enabled (util/metrics) at
// resolution time, the dispatched table is wrapped in a counting shim — one
// relaxed atomic increment per kernel call, per kernel ("kernels.calls.*").
// The shim is never installed when metrics are off, so the default hot path
// is exactly the raw function-pointer call it was before. The resolved
// backend is exported as the "kernels.backend_avx2" gauge and a one-shot
// "kernels/dispatch" trace span.
#include "tensor/kernels.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace emba {
namespace kernels {

#ifdef EMBA_HAVE_AVX2_TU
namespace internal {
const KernelTable& Avx2KernelTable();  // defined in kernels_avx2.cc
}
#endif

namespace {

std::atomic<const KernelTable*> g_active{nullptr};

bool EqualsIgnoreCase(const char* a, const char* b) {
  for (;; ++a, ++b) {
    int ca = std::tolower(static_cast<unsigned char>(*a));
    int cb = std::tolower(static_cast<unsigned char>(*b));
    if (ca != cb) return false;
    if (ca == '\0') return true;
  }
}

#if defined(__x86_64__) || defined(__i386__)
uint64_t Xgetbv0() {
  uint32_t eax, edx;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}
#endif

// ---------------------------------------------------------------------------
// Counting shim: the EMBA_KERNEL_LIST table whose every entry bumps its
// "kernels.calls.<metric>" counter, then calls the same entry of the wrapped
// base table. Only installed when metrics::Enabled() during resolution, so
// it costs nothing in ordinary runs.

// KernelTable rebuilt from the list alone: a row naming no member fails to
// compile here, and a member without a row makes the sizes differ.
struct KernelTableFromList {
  Backend backend;
#define EMBA_KERNEL_SLOT(Member, metric) decltype(KernelTable::Member) Member;
  EMBA_KERNEL_LIST(EMBA_KERNEL_SLOT)
#undef EMBA_KERNEL_SLOT
};
static_assert(sizeof(KernelTable) == sizeof(KernelTableFromList),
              "a KernelTable member has no EMBA_KERNEL_LIST row");

std::atomic<const KernelTable*> g_counted_base{nullptr};

// One forwarder per list row, instantiated over the row's member pointer.
template <auto Member, typename Fn>
struct Counted;

template <auto Member, typename R, typename... Args>
struct Counted<Member, R (*)(Args...)> {
  static inline const char* counter_name = nullptr;  // set by Install

  // Resolves the registry counter on first call, then pays one relaxed
  // fetch_add per call.
  static R Call(Args... args) {
    static metrics::Counter& calls = metrics::GetCounter(counter_name);
    calls.Increment();
    return (g_counted_base.load(std::memory_order_relaxed)->*Member)(args...);
  }

  static auto Install(const char* name) {
    counter_name = name;
    return &Call;
  }
};

// The shim table itself; `backend` mirrors the wrapped base so
// ActiveBackend()/BackendName stay truthful.
const KernelTable* CountedKernels(const KernelTable* base) {
  g_counted_base.store(base, std::memory_order_release);
  static KernelTable table = [] {
    KernelTable t{};
#define EMBA_COUNTED_ENTRY(Member, metric)                            \
  t.Member = Counted<&KernelTable::Member, decltype(t.Member)>::Install( \
      "kernels.calls." metric);
    EMBA_KERNEL_LIST(EMBA_COUNTED_ENTRY)
#undef EMBA_COUNTED_ENTRY
    return t;
  }();
  table.backend = base->backend;
  return &table;
}

void PublishBackendGauge(const KernelTable* table) {
  metrics::GetGauge("kernels.backend_avx2")
      .Set(table->backend == Backend::kAvx2 ? 1.0 : 0.0);
}

const KernelTable* ResolveBackend() {
  EMBA_TRACE_SPAN("kernels/dispatch");
  const KernelTable* resolved = nullptr;
  const char* env = std::getenv("EMBA_SIMD");
  if (env != nullptr) {
    if (SimdDisabledByEnvValue(env)) {
      resolved = &ScalarKernels();
    } else if (EqualsIgnoreCase(env, "avx2") || EqualsIgnoreCase(env, "on") ||
               EqualsIgnoreCase(env, "1")) {
      const KernelTable* avx2 = Avx2KernelsOrNull();
      if (avx2 != nullptr && CpuSupportsAvx2()) {
        resolved = avx2;
      } else {
        EMBA_LOG(WARN) << "EMBA_SIMD=" << env
                       << " requested but the AVX2 backend is unavailable "
                          "(build or CPU); using scalar kernels";
        resolved = &ScalarKernels();
      }
    }
    // Unrecognized value: fall through to auto.
  }
  if (resolved == nullptr) {
    const KernelTable* avx2 = Avx2KernelsOrNull();
    resolved =
        (avx2 != nullptr && CpuSupportsAvx2()) ? avx2 : &ScalarKernels();
  }
  PublishBackendGauge(resolved);
  // Per-kernel call counting only when the metrics registry is live at
  // resolution time (tests toggle and then ResetBackend()).
  if (metrics::Enabled()) return CountedKernels(resolved);
  return resolved;
}

}  // namespace

const char* BackendName(Backend b) {
  return b == Backend::kAvx2 ? "avx2" : "scalar";
}

const KernelTable* Avx2KernelsOrNull() {
#ifdef EMBA_HAVE_AVX2_TU
  return &internal::Avx2KernelTable();
#else
  return nullptr;
#endif
}

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave || !avx || !fma) return false;
  // OS must enable XMM+YMM state saving before AVX is usable.
  if ((Xgetbv0() & 0x6) != 0x6) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0;  // AVX2
#else
  return false;
#endif
}

bool SimdDisabledByEnvValue(const char* value) {
  if (value == nullptr) return false;
  return EqualsIgnoreCase(value, "off") || EqualsIgnoreCase(value, "0") ||
         EqualsIgnoreCase(value, "scalar") || EqualsIgnoreCase(value, "false");
}

const KernelTable& Active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    t = ResolveBackend();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

Backend ActiveBackend() { return Active().backend; }

void ForceBackend(Backend b) {
  if (b == Backend::kAvx2) {
    const KernelTable* avx2 = Avx2KernelsOrNull();
    EMBA_CHECK_MSG(avx2 != nullptr && CpuSupportsAvx2(),
                   "ForceBackend(kAvx2): AVX2 backend unavailable");
    PublishBackendGauge(avx2);
    g_active.store(avx2, std::memory_order_release);
    return;
  }
  PublishBackendGauge(&ScalarKernels());
  g_active.store(&ScalarKernels(), std::memory_order_release);
}

void ResetBackend() {
  g_active.store(ResolveBackend(), std::memory_order_release);
}

void Int8PackWeights(int8_t* packed, const int8_t* wq_t, int64_t k,
                     int64_t n) {
  const int64_t groups = Int8PaddedK(k) / 4;
  const int64_t blocks = Int8PackedCols(n) / 8;
  std::memset(packed, 0, static_cast<size_t>(blocks * groups * 32));
  for (int64_t j = 0; j < n; ++j) {
    const int8_t* src = wq_t + j * k;
    int8_t* dst = packed + (j / 8) * groups * 32 + (j % 8) * 4;
    for (int64_t p = 0; p < k; ++p) dst[(p / 4) * 32 + (p % 4)] = src[p];
  }
}

}  // namespace kernels
}  // namespace emba
