// Runtime-dispatched micro-kernel tiers for the numeric hot paths.
//
// Three tiers implement the same kernel contract:
//  - naive   : the original seed kernels (reference path; matmul/conv only,
//              everything else falls back to the scalar table).
//  - scalar  : PR 1's register-blocked scalar loops.  Portable; the compiler
//              may still auto-vectorize them at whatever ISA it targets.
//  - avx2    : explicit 8-lane AVX2+FMA intrinsics, compiled with per-function
//              target attributes so the binary stays runnable on any x86-64
//              (the AVX2 code is only *called* after a runtime CPUID check).
//
// Selection: AFP_KERNEL_TIER={naive,scalar,avx2,auto} at startup (default
// auto = avx2 when the CPU supports it, else scalar), overridable at runtime
// via set_kernel_tier().  Under the naive tier, matmul / conv2d /
// conv_transpose2d run the seed reference kernels instead of the blocked
// GEMM path and linear_relu decomposes into relu(linear(...)); the parity
// tests and bench_perf_core diff the fast tiers against it.
//
// Determinism contract (same as numeric/parallel.hpp): within a tier, every
// output element is produced by a fixed floating-point operation sequence
// that depends only on the operand shapes — never on the thread count or on
// parallel_for chunk boundaries.  Tiers may differ from each other by normal
// rounding variation; the parity tests bound that at 1e-4 relative.
#pragma once

#include <cstdint>

namespace afp::num {

enum class KernelTier : int { kNaive = 0, kScalar = 1, kAvx2 = 2, kAuto = 3 };

/// The tier ops currently dispatch to (never kAuto).
KernelTier kernel_tier();

/// Selects a tier.  kAuto re-resolves from the CPU; kAvx2 on a CPU without
/// AVX2 support falls back to kScalar.
void set_kernel_tier(KernelTier tier);

/// Parses "naive"/"scalar"/"avx2"/"auto".  Returns false on unknown input.
bool parse_kernel_tier(const char* s, KernelTier* out);

const char* kernel_tier_name(KernelTier tier);

/// True when the running CPU supports AVX2 + FMA.
bool cpu_supports_avx2();

namespace simd {

/// Micro-kernel table for one tier.  GEMM kernels operate on a row range of
/// the output so they can be called from inside a parallel_for body; all
/// matrices are row-major with explicit leading dimensions.
struct Kernels {
  /// C[i,:] (+)= A[i,:K] · B[K,N] for i in [i0, i1).
  void (*gemm_nn_rows)(std::int64_t i0, std::int64_t i1, std::int64_t K,
                       std::int64_t N, const float* A, std::int64_t lda,
                       const float* B, std::int64_t ldb, float* C,
                       std::int64_t ldc, bool accumulate);
  /// C[i,j] (+)= dot(A[i,:K], B[j,:K]) for i in [i0, i1), j in [0, N).
  void (*gemm_nt_rows)(std::int64_t i0, std::int64_t i1, std::int64_t K,
                       std::int64_t N, const float* A, std::int64_t lda,
                       const float* B, std::int64_t ldb, float* C,
                       std::int64_t ldc, bool accumulate);
  /// C[k,:] (+)= sum_i A[i,k] * B[i,:N] for k in [k0, k1), i in [0, M).
  void (*gemm_tn_rows)(std::int64_t k0, std::int64_t k1, std::int64_t M,
                       std::int64_t N, const float* A, std::int64_t lda,
                       const float* B, std::int64_t ldb, float* C,
                       std::int64_t ldc, bool accumulate);

  // Elementwise over [0, n).
  void (*add)(const float* a, const float* b, float* o, std::int64_t n);
  void (*sub)(const float* a, const float* b, float* o, std::int64_t n);
  void (*mul)(const float* a, const float* b, float* o, std::int64_t n);
  void (*scale)(const float* a, float s, float* o, std::int64_t n);
  /// dst += src
  void (*acc)(float* dst, const float* src, std::int64_t n);
  /// dst += s * src
  void (*acc_scaled)(float* dst, const float* src, float s, std::int64_t n);
  /// dst += a * b
  void (*acc_mul)(float* dst, const float* a, const float* b, std::int64_t n);
  /// dst += c
  void (*acc_const)(float* dst, float c, std::int64_t n);
  /// o = max(0, x)
  void (*relu)(const float* x, float* o, std::int64_t n);
  /// gx += (x > 0) ? g : 0
  void (*relu_bwd_acc)(const float* x, const float* g, float* gx,
                       std::int64_t n);
  /// o = max(0, y + bias) — the fused linear_relu epilogue for one row.
  void (*bias_relu_row)(const float* y, const float* bias, float* o,
                        std::int64_t n);

  float (*reduce_sum)(const float* x, std::int64_t n);
  float (*reduce_max)(const float* x, std::int64_t n);
  float (*dot)(const float* a, const float* b, std::int64_t n);

  /// o[:] = softmax(in[:]) over one row.
  void (*softmax_row)(const float* in, float* o, std::int64_t n);
  /// o[:] = log_softmax(in[:]) over one row.
  void (*log_softmax_row)(const float* in, float* o, std::int64_t n);
};

/// Table for the active tier.  The naive tier returns the scalar table —
/// naive-only code paths (seed matmul/conv) live in ops.cpp and are chosen
/// there by testing kernel_tier() == KernelTier::kNaive.
const Kernels& kernels();

}  // namespace simd
}  // namespace afp::num
