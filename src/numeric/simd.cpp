#include "numeric/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define AFP_X86 1
#include <immintrin.h>
#endif

namespace afp::num {

namespace {

// ===================================================================== scalar
//
// PR 1's register-blocked loops, generalized with leading dimensions.  These
// are also the portable fallback on non-x86 builds.

void s_gemm_nn_rows(std::int64_t i0, std::int64_t i1, std::int64_t K,
                    std::int64_t N, const float* A, std::int64_t lda,
                    const float* B, std::int64_t ldb, float* C,
                    std::int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (std::int64_t i = i0; i < i1; ++i)
      std::fill(C + i * ldc, C + i * ldc + N, 0.0f);
  }
  std::int64_t i = i0;
  // Blocked over 4 output rows: each B row is loaded once per 4 C-row
  // updates with the C rows hot in L1.
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = A + i * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    float* c0 = C + i * ldc;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    for (std::int64_t k = 0; k < K; ++k) {
      const float* b = B + k * ldb;
      const float v0 = a0[k], v1 = a1[k], v2 = a2[k], v3 = a3[k];
      for (std::int64_t j = 0; j < N; ++j) {
        const float bv = b[j];
        c0[j] += v0 * bv;
        c1[j] += v1 * bv;
        c2[j] += v2 * bv;
        c3[j] += v3 * bv;
      }
    }
  }
  // Remainder rows: plain ikj with the exact same per-element operation
  // sequence (k ascending, one accumulator), so results do not depend on
  // where parallel_for chunk boundaries fall.
  for (; i < i1; ++i) {
    const float* a = A + i * lda;
    float* c = C + i * ldc;
    for (std::int64_t k = 0; k < K; ++k) {
      const float av = a[k];
      const float* b = B + k * ldb;
      for (std::int64_t j = 0; j < N; ++j) c[j] += av * b[j];
    }
  }
}

void s_gemm_nt_rows(std::int64_t i0, std::int64_t i1, std::int64_t K,
                    std::int64_t N, const float* A, std::int64_t lda,
                    const float* B, std::int64_t ldb, float* C,
                    std::int64_t ldc, bool accumulate) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* a = A + i * lda;
    float* c = C + i * ldc;
    for (std::int64_t j = 0; j < N; ++j) {
      const float* b = B + j * ldb;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      std::int64_t k = 0;
      for (; k + 4 <= K; k += 4) {
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
      }
      float s = (s0 + s1) + (s2 + s3);
      for (; k < K; ++k) s += a[k] * b[k];
      if (accumulate) c[j] += s;
      else c[j] = s;
    }
  }
}

void s_gemm_tn_rows(std::int64_t k0, std::int64_t k1, std::int64_t M,
                    std::int64_t N, const float* A, std::int64_t lda,
                    const float* B, std::int64_t ldb, float* C,
                    std::int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (std::int64_t k = k0; k < k1; ++k)
      std::fill(C + k * ldc, C + k * ldc + N, 0.0f);
  }
  std::int64_t k = k0;
  // Blocked over 4 output rows so the A column reads become contiguous
  // 4-float loads.
  for (; k + 4 <= k1; k += 4) {
    float* c0 = C + k * ldc;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    for (std::int64_t i = 0; i < M; ++i) {
      const float* a = A + i * lda + k;
      const float v0 = a[0], v1 = a[1], v2 = a[2], v3 = a[3];
      const float* b = B + i * ldb;
      for (std::int64_t j = 0; j < N; ++j) {
        const float bv = b[j];
        c0[j] += v0 * bv;
        c1[j] += v1 * bv;
        c2[j] += v2 * bv;
        c3[j] += v3 * bv;
      }
    }
  }
  // Remainder rows: same per-element sequence as the blocked path.
  for (; k < k1; ++k) {
    float* c = C + k * ldc;
    for (std::int64_t i = 0; i < M; ++i) {
      const float av = A[i * lda + k];
      const float* b = B + i * ldb;
      for (std::int64_t j = 0; j < N; ++j) c[j] += av * b[j];
    }
  }
}

void s_add(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void s_sub(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void s_mul(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void s_scale(const float* a, float s, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void s_acc(float* dst, const float* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}
void s_acc_scaled(float* dst, const float* src, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += s * src[i];
}
void s_acc_mul(float* dst, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}
void s_acc_const(float* dst, float c, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += c;
}
void s_relu(const float* x, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::max(0.0f, x[i]);
}
void s_relu_bwd_acc(const float* x, const float* g, float* gx,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    if (x[i] > 0.0f) gx[i] += g[i];
}
void s_bias_relu_row(const float* y, const float* bias, float* o,
                     std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::max(0.0f, y[i] + bias[i]);
}

float s_reduce_sum(const float* x, std::int64_t n) {
  float s = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) s += x[i];
  return s;
}
float s_reduce_max(const float* x, std::int64_t n) {
  float m = x[0];
  for (std::int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}
float s_dot(const float* a, const float* b, std::int64_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void s_softmax_row(const float* in, float* o, std::int64_t n) {
  const float mx = s_reduce_max(in, n);
  float denom = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    o[i] = std::exp(in[i] - mx);
    denom += o[i];
  }
  s_scale(o, 1.0f / denom, o, n);
}

void s_log_softmax_row(const float* in, float* o, std::int64_t n) {
  const float mx = s_reduce_max(in, n);
  float denom = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) denom += std::exp(in[i] - mx);
  const float lse = mx + std::log(denom);
  for (std::int64_t i = 0; i < n; ++i) o[i] = in[i] - lse;
}

constexpr simd::Kernels kScalarKernels = {
    s_gemm_nn_rows, s_gemm_nt_rows, s_gemm_tn_rows,
    s_add,          s_sub,          s_mul,
    s_scale,        s_acc,          s_acc_scaled,
    s_acc_mul,      s_acc_const,    s_relu,
    s_relu_bwd_acc, s_bias_relu_row,
    s_reduce_sum,   s_reduce_max,   s_dot,
    s_softmax_row,  s_log_softmax_row,
};

// ======================================================================= AVX2
//
// Each function carries a target attribute so the translation unit builds
// without global -mavx2 flags; the table below is only installed after a
// runtime __builtin_cpu_supports check.
//
// Determinism: every output element is accumulated in a fixed order (GEMM:
// k/i ascending into one accumulator lane; reductions: a fixed lane scheme
// that depends only on n).  Which register-blocking variant covers an output
// row may change with chunk boundaries, but all variants execute the same
// per-element FP sequence, so values are thread-count independent.

#if defined(AFP_X86) && (defined(__GNUC__) || defined(__clang__))
#define AFP_HAVE_AVX2_BUILD 1
#define AFP_AVX2 __attribute__((target("avx2,fma")))

AFP_AVX2 inline float hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x1);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

AFP_AVX2 inline float hmax256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_max_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x1);
  lo = _mm_max_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

/// One C row of gemm_nn/gemm_tn: c[0:N] += sum_t coeff(t) * B[t*ldb + 0:N],
/// where coeff(t) = A[t * astride].  t is the contraction index (k for nn
/// with astride 1, i for tn with astride lda).
AFP_AVX2 inline void rank_update_row(std::int64_t T, std::int64_t N,
                                     const float* A, std::int64_t astride,
                                     const float* B, std::int64_t ldb,
                                     float* c) {
  std::int64_t j = 0;
  for (; j + 16 <= N; j += 16) {
    __m256 acc0 = _mm256_loadu_ps(c + j);
    __m256 acc1 = _mm256_loadu_ps(c + j + 8);
    for (std::int64_t t = 0; t < T; ++t) {
      const __m256 av = _mm256_set1_ps(A[t * astride]);
      const float* b = B + t * ldb + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + 8), acc1);
    }
    _mm256_storeu_ps(c + j, acc0);
    _mm256_storeu_ps(c + j + 8, acc1);
  }
  for (; j + 8 <= N; j += 8) {
    __m256 acc = _mm256_loadu_ps(c + j);
    for (std::int64_t t = 0; t < T; ++t) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(A[t * astride]),
                            _mm256_loadu_ps(B + t * ldb + j), acc);
    }
    _mm256_storeu_ps(c + j, acc);
  }
  for (; j < N; ++j) {
    float s = c[j];
    for (std::int64_t t = 0; t < T; ++t)
      s = std::fma(A[t * astride], B[t * ldb + j], s);
    c[j] = s;
  }
}

/// Four C rows at once: B rows are loaded once per 4 C-row updates.  The
/// per-element FP sequence (t ascending, one fused accumulator) matches
/// rank_update_row exactly.
AFP_AVX2 inline void rank_update_row4(std::int64_t T, std::int64_t N,
                                      const float* A, std::int64_t arow,
                                      std::int64_t astride, const float* B,
                                      std::int64_t ldb, float* c0,
                                      std::int64_t ldc) {
  float* c1 = c0 + ldc;
  float* c2 = c1 + ldc;
  float* c3 = c2 + ldc;
  std::int64_t j = 0;
  for (; j + 8 <= N; j += 8) {
    __m256 a0 = _mm256_loadu_ps(c0 + j);
    __m256 a1 = _mm256_loadu_ps(c1 + j);
    __m256 a2 = _mm256_loadu_ps(c2 + j);
    __m256 a3 = _mm256_loadu_ps(c3 + j);
    for (std::int64_t t = 0; t < T; ++t) {
      const __m256 bv = _mm256_loadu_ps(B + t * ldb + j);
      const float* a = A + t * astride;
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(a[0 * arow]), bv, a0);
      a1 = _mm256_fmadd_ps(_mm256_set1_ps(a[1 * arow]), bv, a1);
      a2 = _mm256_fmadd_ps(_mm256_set1_ps(a[2 * arow]), bv, a2);
      a3 = _mm256_fmadd_ps(_mm256_set1_ps(a[3 * arow]), bv, a3);
    }
    _mm256_storeu_ps(c0 + j, a0);
    _mm256_storeu_ps(c1 + j, a1);
    _mm256_storeu_ps(c2 + j, a2);
    _mm256_storeu_ps(c3 + j, a3);
  }
  for (; j < N; ++j) {
    float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
    for (std::int64_t t = 0; t < T; ++t) {
      const float* a = A + t * astride;
      const float bv = B[t * ldb + j];
      s0 = std::fma(a[0 * arow], bv, s0);
      s1 = std::fma(a[1 * arow], bv, s1);
      s2 = std::fma(a[2 * arow], bv, s2);
      s3 = std::fma(a[3 * arow], bv, s3);
    }
    c0[j] = s0;
    c1[j] = s1;
    c2[j] = s2;
    c3[j] = s3;
  }
}

AFP_AVX2 void v_gemm_nn_rows(std::int64_t i0, std::int64_t i1, std::int64_t K,
                             std::int64_t N, const float* A, std::int64_t lda,
                             const float* B, std::int64_t ldb, float* C,
                             std::int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (std::int64_t i = i0; i < i1; ++i)
      std::memset(C + i * ldc, 0, static_cast<std::size_t>(N) * sizeof(float));
  }
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4)
    rank_update_row4(K, N, A + i * lda, /*arow=*/lda, /*astride=*/1, B, ldb,
                     C + i * ldc, ldc);
  for (; i < i1; ++i)
    rank_update_row(K, N, A + i * lda, /*astride=*/1, B, ldb, C + i * ldc);
}

AFP_AVX2 void v_gemm_tn_rows(std::int64_t k0, std::int64_t k1, std::int64_t M,
                             std::int64_t N, const float* A, std::int64_t lda,
                             const float* B, std::int64_t ldb, float* C,
                             std::int64_t ldc, bool accumulate) {
  if (!accumulate) {
    for (std::int64_t k = k0; k < k1; ++k)
      std::memset(C + k * ldc, 0, static_cast<std::size_t>(N) * sizeof(float));
  }
  std::int64_t k = k0;
  for (; k + 4 <= k1; k += 4)
    rank_update_row4(M, N, A + k, /*arow=*/1, /*astride=*/lda, B, ldb,
                     C + k * ldc, ldc);
  for (; k < k1; ++k)
    rank_update_row(M, N, A + k, /*astride=*/lda, B, ldb, C + k * ldc);
}

/// dot(a, b) over [0, K): one 8-lane fused accumulator, k ascending, fixed
/// horizontal-sum sequence, scalar fma tail.
AFP_AVX2 inline float dot_avx2(const float* a, const float* b,
                               std::int64_t K) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t k = 0;
  for (; k + 8 <= K; k += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k), acc);
  float s = hsum256(acc);
  for (; k < K; ++k) s = std::fma(a[k], b[k], s);
  return s;
}

AFP_AVX2 void v_gemm_nt_rows(std::int64_t i0, std::int64_t i1, std::int64_t K,
                             std::int64_t N, const float* A, std::int64_t lda,
                             const float* B, std::int64_t ldb, float* C,
                             std::int64_t ldc, bool accumulate) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* a = A + i * lda;
    float* c = C + i * ldc;
    std::int64_t j = 0;
    // 4 dots share each A load; every dot keeps its own single accumulator
    // so the per-element sequence matches the 1-dot tail exactly.
    for (; j + 4 <= N; j += 4) {
      const float* b0 = B + j * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      __m256 q0 = _mm256_setzero_ps(), q1 = _mm256_setzero_ps();
      __m256 q2 = _mm256_setzero_ps(), q3 = _mm256_setzero_ps();
      std::int64_t k = 0;
      for (; k + 8 <= K; k += 8) {
        const __m256 av = _mm256_loadu_ps(a + k);
        q0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + k), q0);
        q1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + k), q1);
        q2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + k), q2);
        q3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + k), q3);
      }
      float s0 = hsum256(q0), s1 = hsum256(q1), s2 = hsum256(q2),
            s3 = hsum256(q3);
      for (; k < K; ++k) {
        const float av = a[k];
        s0 = std::fma(av, b0[k], s0);
        s1 = std::fma(av, b1[k], s1);
        s2 = std::fma(av, b2[k], s2);
        s3 = std::fma(av, b3[k], s3);
      }
      if (accumulate) {
        c[j] += s0;
        c[j + 1] += s1;
        c[j + 2] += s2;
        c[j + 3] += s3;
      } else {
        c[j] = s0;
        c[j + 1] = s1;
        c[j + 2] = s2;
        c[j + 3] = s3;
      }
    }
    for (; j < N; ++j) {
      const float s = dot_avx2(a, B + j * ldb, K);
      if (accumulate) c[j] += s;
      else c[j] = s;
    }
  }
}

AFP_AVX2 void v_add(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i,
                     _mm256_add_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

AFP_AVX2 void v_sub(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i,
                     _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

AFP_AVX2 void v_mul(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i,
                     _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

AFP_AVX2 void v_scale(const float* a, float s, float* o, std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), sv));
  for (; i < n; ++i) o[i] = a[i] * s;
}

AFP_AVX2 void v_acc(float* dst, const float* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] += src[i];
}

AFP_AVX2 void v_acc_scaled(float* dst, const float* src, float s,
                           std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_fmadd_ps(sv, _mm256_loadu_ps(src + i),
                                              _mm256_loadu_ps(dst + i)));
  for (; i < n; ++i) dst[i] = std::fma(s, src[i], dst[i]);
}

AFP_AVX2 void v_acc_mul(float* dst, const float* a, const float* b,
                        std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i,
                     _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                     _mm256_loadu_ps(b + i),
                                     _mm256_loadu_ps(dst + i)));
  for (; i < n; ++i) dst[i] = std::fma(a[i], b[i], dst[i]);
}

AFP_AVX2 void v_acc_const(float* dst, float c, std::int64_t n) {
  const __m256 cv = _mm256_set1_ps(c);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), cv));
  for (; i < n; ++i) dst[i] += c;
}

AFP_AVX2 void v_relu(const float* x, float* o, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  for (; i < n; ++i) o[i] = std::max(0.0f, x[i]);
}

AFP_AVX2 void v_relu_bwd_acc(const float* x, const float* g, float* gx,
                             std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    const __m256 gm = _mm256_and_ps(_mm256_loadu_ps(g + i), mask);
    _mm256_storeu_ps(gx + i, _mm256_add_ps(_mm256_loadu_ps(gx + i), gm));
  }
  for (; i < n; ++i)
    if (x[i] > 0.0f) gx[i] += g[i];
}

AFP_AVX2 void v_bias_relu_row(const float* y, const float* bias, float* o,
                              std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        o + i, _mm256_max_ps(_mm256_add_ps(_mm256_loadu_ps(y + i),
                                           _mm256_loadu_ps(bias + i)),
                             zero));
  for (; i < n; ++i) o[i] = std::max(0.0f, y[i] + bias[i]);
}

AFP_AVX2 float v_reduce_sum(const float* x, std::int64_t n) {
  __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    a0 = _mm256_add_ps(a0, _mm256_loadu_ps(x + i));
    a1 = _mm256_add_ps(a1, _mm256_loadu_ps(x + i + 8));
    a2 = _mm256_add_ps(a2, _mm256_loadu_ps(x + i + 16));
    a3 = _mm256_add_ps(a3, _mm256_loadu_ps(x + i + 24));
  }
  for (; i + 8 <= n; i += 8) a0 = _mm256_add_ps(a0, _mm256_loadu_ps(x + i));
  float s = hsum256(_mm256_add_ps(_mm256_add_ps(a0, a1),
                                  _mm256_add_ps(a2, a3)));
  for (; i < n; ++i) s += x[i];
  return s;
}

AFP_AVX2 float v_reduce_max(const float* x, std::int64_t n) {
  float m = x[0];
  std::int64_t i = 0;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8)
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
    m = hmax256(vm);
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

AFP_AVX2 float v_dot(const float* a, const float* b, std::int64_t n) {
  return dot_avx2(a, b, n);
}

AFP_AVX2 void v_softmax_row(const float* in, float* o, std::int64_t n) {
  const float mx = v_reduce_max(in, n);
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::exp(in[i] - mx);
  const float denom = v_reduce_sum(o, n);
  v_scale(o, 1.0f / denom, o, n);
}

AFP_AVX2 void v_log_softmax_row(const float* in, float* o, std::int64_t n) {
  const float mx = v_reduce_max(in, n);
  float denom = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) denom += std::exp(in[i] - mx);
  const float lse = mx + std::log(denom);
  const __m256 lv = _mm256_set1_ps(lse);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(in + i), lv));
  for (; i < n; ++i) o[i] = in[i] - lse;
}

constexpr simd::Kernels kAvx2Kernels = {
    v_gemm_nn_rows, v_gemm_nt_rows, v_gemm_tn_rows,
    v_add,          v_sub,          v_mul,
    v_scale,        v_acc,          v_acc_scaled,
    v_acc_mul,      v_acc_const,    v_relu,
    v_relu_bwd_acc, v_bias_relu_row,
    v_reduce_sum,   v_reduce_max,   v_dot,
    v_softmax_row,  v_log_softmax_row,
};

#endif  // AFP_HAVE_AVX2_BUILD

// ================================================================ tier state

/// Best tier the hardware (and this build) can run.
KernelTier resolve_auto() {
#ifdef AFP_HAVE_AVX2_BUILD
  if (cpu_supports_avx2()) return KernelTier::kAvx2;
#endif
  return KernelTier::kScalar;
}

KernelTier init_tier() {
  KernelTier t = resolve_auto();
  if (const char* s = std::getenv("AFP_KERNEL_TIER")) {
    KernelTier want;
    if (parse_kernel_tier(s, &want)) {
      if (want == KernelTier::kNaive || want == KernelTier::kScalar) t = want;
      // kAuto / avx2 (supported or not) keep the resolved default.
    }
  }
  return t;
}

/// The active tier; never kAuto.
KernelTier g_tier = init_tier();

}  // namespace

bool cpu_supports_avx2() {
#if defined(AFP_X86) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelTier kernel_tier() { return g_tier; }

void set_kernel_tier(KernelTier tier) {
  switch (tier) {
    case KernelTier::kNaive:
    case KernelTier::kScalar:
      g_tier = tier;
      return;
    case KernelTier::kAvx2:
    case KernelTier::kAuto:
      g_tier = resolve_auto();
      return;
  }
}

bool parse_kernel_tier(const char* s, KernelTier* out) {
  if (!s || !out) return false;
  const std::string_view v(s);
  if (v == "naive") *out = KernelTier::kNaive;
  else if (v == "scalar") *out = KernelTier::kScalar;
  else if (v == "avx2") *out = KernelTier::kAvx2;
  else if (v == "auto") *out = KernelTier::kAuto;
  else return false;
  return true;
}

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kNaive: return "naive";
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kAvx2: return "avx2";
    case KernelTier::kAuto: return "auto";
  }
  return "?";
}

namespace simd {

const Kernels& kernels() {
#ifdef AFP_HAVE_AVX2_BUILD
  if (g_tier == KernelTier::kAvx2) return kAvx2Kernels;
#endif
  return kScalarKernels;
}

}  // namespace simd
}  // namespace afp::num
