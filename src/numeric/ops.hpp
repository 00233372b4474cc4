// Differentiable operations over afp::num::Tensor.
//
// Shape conventions:
//  - 2-D tensors are [rows, cols], row-major.
//  - Images are NCHW: [batch, channels, height, width].
//  - Binary elementwise ops require identical shapes (no implicit
//    broadcasting); the few broadcast patterns the models need are exposed
//    as dedicated ops (add_rowvec, conv bias, ...).
//  - Axis reductions KEEP the reduced axis with extent 1 (NumPy
//    keepdims=True): mean_axis0 maps [N, D] -> [1, D] and sum_axis1 maps
//    [B, N] -> [B, 1].  Full reductions (sum_all/mean_all) return a [1]
//    scalar.
//
// Every op validates shapes and throws std::invalid_argument on mismatch —
// shape bugs surface at the call site instead of as silent corruption.
//
// Performance: matmul is a cache-blocked, row-parallel GEMM whose backward
// runs as two GEMM passes (dA = g·Bᵀ, dB = Aᵀ·g); conv2d/conv_transpose2d
// lower to the same GEMM kernel via im2col/col2im with workspace from the
// per-thread scratch arena (numeric/scratch.hpp); large elementwise ops run
// on the shared thread pool (see numeric/parallel.hpp).  The GEMM inner
// loops, elementwise ops and softmax/reduction hot paths dispatch to a
// runtime-selected micro-kernel tier — explicit AVX2, portable scalar or
// the naive seed reference — controlled by AFP_KERNEL_TIER (see
// numeric/simd.hpp).  Within a tier, results are bitwise identical for any
// AFP_NUM_THREADS.
#pragma once

#include "numeric/tensor.hpp"

namespace afp::num {

// -- elementwise binary (identical shapes) ---------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
/// Elementwise min; subgradient goes to the smaller input (ties: first).
Tensor minimum(const Tensor& a, const Tensor& b);
/// Elementwise max; subgradient goes to the larger input (ties: first).
Tensor maximum(const Tensor& a, const Tensor& b);

// -- scalar variants --------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// -- unary -------------------------------------------------------------------
Tensor neg(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor exp_op(const Tensor& a);
/// Natural log; input is clamped to >= eps for numerical safety.
Tensor log_op(const Tensor& a, float eps = 1e-12f);
Tensor square(const Tensor& a);
/// Clamp to [lo, hi]; gradient is passed through inside the interval and
/// zero outside (straight-through at the boundary).
Tensor clamp(const Tensor& a, float lo, float hi);

// -- shape -------------------------------------------------------------------
/// Same data viewed under a new shape.  The result ALIASES the input's
/// value buffer (no copy); grads flow back one-to-one.
Tensor reshape(const Tensor& a, Shape new_shape);
/// Concatenate 2-D tensors [B, Di] along columns -> [B, sum Di].
Tensor concat_cols(const std::vector<Tensor>& parts);
/// Concatenate 2-D tensors [Ni, D] along rows -> [sum Ni, D].
Tensor concat_rows(const std::vector<Tensor>& parts);

// -- linear algebra -----------------------------------------------------------
/// [M, K] x [K, N] -> [M, N].
Tensor matmul(const Tensor& a, const Tensor& b);
/// x [B, D] + v [D] broadcast over rows.
Tensor add_rowvec(const Tensor& x, const Tensor& v);
/// Fully connected layer: x [B, in] @ w [in, out] + b [out].
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);
/// Fused relu(linear(x, w, b)): one pass over the output applies bias and
/// activation, and the backward masks the gradient once before the two GEMM
/// passes (no intermediate pre-activation tensor).
Tensor linear_relu(const Tensor& x, const Tensor& w, const Tensor& b);

// -- reductions ---------------------------------------------------------------
Tensor sum_all(const Tensor& a);
Tensor mean_all(const Tensor& a);
/// Column-wise mean of a 2-D tensor: [N, D] -> [1, D].
Tensor mean_axis0(const Tensor& a);
/// Row-wise sum of a 2-D tensor: [B, N] -> [B, 1] (keepdims).
Tensor sum_axis1(const Tensor& a);

// -- softmax family (over the last axis of a 2-D tensor) ----------------------
Tensor softmax_rows(const Tensor& a);
Tensor log_softmax_rows(const Tensor& a);

// -- indexing -----------------------------------------------------------------
/// Select rows of x [N, D] by index -> [K, D].
Tensor gather_rows(const Tensor& x, const std::vector<int>& rows);
/// Per-row column pick of x [B, N] -> [B]: out[b] = x[b, cols[b]].
Tensor gather_per_row(const Tensor& x, const std::vector<int>& cols);

// -- convolutions ---------------------------------------------------------------
/// 2-D convolution, NCHW.  w: [OC, IC, KH, KW], optional bias b: [OC].
/// OH = (H + 2*pad - KH) / stride + 1.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad);
/// 2-D transposed convolution, NCHW.  w: [IC, OC, KH, KW], bias b: [OC].
/// OH = (H - 1) * stride - 2*pad + KH.
Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        int stride, int pad);

// -- losses ----------------------------------------------------------------------
/// Mean squared error between same-shape tensors -> scalar.
Tensor mse_loss(const Tensor& pred, const Tensor& target);

// -- convenience operators ---------------------------------------------------------
inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return mul_scalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return mul_scalar(a, s); }
inline Tensor operator+(const Tensor& a, float s) { return add_scalar(a, s); }
inline Tensor operator-(const Tensor& a) { return neg(a); }

}  // namespace afp::num
