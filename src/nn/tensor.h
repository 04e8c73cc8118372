#ifndef FAIRGEN_NN_TENSOR_H_
#define FAIRGEN_NN_TENSOR_H_

#include <cstddef>
#include <vector>

#include "common/memprobe.h"
#include "rng/rng.h"

namespace fairgen::nn {

/// Float storage for tensor values and autograd gradients. The tracking
/// allocator charges every allocation to `memprobe::NnBytes()`, so the
/// telemetry publisher's `fairgen_nn_bytes_live` / `fairgen_nn_bytes_peak`
/// gauges account the numeric working set exactly (allocation-sized, no
/// capacity guessing).
/// Storage is 64-byte aligned (one cache line, one AVX-512 lane width)
/// for the dispatched SIMD kernels in nn/kernels/.
using FloatBuffer =
    std::vector<float,
                memprobe::TrackingAllocator<float, &memprobe::NnBytes, 64>>;

/// \brief A dense row-major float32 matrix — the numeric value type of the
/// autodiff substrate.
///
/// Everything the FairGen training pipeline needs is expressible with
/// matrices: a length-T walk embeds to a [T, D] matrix, logits are [T, V],
/// parameters are [In, Out], and scalars are [1, 1]. Keeping the tensor
/// 2-D keeps every op's backward rule simple and auditable.
class Tensor {
 public:
  /// An empty 0x0 tensor.
  Tensor() = default;

  /// A rows x cols tensor initialized to zero.
  Tensor(size_t rows, size_t cols);

  /// A rows x cols tensor filled with `value`.
  Tensor(size_t rows, size_t cols, float value);

  /// Builds from explicit data (size must be rows*cols; copied into the
  /// byte-accounted buffer).
  Tensor(size_t rows, size_t cols, const std::vector<float>& data);

  /// A rows x cols tensor with i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(size_t rows, size_t cols, float stddev, Rng& rng);

  /// A rows x cols tensor with i.i.d. Uniform(-bound, bound) entries.
  static Tensor RandUniform(size_t rows, size_t cols, float bound, Rng& rng);

  /// A 1x1 tensor holding `value`.
  static Tensor Scalar(float value);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Mutable row pointer.
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Sets every entry to zero.
  void Zero() { Fill(0.0f); }

  /// True iff shapes match.
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Elementwise accumulate: *this += other (shapes must match).
  void Add(const Tensor& other);

  /// Elementwise accumulate with scale: *this += alpha * other.
  void AddScaled(const Tensor& other, float alpha);

  /// Scales every entry by `alpha`.
  void Scale(float alpha);

  /// Sum of all entries.
  float Sum() const;

  /// The value of a 1x1 tensor.
  float ScalarValue() const;

  /// Frobenius norm.
  float Norm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  FloatBuffer data_;
};

/// \brief C = A · B (shapes [m,k] x [k,n] -> [m,n]).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// \brief C = A^T · B (shapes [k,m] x [k,n] -> [m,n]).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// \brief C = A · B^T (shapes [m,k] x [n,k] -> [m,n]).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// \brief Transpose.
Tensor Transpose(const Tensor& a);

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_TENSOR_H_
