// Kernel-vs-reference suite: the scalar backend is the determinism
// reference; the AVX2 backend must reproduce it to 0 ULP (bitwise) on
// every kernel, because the determinism suite certifies vectorized builds
// without a numeric-tolerance mode. Shapes deliberately include ragged
// sizes (not multiples of the 8-lane vector width) to exercise the tails.

#include "nn/kernels/kernels.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/categorical.h"
#include "nn/kernels/exp_poly.h"
#include "rng/rng.h"

namespace fairgen::nn::kernels {
namespace {

std::vector<float> RandomVector(size_t len, Rng& rng) {
  std::vector<float> v(len);
  for (float& x : v) {
    x = static_cast<float>(rng.UniformDouble() * 4.0 - 2.0);
  }
  return v;
}

// Injects exact zeros so the zero-skip fast path in the matmul i/p loops
// runs on both backends.
void SprinkleZeros(std::vector<float>& v, Rng& rng) {
  for (float& x : v) {
    if (rng.UniformDouble() < 0.2) x = 0.0f;
  }
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Shape {
  size_t m, k, n;
};

// Ragged shapes around the 8-lane width and the 256-column panel split.
const Shape kShapes[] = {{1, 1, 1},   {3, 5, 7},    {8, 8, 8},
                         {9, 17, 33}, {16, 31, 64}, {2, 300, 13},
                         {5, 7, 260}};

class KernelParityTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Available()) {
      GTEST_SKIP() << "AVX2 unavailable on this build/CPU";
    }
  }
};

TEST_F(KernelParityTest, MatMulBitwise) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandomVector(s.m * s.k, rng);
    std::vector<float> b = RandomVector(s.k * s.n, rng);
    SprinkleZeros(a, rng);
    std::vector<float> c_scalar(s.m * s.n), c_avx2(s.m * s.n);
    internal::ScalarTable().matmul(a.data(), b.data(), c_scalar.data(), s.m,
                                   s.k, s.n);
    internal::Avx2Table().matmul(a.data(), b.data(), c_avx2.data(), s.m, s.k,
                                 s.n);
    EXPECT_TRUE(BitwiseEqual(c_scalar, c_avx2))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST_F(KernelParityTest, MatMulTransABitwise) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandomVector(s.k * s.m, rng);
    std::vector<float> b = RandomVector(s.k * s.n, rng);
    SprinkleZeros(a, rng);
    std::vector<float> c_scalar(s.m * s.n), c_avx2(s.m * s.n);
    internal::ScalarTable().matmul_trans_a(a.data(), b.data(),
                                           c_scalar.data(), s.m, s.k, s.n);
    internal::Avx2Table().matmul_trans_a(a.data(), b.data(), c_avx2.data(),
                                         s.m, s.k, s.n);
    EXPECT_TRUE(BitwiseEqual(c_scalar, c_avx2))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST_F(KernelParityTest, MatMulTransBBitwiseAcrossDispatch) {
  // MatMulTransB is dispatched (transpose + active matmul), so compare
  // the whole call under forced backends.
  Rng rng(103);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandomVector(s.m * s.k, rng);
    std::vector<float> b = RandomVector(s.n * s.k, rng);
    std::vector<float> c_scalar(s.m * s.n), c_avx2(s.m * s.n);
    Backend prev = SetBackendForTesting(Backend::kScalar);
    MatMulTransB(a.data(), b.data(), c_scalar.data(), s.m, s.k, s.n);
    SetBackendForTesting(Backend::kAvx2);
    MatMulTransB(a.data(), b.data(), c_avx2.data(), s.m, s.k, s.n);
    SetBackendForTesting(prev);
    EXPECT_TRUE(BitwiseEqual(c_scalar, c_avx2))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

// Same bits, where any NaN equals any NaN: which NaN payload survives an
// add of two NaNs depends on operand order, which neither backend fixes.
bool SameBitsOrBothNaN(const std::vector<float>& a,
                       const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

// The AVX2 matmuls compute four rows of C per pass, the rest one by one.
// Every row count from 1 to 9 (blocks plus each remainder) and the
// stacked training batch (72 rows) against column counts with every tail
// shape (16-wide blocks, one 8-wide block, scalar tails); A holds +0 and
// −0 (both must be skipped per row, not per block) and B holds ±inf and
// NaN (a skipped 0 · inf would otherwise add NaN).
TEST_F(KernelParityTest, MatMulFourRowBlocksBitwise) {
  Rng rng(107);
  std::vector<size_t> row_counts{1, 2, 3, 4, 5, 6, 7, 8, 9, 72};
  for (size_t m : row_counts) {
    for (size_t n : {1u, 7u, 8u, 15u, 16u, 17u, 24u, 31u, 33u, 64u}) {
      const size_t k = 11;
      std::vector<float> a = RandomVector(m * k, rng);
      std::vector<float> b = RandomVector(k * n, rng);
      for (float& x : a) {
        const double u = rng.UniformDouble();
        if (u < 0.15) x = 0.0f;
        else if (u < 0.3) x = -0.0f;
      }
      for (float& x : b) {
        const double u = rng.UniformDouble();
        if (u < 0.03) x = INFINITY;
        else if (u < 0.06) x = -INFINITY;
        else if (u < 0.08) x = NAN;
      }
      std::vector<float> c_scalar(m * n), c_avx2(m * n);
      internal::ScalarTable().matmul(a.data(), b.data(), c_scalar.data(), m,
                                     k, n);
      internal::Avx2Table().matmul(a.data(), b.data(), c_avx2.data(), m, k,
                                   n);
      EXPECT_TRUE(SameBitsOrBothNaN(c_scalar, c_avx2))
          << "matmul m=" << m << " n=" << n;
      // MatMulTransA reads the same numbers as A[k, m].
      std::vector<float> at(k * m);
      for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
      }
      std::vector<float> t_scalar(m * n), t_avx2(m * n);
      internal::ScalarTable().matmul_trans_a(at.data(), b.data(),
                                             t_scalar.data(), m, k, n);
      internal::Avx2Table().matmul_trans_a(at.data(), b.data(), t_avx2.data(),
                                           m, k, n);
      EXPECT_TRUE(SameBitsOrBothNaN(t_scalar, t_avx2))
          << "matmul_trans_a m=" << m << " n=" << n;
      EXPECT_TRUE(SameBitsOrBothNaN(t_scalar, c_scalar))
          << "transposed A changed the result, m=" << m << " n=" << n;
    }
  }
}

// Without non-finite inputs the bits must match exactly, NaN rule aside,
// at the training shape: 72 stacked rows against an ACM-sized vocabulary.
TEST_F(KernelParityTest, MatMulTrainingShapesBitwise) {
  Rng rng(108);
  const Shape shapes[] = {{72, 64, 824}, {72, 824, 64}, {824, 72, 64}};
  for (const Shape& s : shapes) {
    std::vector<float> a = RandomVector(s.m * s.k, rng);
    std::vector<float> b = RandomVector(s.k * s.n, rng);
    SprinkleZeros(a, rng);
    std::vector<float> c_scalar(s.m * s.n), c_avx2(s.m * s.n);
    internal::ScalarTable().matmul(a.data(), b.data(), c_scalar.data(), s.m,
                                   s.k, s.n);
    internal::Avx2Table().matmul(a.data(), b.data(), c_avx2.data(), s.m, s.k,
                                 s.n);
    EXPECT_TRUE(BitwiseEqual(c_scalar, c_avx2))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
    // The same A read as [m, k]ᵀ: C[k, n] = Aᵀ · B2[m, n].
    std::vector<float> b2 = RandomVector(s.m * s.n, rng);
    std::vector<float> t_scalar(s.k * s.n), t_avx2(s.k * s.n);
    internal::ScalarTable().matmul_trans_a(a.data(), b2.data(),
                                           t_scalar.data(), s.k, s.m, s.n);
    internal::Avx2Table().matmul_trans_a(a.data(), b2.data(), t_avx2.data(),
                                         s.k, s.m, s.n);
    EXPECT_TRUE(BitwiseEqual(t_scalar, t_avx2))
        << "trans_a m=" << s.k << " k=" << s.m << " n=" << s.n;
  }
}

TEST_F(KernelParityTest, ElementwiseBitwise) {
  Rng rng(104);
  for (size_t len : {1u, 7u, 8u, 9u, 31u, 1000u}) {
    std::vector<float> base = RandomVector(len, rng);
    std::vector<float> b = RandomVector(len, rng);

    std::vector<float> x = base, y = base;
    internal::ScalarTable().add(x.data(), b.data(), len);
    internal::Avx2Table().add(y.data(), b.data(), len);
    EXPECT_TRUE(BitwiseEqual(x, y)) << "add len=" << len;

    x = base, y = base;
    internal::ScalarTable().add_scaled(x.data(), b.data(), 0.37f, len);
    internal::Avx2Table().add_scaled(y.data(), b.data(), 0.37f, len);
    EXPECT_TRUE(BitwiseEqual(x, y)) << "add_scaled len=" << len;

    x = base, y = base;
    internal::ScalarTable().scale(x.data(), -1.93f, len);
    internal::Avx2Table().scale(y.data(), -1.93f, len);
    EXPECT_TRUE(BitwiseEqual(x, y)) << "scale len=" << len;
  }
}

TEST_F(KernelParityTest, SoftmaxNllBitwise) {
  Rng rng(105);
  // Widths around the 8-lane vector (tails of 1 and 7, a single lane
  // group), plus the paper-scale vocabularies: ACM at scale 0.05 (824)
  // and a ragged larger one.
  for (size_t rows : {1u, 9u}) {
    for (size_t cols : {1u, 7u, 8u, 9u, 33u, 824u, 1136u}) {
      std::vector<float> logits = RandomVector(rows * cols, rng);
      // Spread the logits so rows exercise the polynomial's whole range
      // and the underflow clamp, not just exp on [−4, 0].
      for (float& x : logits) x *= 30.0f;
      std::vector<uint32_t> targets(rows);
      std::vector<uint8_t> mask(rows);
      for (size_t r = 0; r < rows; ++r) {
        targets[r] = rng.UniformU32(static_cast<uint32_t>(cols));
        mask[r] = static_cast<uint8_t>(rng.UniformU32(2));
      }
      std::vector<float> probs_scalar(rows * cols), probs_avx2(rows * cols);
      const double nll_scalar = internal::ScalarTable().softmax_nll_forward(
          logits.data(), rows, cols, targets.data(), probs_scalar.data());
      const double nll_avx2 = internal::Avx2Table().softmax_nll_forward(
          logits.data(), rows, cols, targets.data(), probs_avx2.data());
      EXPECT_EQ(std::memcmp(&nll_scalar, &nll_avx2, sizeof(double)), 0)
          << "rows=" << rows << " cols=" << cols << ": " << nll_scalar
          << " vs " << nll_avx2;
      EXPECT_TRUE(BitwiseEqual(probs_scalar, probs_avx2))
          << "rows=" << rows << " cols=" << cols;

      // Backward, masked and unmasked.
      const uint8_t* masks[] = {nullptr, mask.data()};
      for (const uint8_t* row_mask : masks) {
        std::vector<float> d_scalar = RandomVector(rows * cols, rng);
        std::vector<float> d_avx2 = d_scalar;
        internal::ScalarTable().softmax_nll_backward(
            probs_scalar.data(), targets.data(), row_mask, 0.61f, rows, cols,
            d_scalar.data());
        internal::Avx2Table().softmax_nll_backward(
            probs_scalar.data(), targets.data(), row_mask, 0.61f, rows, cols,
            d_avx2.data());
        EXPECT_TRUE(BitwiseEqual(d_scalar, d_avx2))
            << "rows=" << rows << " cols=" << cols
            << " masked=" << (row_mask != nullptr);
      }
    }
  }
}

// The fused walk loss writes the softmax over its logits in place; the
// target logit must be read before its row is overwritten.
TEST_F(KernelParityTest, SoftmaxNllInPlaceMatchesSeparateBuffers) {
  Rng rng(109);
  for (size_t cols : {1u, 7u, 9u, 824u}) {
    const size_t rows = 5;
    std::vector<float> logits = RandomVector(rows * cols, rng);
    for (float& x : logits) x *= 10.0f;
    std::vector<uint32_t> targets(rows);
    for (uint32_t& t : targets) {
      t = rng.UniformU32(static_cast<uint32_t>(cols));
    }
    for (const internal::KernelTable* table :
         {&internal::ScalarTable(), &internal::Avx2Table()}) {
      std::vector<float> probs(rows * cols);
      const double separate = table->softmax_nll_forward(
          logits.data(), rows, cols, targets.data(), probs.data());
      std::vector<float> in_place = logits;
      const double aliased = table->softmax_nll_forward(
          in_place.data(), rows, cols, targets.data(), in_place.data());
      EXPECT_EQ(std::memcmp(&separate, &aliased, sizeof(double)), 0)
          << "cols=" << cols;
      EXPECT_TRUE(BitwiseEqual(probs, in_place)) << "cols=" << cols;
    }
  }
}

// Same bits, or both NaN: a NaN's payload may come from either operand
// of the op that made it, which the two backends need not order alike.
template <typename T>
bool SameBitsOrBothNan(T a, T b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Draw-kernel widths: inside one vector, one lane group, one block less
// one, exactly one block, one block plus one, and FLICKR's vocabulary.
const size_t kDrawWidths[] = {1, 7, 8, 63, 64, 65, 1136};

// Runs categorical_weights from both tables, expects the same bits in
// the weights, the block sums and the total, and returns the scalar
// weights (and, when asked, block sums and total).
std::vector<float> CategoricalViaBothTables(const std::vector<float>& logits,
                                            float temperature,
                                            std::vector<double>* sums_out,
                                            double* total_out) {
  const size_t n = logits.size();
  std::vector<float> w_scalar(n), w_avx2(n);
  std::vector<double> s_scalar(DrawBlocks(n)), s_avx2(DrawBlocks(n));
  const double t_scalar = internal::ScalarTable().categorical_weights(
      logits.data(), n, temperature, w_scalar.data(), s_scalar.data());
  const double t_avx2 = internal::Avx2Table().categorical_weights(
      logits.data(), n, temperature, w_avx2.data(), s_avx2.data());
  EXPECT_TRUE(SameBitsOrBothNan(t_scalar, t_avx2))
      << "n=" << n << " temperature=" << temperature;
  for (size_t j = 0; j < n; ++j) {
    EXPECT_TRUE(SameBitsOrBothNan(w_scalar[j], w_avx2[j]))
        << "n=" << n << " temperature=" << temperature << " j=" << j;
  }
  for (size_t b = 0; b < s_scalar.size(); ++b) {
    EXPECT_TRUE(SameBitsOrBothNan(s_scalar[b], s_avx2[b]))
        << "n=" << n << " temperature=" << temperature << " block=" << b;
  }
  if (sums_out != nullptr) *sums_out = s_scalar;
  if (total_out != nullptr) *total_out = t_scalar;
  return w_scalar;
}

TEST_F(KernelParityTest, CategoricalWeightsBitwise) {
  Rng rng(108);
  const float specials[] = {0.0f, -0.0f, INFINITY, -INFINITY, NAN};
  for (size_t n : kDrawWidths) {
    for (float temperature : {1.0f, 0.7f, 3.0f}) {
      std::vector<float> logits = RandomVector(n, rng);
      for (float& x : logits) x *= 30.0f;
      std::vector<double> sums;
      double total = 0.0;
      const std::vector<float> w =
          CategoricalViaBothTables(logits, temperature, &sums, &total);
      // On a finite row the max weighs exactly 1, each block sum is its
      // weights' sum, and the total is the in-order sum of block sums.
      const size_t argmax = static_cast<size_t>(
          std::max_element(logits.begin(), logits.end()) - logits.begin());
      EXPECT_EQ(w[argmax], 1.0f);
      double in_order = 0.0;
      for (size_t b = 0; b < sums.size(); ++b) {
        double direct = 0.0;
        const size_t end = std::min(n, (b + 1) * kDrawBlock);
        for (size_t j = b * kDrawBlock; j < end; ++j) direct += w[j];
        EXPECT_NEAR(sums[b], direct, 1e-12 * direct) << "block " << b;
        in_order += sums[b];
      }
      EXPECT_EQ(total, in_order);

      // Each special value first, mid-row, and last (the ragged tail of
      // the last block).
      for (float special : specials) {
        for (size_t at : {size_t{0}, n / 2, n - 1}) {
          std::vector<float> poked = logits;
          poked[at] = special;
          CategoricalViaBothTables(poked, temperature, nullptr, nullptr);
        }
      }
    }
  }
}

// The GELU at ±0, ±inf, NaN and far out in both saturated tails, at
// every lane position and in the ragged tail, over random rows.
TEST_F(KernelParityTest, GeluBitwise) {
  Rng rng(110);
  const float specials[] = {0.0f,  -0.0f,  INFINITY, -INFINITY, NAN,
                            1e-30f, -1e-30f, 1e5f,   -1e5f,     9.0f,
                            -9.0f, FLT_MAX, -FLT_MAX};
  for (size_t n : kDrawWidths) {
    std::vector<float> x = RandomVector(n, rng);
    for (float& v : x) v *= 4.0f;
    for (size_t j = 0; j < n; j += 3) {
      x[j] = specials[(j / 3) % std::size(specials)];
    }
    std::vector<float> y_scalar(n), y_avx2(n), t_scalar(n), t_avx2(n);
    internal::ScalarTable().gelu(x.data(), n, y_scalar.data(),
                                 t_scalar.data());
    internal::Avx2Table().gelu(x.data(), n, y_avx2.data(), t_avx2.data());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(SameBitsOrBothNan(y_scalar[j], y_avx2[j]))
          << "n=" << n << " x=" << x[j];
      EXPECT_TRUE(SameBitsOrBothNan(t_scalar[j], t_avx2[j]))
          << "n=" << n << " x=" << x[j];
    }
    // In place (the KV decoder's call) gives the same bits.
    for (const internal::KernelTable* table :
         {&internal::ScalarTable(), &internal::Avx2Table()}) {
      std::vector<float> in_place = x;
      std::vector<float> t(n);
      table->gelu(in_place.data(), n, in_place.data(), t.data());
      for (size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(SameBitsOrBothNan(in_place[j], y_scalar[j]))
            << "n=" << n << " x=" << x[j];
      }
    }
  }
}

// Runs categorical_weights (temperature 1) from both tables on `logits`,
// whose max must be 0, so weights[j] is the exp polynomial of logits[j]
// itself. Checks the tables agree bit for bit and returns the weights.
std::vector<float> ExpViaBothTables(const std::vector<float>& logits) {
  return CategoricalViaBothTables(logits, 1.0f, nullptr, nullptr);
}

// A dense sweep of the exp domain [−87, 0]: every 997th float, in rows
// that start with 0 so the row max is 0 and the kernel evaluates exp at
// exactly the swept inputs. Each result must be within 1 ULP of exp
// computed in double (the polynomial measures 0.952 ULP at worst over
// every float in the range) and within one float step of std::exp.
TEST_F(KernelParityTest, ExpPolynomialWithinOneUlpOnItsDomain) {
  const uint32_t first = std::bit_cast<uint32_t>(-0.0f);
  const uint32_t last = std::bit_cast<uint32_t>(-87.0f);
  constexpr uint32_t kStride = 997;
  constexpr size_t kChunk = 4096;
  double worst_ulp = 0.0;
  float worst_x = 0.0f;
  size_t checked = 0;
  std::vector<float> logits;
  for (uint64_t b = first; b <= last;) {
    logits.assign(1, 0.0f);
    for (; b <= last && logits.size() < kChunk; b += kStride) {
      logits.push_back(std::bit_cast<float>(static_cast<uint32_t>(b)));
    }
    const std::vector<float> w = ExpViaBothTables(logits);
    for (size_t j = 1; j < logits.size(); ++j) {
      const float x = logits[j];
      const float y = w[j];
      const double exact = std::exp(static_cast<double>(x));
      const float rounded = static_cast<float>(exact);
      const double ulp =
          static_cast<double>(std::nextafter(rounded, INFINITY)) - rounded;
      const double err = std::abs(static_cast<double>(y) - exact) / ulp;
      if (err > worst_ulp) {
        worst_ulp = err;
        worst_x = x;
      }
      const int64_t steps =
          static_cast<int64_t>(std::bit_cast<uint32_t>(y)) -
          static_cast<int64_t>(std::bit_cast<uint32_t>(std::exp(x)));
      EXPECT_LE(std::abs(steps), 1) << "x=" << x;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000000u);
  EXPECT_LE(worst_ulp, 1.0) << "at x=" << worst_x;
}

TEST_F(KernelParityTest, ExpPolynomialEndpoints) {
  const float below_clamp = std::nextafter(internal::kExpLo, -INFINITY);
  // Row max 0 first; an 8-wide group of special inputs, then a ragged tail
  // of the same inputs, so both the vector and the scalar tail path see
  // each one.
  const std::vector<float> specials = {
      -0.0f,       internal::kExpLo, below_clamp, -87.5f,
      -100.0f,     -1e30f,           -INFINITY,   -FLT_MIN};
  std::vector<float> logits = {0.0f};
  logits.insert(logits.end(), specials.begin(), specials.end());
  logits.insert(logits.end(), specials.begin(), specials.end() - 1);
  const std::vector<float> w = ExpViaBothTables(logits);
  for (size_t j = 0; j < logits.size(); ++j) {
    const float x = logits[j];
    const float y = w[j];
    if (x == 0.0f || x == -FLT_MIN) {
      EXPECT_EQ(y, 1.0f) << "j=" << j;  // exp(0) is exactly 1
    } else if (x < internal::kExpLo) {
      EXPECT_EQ(std::bit_cast<uint32_t>(y), 0u) << "x=" << x;  // exactly +0
    } else {
      EXPECT_GT(y, 0.0f) << "x=" << x;
      EXPECT_TRUE(std::isnormal(y)) << "x=" << x;
    }
  }
}

// NaN and ±inf semantics, pinned on both backends and at every position
// a logit can take (first, inside a lane group, in the ragged tail).
TEST_F(KernelParityTest, SoftmaxNonFiniteLogits) {
  const size_t n = 19;  // two lane groups and a tail of 3
  Rng rng(109);
  const std::vector<float> base = RandomVector(n, rng);
  const internal::KernelTable* tables[] = {&internal::ScalarTable(),
                                           &internal::Avx2Table()};
  for (const internal::KernelTable* table : tables) {
    for (size_t at : {size_t{0}, size_t{5}, size_t{8}, size_t{17}}) {
      // NaN: the loss and the weight total are NaN, so GuardFiniteLoss
      // and SampleLogitsRow's uniform fallback both see it.
      std::vector<float> logits = base;
      logits[at] = NAN;
      std::vector<float> probs(n);
      const uint32_t target = at == 0 ? 1 : 0;
      EXPECT_TRUE(std::isnan(table->softmax_nll_forward(
          logits.data(), 1, n, &target, probs.data())))
          << "NaN at " << at;
      std::vector<float> w(n);
      std::vector<double> sums(DrawBlocks(n));
      EXPECT_TRUE(std::isnan(table->categorical_weights(
          logits.data(), n, 1.0f, w.data(), sums.data())))
          << "NaN at " << at;
      EXPECT_TRUE(std::isnan(w[at])) << "NaN at " << at;

      // −inf: weight and probability exactly 0; the rest stays a finite
      // distribution whose max has weight exactly 1.
      logits = base;
      logits[at] = -INFINITY;
      const double nll = table->softmax_nll_forward(logits.data(), 1, n,
                                                    &target, probs.data());
      EXPECT_TRUE(std::isfinite(nll)) << "-inf at " << at;
      EXPECT_EQ(std::bit_cast<uint32_t>(probs[at]), 0u) << "-inf at " << at;
      EXPECT_TRUE(std::isfinite(table->categorical_weights(
          logits.data(), n, 0.7f, w.data(), sums.data())))
          << "-inf at " << at;
      EXPECT_EQ(w[at], 0.0f) << "-inf at " << at;
      const size_t argmax = static_cast<size_t>(
          std::max_element(logits.begin(), logits.end()) - logits.begin());
      EXPECT_EQ(w[argmax], 1.0f) << "-inf at " << at;
      double psum = 0.0;
      for (float p : probs) psum += p;
      EXPECT_NEAR(psum, 1.0, 1e-5);
    }
  }
}

// Adam hyperparameters at step t = 3 with weight decay, so every term of
// the update is exercised.
AdamStepParams TestAdamParams() {
  AdamStepParams p;
  p.lr = 3e-3f;
  p.beta1 = 0.9f;
  p.beta2 = 0.999f;
  p.eps = 1e-8f;
  p.weight_decay = 0.01f;
  p.bias1 = 1.0f - 0.9f * 0.9f * 0.9f;
  p.bias2 = 1.0f - 0.999f * 0.999f * 0.999f;
  return p;
}

TEST_F(KernelParityTest, AdamUpdateBitwise) {
  Rng rng(106);
  const AdamStepParams params = TestAdamParams();
  for (size_t len : {1u, 7u, 8u, 9u, 31u, 1000u}) {
    std::vector<float> value = RandomVector(len, rng);
    std::vector<float> grad = RandomVector(len, rng);
    SprinkleZeros(grad, rng);
    std::vector<float> m = RandomVector(len, rng);
    std::vector<float> v = RandomVector(len, rng);
    for (float& x : v) x = x * x;  // second moments are non-negative
    std::vector<float> value2 = value, m2 = m, v2 = v;
    internal::ScalarTable().adam_update(value.data(), grad.data(), m.data(),
                                        v.data(), len, params);
    internal::Avx2Table().adam_update(value2.data(), grad.data(), m2.data(),
                                      v2.data(), len, params);
    EXPECT_TRUE(BitwiseEqual(value, value2)) << "value len=" << len;
    EXPECT_TRUE(BitwiseEqual(m, m2)) << "m len=" << len;
    EXPECT_TRUE(BitwiseEqual(v, v2)) << "v len=" << len;
  }
}

// --------------------------------------------------------------------------
// Reference semantics (backend-independent)
// --------------------------------------------------------------------------

TEST(KernelSemanticsTest, AdamUpdateMatchesTheAdamWFormula) {
  Rng rng(107);
  const AdamStepParams p = TestAdamParams();
  const size_t len = 37;
  std::vector<float> value = RandomVector(len, rng);
  std::vector<float> grad = RandomVector(len, rng);
  std::vector<float> m = RandomVector(len, rng);
  std::vector<float> v(len, 0.25f);
  std::vector<float> expected = value;
  std::vector<float> m_ref = m, v_ref = v;
  for (size_t i = 0; i < len; ++i) {
    m_ref[i] = p.beta1 * m_ref[i] + (1.0f - p.beta1) * grad[i];
    v_ref[i] = p.beta2 * v_ref[i] + (1.0f - p.beta2) * grad[i] * grad[i];
    const float update =
        (m_ref[i] / p.bias1) / (std::sqrt(v_ref[i] / p.bias2) + p.eps);
    expected[i] -= p.lr * (update + p.weight_decay * expected[i]);
  }
  internal::ScalarTable().adam_update(value.data(), grad.data(), m.data(),
                                      v.data(), len, p);
  EXPECT_TRUE(BitwiseEqual(value, expected));
  EXPECT_TRUE(BitwiseEqual(m, m_ref));
  EXPECT_TRUE(BitwiseEqual(v, v_ref));
}

TEST(KernelSemanticsTest, MatMulMatchesNaiveTripleLoop) {
  Rng rng(7);
  const size_t m = 5, k = 9, n = 11;
  std::vector<float> a = RandomVector(m * k, rng);
  std::vector<float> b = RandomVector(k * n, rng);
  std::vector<float> c(m * n);
  internal::ScalarTable().matmul(a.data(), b.data(), c.data(), m, k, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double expect = 0.0;
      for (size_t p = 0; p < k; ++p) {
        expect += static_cast<double>(a[i * k + p]) *
                  static_cast<double>(b[p * n + j]);
      }
      EXPECT_NEAR(c[i * n + j], expect, 1e-4) << i << "," << j;
    }
  }
}

TEST(KernelSemanticsTest, SoftmaxNllForwardMatchesDirectFormula) {
  Rng rng(8);
  const size_t rows = 4, cols = 6;
  std::vector<float> logits = RandomVector(rows * cols, rng);
  std::vector<uint32_t> targets = {1, 0, 5, 3};
  std::vector<float> probs(rows * cols);
  double total = SoftmaxNllForward(logits.data(), rows, cols, targets.data(),
                                   probs.data());
  double expect = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    double z = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      z += std::exp(static_cast<double>(logits[r * cols + j]));
    }
    expect += std::log(z) - static_cast<double>(logits[r * cols + targets[r]]);
    double psum = 0.0;
    for (size_t j = 0; j < cols; ++j) psum += probs[r * cols + j];
    EXPECT_NEAR(psum, 1.0, 1e-5) << "row " << r;
  }
  EXPECT_NEAR(total, expect, 1e-4);
}

// The exp-polynomial GELU against the libm-tanh form, over [−12, 12] in
// steps of 1e-4 (both saturated tails included), on the active backend.
// Measured on glibc: |y − y_libm| ≤ 2.12e-7·max(1, |x|) (4.8e-7 at worst,
// at x ≈ 2.25, two float ulps of y) and 1 + tanh(z) within 2.4e-7 (two
// ulps of values in [1, 2)); against a double reference the worst error
// is 5.2e-7 here and 4.3e-7 for the libm form, about one ulp of y at
// x ≈ 4.7 for both. The bounds allow three float epsilons, so another
// libm's tanh may differ by an ulp.
TEST(KernelSemanticsTest, GeluMatchesLibmTanhForm) {
  constexpr double kBound = 3.0 * FLT_EPSILON;
  std::vector<float> x;
  for (int i = -120000; i <= 120000; ++i) x.push_back(i * 1e-4f);
  std::vector<float> y(x.size()), t(x.size());
  Gelu(x.data(), x.size(), y.data(), t.data());
  for (size_t i = 0; i < x.size(); ++i) {
    const float xi = x[i];
    const float z = kGeluSqrt2OverPi * (xi + kGeluCubic * xi * xi * xi);
    const float libm_t = 1.0f + std::tanh(z);
    const float libm_y = 0.5f * xi * libm_t;
    ASSERT_LE(std::abs(static_cast<double>(y[i]) - libm_y),
              kBound * std::max(1.0f, std::abs(xi)))
        << "x=" << xi;
    ASSERT_LE(std::abs(static_cast<double>(t[i]) - libm_t), kBound)
        << "x=" << xi;
  }
}

// Exact endpoints of the GELU: ±0 keep their sign, the tails saturate to
// x and to 0, and non-finite inputs follow the libm form.
TEST(KernelSemanticsTest, GeluEndpoints) {
  const std::vector<float> x = {0.0f, -0.0f, 20.0f, -20.0f, INFINITY,
                                -INFINITY, NAN};
  std::vector<float> y(x.size()), t(x.size());
  Gelu(x.data(), x.size(), y.data(), t.data());
  EXPECT_EQ(std::bit_cast<uint32_t>(y[0]), std::bit_cast<uint32_t>(0.0f));
  EXPECT_EQ(std::bit_cast<uint32_t>(y[1]), std::bit_cast<uint32_t>(-0.0f));
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(y[2], 20.0f);
  EXPECT_EQ(t[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
  EXPECT_EQ(t[3], 0.0f);
  EXPECT_EQ(y[4], INFINITY);
  EXPECT_TRUE(std::isnan(y[5]));  // −inf · 0, as 0.5·x·(1 + tanh(−inf))
  EXPECT_TRUE(std::isnan(y[6]));
}

// The pick against the exact softmax: 200 tokens (three full blocks and
// a ragged one) at temperature 0.8, 200,000 draws, Pearson χ² on 199
// degrees of freedom. The bound is the 0.999 quantile (≈ 267).
TEST(CategoricalDrawTest, DrawMatchesSoftmaxProbabilities) {
  constexpr size_t kTokens = 200;
  constexpr int kDraws = 200000;
  constexpr float kTemperature = 0.8f;
  Rng rng(111);
  std::vector<float> logits = RandomVector(kTokens, rng);
  const double max_v = *std::max_element(logits.begin(), logits.end());
  std::vector<double> p(kTokens);
  double z = 0.0;
  for (size_t j = 0; j < kTokens; ++j) {
    p[j] = std::exp((logits[j] - max_v) / kTemperature);
    z += p[j];
  }
  std::vector<int> counts(kTokens, 0);
  Rng draw_rng(112);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[SampleLogitsRow(logits.data(), kTokens, kTemperature,
                             draw_rng)];
  }
  double chi2 = 0.0;
  for (size_t j = 0; j < kTokens; ++j) {
    const double expected = kDraws * p[j] / z;
    chi2 += (counts[j] - expected) * (counts[j] - expected) / expected;
  }
  EXPECT_LT(chi2, 267.0);
}

// Exact pick boundaries: u = 0 takes the first positive weight, a u on a
// block boundary moves into the next block, zero weights and zero blocks
// are skipped, and a u at or past the total takes the last positive
// weight.
TEST(CategoricalDrawTest, PickBoundaries) {
  // Block 0: weight 1 at index 0, the rest 0. Block 1: all 0. Block 2:
  // weight 2 at index 130 and 3 at index 140; index 149 (the last) is 0.
  const size_t n = 150;
  std::vector<float> w(n, 0.0f);
  w[0] = 1.0f;
  w[130] = 2.0f;
  w[140] = 3.0f;
  const std::vector<double> sums = {1.0, 0.0, 5.0};
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 0.0), 0u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 0.999), 0u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 1.0), 130u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 2.999), 130u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 3.0), 140u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 5.999), 140u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 6.0), 140u);
  EXPECT_EQ(PickCategorical(w.data(), sums.data(), n, 1e300), 140u);
  // A block sum rounded above its weights: a u past the weights' prefix
  // sums but under the block's running total stays in that block.
  const std::vector<double> rounded_up = {1.0, 0.0, 5.5};
  EXPECT_EQ(PickCategorical(w.data(), rounded_up.data(), n, 6.2), 140u);
}

// One rng draw per call on every path, as the decoders' replay contracts
// need: the finite path takes UniformDouble, the NaN path UniformU32(n).
TEST(CategoricalDrawTest, ConsumesExactlyOneDraw) {
  std::vector<float> logits = {0.5f, -1.0f, 2.0f};
  Rng a(113), b(113);
  SampleLogitsRow(logits.data(), logits.size(), 1.0f, a);
  b.UniformDouble();
  EXPECT_EQ(a.NextU32(), b.NextU32());
  logits[1] = NAN;
  Rng c(114), d(114);
  EXPECT_EQ(SampleLogitsRow(logits.data(), logits.size(), 1.0f, c),
            d.UniformU32(3));
  EXPECT_EQ(c.NextU32(), d.NextU32());
}

// --------------------------------------------------------------------------
// Dispatch plumbing
// --------------------------------------------------------------------------

TEST(KernelDispatchTest, ParseBackendName) {
  Backend b;
  EXPECT_TRUE(ParseBackendName("scalar", &b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(ParseBackendName("avx2", &b));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_FALSE(ParseBackendName("neon", &b));
  EXPECT_FALSE(ParseBackendName("", &b));
}

TEST(KernelDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ForcedScalarBackendTakesEffect) {
  Backend prev = SetBackendForTesting(Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  SetBackendForTesting(prev);
  EXPECT_EQ(ActiveBackend(), prev);
}

TEST(KernelDispatchTest, ForcingAvx2DowngradesWhenUnavailable) {
  Backend prev = SetBackendForTesting(Backend::kAvx2);
  if (Avx2Available()) {
    EXPECT_EQ(ActiveBackend(), Backend::kAvx2);
  } else {
    EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  }
  SetBackendForTesting(prev);
}

}  // namespace
}  // namespace fairgen::nn::kernels
