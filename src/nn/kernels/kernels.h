#ifndef FAIRGEN_NN_KERNELS_KERNELS_H_
#define FAIRGEN_NN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace fairgen::nn::kernels {

/// \brief Runtime-dispatched numeric kernels for the tensor hot paths.
///
/// Two backends implement the same flat-array contract:
///  - `kScalar`: portable C++ loops — the determinism *reference*;
///  - `kAvx2`: 8-wide AVX2 vectorization of the same loops.
///
/// Bitwise contract: both backends produce identical bits. Every
/// accumulation visits the reduction dimension in the same order per
/// output element (the row reductions of the softmax kernels keep eight
/// lane partials, which the scalar backend replays), and both backends
/// use separate multiply and add (FMA contraction is disabled for both
/// kernel TUs), so each lane performs exactly the scalar operation
/// sequence. This is what lets the determinism suite certify vectorized
/// builds without a numeric-tolerance mode; the kernel-vs-reference tests
/// pin the backends to 0 ULP.
///
/// Alignment: tensor storage is 64-byte aligned (see nn/tensor.h), which
/// keeps rows cache-line-friendly; the kernels themselves use unaligned
/// vector loads, so they accept any float buffer (sub-row views, tensor
/// tails whose columns are not a multiple of 8).

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

enum class Backend { kScalar, kAvx2 };

/// The backend every dispatched kernel call uses. Resolved exactly once,
/// at the first kernel call: the `FAIRGEN_KERNEL` environment variable
/// (`scalar` or `avx2`) wins when set and satisfiable; otherwise cpuid
/// decides (AVX2 when the CPU and build support it, scalar fallback
/// everywhere else).
Backend ActiveBackend();

/// Human-readable backend name ("scalar" / "avx2").
const char* BackendName(Backend backend);

/// True when both this build and this CPU can run the AVX2 kernels.
bool Avx2Available();

/// Parses a `FAIRGEN_KERNEL` value; returns false for unknown names.
bool ParseBackendName(const char* name, Backend* out);

/// Test hook: forces the active backend and returns the previous one.
/// Requesting kAvx2 when `Avx2Available()` is false keeps scalar.
Backend SetBackendForTesting(Backend backend);

// ---------------------------------------------------------------------------
// Dispatched kernels (row-major, C overwritten)
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] · B[k,n]. The AVX2 backend computes four rows of C
/// per pass, so each B vector it loads feeds four accumulators; that
/// changes which elements are updated together, not any element's
/// operation sequence.
void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);

/// C[m,n] = A[k,m]^T · B[k,n].
void MatMulTransA(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n);

/// C[m,n] = A[m,k] · B[n,k]^T. Implemented as an explicit transpose of B
/// into a reused scratch buffer followed by the plain matmul, so the
/// accumulation order (and therefore the bits) match `MatMul` exactly.
void MatMulTransB(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n);

/// a[i] += b[i].
void Add(float* a, const float* b, size_t len);

/// a[i] += alpha * b[i].
void AddScaled(float* a, const float* b, float alpha, size_t len);

/// a[i] *= alpha.
void Scale(float* a, float alpha, size_t len);

/// Hyperparameters of one Adam step (see nn::Adam). `bias1`/`bias2` are
/// the bias corrections 1 − β1^t and 1 − β2^t of the current step t.
struct AdamStepParams {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float weight_decay;
  float bias1;
  float bias2;
};

/// One Adam step over `len` elements. With g = grad[i]:
///   m[i] = β1·m[i] + (1 − β1)·g,   v[i] = β2·v[i] + (1 − β2)·g·g,
///   value[i] −= lr · ((m[i]/bias1) / (√(v[i]/bias2) + eps) + wd·value[i]).
/// Every operation is a correctly rounded IEEE float op (the square root
/// included), so the vector lanes reproduce the scalar bits.
void AdamUpdate(float* value, const float* grad, float* m, float* v,
                size_t len, const AdamStepParams& params);

/// Fused softmax + negative log-likelihood forward over [rows, cols]
/// logits: writes the row-wise softmax into `probs` (same shape) and
/// returns Σ_r (logZ_r − logits[r, targets[r]]), i.e. the *total* NLL
/// (callers divide by rows for the mean). Per row: the max m over eight
/// lane maxima, e_j = exp(logits[r, j] − m) by the float polynomial of
/// exp_poly.h (≤ 1 ULP; the row max gives exactly 1, −inf exactly 0),
/// Σ e_j in eight double lane partials folded in one fixed order,
/// probs = float(e_j / Σ) via a double reciprocal, and one libm `log`.
/// Both backends run that sequence, so their bits match. A NaN logit
/// makes the total NaN. `probs` may alias `logits` (the softmax is then
/// written in place); `targets[r]` must be below `cols` (callers check).
double SoftmaxNllForward(const float* logits, size_t rows, size_t cols,
                         const uint32_t* targets, float* probs);

/// Elements per block of `CategoricalWeights`' block sums.
inline constexpr size_t kDrawBlock = 64;

/// Number of blocks `CategoricalWeights` writes for a row of n logits.
inline constexpr size_t DrawBlocks(size_t n) {
  return (n + kDrawBlock - 1) / kDrawBlock;
}

/// Weights of a categorical draw from one logits row:
/// weights[j] = exp((logits[j] − m) / temperature) with m the row max, by
/// the same max reduction and exp polynomial as `SoftmaxNllForward`. The
/// row max gets exactly 1, a −inf logit exactly 0, and a NaN logit a NaN
/// weight. Also writes block_sums[b], the double sum of weights
/// [b·kDrawBlock, (b+1)·kDrawBlock) in eight lane partials folded by
/// `FoldSum` (exp_poly.h), and returns the in-order total of the
/// `DrawBlocks(n)` block sums. `temperature` must be positive. A pick
/// then scans the block sums and one block instead of the whole row (see
/// nn/categorical.h).
double CategoricalWeights(const float* logits, size_t n, float temperature,
                          float* weights, double* block_sums);

/// The tanh GELU of the transformer FFN, y = ½·x·(1 + tanh(z)) with
/// z = √(2/π)·(x + 0.044715·x³). 1 + tanh(z) comes from the exp
/// polynomial as 2 / (1 + e^(−2|z|)), times e^(−2|z|) for z < 0, and is
/// written to `one_plus_tanh` for the backward pass. `y` may alias `x`.
void Gelu(const float* x, size_t n, float* y, float* one_plus_tanh);

/// √(2/π) and the cubic coefficient of the GELU above; the backward pass
/// in nn/ops.cc differentiates the same z.
inline constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
inline constexpr float kGeluCubic = 0.044715f;

/// Backward of the fused op: dlogits[r,j] += gscale · (probs[r,j] −
/// 1{j == targets[r]}) for every row r in [0, rows) with row_mask[r]
/// non-zero (pass nullptr to enable all rows). `gscale` folds the
/// upstream gradient and the 1/rows mean factor.
void SoftmaxNllBackward(const float* probs, const uint32_t* targets,
                        const uint8_t* row_mask, float gscale, size_t rows,
                        size_t cols, float* dlogits);

// ---------------------------------------------------------------------------
// Backend tables (internal: used by the dispatcher and the kernel tests)
// ---------------------------------------------------------------------------

namespace internal {

struct KernelTable {
  void (*matmul)(const float*, const float*, float*, size_t, size_t, size_t);
  void (*matmul_trans_a)(const float*, const float*, float*, size_t, size_t,
                         size_t);
  void (*add)(float*, const float*, size_t);
  void (*add_scaled)(float*, const float*, float, size_t);
  void (*scale)(float*, float, size_t);
  double (*softmax_nll_forward)(const float*, size_t, size_t, const uint32_t*,
                                float*);
  void (*softmax_nll_backward)(const float*, const uint32_t*, const uint8_t*,
                               float, size_t, size_t, float*);
  double (*categorical_weights)(const float*, size_t, float, float*,
                                double*);
  void (*gelu)(const float*, size_t, float*, float*);
  void (*adam_update)(float*, const float*, float*, float*, size_t,
                      const AdamStepParams&);
};

const KernelTable& ScalarTable();

/// The AVX2 table, or the scalar table when this build/CPU cannot run
/// AVX2 (see `Avx2Available`).
const KernelTable& Avx2Table();

/// True when kernels_avx2.cc was compiled with AVX2 enabled.
bool Avx2CompiledIn();

}  // namespace internal

}  // namespace fairgen::nn::kernels

#endif  // FAIRGEN_NN_KERNELS_KERNELS_H_
