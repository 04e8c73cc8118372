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
/// output element, and the AVX2 path uses separate multiply and add
/// (FMA contraction is disabled for the vector TU), so each lane performs
/// exactly the scalar operation sequence. This is what lets the
/// determinism suite certify vectorized builds without a numeric-
/// tolerance mode; the kernel-vs-reference tests pin the backends to
/// 0 ULP.
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

/// C[m,n] = A[m,k] · B[k,n].
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
/// (callers divide by rows for the mean). The transcendentals
/// (exp/log) are scalar libm calls in both backends, so the result is
/// backend-invariant.
double SoftmaxNllForward(const float* logits, size_t rows, size_t cols,
                         const uint32_t* targets, float* probs);

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
  void (*softmax_nll_backward)(const float*, const uint32_t*, const uint8_t*,
                               float, size_t, size_t, float*);
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
