// Backend resolution and the dispatched kernel entry points.
//
// The backend is resolved exactly once (first kernel call or explicit
// query): `FAIRGEN_KERNEL=scalar|avx2` wins when set and satisfiable,
// otherwise cpuid picks AVX2 when both the build and the CPU support it.
// Resolution is a single atomic pointer swap, so concurrent first calls
// from worker threads are safe.

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace fairgen::nn::kernels {
namespace {

using internal::Avx2Table;
using internal::KernelTable;
using internal::ScalarTable;

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

struct Dispatch {
  Backend backend;
  const KernelTable* table;
};

Dispatch Resolve() {
  Backend backend = Avx2Available() ? Backend::kAvx2 : Backend::kScalar;
  if (const char* env = std::getenv("FAIRGEN_KERNEL");
      env != nullptr && env[0] != '\0') {
    Backend requested;
    if (!ParseBackendName(env, &requested)) {
      FAIRGEN_LOG(WARNING) << "FAIRGEN_KERNEL='" << env
                           << "' is not a known backend (scalar|avx2); "
                           << "keeping " << BackendName(backend);
    } else if (requested == Backend::kAvx2 && !Avx2Available()) {
      FAIRGEN_LOG(WARNING)
          << "FAIRGEN_KERNEL=avx2 requested but AVX2 is unavailable "
          << (internal::Avx2CompiledIn() ? "on this CPU" : "in this build")
          << "; falling back to scalar";
      backend = Backend::kScalar;
    } else {
      backend = requested;
    }
  }
  return {backend,
          backend == Backend::kAvx2 ? &Avx2Table() : &ScalarTable()};
}

std::atomic<const KernelTable*>& ActiveTableSlot() {
  static std::atomic<const KernelTable*> slot{nullptr};
  return slot;
}

std::atomic<int>& ActiveBackendSlot() {
  static std::atomic<int> slot{-1};
  return slot;
}

const KernelTable& Table() {
  const KernelTable* table = ActiveTableSlot().load(std::memory_order_acquire);
  if (table == nullptr) {
    Dispatch d = Resolve();
    // Racing first calls resolve to the same answer; last store wins and
    // both stores are identical.
    ActiveBackendSlot().store(static_cast<int>(d.backend),
                              std::memory_order_relaxed);
    ActiveTableSlot().store(d.table, std::memory_order_release);
    table = d.table;
  }
  return *table;
}

}  // namespace

Backend ActiveBackend() {
  Table();  // force resolution
  return static_cast<Backend>(ActiveBackendSlot().load());
}

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

bool Avx2Available() { return internal::Avx2CompiledIn() && CpuSupportsAvx2(); }

bool ParseBackendName(const char* name, Backend* out) {
  std::string lower;
  for (const char* p = name; *p != '\0'; ++p) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (lower == "scalar") {
    *out = Backend::kScalar;
    return true;
  }
  if (lower == "avx2") {
    *out = Backend::kAvx2;
    return true;
  }
  return false;
}

Backend SetBackendForTesting(Backend backend) {
  Backend previous = ActiveBackend();
  if (backend == Backend::kAvx2 && !Avx2Available()) backend = Backend::kScalar;
  ActiveBackendSlot().store(static_cast<int>(backend));
  ActiveTableSlot().store(
      backend == Backend::kAvx2 ? &Avx2Table() : &ScalarTable(),
      std::memory_order_release);
  return previous;
}

void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  Table().matmul(a, b, c, m, k, n);
}

void MatMulTransA(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  Table().matmul_trans_a(a, b, c, m, k, n);
}

void MatMulTransB(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  // Transpose B[n,k] into a per-thread scratch [k,n], then reuse the
  // plain matmul so the accumulation order (and bits) match MatMul.
  // thread_local keeps the decode loop allocation-free after warmup.
  // The transpose is tiled: a straight row scan of B writes bt with
  // stride n, missing cache on every store once n is large (the tied
  // vocab projection transposes a [vocab, dim] table); 32x32 blocks keep
  // both sides within a few cache lines. Pure data movement — tiling
  // cannot change the bits.
  static thread_local std::vector<float> scratch;
  scratch.resize(k * n);
  float* bt = scratch.data();
  constexpr size_t kTile = 32;
  if (n < 2 * kTile || k < 2 * kTile) {
    // Small operand: the straight scan stays in cache; skip tile
    // bookkeeping.
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      for (size_t p = 0; p < k; ++p) bt[p * n + j] = brow[p];
    }
  } else {
    for (size_t j0 = 0; j0 < n; j0 += kTile) {
      const size_t j1 = j0 + kTile < n ? j0 + kTile : n;
      for (size_t p0 = 0; p0 < k; p0 += kTile) {
        const size_t p1 = p0 + kTile < k ? p0 + kTile : k;
        for (size_t j = j0; j < j1; ++j) {
          const float* brow = b + j * k;
          for (size_t p = p0; p < p1; ++p) bt[p * n + j] = brow[p];
        }
      }
    }
  }
  Table().matmul(a, bt, c, m, k, n);
}

void Add(float* a, const float* b, size_t len) { Table().add(a, b, len); }

void AddScaled(float* a, const float* b, float alpha, size_t len) {
  Table().add_scaled(a, b, alpha, len);
}

void Scale(float* a, float alpha, size_t len) {
  Table().scale(a, alpha, len);
}

void AdamUpdate(float* value, const float* grad, float* m, float* v,
                size_t len, const AdamStepParams& params) {
  Table().adam_update(value, grad, m, v, len, params);
}

double SoftmaxNllForward(const float* logits, size_t rows, size_t cols,
                         const uint32_t* targets, float* probs) {
  return Table().softmax_nll_forward(logits, rows, cols, targets, probs);
}

void SoftmaxNllBackward(const float* probs, const uint32_t* targets,
                        const uint8_t* row_mask, float gscale, size_t rows,
                        size_t cols, float* dlogits) {
  Table().softmax_nll_backward(probs, targets, row_mask, gscale, rows, cols,
                               dlogits);
}

double CategoricalWeights(const float* logits, size_t n, float temperature,
                          float* weights, double* block_sums) {
  return Table().categorical_weights(logits, n, temperature, weights,
                                     block_sums);
}

void Gelu(const float* x, size_t n, float* y, float* one_plus_tanh) {
  Table().gelu(x, n, y, one_plus_tanh);
}

}  // namespace fairgen::nn::kernels
