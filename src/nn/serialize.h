#ifndef FAIRGEN_NN_SERIALIZE_H_
#define FAIRGEN_NN_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "nn/tensor.h"

namespace fairgen::nn {

/// \name Byte-buffer primitives
///
/// Little-endian fixed-width encoders/decoders of the sectioned FGCKPT2
/// training checkpoints (core/checkpoint.h). `ByteReader` is a bounds-checked cursor: every
/// decode fails with `InvalidArgument` instead of reading past the end,
/// so a truncated or corrupted checkpoint can never crash the loader.
/// @{

void AppendU8(std::string& out, uint8_t v);
void AppendU32(std::string& out, uint32_t v);
void AppendU64(std::string& out, uint64_t v);
void AppendI32(std::string& out, int32_t v);
void AppendF32(std::string& out, float v);
void AppendF64(std::string& out, double v);
/// Length-prefixed (u32) byte string.
void AppendString(std::string& out, const std::string& v);
/// u64 rows, u64 cols, rows*cols f32 payload.
void AppendTensor(std::string& out, const Tensor& t);

/// \brief Sequentially decodes values appended by the Append* functions.
class ByteReader {
 public:
  /// Reads from `bytes[offset..)`; the buffer must outlive the reader.
  explicit ByteReader(const std::string& bytes, size_t offset = 0)
      : bytes_(&bytes), pos_(offset) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<float> ReadF32();
  Result<double> ReadF64();
  Result<std::string> ReadString();
  Result<Tensor> ReadTensor();

  /// Bytes not yet consumed.
  size_t remaining() const { return bytes_->size() - pos_; }
  /// True iff the cursor consumed the whole buffer.
  bool AtEnd() const { return remaining() == 0; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const;

  const std::string* bytes_;
  size_t pos_;
};

/// @}

}  // namespace fairgen::nn

#endif  // FAIRGEN_NN_SERIALIZE_H_
