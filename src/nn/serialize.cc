#include "nn/serialize.h"

#include <cstring>

namespace fairgen::nn {

namespace {
template <typename T>
void AppendRaw(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
Result<T> ReadRaw(const std::string& bytes, size_t& pos) {
  T v;
  std::memcpy(&v, bytes.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}
}  // namespace

void AppendU8(std::string& out, uint8_t v) { AppendRaw(out, v); }
void AppendU32(std::string& out, uint32_t v) { AppendRaw(out, v); }
void AppendU64(std::string& out, uint64_t v) { AppendRaw(out, v); }
void AppendI32(std::string& out, int32_t v) { AppendRaw(out, v); }
void AppendF32(std::string& out, float v) { AppendRaw(out, v); }
void AppendF64(std::string& out, double v) { AppendRaw(out, v); }

void AppendString(std::string& out, const std::string& v) {
  AppendU32(out, static_cast<uint32_t>(v.size()));
  out.append(v);
}

void AppendTensor(std::string& out, const Tensor& t) {
  AppendU64(out, t.rows());
  AppendU64(out, t.cols());
  out.append(reinterpret_cast<const char*>(t.data()),
             t.size() * sizeof(float));
}

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument(
        "truncated checkpoint data: need " + std::to_string(n) +
        " bytes at offset " + std::to_string(pos_) + ", have " +
        std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::ReadU8() {
  FAIRGEN_RETURN_NOT_OK(Need(sizeof(uint8_t)));
  return ReadRaw<uint8_t>(*bytes_, pos_);
}
Result<uint32_t> ByteReader::ReadU32() {
  FAIRGEN_RETURN_NOT_OK(Need(sizeof(uint32_t)));
  return ReadRaw<uint32_t>(*bytes_, pos_);
}
Result<uint64_t> ByteReader::ReadU64() {
  FAIRGEN_RETURN_NOT_OK(Need(sizeof(uint64_t)));
  return ReadRaw<uint64_t>(*bytes_, pos_);
}
Result<int32_t> ByteReader::ReadI32() {
  FAIRGEN_RETURN_NOT_OK(Need(sizeof(int32_t)));
  return ReadRaw<int32_t>(*bytes_, pos_);
}
Result<float> ByteReader::ReadF32() {
  FAIRGEN_RETURN_NOT_OK(Need(sizeof(float)));
  return ReadRaw<float>(*bytes_, pos_);
}
Result<double> ByteReader::ReadF64() {
  FAIRGEN_RETURN_NOT_OK(Need(sizeof(double)));
  return ReadRaw<double>(*bytes_, pos_);
}

Result<std::string> ByteReader::ReadString() {
  FAIRGEN_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  FAIRGEN_RETURN_NOT_OK(Need(len));
  std::string out = bytes_->substr(pos_, len);
  pos_ += len;
  return out;
}

Result<Tensor> ByteReader::ReadTensor() {
  FAIRGEN_ASSIGN_OR_RETURN(uint64_t rows, ReadU64());
  FAIRGEN_ASSIGN_OR_RETURN(uint64_t cols, ReadU64());
  const uint64_t count = rows * cols;
  // Overflow-safe size validation before any allocation: a corrupted
  // header must not provoke a multi-gigabyte allocation or a wrap-around.
  if ((rows != 0 && count / rows != cols) ||
      count > remaining() / sizeof(float)) {
    return Status::InvalidArgument(
        "tensor shape [" + std::to_string(rows) + "," +
        std::to_string(cols) + "] exceeds the remaining checkpoint bytes");
  }
  Tensor t(static_cast<size_t>(rows), static_cast<size_t>(cols));
  std::memcpy(t.data(), bytes_->data() + pos_,
              static_cast<size_t>(count) * sizeof(float));
  pos_ += static_cast<size_t>(count) * sizeof(float);
  return t;
}

}  // namespace fairgen::nn
