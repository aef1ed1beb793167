#ifndef COPYATTACK_UTIL_BINARY_IO_H_
#define COPYATTACK_UTIL_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

namespace copyattack::util {

// The one raw-byte codec behind every persisted byte: the campaign
// checkpoint (core/checkpoint.h), the strategy state blobs it embeds, and
// nn parameter blobs. Values travel in native byte order (little-endian on
// every platform this repo targets); floats and doubles are their raw
// IEEE-754 bytes, so round trips are bit-exact. Every Read* returns false
// on a short read.

/// Writes `size` raw bytes.
inline void WriteBytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

/// Reads exactly `size` raw bytes into `data`.
inline bool ReadBytes(std::istream& in, void* data, std::size_t size) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

/// Writes the object representation of a trivially copyable value. A bool
/// travels as an explicit u8: reading back any byte but 0 or 1 into a bool
/// would be undefined.
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T> && !std::is_same_v<T, bool>,
                "WritePod takes trivially copyable non-bool values");
  WriteBytes(out, &value, sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T> && !std::is_same_v<T, bool>,
                "ReadPod takes trivially copyable non-bool values");
  return ReadBytes(in, value, sizeof(T));
}

/// A string as its u64 length, then its bytes.
inline void WriteString(std::ostream& out, const std::string& value) {
  WritePod<std::uint64_t>(out, value.size());
  WriteBytes(out, value.data(), value.size());
}

inline bool ReadString(std::istream& in, std::string* value) {
  std::uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  // A corrupted length must not drive a giant allocation, even where a
  // CRC over the enclosing payload has already passed.
  if (size > (1ULL << 32)) return false;
  value->assign(static_cast<std::size_t>(size), '\0');
  return ReadBytes(in, value->data(), value->size());
}

}  // namespace copyattack::util

#endif  // COPYATTACK_UTIL_BINARY_IO_H_
