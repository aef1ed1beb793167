#include "nn/serialize.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "util/binary_io.h"

namespace copyattack::nn {
namespace {

constexpr std::uint32_t kMagic = 0xCA11AB1E;

using util::ReadBytes;
using util::ReadPod;
using util::WriteBytes;
using util::WritePod;

}  // namespace

bool SaveParameters(const ParameterList& params, std::ostream& out) {
  if (!out) return false;
  WritePod(out, kMagic);
  WritePod<std::uint32_t>(out, params.size());
  for (const Parameter* p : params) {
    WritePod<std::uint32_t>(out, p->name.size());
    WriteBytes(out, p->name.data(), p->name.size());
    WritePod<std::uint32_t>(out, p->value.rows());
    WritePod<std::uint32_t>(out, p->value.cols());
    WriteBytes(out, p->value.data(), p->value.size() * sizeof(float));
  }
  return static_cast<bool>(out);
}

bool LoadParameters(const ParameterList& params, std::istream& in) {
  if (!in) return false;
  std::uint32_t magic = 0, count = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) return false;
  if (!ReadPod(in, &count) || count != params.size()) return false;
  for (Parameter* p : params) {
    std::uint32_t name_size = 0, rows = 0, cols = 0;
    if (!ReadPod(in, &name_size)) return false;
    std::string name(name_size, '\0');
    if (!ReadBytes(in, name.data(), name.size()) || name != p->name) {
      return false;
    }
    if (!ReadPod(in, &rows) || !ReadPod(in, &cols)) return false;
    if (rows != p->value.rows() || cols != p->value.cols()) return false;
    if (!ReadBytes(in, p->value.data(), p->value.size() * sizeof(float))) {
      return false;
    }
  }
  return true;
}

}  // namespace copyattack::nn
