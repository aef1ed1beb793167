#ifndef COPYATTACK_NN_SERIALIZE_H_
#define COPYATTACK_NN_SERIALIZE_H_

#include <iosfwd>

#include "nn/parameter.h"

namespace copyattack::nn {

/// Writes the parameter values (not gradients) to `out` through the
/// util/binary_io.h codec: a magic tag, the parameter count, then for each
/// parameter its name (u32 length prefix), shape, and float payload. The
/// blob is embedded in a larger container (a strategy's state blob inside
/// the campaign checkpoint, core/checkpoint.h). Returns false on I/O
/// failure.
bool SaveParameters(const ParameterList& params, std::ostream& out);

/// Restores what `SaveParameters` wrote. Names and shapes must match the
/// supplied list exactly (the intended use is checkpoint/restore of the
/// same model architecture). Returns false on I/O failure or mismatch.
bool LoadParameters(const ParameterList& params, std::istream& in);

}  // namespace copyattack::nn

#endif  // COPYATTACK_NN_SERIALIZE_H_
