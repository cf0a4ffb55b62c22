//===- Format.h - Small formatting helpers ---------------------*- C++ -*-===//

#ifndef HGLIFT_SUPPORT_FORMAT_H
#define HGLIFT_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <vector>

namespace hglift {

/// Format V as lowercase hex with a 0x prefix.
std::string hexStr(uint64_t V);

/// Format V as a signed displacement: "+0x10" / "-0x10" / "" for zero.
std::string dispStr(int64_t V);

/// Format a duration in seconds as "h:mm:ss".
std::string hmsStr(double Seconds);

/// Left-pad S to width W with spaces.
std::string padLeft(const std::string &S, size_t W);
/// Right-pad S to width W with spaces.
std::string padRight(const std::string &S, size_t W);

/// Format a count with thousands separators ("399 771" style, as the paper
/// prints instruction counts).
std::string groupedStr(uint64_t V);

/// The non-empty items of a comma-separated list ("a,,b" -> {"a", "b"}).
std::vector<std::string> splitList(const std::string &S);

} // namespace hglift

#endif // HGLIFT_SUPPORT_FORMAT_H
