// Small string helpers used by preference parsing and the bench harness.

#ifndef NOMSKY_COMMON_STRING_UTIL_H_
#define NOMSKY_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace nomsky {

/// \brief Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char delim);

/// \brief Strips leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// \brief Strict unsigned decimal parse: the WHOLE of `s` must be digits
/// that fit in 64 bits — no sign, whitespace or trailing bytes. Unlike
/// std::atol, "abc" and "4x" are errors rather than 0 and 4. Leaves `*out`
/// untouched on failure.
bool ParseU64(const std::string& s, uint64_t* out);

/// \brief Strict parse of one finite decimal number spanning the whole of
/// `s` (no whitespace, trailing bytes, inf or nan). Leaves `*out` untouched
/// on failure.
bool ParseDouble(const std::string& s, double* out);

/// \brief Renders a byte count as "12.3 KB" / "4.5 MB" etc.
std::string HumanBytes(size_t bytes);

}  // namespace nomsky

#endif  // NOMSKY_COMMON_STRING_UTIL_H_
