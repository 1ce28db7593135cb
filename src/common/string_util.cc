#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nomsky {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  const char* const end = s.data() + s.size();
  uint64_t value = 0;
  const auto [stop, ec] = std::from_chars(s.data(), end, value);
  if (s.empty() || ec != std::errc() || stop != end) return false;
  *out = value;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* stop = nullptr;
  errno = 0;
  const double value = std::strtod(s.c_str(), &stop);
  if (errno != 0 || stop != s.c_str() + s.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string HumanBytes(size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  return buf;
}

}  // namespace nomsky
