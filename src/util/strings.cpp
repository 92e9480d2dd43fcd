#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace qbp {

namespace {
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t k = 0; k <= text.size(); ++k) {
    if (k == text.size() || text[k] == sep) {
      fields.push_back(text.substr(start, k - start));
      start = k + 1;
    }
  }
  return fields;
}

std::vector<std::string_view> split_whitespace(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t k = 0;
  while (k < text.size()) {
    while (k < text.size() && is_space(text[k])) ++k;
    const std::size_t start = k;
    while (k < text.size() && !is_space(text[k])) ++k;
    if (k > start) fields.push_back(text.substr(start, k - start));
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool parse_int(std::string_view text, long long& out) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool parse_double(std::string_view text, double& out) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  // std::from_chars for double is available in libstdc++ >= 11.
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string format_grouped(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string grouped;
  grouped.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (std::size_t k = digits.size(); k-- > 0;) {
    grouped.push_back(digits[k]);
    if (++count == 3 && k != 0) {
      grouped.push_back(',');
      count = 0;
    }
  }
  if (negative) grouped.push_back('-');
  std::string result(grouped.rbegin(), grouped.rend());
  return result;
}

std::string numbered(std::string_view prefix, long long number) {
  std::string out(prefix);
  out += std::to_string(number);
  return out;
}

}  // namespace qbp
