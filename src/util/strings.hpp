// Small string utilities shared by the netlist file format, the CLI parser
// and the table formatter.  Kept dependency-free and allocation-conscious.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qbp {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Split on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char sep);

/// Split on runs of whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string_view> split_whitespace(std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Parse helpers returning false on malformed input instead of throwing;
/// the netlist reader turns failures into line-numbered diagnostics.
[[nodiscard]] bool parse_int(std::string_view text, long long& out) noexcept;
[[nodiscard]] bool parse_double(std::string_view text, double& out) noexcept;

/// Fixed-point formatting without locale surprises ("%.*f").
[[nodiscard]] std::string format_double(double value, int decimals);

/// Thousands-grouped integer formatting for table output (e.g. "20,756").
[[nodiscard]] std::string format_grouped(long long value);

/// `prefix` followed by the decimal digits of `number` ("u" and 7 give
/// "u7").  Use it for generated names instead of `"u" + std::to_string(7)`,
/// whose inlined insert trips GCC 12's -Wrestrict false positive in
/// optimized builds.
[[nodiscard]] std::string numbered(std::string_view prefix, long long number);

}  // namespace qbp
