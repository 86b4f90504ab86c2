#include "src/common/text_parse.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <system_error>
#include <vector>

#include "src/common/check.h"

namespace knnq {

std::string FormatDouble(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  KNNQ_CHECK(ec == std::errc());
  return std::string(buffer, end);
}

std::string_view TrimWhitespace(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(
                              text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

namespace {

/// Splits on ',' and diagnoses by position: a wrong field count names
/// the count (and a trailing comma when that is the cause), a bad
/// field names which field and why.
Result<std::vector<double>> ParseFields(std::string_view text,
                                        std::size_t count,
                                        const std::string& expected) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = text.find(',', begin);
    fields.push_back(text.substr(begin, comma == std::string_view::npos
                                            ? std::string_view::npos
                                            : comma - begin));
    if (comma == std::string_view::npos) break;
    begin = comma + 1;
  }
  const std::string prefix = "must look like " + expected + ": ";
  if (fields.size() != count) {
    std::string detail =
        "got " + std::to_string(fields.size()) +
        (fields.size() == 1 ? " field" : " fields") + ", expected " +
        std::to_string(count);
    if (fields.size() == count + 1 &&
        TrimWhitespace(fields.back()).empty()) {
      detail +=
          " (trailing comma after field " + std::to_string(count) + "?)";
    }
    return Status::InvalidArgument(prefix + detail);
  }
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    auto value = ParseDouble(TrimWhitespace(fields[i]));
    if (!value.ok()) {
      return Status::InvalidArgument(prefix + "field " +
                                     std::to_string(i + 1) + ": " +
                                     value.status().message());
    }
    values.push_back(*value);
  }
  return values;
}

}  // namespace

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) {
    return Status::InvalidArgument("expected a number, got empty text");
  }
  // std::from_chars parses a locale-independent decimal grammar: a
  // server running under a comma-decimal LC_NUMERIC still reads "1.5"
  // as three halves (strtod, the predecessor, honored the locale). It
  // also has no hex forms - "0x10" stops at 'x' and fails the
  // full-consume check - so the grammar stays decimal-only without a
  // special case. Two strtod-isms are preserved by hand: leading
  // whitespace and an explicit '+' sign.
  std::string_view body = text;
  while (!body.empty() &&
         std::isspace(static_cast<unsigned char>(body.front()))) {
    body.remove_prefix(1);
  }
  if (!body.empty() && body.front() == '+') body.remove_prefix(1);
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value);
  if (end != body.data() + body.size() ||
      (ec != std::errc() && ec != std::errc::result_out_of_range)) {
    return Status::InvalidArgument("malformed number '" +
                                   std::string(text) + "'");
  }
  if (ec == std::errc::result_out_of_range || !std::isfinite(value)) {
    return Status::InvalidArgument("number '" + std::string(text) +
                                   "' is not finite");
  }
  return value;
}

Result<std::size_t> ParseSize(std::string_view text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string_view::npos) {
    return Status::InvalidArgument("expected a non-negative integer, got '" +
                                   std::string(text) + "'");
  }
  const std::string owned(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(owned.c_str(), &end, 10);
  constexpr unsigned long long kMax = SIZE_MAX;
  if (end != owned.c_str() + owned.size() || errno == ERANGE ||
      value > kMax) {
    return Status::InvalidArgument("integer out of range: '" + owned + "'");
  }
  return static_cast<std::size_t>(value);
}

Result<Point> ParsePointText(std::string_view text) {
  auto fields = ParseFields(text, 2, "X,Y");
  if (!fields.ok()) return fields.status();
  return Point{.id = -1, .x = (*fields)[0], .y = (*fields)[1]};
}

}  // namespace knnq
