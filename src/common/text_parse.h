// Strict textual parsing of the scalar shapes user input arrives in:
// numbers and "X,Y" points.
//
// One set of rules serves every front door — the CLI's flag values and
// the KNNQL lexer (src/lang/lexer.h) — so a coordinate that parses in
// one place parses everywhere, with the same error message.

#ifndef KNNQ_SRC_COMMON_TEXT_PARSE_H_
#define KNNQ_SRC_COMMON_TEXT_PARSE_H_

#include <string>
#include <string_view>

#include "src/common/point.h"
#include "src/common/status.h"

namespace knnq {

/// `text` without leading/trailing whitespace.
std::string_view TrimWhitespace(std::string_view text);

/// Shortest decimal rendering of `value` that ParseDouble parses back
/// to exactly `value` (std::to_chars). The inverse of ParseDouble;
/// shared by the KNNQL unparser and every JSON/metrics renderer so the
/// same number always prints the same bytes.
std::string FormatDouble(double value);

/// Parses `text` as one finite double, consuming all of it. The
/// grammar is std::from_chars' decimal grammar (plus leading
/// whitespace and an optional '+'), so '.' is the radix point no
/// matter what LC_NUMERIC the process runs under. Accepts "3", "-0.5",
/// "1.25e-3"; rejects empty input, trailing junk ("1.2.3"), hex
/// ("0x10"), infinities, NaN and out-of-range magnitudes.
Result<double> ParseDouble(std::string_view text);

/// Parses `text` as one non-negative integer, consuming all of it.
Result<std::size_t> ParseSize(std::string_view text);

/// Parses "X,Y" into a point with id -1 (focal points are not relation
/// members). Whitespace around each coordinate is allowed.
Result<Point> ParsePointText(std::string_view text);

}  // namespace knnq

#endif  // KNNQ_SRC_COMMON_TEXT_PARSE_H_
