#pragma once

#include <string>
#include <vector>

// Internal helpers shared by the trace readers (CsvTraceSource and
// CsvFailureTraceSource); not part of the trace API.
namespace ehpc::trace::csv {

/// Split one CSV line on ','. A trailing comma adds no empty last field.
std::vector<std::string> split(const std::string& line);

/// Strict field parsers: the whole field must be consumed, so "12x" or an
/// empty field is an error instead of atoi's silent 0/12. The error reads
/// "<path>:<line>: bad <what> '<field>'".
long parse_long(const std::string& field, const std::string& what,
                const std::string& path, long line);
double parse_double(const std::string& field, const std::string& what,
                    const std::string& path, long line);

}  // namespace ehpc::trace::csv
