#include "trace/csv.hpp"

#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace ehpc::trace::csv {

std::vector<std::string> split(const std::string& line) {
  std::istringstream ls(line);
  std::vector<std::string> fields;
  std::string field;
  while (std::getline(ls, field, ',')) fields.push_back(field);
  return fields;
}

long parse_long(const std::string& field, const std::string& what,
                const std::string& path, long line) {
  char* end = nullptr;
  const long value = std::strtol(field.c_str(), &end, 10);
  if (field.empty() || end != field.c_str() + field.size()) {
    throw PreconditionError(path + ":" + std::to_string(line) + ": bad " +
                            what + " '" + field + "'");
  }
  return value;
}

double parse_double(const std::string& field, const std::string& what,
                    const std::string& path, long line) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size()) {
    throw PreconditionError(path + ":" + std::to_string(line) + ": bad " +
                            what + " '" + field + "'");
  }
  return value;
}

}  // namespace ehpc::trace::csv
