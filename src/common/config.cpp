#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace ehpc {

namespace {

std::string normalize_key(std::string key) {
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

ConfigError bad_value(const std::string& key, const std::string& value,
                      const char* expected) {
  return ConfigError("bad value for '" + key + "': '" + value + "' (expected " +
                     expected + ")");
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.size() > 2 && token.compare(0, 2, "--") == 0) {
      token.erase(0, 2);
      if (token.find('=') == std::string::npos) token += "=true";
    }
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(std::move(token));
    } else {
      cfg.values_[normalize_key(token.substr(0, eq))] = token.substr(eq + 1);
    }
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv,
                         const std::vector<std::string>& allowed_keys) {
  Config cfg = from_args(argc, argv);
  cfg.require_known(allowed_keys);
  return cfg;
}

void Config::require_known(const std::vector<std::string>& allowed_keys) const {
  for (const auto& [key, value] : values_) {
    if (std::find(allowed_keys.begin(), allowed_keys.end(), key) !=
        allowed_keys.end()) {
      continue;
    }
    std::string msg = "unknown option '" + key + "'; known options:";
    if (allowed_keys.empty()) {
      msg += " (none)";
    } else {
      for (const auto& k : allowed_keys) msg += " " + k;
    }
    throw ConfigError(msg);
  }
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key,
                           const std::string& fallback) const {
  return get(key).value_or(fallback);
}

int Config::get_int(const std::string& key, int fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(v->c_str(), &end, 10);
  if (v->empty() || end != v->c_str() + v->size()) {
    throw bad_value(key, *v, "an integer");
  }
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw bad_value(key, *v, "an integer in int range");
  }
  return static_cast<int>(value);
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(v->c_str(), &end);
  if (v->empty() || end != v->c_str() + v->size()) {
    throw bad_value(key, *v, "a number");
  }
  if (errno == ERANGE && std::isinf(value)) {
    throw bad_value(key, *v, "a number in double range");
  }
  return value;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  throw bad_value(key, *v, "1/true/yes/on or 0/false/no/off");
}

}  // namespace ehpc
