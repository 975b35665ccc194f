#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ehpc {

/// Thrown by the strict Config parser when the command line contains a key
/// the program does not declare (e.g. a misspelled bench flag).
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Minimal "key=value" configuration map with typed getters, used by bench
/// and example binaries to accept overrides from the command line
/// (e.g. `fig7_submission_gap repeats=20 seed=7`).
///
/// GNU-style spellings are normalised: `--out-dir=x` parses as `out_dir=x`
/// and a bare `--quick` parses as `quick=true`.
class Config {
 public:
  Config() = default;

  /// Parse `argv`-style tokens of the form key=value; tokens without '=' are
  /// collected as positional arguments.
  static Config from_args(int argc, const char* const* argv);

  /// Strict variant: any parsed key not in `allowed_keys` raises ConfigError
  /// naming the offending key, so misspelled flags fail loudly instead of
  /// silently falling back to defaults.
  static Config from_args(int argc, const char* const* argv,
                          const std::vector<std::string>& allowed_keys);

  /// Raise ConfigError if this config holds a key outside `allowed_keys`.
  void require_known(const std::vector<std::string>& allowed_keys) const;

  void set(const std::string& key, std::string value);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  /// Typed getters return `fallback` when the key is absent. A present value
  /// must parse completely (no empty value, no trailing characters, an int
  /// within int range, a bool spelled 1/true/yes/on or 0/false/no/off, any
  /// case); otherwise they throw ConfigError naming the key and the value.
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// All key=value pairs, ordered by key.
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ehpc
