// Minimal command-line flag and environment parsing for bench binaries.
//
// All figure benches accept `--key=value` overrides (sample budget, seeds,
// load grid) and honour the REJUV_FULL environment switch that restores the
// paper's full 5x100,000-transaction protocol. A full argparse library would
// be overkill; this covers exactly what the binaries need.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rejuv::common {

/// Parsed `--key=value` / `--switch` command-line flags.
class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on a token that is not of the
  /// form `--key` or `--key=value`.
  static Flags parse(int argc, const char* const* argv);

  /// Throws std::invalid_argument naming the first flag that is not in
  /// `known`, so a misspelled or unsupported flag fails loudly instead of
  /// being silently ignored.
  void expect_only(std::initializer_list<std::string_view> known) const;

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  /// Numeric getters parse the whole value and throw std::invalid_argument
  /// naming the flag when it is not a number ("oops", "12abc").
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Comma-separated list of doubles, e.g. `--loads=0.5,1,2`.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// True when environment variable `name` is set to a non-empty value other
/// than "0" or "false".
bool env_enabled(const char* name);

/// Integer environment override with fallback.
std::int64_t env_int(const char* name, std::int64_t fallback);

}  // namespace rejuv::common
