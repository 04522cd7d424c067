#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "common/expect.h"

namespace rejuv::common {

namespace {

// The whole of `text` as a number; throws std::invalid_argument naming the
// flag on anything else ("oops", "12abc", "").
template <typename Number>
Number parse_flag_value(const std::string& key, std::string_view text) {
  Number value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc{} || ptr != last) {
    throw std::invalid_argument("invalid value for --" + key + ": '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument("unrecognized argument: " + token + " (expected --key[=value])");
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      flags.values_[token.substr(2)] = "";
    } else {
      flags.values_[token.substr(2, eq - 2)] = token.substr(eq + 1);
    }
  }
  return flags;
}

void Flags::expect_only(std::initializer_list<std::string_view> known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("unknown flag: --" + key);
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) != 0; }

std::optional<std::string> Flags::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return parse_flag_value<std::int64_t>(key, *value);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return parse_flag_value<double>(key, *value);
}

std::vector<double> Flags::get_double_list(const std::string& key,
                                           std::vector<double> fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= value->size()) {
    const auto comma = value->find(',', start);
    const auto end = comma == std::string::npos ? value->size() : comma;
    if (end > start) {
      out.push_back(
          parse_flag_value<double>(key, std::string_view(*value).substr(start, end - start)));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  REJUV_EXPECT(!out.empty(), "empty list for --" + key);
  return out;
}

bool env_enabled(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string value = raw;
  return !value.empty() && value != "0" && value != "false";
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::stoll(raw);
}

}  // namespace rejuv::common
