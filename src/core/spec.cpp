#include "core/spec.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/expect.h"

namespace rejuv::core {

namespace {

std::string lower(std::string_view text) {
  std::string result(text);
  for (char& c : result) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return result;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

[[noreturn]] void fail(std::string_view text, const std::string& why) {
  throw std::invalid_argument("bad detector spec \"" + std::string(text) + "\": " + why);
}

double parse_number(std::string_view text, std::string_view token) {
  const std::string_view value = trim(token);
  double result = 0.0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), result);
  if (ec != std::errc{} || ptr != value.data() + value.size() || !std::isfinite(result)) {
    std::string why = "\"";
    why += token;
    why += "\" is not a number";
    fail(text, why);
  }
  return result;
}

}  // namespace

DetectorConfig parse_spec(std::string_view text) {
  const std::string_view spec = trim(text);
  if (spec.empty()) fail(text, "empty spec");

  const std::size_t open = spec.find('(');
  std::string_view name = trim(spec.substr(0, open));
  std::string_view args;
  if (open != std::string_view::npos) {
    if (spec.back() != ')') fail(text, "missing closing parenthesis");
    args = spec.substr(open + 1, spec.size() - open - 2);
  }

  const DetectorDescriptor* descriptor = DetectorRegistry::instance().find(name);
  if (descriptor == nullptr) {
    std::string known;
    for (const std::string& family : DetectorRegistry::instance().family_names()) {
      if (!known.empty()) known += ", ";
      known += family;
    }
    fail(text, "unknown detector family \"" + std::string(name) +
                   "\"; registered families: " + known);
  }
  DetectorConfig config(descriptor->name);

  while (!args.empty()) {
    const std::size_t comma = args.find(',');
    const std::string_view kv =
        comma == std::string_view::npos ? args : args.substr(0, comma);
    args = comma == std::string_view::npos ? std::string_view{} : args.substr(comma + 1);

    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) fail(text, "expected key=value, got \"" + std::string(kv) + "\"");
    const std::string key = lower(trim(kv.substr(0, eq)));
    const std::string_view value = kv.substr(eq + 1);
    // The universal baseline keys, valid for every family.
    if (key == "mu") {
      config.baseline.mean = parse_number(text, value);
      continue;
    }
    if (key == "sigma") {
      config.baseline.stddev = parse_number(text, value);
      continue;
    }
    if (!config.has(key)) fail(text, "unknown key \"" + key + "\"");
    config.set(key, parse_number(text, value));
  }

  try {
    validate_config(config);
  } catch (const std::invalid_argument& error) {
    fail(text, error.what());
  }
  return config;
}

void validate_config(const DetectorConfig& config) {
  const DetectorDescriptor& descriptor = config.descriptor();
  if (descriptor.needs_baseline) validate(config.baseline);
  for (std::size_t i = 0; i < descriptor.params.size(); ++i) {
    const ParamSpec& param = descriptor.params[i];
    const double value = config.values()[i];
    REJUV_EXPECT(std::isfinite(value),
                 descriptor.name + " parameter " + param.key + " must be finite");
    if (param.kind == ParamSpec::Kind::kCount) {
      REJUV_EXPECT(value == std::floor(value),
                   descriptor.name + " parameter " + param.key + " must be an integer");
    }
    if (param.strict_min) {
      REJUV_EXPECT(value > param.min_value, descriptor.name + " parameter " + param.key +
                                                " must be greater than " +
                                                spec_number(param.min_value));
    } else {
      REJUV_EXPECT(value >= param.min_value, descriptor.name + " parameter " + param.key +
                                                 " must be at least " +
                                                 spec_number(param.min_value));
    }
    REJUV_EXPECT(value <= param.max_value, descriptor.name + " parameter " + param.key +
                                               " must be at most " +
                                               spec_number(param.max_value));
  }
}

}  // namespace rejuv::core
