#include "core/registry.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/expect.h"
#include "core/adaptive.h"
#include "core/clta.h"
#include "core/ediv.h"
#include "core/entropy_detector.h"
#include "core/extensions.h"
#include "core/factory.h"
#include "core/mk_detector.h"
#include "core/saraa.h"
#include "core/sraa.h"
#include "core/static_rejuvenation.h"

namespace rejuv::core {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

ParamSpec count_param(std::string key, std::uint64_t default_value, std::string doc,
                      std::uint64_t min_value) {
  ParamSpec spec;
  spec.key = std::move(key);
  spec.kind = ParamSpec::Kind::kCount;
  spec.default_value = static_cast<double>(default_value);
  spec.min_value = static_cast<double>(min_value);
  spec.doc = std::move(doc);
  return spec;
}

ParamSpec real_param(std::string key, double default_value, std::string doc, double min_value,
                     bool strict_min) {
  ParamSpec spec;
  spec.key = std::move(key);
  spec.kind = ParamSpec::Kind::kReal;
  spec.default_value = default_value;
  spec.min_value = min_value;
  spec.strict_min = strict_min;
  spec.doc = std::move(doc);
  return spec;
}

DetectorRegistry& DetectorRegistry::instance() {
  // The built-in families are registered on first use rather than from
  // static initializers: a static-library consumer that never references a
  // family's translation unit would silently drop its registration.
  static DetectorRegistry* registry = [] {
    auto* fresh = new DetectorRegistry();
    fresh->register_family(null_descriptor());
    fresh->register_family(static_descriptor());
    fresh->register_family(sraa_descriptor());
    fresh->register_family(saraa_descriptor());
    fresh->register_family(saraa_noaccel_descriptor());
    fresh->register_family(clta_descriptor());
    fresh->register_family(adaptive_descriptor());
    fresh->register_family(ediv_descriptor());
    fresh->register_family(entropy_descriptor());
    fresh->register_family(mk_descriptor());
    // The related-work comparison policies, appended so the families above
    // keep their registration order.
    fresh->register_family(quantile_threshold_descriptor());
    fresh->register_family(trend_descriptor());
    fresh->register_family(bobbio_det_descriptor());
    fresh->register_family(bobbio_risk_descriptor());
    return fresh;
  }();
  return *registry;
}

void DetectorRegistry::register_family(DetectorDescriptor descriptor) {
  REJUV_EXPECT(!descriptor.name.empty(), "detector family name must not be empty");
  REJUV_EXPECT(descriptor.make != nullptr,
               "detector family \"" + descriptor.name + "\" needs a factory function");
  for (std::size_t i = 0; i < descriptor.params.size(); ++i) {
    const ParamSpec& param = descriptor.params[i];
    REJUV_EXPECT(!param.key.empty(),
                 "family \"" + descriptor.name + "\" has a parameter with an empty key");
    REJUV_EXPECT(!iequals(param.key, "mu") && !iequals(param.key, "sigma"),
                 "family \"" + descriptor.name + "\" parameter key \"" + param.key +
                     "\" collides with the universal baseline keys");
    for (std::size_t j = 0; j < i; ++j) {
      REJUV_EXPECT(!iequals(param.key, descriptor.params[j].key),
                   "family \"" + descriptor.name + "\" has duplicate parameter key \"" +
                       param.key + "\"");
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& existing : families_) {
    REJUV_EXPECT(!iequals(existing->name, descriptor.name),
                 "detector family \"" + descriptor.name + "\" is already registered");
  }
  families_.push_back(std::make_unique<const DetectorDescriptor>(std::move(descriptor)));
}

const DetectorDescriptor* DetectorRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& family : families_) {
    if (iequals(family->name, name)) return family.get();
  }
  return nullptr;
}

const DetectorDescriptor& DetectorRegistry::at(std::string_view name) const {
  const DetectorDescriptor* descriptor = find(name);
  if (descriptor != nullptr) return *descriptor;
  std::string known;
  for (const std::string& family : family_names()) {
    if (!known.empty()) known += ", ";
    known += family;
  }
  throw std::invalid_argument("unknown detector family \"" + std::string(name) +
                              "\"; registered families: " + known);
}

std::vector<std::string> DetectorRegistry::family_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& family : families_) names.push_back(family->name);
  return names;
}

DetectorConfig::DetectorConfig() : DetectorConfig("SRAA") {}

DetectorConfig::DetectorConfig(std::string_view family)
    : descriptor_(&DetectorRegistry::instance().at(family)) {
  values_.reserve(descriptor_->params.size());
  for (const ParamSpec& param : descriptor_->params) values_.push_back(param.default_value);
}

bool DetectorConfig::has(std::string_view key) const noexcept {
  for (const ParamSpec& param : descriptor_->params) {
    if (iequals(param.key, key)) return true;
  }
  return false;
}

double DetectorConfig::get(std::string_view key) const {
  for (std::size_t i = 0; i < descriptor_->params.size(); ++i) {
    if (iequals(descriptor_->params[i].key, key)) return values_[i];
  }
  throw std::invalid_argument("detector family \"" + descriptor_->name +
                              "\" has no parameter \"" + std::string(key) + "\"");
}

std::size_t DetectorConfig::get_count(std::string_view key) const {
  return static_cast<std::size_t>(std::llround(get(key)));
}

DetectorConfig& DetectorConfig::set(std::string_view key, double value) {
  for (std::size_t i = 0; i < descriptor_->params.size(); ++i) {
    if (iequals(descriptor_->params[i].key, key)) {
      values_[i] = value;
      return *this;
    }
  }
  throw std::invalid_argument("detector family \"" + descriptor_->name +
                              "\" has no parameter \"" + std::string(key) + "\"");
}

std::size_t DetectorConfig::nkd_product() const noexcept {
  std::size_t product = 1;
  for (const char* key : {"n", "K", "D"}) {
    if (has(key)) product *= static_cast<std::size_t>(std::llround(get(key)));
  }
  return product;
}

bool operator==(const DetectorConfig& a, const DetectorConfig& b) {
  return a.family() == b.family() && a.values() == b.values() &&
         a.baseline.mean == b.baseline.mean && a.baseline.stddev == b.baseline.stddev;
}

std::string spec_number(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace rejuv::core
