// Flag parsing shared by the figure, table and extension benches: a
// misspelled or unsupported flag, or a malformed value, exits 1 with a
// message instead of being silently ignored or aborting, as the tools/ CLIs
// do.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"

namespace rejuv::bench {

/// A bench main's flags: a malformed value ("--txns=oops") exits 1 with the
/// error, as a misspelled flag does, instead of escaping main.
class BenchFlags {
 public:
  BenchFlags(common::Flags flags, const char* program)
      : flags_(std::move(flags)), program_(program) {}

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return or_exit([&] { return flags_.get_int(key, fallback); });
  }
  double get_double(const std::string& key, double fallback) const {
    return or_exit([&] { return flags_.get_double(key, fallback); });
  }
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const {
    return or_exit([&] { return flags_.get_double_list(key, std::move(fallback)); });
  }

 private:
  template <typename Get>
  auto or_exit(Get get) const -> decltype(get()) {
    try {
      return get();
    } catch (const std::exception& error) {
      std::cerr << program_ << ": " << error.what() << "\n";
      std::exit(1);
    }
  }

  common::Flags flags_;
  const char* program_;
};

/// Parses `argv`, accepting only the flags in `known`; on an unknown flag or
/// a malformed argument prints the error and exits 1.
inline BenchFlags parse_flags(int argc, const char* const* argv,
                              std::initializer_list<std::string_view> known) {
  try {
    common::Flags flags = common::Flags::parse(argc, argv);
    flags.expect_only(known);
    return BenchFlags(std::move(flags), argv[0]);
  } catch (const std::exception& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    std::exit(1);
  }
}

}  // namespace rejuv::bench
