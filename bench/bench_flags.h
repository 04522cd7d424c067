// Flag parsing shared by the figure, table and extension benches: a
// misspelled or unsupported flag exits 1 with a message instead of being
// silently ignored, as the tools/ CLIs do.
#pragma once

#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <string_view>

#include "common/flags.h"

namespace rejuv::bench {

/// Parses `argv`, accepting only the flags in `known`; on an unknown flag or
/// a malformed argument prints the error and exits 1.
inline common::Flags parse_flags(int argc, const char* const* argv,
                                 std::initializer_list<std::string_view> known) {
  try {
    common::Flags flags = common::Flags::parse(argc, argv);
    flags.expect_only(known);
    return flags;
  } catch (const std::exception& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    std::exit(1);
  }
}

}  // namespace rejuv::bench
