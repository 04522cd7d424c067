// Detector specs: detector configuration as a first-class, round-trippable
// string API.
//
// The harness sweeps, the rejuv-sim CLI, the benches and the online monitor
// all need to name a detector configuration; the spec string is the one
// vocabulary they share. parse_spec() reads the exact strings
// Detector::name() / describe() print into a DetectorConfig, and
// make_detector() (core/factory.h) builds it — the only way a detector is
// constructed — so
//
//   parse_spec(describe(config)) == config
//
// holds for every registered family. The grammar is
//
//   spec    := name [ "(" kv ("," kv)* ")" ]
//   name    := any family registered in the DetectorRegistry
//              (the built-ins: None | Static | SRAA | SARAA | SARAA-noaccel
//               | CLTA | Adaptive | EDiv | Entropy | MK | QuantileThreshold
//               | Trend | BobbioDet | BobbioRisk)
//   kv      := key "=" number
//   key     := a parameter key from the family's schema | mu | sigma
//
// with case-insensitive names/keys and optional whitespace. Keys and their
// defaults/ranges come from each family's DetectorDescriptor, so a newly
// registered family parses and prints without touching this parser.
// `mu`/`sigma` are universal: they override the SLA baseline (describe()
// never prints them; they exist so a CLI spec can carry a non-default
// baseline in one token).
#pragma once

#include <string>
#include <string_view>

#include "core/factory.h"

namespace rejuv::core {

/// Parses a detector spec string into the equivalent DetectorConfig.
/// Throws std::invalid_argument naming the offending token on bad input;
/// an unknown family name lists every registered family.
DetectorConfig parse_spec(std::string_view text);

/// Throws std::invalid_argument unless `config` satisfies its family's
/// schema (count parameters integral and in range, reals finite and in
/// range) and, for families that use it, carries a valid baseline.
void validate_config(const DetectorConfig& config);

}  // namespace rejuv::core
