#include "benchlib/benchlib.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/expect.h"

namespace rejuv::benchlib {

namespace {

using Clock = std::chrono::steady_clock;

// Seconds spent in untimed() during the current time_once call.
thread_local double g_untimed_seconds = 0.0;

double time_once(const std::function<void(std::uint64_t)>& run, std::uint64_t iterations) {
  g_untimed_seconds = 0.0;
  const auto start = Clock::now();
  run(iterations);
  const auto stop = Clock::now();
  return std::chrono::duration<double>(stop - start).count() - g_untimed_seconds;
}

/// Shortest round-trip double formatting (same policy as the checkpoint
/// journal): a BENCH.json re-read compares equal to what was measured.
std::string format_double(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  REJUV_EXPECT(ec == std::errc(), "double formatting failed");
  return std::string(buffer, end);
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

}  // namespace

BenchOptions BenchOptions::quick() {
  BenchOptions options;
  options.repetitions = 5;
  options.warmup_repetitions = 1;
  options.min_rep_seconds = 0.01;
  return options;
}

double median(std::vector<double> values) {
  REJUV_EXPECT(!values.empty(), "median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double median_abs_deviation(std::vector<double> values, double center) {
  for (double& value : values) value = std::abs(value - center);
  return median(std::move(values));
}

void Registry::add(std::string suite, std::string name,
                   std::function<void(std::uint64_t)> run) {
  REJUV_EXPECT(!suite.empty() && !name.empty(), "benchmark suite and name must be non-empty");
  REJUV_EXPECT(static_cast<bool>(run), "benchmark body must be callable");
  for (const Benchmark& existing : benchmarks_) {
    REJUV_EXPECT(existing.name != name, "duplicate benchmark name: " + name);
  }
  benchmarks_.push_back({std::move(suite), std::move(name), std::move(run)});
}

std::vector<std::string> Registry::suites() const {
  std::vector<std::string> names;
  for (const Benchmark& benchmark : benchmarks_) {
    if (std::find(names.begin(), names.end(), benchmark.suite) == names.end()) {
      names.push_back(benchmark.suite);
    }
  }
  return names;
}

void untimed(const std::function<void()>& setup) {
  const auto start = Clock::now();
  setup();
  g_untimed_seconds += std::chrono::duration<double>(Clock::now() - start).count();
}

BenchResult run_benchmark(const Benchmark& benchmark, const BenchOptions& options) {
  REJUV_EXPECT(options.repetitions >= 1, "at least one timed repetition is required");

  // Calibrate the per-repetition iteration count until one repetition takes
  // at least min_rep_seconds. The calibration runs double as cache warmup.
  std::uint64_t iterations = 1;
  for (;;) {
    const double elapsed = time_once(benchmark.run, iterations);
    if (elapsed >= options.min_rep_seconds) break;
    if (iterations >= (std::uint64_t{1} << 40)) break;  // pathological no-op body
    // Aim 40% past the target so one growth step usually suffices, but at
    // least double to make progress when the clock resolution dominates.
    std::uint64_t next = iterations * 2;
    if (elapsed > 0.0) {
      const double scaled =
          static_cast<double>(iterations) * 1.4 * options.min_rep_seconds / elapsed;
      if (scaled > static_cast<double>(next)) next = static_cast<std::uint64_t>(scaled);
    }
    iterations = next;
  }

  for (int i = 0; i < options.warmup_repetitions; ++i) {
    (void)time_once(benchmark.run, iterations);
  }

  std::vector<double> per_op_ns;
  per_op_ns.reserve(static_cast<std::size_t>(options.repetitions));
  for (int i = 0; i < options.repetitions; ++i) {
    const double elapsed = time_once(benchmark.run, iterations);
    per_op_ns.push_back(elapsed * 1e9 / static_cast<double>(iterations));
  }

  BenchResult result;
  result.suite = benchmark.suite;
  result.name = benchmark.name;
  result.median_ns = median(per_op_ns);
  result.mad_ns = median_abs_deviation(per_op_ns, result.median_ns);
  result.min_ns = *std::min_element(per_op_ns.begin(), per_op_ns.end());
  result.max_ns = *std::max_element(per_op_ns.begin(), per_op_ns.end());
  double sum = 0.0;
  for (const double ns : per_op_ns) sum += ns;
  result.mean_ns = sum / static_cast<double>(per_op_ns.size());
  result.ops_per_second = result.median_ns > 0.0 ? 1e9 / result.median_ns : 0.0;
  result.iterations = iterations;
  result.repetitions = options.repetitions;
  return result;
}

std::vector<BenchResult> Registry::run(const BenchOptions& options, const std::string& suite,
                                       const std::string& filter,
                                       std::ostream* progress) const {
  std::vector<BenchResult> results;
  for (const Benchmark& benchmark : benchmarks_) {
    if (suite != "all" && benchmark.suite != suite) continue;
    if (!filter.empty() && benchmark.name.find(filter) == std::string::npos) continue;
    BenchResult result = run_benchmark(benchmark, options);
    if (progress != nullptr) {
      *progress << "  " << result.name << ": " << format_double(result.median_ns)
                << " ns/op (mad " << format_double(result.mad_ns) << ")\n";
    }
    results.push_back(std::move(result));
  }
  return results;
}

void write_json(std::ostream& out, const RunMetadata& metadata,
                const std::vector<BenchResult>& results) {
  out << "{\n";
  out << "  \"schema\": \"rejuv-bench/1\",\n";
  out << "  \"git_sha\": \"" << escape(metadata.git_sha) << "\",\n";
  out << "  \"mode\": \"" << escape(metadata.mode) << "\",\n";
  out << "  \"repetitions\": " << metadata.repetitions << ",\n";
  out << "  \"min_rep_seconds\": " << format_double(metadata.min_rep_seconds) << ",\n";
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"suite\": \"" << escape(r.suite) << "\", \"name\": \"" << escape(r.name)
        << "\", \"median_ns\": " << format_double(r.median_ns)
        << ", \"mad_ns\": " << format_double(r.mad_ns)
        << ", \"mean_ns\": " << format_double(r.mean_ns)
        << ", \"min_ns\": " << format_double(r.min_ns)
        << ", \"max_ns\": " << format_double(r.max_ns)
        << ", \"ops_per_second\": " << format_double(r.ops_per_second)
        << ", \"iterations\": " << r.iterations << ", \"repetitions\": " << r.repetitions
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

namespace {

/// Minimal recursive-descent JSON reader covering exactly the write_json
/// schema (objects, arrays, strings, numbers, booleans, null). Kept private:
/// benchlib only ever parses documents benchlib wrote.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  bool parse_document(BaselineFile& out) {
    skip_ws();
    if (!parse_object_into(out, /*depth=*/0)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  // Parses one object. At depth 0 it captures git_sha; inside the
  // "benchmarks" array (depth 1) it captures name/median_ns pairs.
  bool parse_object_into(BaselineFile& out, int depth) {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    std::string entry_name;
    double entry_median = -1.0;
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (depth == 0 && key == "benchmarks") {
        if (!parse_benchmark_array(out)) return false;
      } else if (depth == 0 && key == "git_sha") {
        if (!parse_string(out.git_sha)) return false;
      } else if (depth == 1 && key == "name") {
        if (!parse_string(entry_name)) return false;
      } else if (depth == 1 && key == "median_ns") {
        if (!parse_number(entry_median)) return false;
      } else {
        if (!skip_value()) return false;
      }
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      break;
    }
    if (!consume('}')) return false;
    if (depth == 1 && !entry_name.empty() && entry_median >= 0.0) {
      out.median_ns[entry_name] = entry_median;
    }
    return true;
  }

  bool parse_benchmark_array(BaselineFile& out) {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      if (!parse_object_into(out, /*depth=*/1)) return false;
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      break;
    }
    return consume(']');
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: return false;  // \b, \f, \uXXXX never written by write_json
        }
      } else {
        out += c;
      }
    }
    return false;
  }

  bool parse_number(double& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const auto [end, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, out);
    return ec == std::errc() && end == text_.data() + pos_;
  }

  bool skip_value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '"') {
      std::string ignored;
      return parse_string(ignored);
    }
    if (c == '{' || c == '[') {
      // Structural skip: count nesting, honoring strings.
      int depth = 0;
      bool in_string = false;
      while (pos_ < text_.size()) {
        const char cur = text_[pos_++];
        if (in_string) {
          if (cur == '\\') {
            if (pos_ < text_.size()) ++pos_;
          } else if (cur == '"') {
            in_string = false;
          }
          continue;
        }
        if (cur == '"') in_string = true;
        if (cur == '{' || cur == '[') ++depth;
        if (cur == '}' || cur == ']') {
          --depth;
          if (depth == 0) return true;
        }
      }
      return false;
    }
    if (text_.compare(pos_, 4, "true") == 0) return pos_ += 4, true;
    if (text_.compare(pos_, 5, "false") == 0) return pos_ += 5, true;
    if (text_.compare(pos_, 4, "null") == 0) return pos_ += 4, true;
    double ignored = 0.0;
    return parse_number(ignored);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<BaselineFile> parse_bench_json(const std::string& text) {
  BaselineFile baseline;
  JsonScanner scanner(text);
  if (!scanner.parse_document(baseline)) return std::nullopt;
  return baseline;
}

BaselineFile read_baseline_file(const std::string& path) {
  std::ifstream in(path);
  REJUV_EXPECT(in.is_open(), "cannot open baseline file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto baseline = parse_bench_json(buffer.str());
  REJUV_EXPECT(baseline.has_value(), "baseline file is not valid BENCH.json: " + path);
  return *std::move(baseline);
}

CompareReport compare_to_baseline(const std::vector<BenchResult>& results,
                                  const BaselineFile& baseline, double max_ratio) {
  REJUV_EXPECT(max_ratio > 0.0, "gate ratio must be positive");
  CompareReport report;
  for (const BenchResult& result : results) {
    const auto it = baseline.median_ns.find(result.name);
    if (it == baseline.median_ns.end() || it->second <= 0.0) {
      report.missing_in_baseline.push_back(result.name);
      continue;
    }
    const double ratio = result.median_ns / it->second;
    if (ratio > max_ratio) {
      report.regressions.push_back({result.name, it->second, result.median_ns, ratio});
    } else if (ratio < 1.0 / max_ratio) {
      report.improved.push_back(result.name);
    }
  }
  return report;
}

}  // namespace rejuv::benchlib
