#include "common.h"

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <linux/magic.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/bank.h"
#include "core/spec.h"

namespace perfbench {

namespace {
const Clock::time_point kOrigin = Clock::now();

std::mutex names_mutex;
std::vector<std::string>& names() {
  static std::vector<std::string> list;
  return list;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}
}  // namespace

double now_s() { return std::chrono::duration<double>(Clock::now() - kOrigin).count(); }

std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kOrigin).count();
}

void sleep_until_s(double deadline_s) {
  const std::chrono::duration<double> since_origin(deadline_s);
  std::this_thread::sleep_until(kOrigin +
                                std::chrono::duration_cast<Clock::duration>(since_origin));
}

double process_cpu_s() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string num(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, ptr);
}

void print_result(const Result& result) {
  std::string line = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string out_dir() {
  const std::string dir = ".perfbench_out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string journal_dir() {
  const std::string dir = out_dir() + "/journal";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

bool mount_private_journal_tmpfs() {
  const std::string dir = journal_dir();
  // Private propagation before the mount, so it never leaks to the parent
  // namespace; without the privilege, the directory stays as it is.
  if (::unshare(CLONE_NEWNS) == 0 &&
      ::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) == 0) {
    ::mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=512m,mode=0755");
  }
  struct statfs fs {};
  return ::statfs(dir.c_str(), &fs) == 0 && fs.f_type == TMPFS_MAGIC;
}

namespace {
constexpr double kHistMin = 1e-6;
const double kHistLogStep = std::log(1.05);
}  // namespace

void LogHistogram::add(double seconds) {
  const double v = std::max(seconds, kHistMin);
  const auto b = static_cast<std::size_t>(std::log(v / kHistMin) / kHistLogStep);
  ++buckets_[std::min(b, kBuckets - 1)];
  ++count_;
  max_ = std::max(max_, seconds);
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double LogHistogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return std::min(max_, kHistMin * std::exp(kHistLogStep * static_cast<double>(b + 1)));
    }
  }
  return max_;
}

// --- Spans ---------------------------------------------------------------

SpanRecorder::SpanRecorder(std::string thread_name) : thread_(std::move(thread_name)) {
  spans_.reserve(1 << 16);
}

std::int32_t SpanRecorder::begin(std::uint16_t name) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), ns_now(), 0});
  stack_.push_back(index);
  return index;
}

void SpanRecorder::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns_now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanRecorder::add(std::uint16_t name, std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), start_ns, end_ns});
}

std::int64_t SpanRecorder::first_ns() const {
  std::int64_t first = 0;
  for (const Span& s : spans_) {
    if (first == 0 || s.start_ns < first) first = s.start_ns;
  }
  return first;
}

std::int64_t SpanRecorder::last_ns() const {
  std::int64_t last = 0;
  for (const Span& s : spans_) last = std::max(last, s.end_ns);
  return last;
}

std::uint16_t name_id(const std::string& name) {
  const std::lock_guard<std::mutex> lock(names_mutex);
  auto& list = names();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] == name) return static_cast<std::uint16_t>(i);
  }
  list.push_back(name);
  return static_cast<std::uint16_t>(list.size() - 1);
}

const std::string& name_of(std::uint16_t id) {
  const std::lock_guard<std::mutex> lock(names_mutex);
  return names()[id];
}

SpanTotals totals(const std::vector<const SpanRecorder*>& recorders) {
  SpanTotals out;
  std::size_t name_count = 0;
  {
    const std::lock_guard<std::mutex> lock(names_mutex);
    name_count = names().size();
  }
  out.total_s.assign(name_count, 0.0);
  out.self_s.assign(name_count, 0.0);
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += d;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      out.total_s[s.name] += d;
      out.self_s[s.name] += d - child_s[i];
    }
  }
  return out;
}

Attribution attribution(const SpanRecorder& recorder, const std::vector<std::uint16_t>& containers,
                        const std::vector<std::uint16_t>& idle) {
  const SpanTotals t = totals({&recorder});
  double roots = 0.0;
  for (const Span& s : recorder.spans()) {
    if (s.parent < 0) roots += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  const double wall = static_cast<double>(recorder.last_ns() - recorder.first_ns()) * 1e-9;
  Attribution a;
  a.busy_s = wall;
  for (const std::uint16_t name : idle) a.busy_s -= t.self(name);
  a.unattributed_s = wall - roots;
  for (const std::uint16_t name : containers) a.unattributed_s += t.self(name);
  return a;
}

void write_spans(const std::string& path, const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path, std::ios::trunc);
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& s : recorder->spans()) {
      out << "{\"name\":\"" << name_of(s.name) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"thread\":\""
          << recorder->thread_name() << "\"}\n";
    }
  }
}

void print_fingerprint(const std::string& journal_fs) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(std::min(colon + 2, line.size()));
      break;
    }
  }
  struct utsname host {};
  ::uname(&host);
  rejuv::core::DetectorBank bank("SRAA");
  bank.add_lane(rejuv::core::parse_spec("SRAA(n=2,K=5,D=3)"));
  std::printf(
      "fingerprint {\"cpu\": \"%s\", \"nproc\": %ld, \"kernel\": \"%s %s\", \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"build_type\": \"%s\", \"simd_compiled\": %s, \"simd_active\": %s, "
      "\"journal_fs\": \"%s\"}\n",
      json_escape(cpu).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN), host.sysname, host.release,
      PERFBENCH_COMPILER, json_escape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_BUILD_TYPE,
      rejuv::core::DetectorBank::simd_compiled() ? "true" : "false",
      bank.simd_active() ? "true" : "false", journal_fs.c_str());
}

}  // namespace perfbench
