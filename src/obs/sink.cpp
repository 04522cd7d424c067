#include "obs/sink.h"

#include <charconv>
#include <ostream>

#include "common/expect.h"

namespace rejuv::obs {

namespace {

// Shortest representation that parses back to the identical double, so the
// JSONL/CSV round trip is exact (std::to_chars guarantees this).
std::string format_double(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string csv_escape(std::string_view text) {
  if (text.find_first_of(",\"\n\r") == std::string_view::npos) return std::string(text);
  std::string escaped;
  escaped.reserve(text.size() + 2);
  escaped.push_back('"');
  for (const char c : text) {
    if (c == '"') escaped.push_back('"');
    escaped.push_back(c);
  }
  escaped.push_back('"');
  return escaped;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
}

std::string json_escape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  append_json_escaped(escaped, text);
  return escaped;
}

std::string to_json(const TraceEvent& event) {
  std::string line;
  line.reserve(220);
  line += "{\"seq\":" + std::to_string(event.seq);
  line += ",\"t\":" + format_double(event.time);
  line += ",\"type\":\"";
  line += event_type_name(event.type);
  line += "\",\"load\":" + format_double(event.load);
  line += ",\"rep\":" + std::to_string(event.rep);
  line += ",\"value\":" + format_double(event.value);
  line += ",\"avg\":" + format_double(event.average);
  line += ",\"target\":" + format_double(event.target);
  line += ",\"exceeded\":";
  line += event.exceeded ? "true" : "false";
  line += ",\"bucket\":" + std::to_string(event.bucket);
  line += ",\"k\":" + std::to_string(event.bucket_count);
  line += ",\"fill\":" + std::to_string(event.fill);
  line += ",\"depth\":" + std::to_string(event.depth);
  line += ",\"n\":" + std::to_string(event.sample_size);
  line += ",\"pending\":" + std::to_string(event.pending);
  if (!event.note.empty()) {
    line += ",\"note\":\"" + json_escape(event.note) + "\"";
  }
  line += "}";
  return line;
}

std::string CsvSink::header() {
  return "seq,t,type,load,rep,value,avg,target,exceeded,bucket,k,fill,depth,n,pending,note";
}

std::string to_csv(const TraceEvent& event) {
  std::string row;
  row.reserve(160);
  row += std::to_string(event.seq);
  row += ',' + format_double(event.time);
  row += ',';
  row += event_type_name(event.type);
  row += ',' + format_double(event.load);
  row += ',' + std::to_string(event.rep);
  row += ',' + format_double(event.value);
  row += ',' + format_double(event.average);
  row += ',' + format_double(event.target);
  row += event.exceeded ? ",1" : ",0";
  row += ',' + std::to_string(event.bucket);
  row += ',' + std::to_string(event.bucket_count);
  row += ',' + std::to_string(event.fill);
  row += ',' + std::to_string(event.depth);
  row += ',' + std::to_string(event.sample_size);
  row += ',' + std::to_string(event.pending);
  row += ',' + csv_escape(event.note);
  return row;
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  REJUV_EXPECT(capacity >= 1, "ring buffer capacity must be at least 1");
  buffer_.reserve(capacity);
}

void RingBufferSink::record(const TraceEvent& event) {
  ++total_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
    return;
  }
  buffer_[next_] = event;
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> ordered;
  ordered.reserve(buffer_.size());
  // next_ is the oldest entry once the buffer has wrapped.
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    ordered.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return ordered;
}

void JsonlSink::record(const TraceEvent& event) { out_ << to_json(event) << '\n'; }

void JsonlSink::flush() { out_.flush(); }

CsvSink::CsvSink(std::ostream& out) : out_(out) { out_ << header() << '\n'; }

void CsvSink::record(const TraceEvent& event) { out_ << to_csv(event) << '\n'; }

void CsvSink::flush() { out_.flush(); }

}  // namespace rejuv::obs
