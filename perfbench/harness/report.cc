#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/harness.h"

namespace perfbench {

std::atomic<std::uint64_t> SpanLog::next_id_{0};

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

/// Full-precision number; non-finite values (never expected) become 0 so
/// the output stays valid JSON.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value, std::string_view unit,
                 std::size_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::string(unit);
      m.samples = samples;
      return;
    }
  }
  metrics_.push_back({name, value, std::string(unit), samples});
}

void Report::Fail(const std::string& reason) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(reason);
}

bool CheckEqual(std::uint64_t got, std::uint64_t expected,
                const std::string& what, Report* report) {
  if (got == expected) return true;
  report->Fail(what + ": got " + std::to_string(got) + ", expected " +
               std::to_string(expected));
  return false;
}

bool CheckWithin(std::uint64_t got, std::uint64_t lo, std::uint64_t hi,
                 const std::string& what, Report* report) {
  if (got >= lo && got <= hi) return true;
  report->Fail(what + ": got " + std::to_string(got) + ", expected within [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return false;
}

void Report::AddContext(const std::string& key, const std::string& json_value) {
  context_.emplace_back(key, json_value);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? "," : "") << JsonString(m.name) << ":{\"value\":"
        << Number(m.value) << ",\"unit\":" << JsonString(m.unit) << "}";
  }
  out << "},\"samples\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? "," : "") << JsonString(metrics_[i].name) << ":"
        << metrics_[i].samples;
  }
  out << "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? "," : "") << JsonString(failures_[i]);
  }
  out << "],\"context\":{";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    out << (i ? "," : "") << JsonString(context_[i].first) << ":"
        << context_[i].second;
  }
  out << "}}";
  return out.str();
}

std::uint64_t SpanLog::NewId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t SpanLog::Add(std::uint64_t parent, const std::string& request,
                           std::string name, std::string layer,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t id) {
  Span span;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Append(SpanLog&& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  other.spans_.clear();
}

hsparql::Status WriteSpans(const std::vector<Span>& spans,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << JsonString(s.request)
        << ",\"name\":" << JsonString(s.name)
        << ",\"layer\":" << JsonString(s.layer)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.close();
  if (!out) return hsparql::Status::IoError("cannot write " + path);
  return hsparql::Status::OK();
}

}  // namespace perfbench
