#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/fnv.hpp"
#include "obs/json.hpp"

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - percentile_rank(n, q);
}

bool tail_reportable(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinTailSamples;
}

double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[percentile_rank(sorted.size(), q) - 1];
}

double windowed_percentile(std::span<const double> samples, std::size_t window,
                           double q) {
  if (window == 0 || samples.size() < window) {
    throw std::invalid_argument("windowed_percentile: no whole window");
  }
  if (!tail_reportable(window, q)) {
    throw std::invalid_argument(
        "windowed_percentile: too few samples beyond the percentile");
  }
  std::vector<double> per_window;
  std::vector<double> sorted(window);
  for (std::size_t at = 0; at + window <= samples.size(); at += window) {
    std::copy_n(samples.begin() + std::ptrdiff_t(at), window, sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    per_window.push_back(percentile(sorted, q));
  }
  return median(std::move(per_window));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 0.5);
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!name_char(name[0]) || name[0] == '_' || name[0] == '.' ||
      name[0] == '-') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

// --- spans ------------------------------------------------------------------

double SpanLog::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int32_t SpanLog::open(std::string_view name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ms = now_ms();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  spans_[std::size_t(index)].end_ms = now_ms();
  open_.pop_back();
}

std::vector<Span> SpanLog::take() {
  if (!open_.empty()) throw std::logic_error("SpanLog: span still open");
  return std::exchange(spans_, {});
}

void LayerTable::merge(const LayerTable& other) {
  for (const auto& [name, ms] : other.self_ms) self_ms[name] += ms;
  unattributed_ms += other.unattributed_ms;
  op_total_ms += other.op_total_ms;
  ops += other.ops;
}

double LayerTable::per_op_ms(std::string_view name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() || ops == 0 ? 0.0 : it->second / double(ops);
}

double LayerTable::attributed_fraction() const {
  return op_total_ms > 0.0 ? 1.0 - unattributed_ms / op_total_ms : 0.0;
}

LayerTable layer_table(std::span<const Span> spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      if (std::size_t(s.parent) >= spans.size()) {
        throw std::invalid_argument("layer_table: parent out of range");
      }
      child_ms[std::size_t(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  LayerTable table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end_ms - s.start_ms;
    const double self = duration - child_ms[i];
    if (s.parent < 0) {
      table.unattributed_ms += self;
      table.op_total_ms += duration;
      ++table.ops;
    } else {
      table.self_ms[std::string(s.name)] += self;
    }
  }
  return table;
}

bool write_spans(const std::string& path, std::span<const Span> spans) {
  std::ofstream out(path);
  if (!out) return false;
  char buf[96];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf), "\"start_ms\":%.6f,\"end_ms\":%.6f",
                  s.start_ms, s.end_ms);
    out << "{\"name\":" << json_string(s.name) << ',' << buf
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return bool(out);
}

// --- checks -----------------------------------------------------------------

std::uint64_t fold_digests(std::span<const std::uint64_t> digests) {
  wrsn::Fnv fnv;
  fnv.mix(std::uint64_t{digests.size()});
  for (const std::uint64_t d : digests) fnv.mix(d);
  return fnv.hash();
}

std::optional<std::size_t> first_mismatch(
    std::span<const std::uint64_t> expected,
    std::span<const std::uint64_t> actual) {
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] != actual[i]) return i;
  }
  if (expected.size() != actual.size()) return n;
  return std::nullopt;
}

// --- report -----------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void Report::metric(std::string_view name, double value,
                    std::string_view unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name: " + std::string(name));
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("bad unit for " + std::string(name));
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite metric " + std::string(name));
  }
  for (const Entry& e : metrics_) {
    if (e.name == name) {
      throw std::invalid_argument("duplicate metric " + std::string(name));
    }
  }
  metrics_.push_back({std::string(name), value, std::string(unit)});
}

void Report::mismatch(std::string what) {
  mismatches_.push_back(std::move(what));
}

bool Report::expect_digests(std::string_view what,
                            std::span<const std::uint64_t> expected,
                            std::span<const std::uint64_t> actual) {
  const std::optional<std::size_t> at = first_mismatch(expected, actual);
  if (!at) return true;
  // Every differing operation counts as failed.
  std::uint64_t differing = std::max(expected.size(), actual.size()) -
                            std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < std::min(expected.size(), actual.size()); ++i) {
    if (expected[i] != actual[i]) ++differing;
  }
  failed_ += differing;
  mismatch(std::string(what) + ": " + std::to_string(differing) +
           " differ, first at index " + std::to_string(*at) + " of " +
           std::to_string(expected.size()) + "/" +
           std::to_string(actual.size()));
  return false;
}

bool Report::expect_value(std::string_view what, double expected,
                          double actual) {
  if (expected == actual) return true;
  ++failed_;
  char buf[80];
  std::snprintf(buf, sizeof(buf), ": %.17g, expected %.17g", actual, expected);
  mismatch(std::string(what) + buf);
  return false;
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::context(std::string_view key, std::string value) {
  context_.emplace_back(std::string(key), json_string(value));
}

void Report::context(std::string_view key, double value) {
  context_.emplace_back(std::string(key), wrsn::obs::json_number(value));
}

std::string Report::context_json() const {
  std::string out = "{\"context\":{";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(context_[i].first) + ':' + context_[i].second;
  }
  return out + "}}";
}

std::string Report::table() const {
  std::string out;
  char buf[160];
  for (const Entry& e : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-30s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += buf;
  }
  for (const std::string& m : mismatches_) out += "  MISMATCH " + m + "\n";
  return out;
}

std::string Report::result_json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(metrics_[i].name) + ":{\"value\":" +
           wrsn::obs::json_number(metrics_[i].value) +
           ",\"unit\":" + json_string(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
