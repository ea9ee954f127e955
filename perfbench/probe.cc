#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM is the high-water mark of this program image alone. ru_maxrss
  // is not: Linux carries it across fork and exec, so a small program
  // started by a larger launcher reports the launcher's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string Digest(const std::string& data) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double TailLevelPercent(size_t n) {
  for (double level : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - level / 100.0) >= 10.0) return level;
  }
  return 0.0;
}

std::string FitOperator(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos || slash < 3) return "";
  if (path.compare(slash - 3, 3, "fit") != 0) return "";
  if (slash > 3 && path[slash - 4] != '/') return "";
  return path.substr(slash + 1);
}

int SpanList::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.cell = cell_;
  span.tid = ThreadIndex();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanList::Close(int index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost first; tolerate a parent closed before a child.
  open_.erase(std::remove(open_.begin(), open_.end(), index), open_.end());
}

double ScopedSpan::Close() {
  if (!closed_) {
    list_->Close(index_);
    closed_ = true;
  }
  return list_->spans()[index_].seconds();
}

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::map<std::string, double> SelfSeconds(
    const std::vector<const SpanList*>& lists) {
  std::map<std::string, double> self;
  for (const SpanList* list : lists) {
    const std::vector<Span>& spans = list->spans();
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) child_seconds[span.parent] += span.seconds();
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name] += spans[i].seconds() - child_seconds[i];
    }
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanList*>& lists,
                      int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const SpanList* list : lists) {
    for (const Span& span : list->spans()) {
      std::fprintf(f,
                   "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cell\":%lld,"
                   "\"parent\":%s}}",
                   first ? "" : ",\n", JsonQuote(span.name).c_str(),
                   span.tid, (span.start_ns - origin_ns) * 1e-3,
                   (span.end_ns - span.start_ns) * 1e-3,
                   static_cast<long long>(span.cell),
                   span.parent >= 0
                       ? JsonQuote(list->spans()[span.parent].name).c_str()
                       : "null");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[32];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.Render());
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonQuote(fields_[i].first);
    out += ':';
    out += fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
