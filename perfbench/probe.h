// Measurement helpers shared by the benchmark workloads: host clocks,
// process CPU and memory readings, an in-memory span recorder that
// exports Chrome trace-event JSON, a one-line JSON object builder, and
// the stream digest the correctness gates compare.
//
// Everything here measures the library from the outside: spans wrap the
// benchmark's own calls into public functions, never code under src/.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host steady-clock nanoseconds.
int64_t NowNs();
/// Seconds elapsed since `start_ns`.
double SecondsSince(int64_t start_ns);
/// Process user + system CPU seconds, all threads.
double CpuSeconds();
/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Reads a whole file; false if it cannot be opened.
bool ReadFile(const std::string& path, std::string* out);

/// 64-bit FNV-1a of `data`, as 16 lowercase hex digits.
std::string Digest(const std::string& data);

/// Value at quantile `q` in [0, 1] (nearest rank) of `values`; 0 when
/// empty.
double Quantile(std::vector<double> values, double q);

/// The highest of {99.9, 99, 95, 90, 75, 50} percent that leaves at
/// least ten samples beyond it among `n`, or 0 when n < 20.
double TailLevelPercent(size_t n);

/// The operator of a `.../fit/<operator>` scope path (model or
/// transformer name), or "" for any other path.
std::string FitOperator(const std::string& path);

/// One timed interval at a layer boundary. `parent` indexes the same
/// span list (-1 for a root); spans of one sweep cell share `cell`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t cell = -1;
  int tid = 0;

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Appends spans to one list owned by a single thread. Workers each own
/// their list (one per sweep cell), so recording takes no lock.
class SpanList {
 public:
  explicit SpanList(int64_t cell = -1) : cell_(cell) {}

  /// Opens a span under the innermost open one; returns its index.
  int Open(const std::string& name);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t cell_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanList* list, const std::string& name)
      : list_(list), index_(list->Open(name)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early and returns its duration in seconds.
  double Close();

 private:
  SpanList* list_;
  int index_;
  bool closed_ = false;
};

/// A small id for the calling thread, stable for its lifetime.
int ThreadIndex();

/// Self time per span name over `lists`: each span's duration minus the
/// part of it covered by its direct children.
std::map<std::string, double> SelfSeconds(
    const std::vector<const SpanList*>& lists);

/// Writes every span as a Chrome trace-event JSON file ("X" events, µs
/// relative to `origin_ns`). Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanList*>& lists,
                      int64_t origin_ns);

/// Builds one JSON object in insertion order. Numbers keep 17
/// significant digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);

  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
