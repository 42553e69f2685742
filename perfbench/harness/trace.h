// Wall-clock spans recorded by the benchmark around its calls into the
// flat-tree libraries.
//
// Every call the benchmark makes into a layer's public API runs inside a
// Span. A span always measures its duration (the latency samples and job_s
// come from these clocks); only while recording is on (traced rounds) is it
// also stored as a SpanRecord with its parent and round id. Records stay in
// memory and are written once, as Chrome trace_event JSON, after the run.
//
// Spans open and close on the thread that drives the workload: the
// libraries may fan work across the exec pool inside a call, but the
// benchmark never opens a span from a pool thread.
//
// kAside spans wrap the benchmark's own work between calls — output checks
// and picking the next seeded failure from live state. Their time is
// excluded from job_s.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class SpanKind : std::uint8_t { kJob, kAside };

struct SpanRecord {
  std::string name;
  double start_s{0.0};  // seconds since the tracer's origin
  double end_s{0.0};
  std::int32_t parent{-1};  // index into Tracer::spans(); -1 = top level
  std::uint32_t run{0};     // round id
  SpanKind kind{SpanKind::kJob};
};

class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, std::string_view name, SpanKind kind);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    // Ends the span (idempotent) and returns its duration in seconds.
    double close();

   private:
    Tracer* tracer_;
    SpanKind kind_;
    Clock::time_point start_;
    std::int32_t index_{-1};         // record index while recording
    std::int32_t outer_open_{-1};    // tracer's open record before this one
    bool open_{true};
    double elapsed_s_{0.0};
  };

  Tracer() : origin_{Clock::now()} {}

  // Recording on: spans opened from now on are stored, tagged with `run`.
  void set_recording(bool on, std::uint32_t run);
  [[nodiscard]] bool recording() const { return recording_; }

  [[nodiscard]] Span span(std::string_view name,
                          SpanKind kind = SpanKind::kJob) {
    return Span{*this, name, kind};
  }

  // Seconds spent in outermost kAside spans since the last reset — always
  // measured, recording or not.
  [[nodiscard]] double aside_s() const { return aside_s_; }
  void reset_aside() { aside_s_ = 0.0; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  [[nodiscard]] double since_origin(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  bool recording_{false};
  std::uint32_t run_{0};
  std::int32_t open_{-1};  // innermost open record
  int aside_depth_{0};
  double aside_s_{0.0};
  std::vector<SpanRecord> spans_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (children may overlap; their union counts once).
[[nodiscard]] std::vector<double> self_times(
    const std::vector<SpanRecord>& spans);

struct LayerTime {
  std::size_t calls{0};
  double total_s{0.0};
  double self_s{0.0};
  double job_self_s{0.0};  // self time of calls outside every kAside span
};

// Per span name, over the spans of round `run`.
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans, std::uint32_t run);

}  // namespace perfbench
