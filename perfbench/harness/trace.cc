#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Span::Span(Tracer& tracer, std::string_view name, SpanKind kind)
    : tracer_{&tracer}, kind_{kind} {
  if (kind_ == SpanKind::kAside) ++tracer_->aside_depth_;
  start_ = Clock::now();
  if (tracer_->recording_) {
    SpanRecord rec;
    rec.name = std::string{name};
    rec.start_s = tracer_->since_origin(start_);
    rec.parent = tracer_->open_;
    rec.run = tracer_->run_;
    rec.kind = kind_;
    index_ = static_cast<std::int32_t>(tracer_->spans_.size());
    tracer_->spans_.push_back(std::move(rec));
    outer_open_ = tracer_->open_;
    tracer_->open_ = index_;
  }
}

double Tracer::Span::close() {
  if (!open_) return elapsed_s_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  elapsed_s_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    tracer_->spans_[static_cast<std::size_t>(index_)].end_s =
        tracer_->since_origin(end);
    tracer_->open_ = outer_open_;
  }
  if (kind_ == SpanKind::kAside && --tracer_->aside_depth_ == 0) {
    tracer_->aside_s_ += elapsed_s_;
  }
  return elapsed_s_;
}

void Tracer::set_recording(bool on, std::uint32_t run) {
  recording_ = on;
  run_ = run;
  open_ = -1;
}

std::string Tracer::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string_view name = s.name;
    const std::string_view cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,",
                  i == 0 ? "" : ",", static_cast<int>(name.size()),
                  name.data(), static_cast<int>(cat.size()), cat.data());
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"run\":%u}}",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                  s.run);
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                               s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union swept so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans, std::uint32_t run) {
  const std::vector<double> self = self_times(spans);
  // Parents precede children, so one forward pass settles every span.
  std::vector<bool> in_job(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    in_job[i] = spans[i].kind == SpanKind::kJob &&
                (p < 0 || in_job[static_cast<std::size_t>(p)]);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run != run) continue;
    LayerTime& t = out[spans[i].name];
    ++t.calls;
    t.total_s += spans[i].end_s - spans[i].start_s;
    t.self_s += self[i];
    if (in_job[i]) t.job_self_s += self[i];
  }
  return out;
}

}  // namespace perfbench
