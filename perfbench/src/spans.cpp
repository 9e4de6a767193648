#include "spans.hpp"

#include <ctime>

#include "common/check.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(4096);
  child_time_.reserve(4096);
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

double SpanRecorder::cpu_now(int threads) const {
  timespec ts{};
  clock_gettime(threads == 1 ? CLOCK_THREAD_CPUTIME_ID : CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int SpanRecorder::open(const char* name, int tick, int threads) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.tick = tick;
  s.threads = threads;
  if (threads > 0) s.cpu = cpu_now(threads);
  s.start = now();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  child_time_.push_back(0.0);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  MANET_CHECK_MSG(!stack_.empty() && stack_.back() == id, "spans must close innermost first");
  Span& s = spans_[static_cast<manet::Size>(id)];
  s.end = now();
  if (s.threads > 0) s.cpu = cpu_now(s.threads) - s.cpu;
  stack_.pop_back();
  if (s.parent >= 0) child_time_[static_cast<manet::Size>(s.parent)] += s.end - s.start;
}

double SpanRecorder::self_time(int id) const {
  const auto i = static_cast<manet::Size>(id);
  return spans_[i].end - spans_[i].start - child_time_[i];
}

void SpanRecorder::write_json(std::FILE* out) const {
  std::fputc('[', out);
  for (manet::Size i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"tick\": %d",
                 i == 0 ? "" : ",", i, s.name, s.start, s.end, s.parent, s.tick);
    if (s.threads > 0) std::fprintf(out, ", \"threads\": %d, \"cpu\": %.9f", s.threads, s.cpu);
    std::fputc('}', out);
  }
  std::fputc(']', out);
}

}  // namespace perfbench
