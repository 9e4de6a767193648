#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"

/// \file spans.hpp
/// In-memory span recorder for the traced replay. A span records its name,
/// start and end (seconds since the recorder was made), its parent span and
/// the measured tick it belongs to (-1 during set-up). Spans opened with a
/// thread count also record CPU time, so a sharded call's utilisation can be
/// reported. Nothing is written until write_json() is called at the end.

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int tick = -1;
  int threads = 0;       ///< > 0: cpu holds the CPU seconds the span used
  double cpu = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the innermost open one. \p threads > 0 also
  /// samples CPU time: the calling thread's when threads == 1 (the work runs
  /// inline), the whole process's otherwise (the work runs on a pool).
  int open(const char* name, int tick, int threads = 0);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its direct children cover.
  double self_time(int id) const;

  /// Appends the spans as a JSON array of objects (no trailing newline).
  void write_json(std::FILE* out) const;

  double now() const;

 private:
  double cpu_now(int threads) const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<double> child_time_;  ///< per span: summed direct-child durations
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, int tick, int threads = 0)
      : rec_(rec), id_(rec.open(name, tick, threads)) {}
  ~Scope() { rec_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
