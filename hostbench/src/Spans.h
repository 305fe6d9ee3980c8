//===- hostbench/src/Spans.h - In-memory host-time span recorder *- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded from the benchmark's own code
/// around calls into the halo library's public functions: name, start, end
/// (steady_clock seconds since the recorder was created), the span open on
/// the same thread when it began (its parent), and the id of the plan it
/// belongs to. Everything stays in memory until the run writes it out.
/// While disabled a ScopedSpan costs one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_SPANS_H
#define HOSTBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

/// Seconds on the steady clock since the first call in this process.
double nowS();

/// A fresh plan id (1, 2, ...) for grouping the spans of one plan.
uint64_t newPlanId();

struct Span {
  std::string Name;
  double StartS = 0.0;
  double EndS = 0.0;
  int Parent = -1; ///< Index of the enclosing span on the same thread.
  uint64_t PlanId = 0;
};

class SpanRecorder {
public:
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index (-1 when
  /// disabled). \p PlanId 0 inherits the parent's plan id.
  int begin(const std::string &Name, uint64_t PlanId = 0);
  void end(int Index);

  std::vector<Span> snapshot() const;
  void clear();

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// The process-wide recorder.
SpanRecorder &recorder();

/// RAII span on recorder(): open for the lifetime of the object.
class ScopedSpan {
public:
  explicit ScopedSpan(const std::string &Name, uint64_t PlanId = 0)
      : Index(recorder().enabled() ? recorder().begin(Name, PlanId) : -1) {}
  ~ScopedSpan() {
    if (Index >= 0)
      recorder().end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Index;
};

/// Self time of span \p I: its duration minus the union of its children's
/// intervals, clipped to it.
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// Self time summed per span name, in seconds.
std::map<std::string, double> selfTimeByName(const std::vector<Span> &Spans);

/// Empty when every span is closed, ends no earlier than it starts, lies
/// inside its parent, and every self time is non-negative; else the first
/// violation.
std::string checkSpans(const std::vector<Span> &Spans);

/// Writes \p Spans as a JSON array of objects.
void writeSpansJson(FILE *Out, const std::vector<Span> &Spans);

} // namespace hostbench

#endif // HOSTBENCH_SPANS_H
