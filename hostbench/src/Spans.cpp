//===- hostbench/src/Spans.cpp - In-memory host-time span recorder --------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace hostbench {

namespace {

/// Indices of the spans open on this thread, innermost last.
thread_local std::vector<int> OpenStack;

} // namespace

double nowS() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

uint64_t newPlanId() {
  static std::atomic<uint64_t> Next{1};
  return Next++;
}

SpanRecorder &recorder() {
  static SpanRecorder R;
  return R;
}

int SpanRecorder::begin(const std::string &Name, uint64_t PlanId) {
  Span S;
  S.Name = Name;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  int Index;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (PlanId == 0 && S.Parent >= 0)
      PlanId = Spans[static_cast<size_t>(S.Parent)].PlanId;
    S.PlanId = PlanId;
    S.StartS = nowS();
    S.EndS = -1.0;
    Index = static_cast<int>(Spans.size());
    Spans.push_back(std::move(S));
  }
  OpenStack.push_back(Index);
  return Index;
}

void SpanRecorder::end(int Index) {
  double End = nowS();
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Index)].EndS = End;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.clear();
}

std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartS, S.EndS});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0.0, Reach = P.StartS;
    for (const auto &[Start, End] : C) {
      double Lo = std::max(Start, Reach), Hi = std::min(End, P.EndS);
      if (Hi > Lo)
        Covered += Hi - Lo;
      Reach = std::max(Reach, std::min(End, P.EndS));
    }
    Self[I] = (P.EndS - P.StartS) - Covered;
  }
  return Self;
}

std::map<std::string, double> selfTimeByName(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimes(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

std::string checkSpans(const std::vector<Span> &Spans) {
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndS < 0.0)
      return "span '" + S.Name + "' was never closed";
    if (S.EndS < S.StartS)
      return "span '" + S.Name + "' ends before it starts";
    if (S.Parent >= static_cast<int>(I))
      return "span '" + S.Name + "' has a parent recorded after it";
    if (S.Parent >= 0) {
      const Span &P = Spans[static_cast<size_t>(S.Parent)];
      if (S.StartS < P.StartS || S.EndS > P.EndS)
        return "span '" + S.Name + "' is not inside its parent '" + P.Name +
               "'";
    }
  }
  std::vector<double> Self = selfTimes(Spans);
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Self[I] < 0.0)
      return "span '" + Spans[I].Name + "' has a negative self time";
  return "";
}

void writeSpansJson(FILE *Out, const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimes(Spans);
  std::fputs("[\n", Out);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"plan\": %llu, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 I, S.Name.c_str(), S.Parent,
                 static_cast<unsigned long long>(S.PlanId), S.StartS, S.EndS,
                 Self[I], I + 1 < Spans.size() ? "," : "");
  }
  std::fputs("]\n", Out);
}

} // namespace hostbench
