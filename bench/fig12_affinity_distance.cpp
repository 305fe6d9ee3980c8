//===- bench/fig12_affinity_distance.cpp - Figure 12 --------------------------===//
//
// Regenerates Figure 12: "Time taken by omnetpp at various affinity
// distances", with the unmodified-jemalloc median as the dashed baseline.
// The paper selects A = 128 from this sweep as a good trade-off between
// gains and profiling overhead. A spec decides a benchmark's setup once,
// by name, so each distance is its own one-cell plan.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Figure 12: omnetpp execution time vs affinity distance");
  R.setColumns({"affinity distance", "median time (sim s)", "vs baseline"});

  ExperimentSpec Spec;
  Spec.Benchmarks = {"omnetpp"};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.Trials = bench::trials();
  double BaseTime = Evaluation::medianSeconds(bench::runsOf(
      bench::runSpec(Spec), "omnetpp", AllocatorKind::Jemalloc));

  Spec.Kinds = {AllocatorKind::Halo};
  for (int Power = 3; Power <= 17; Power += 2) {
    Spec.MakeSetup = [Power](const std::string &Name) {
      BenchmarkSetup Setup = paperSetup(Name);
      Setup.Halo.Profile.AffinityDistance = uint64_t(1) << Power;
      return Setup;
    };
    double Time = Evaluation::medianSeconds(bench::runsOf(
        bench::runSpec(Spec), "omnetpp", AllocatorKind::Halo));
    R.addRow({"2^" + std::to_string(Power), formatDouble(Time, 4),
              formatPercent(percentImprovement(BaseTime, Time))});
  }
  R.addRow({"baseline (jemalloc)", formatDouble(BaseTime, 4), "-"});
  R.addNote("the paper picks A = 128 (2^7): good gains at low profiling "
            "overhead; distances sweep 2^3..2^17 as in Figure 12");
  R.print();
  return 0;
}
