// Host speed calibration.
//
// The benchmark runs on shared virtual machines whose vCPUs change speed
// by tens of percent in phases that last from seconds to minutes, and a
// phase that outlasts a run moves every time the run takes. So the driver
// times a fixed integer loop right before and right after every round and
// scales the round's times by kReferenceBurstS over the mean of the two
// loop times: the reported times are the times the round would have taken
// at the speed the loop had when kReferenceBurstS was taken. The loop is
// the benchmark's own code and calls nothing in the flat-tree libraries,
// so no change to them can move it.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// The loop's median burst time at the reference speed: a 4-vCPU Xeon VM
// in one of its fast phases.
inline constexpr double kReferenceBurstS = 0.0064;

// Times 15 bursts of the loop and returns the median burst time, in
// seconds.
[[nodiscard]] double loop_burst_s();

// The factor that scales a time taken between two loop measurements to the
// reference speed: kReferenceBurstS / ((before + after) / 2).
[[nodiscard]] double speed_scale(double before_s, double after_s);

// Multiplies times[from..] by `scale`.
void scale_from(std::vector<double>& times, std::size_t from, double scale);

}  // namespace perfbench
