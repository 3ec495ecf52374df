#ifndef GMT_PERFBENCH_CALIB_HPP
#define GMT_PERFBENCH_CALIB_HPP

/**
 * @file
 * The benchmark's calibration kernel: a fixed amount of compute that
 * calls nothing in gmtsched. Timing it next to each round measures how
 * fast this host happens to run right now, so a round divided by the
 * kernel's time cancels most of the drift co-tenants cause.
 */

#include <cstdint>

namespace perfbench
{

/** Interpreter iterations of one full kernel run (~45 ms on x86-64). */
constexpr int kKernelIterations = 230000;

/**
 * Run @p iterations of the kernel. Every iteration does the same work;
 * the result only keeps the compiler from dropping it.
 */
uint64_t calibrationKernel(int iterations = kKernelIterations);

} // namespace perfbench

#endif // GMT_PERFBENCH_CALIB_HPP
