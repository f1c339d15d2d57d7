// Stress of util::parallelForChunks: thousands of tiny chunked runs back to
// back, so each run's stack-owned state is destroyed and its stack slot
// reused while the previous run's helpers may still be finishing. A helper
// that touches the run after the caller returned shows up here as a hang,
// or under ASan (detect_stack_use_after_return=1) and TSan as a report.
// ctest runs this binary with URLF_THREADS=8 so widths up to 8 are real.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace urlf {
namespace {

constexpr int kRunsPerWidth = 3000;

class ChunkStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkStress, TinyRunsCoverEveryIndexExactlyOnce) {
  const std::size_t width = GetParam();
  for (int run = 0; run < kRunsPerWidth; ++run) {
    const std::size_t n = 2 + static_cast<std::size_t>(run % 15);
    std::vector<int> hits(n, 0);
    util::parallelForChunks(
        n,
        [&hits](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) ++hits[i];
        },
        width, /*minChunk=*/1);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i], 1) << "run " << run << " index " << i;
  }
}

TEST_P(ChunkStress, TinyRunsRethrowTheirChunkError) {
  const std::size_t width = GetParam();
  for (int run = 0; run < kRunsPerWidth / 3; ++run) {
    const std::size_t n = 2 + static_cast<std::size_t>(run % 7);
    const std::size_t bad = static_cast<std::size_t>(run) % n;
    std::atomic<std::size_t> done{0};
    EXPECT_THROW(util::parallelForChunks(
                     n,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         if (i == bad) throw std::runtime_error("chunk");
                         done.fetch_add(1, std::memory_order_relaxed);
                       }
                     },
                     width, /*minChunk=*/1),
                 std::runtime_error);
    EXPECT_LT(done.load(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ChunkStress,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}));

}  // namespace
}  // namespace urlf
