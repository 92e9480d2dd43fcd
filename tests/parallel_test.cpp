// util/parallel: the deterministic fork-join pool.  The tests pin the
// bit-identical contract (chunk layout independent of thread count, fixed
// reduction order, find_first == serial scan) and the pool mechanics
// (full coverage, nested inlining, fair-share accounting).
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace qbp::par {
namespace {

TEST(ChunkPlan, IsAPureFunctionOfRangeAndGrain) {
  const ChunkPlan plan = ChunkPlan::make(1000, 64);
  EXPECT_EQ(plan.count, 16);
  EXPECT_EQ(plan.begin(0), 0);
  EXPECT_EQ(plan.end(0), 64);
  EXPECT_EQ(plan.begin(15), 960);
  EXPECT_EQ(plan.end(15), 1000);  // last chunk is the remainder
  // Identical inputs always give identical layouts -- there is no thread
  // count anywhere in the computation.
  const ChunkPlan again = ChunkPlan::make(1000, 64);
  EXPECT_EQ(plan.count, again.count);
  for (std::int32_t c = 0; c < plan.count; ++c) {
    EXPECT_EQ(plan.begin(c), again.begin(c));
    EXPECT_EQ(plan.end(c), again.end(c));
  }
}

TEST(ChunkPlan, DegenerateRanges) {
  EXPECT_EQ(ChunkPlan::make(0, 16).count, 0);
  EXPECT_EQ(ChunkPlan::make(-5, 16).count, 0);
  const ChunkPlan tiny = ChunkPlan::make(3, 16);
  EXPECT_EQ(tiny.count, 1);
  EXPECT_EQ(tiny.end(0), 3);
  // grain < 1 is clamped to 1, not UB.
  EXPECT_EQ(ChunkPlan::make(5, 0).count, 5);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::int32_t threads : {1, 2, 8}) {
    const std::int64_t n = 4099;  // prime, deliberately not a grain multiple
    std::vector<std::atomic<std::int32_t>> touched(n);
    parallel_for(n, 64, threads,
                 [&](std::int64_t begin, std::int64_t end, std::int32_t) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     touched[static_cast<std::size_t>(i)].fetch_add(1);
                   }
                 });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(touched[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

// The core contract: a floating-point reduction is bitwise identical at
// every thread count, because partials are per chunk and the fold order is
// chunk order.
TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  const std::int64_t n = 10007;
  std::vector<double> values(static_cast<std::size_t>(n));
  Rng rng(0x9e3779b9u);
  for (double& v : values) v = rng.next_double() * 1e6 - 5e5;

  auto sum_at = [&](std::int32_t threads) {
    return parallel_reduce(
        n, 128, threads, 0.0,
        [&](std::int64_t begin, std::int64_t end) {
          double acc = 0.0;
          for (std::int64_t i = begin; i < end; ++i) {
            acc += values[static_cast<std::size_t>(i)];
          }
          return acc;
        },
        [](double acc, double partial) { return acc + partial; });
  };

  const double at1 = sum_at(1);
  EXPECT_EQ(at1, sum_at(2));  // EQ on doubles: bitwise-equal sums
  EXPECT_EQ(at1, sum_at(8));

  // And the 1-thread result equals the hand-rolled chunked left fold.
  const ChunkPlan plan = ChunkPlan::make(n, 128);
  double manual = 0.0;
  for (std::int32_t c = 0; c < plan.count; ++c) {
    double partial = 0.0;
    for (std::int64_t i = plan.begin(c); i < plan.end(c); ++i) {
      partial += values[static_cast<std::size_t>(i)];
    }
    manual += partial;
  }
  EXPECT_EQ(at1, manual);
}

TEST(ParallelReduce, ArgminFirstWinsMatchesSerialScan) {
  const std::int64_t n = 5000;
  std::vector<double> cost(static_cast<std::size_t>(n));
  Rng rng(1993);
  for (double& c : cost) c = static_cast<double>(rng.next_below(50));  // many ties

  struct Best {
    std::int64_t index = -1;
    double value = 0.0;
  };
  std::int64_t serial = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    if (cost[static_cast<std::size_t>(i)] < cost[static_cast<std::size_t>(serial)]) serial = i;
  }
  for (const std::int32_t threads : {1, 2, 8}) {
    const Best best = parallel_reduce(
        n, 256, threads, Best{},
        [&](std::int64_t begin, std::int64_t end) {
          Best local;
          for (std::int64_t i = begin; i < end; ++i) {
            if (local.index < 0 || cost[static_cast<std::size_t>(i)] < local.value) {
              local = Best{i, cost[static_cast<std::size_t>(i)]};
            }
          }
          return local;
        },
        [](Best acc, Best partial) {
          // Strict <: earlier chunks win ties, exactly like the serial scan.
          if (acc.index < 0 || (partial.index >= 0 && partial.value < acc.value)) {
            return partial;
          }
          return acc;
        });
    EXPECT_EQ(best.index, serial) << "threads=" << threads;
  }
}

TEST(FindFirst, MatchesSerialScanIncludingStartCursor) {
  const std::int64_t n = 3000;
  Rng rng(0xfeedu);
  std::vector<std::uint8_t> hit(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    hit[static_cast<std::size_t>(i)] = rng.next_below(97) == 0 ? 1 : 0;
  }
  hit[2960] = 1;  // one hit surely inside the last chunk [2944, 3000)
  auto scan = [&](std::int64_t begin, std::int64_t end) -> std::int64_t {
    for (std::int64_t i = begin; i < end; ++i) {
      if (hit[static_cast<std::size_t>(i)] != 0) return i;
    }
    return -1;
  };
  // Cursors every 131 indices land mid-chunk; the extra ones sit in the
  // last chunk, where the walk is serial, before and after its hit.
  std::vector<std::int64_t> starts{2950, 2961, n - 1};
  for (std::int64_t start = 0; start < n; start += 131) starts.push_back(start);
  for (const std::int64_t start : starts) {
    std::int64_t serial = -1;
    for (std::int64_t i = start; i < n; ++i) {
      if (hit[static_cast<std::size_t>(i)] != 0) {
        serial = i;
        break;
      }
    }
    for (const std::int32_t threads : {1, 2, 8}) {
      EXPECT_EQ(find_first(n, start, 64, threads, scan), serial)
          << "start=" << start << " threads=" << threads;
    }
  }
  EXPECT_EQ(find_first(n, n, 64, 8, scan), -1);      // empty window
  EXPECT_EQ(find_first(0, 0, 64, 8, scan), -1);      // empty range
}

TEST(FindFirst, NoMatchReturnsMinusOne) {
  auto scan = [](std::int64_t, std::int64_t) -> std::int64_t { return -1; };
  for (const std::int32_t threads : {1, 2, 8}) {
    EXPECT_EQ(find_first(10000, 0, 64, threads, scan), -1);
  }
}

// Once a hit is recorded no further chunk is handed out: besides the chunks
// already in flight, each thread can claim at most one more.  Chunks without
// the hit are slow, so without stop-on-hit every chunk past the hit would
// be claimed and scanned.
TEST(FindFirst, StopsHandingOutChunksAfterTheHit) {
  const std::int64_t grain = 16;
  const std::int64_t n = 64 * grain;
  const std::int64_t hit = 24 * grain + 3;
  const std::int64_t hit_chunk_end = 25 * grain;
  for (const std::int32_t threads : {2, 8}) {
    std::atomic<std::int32_t> scanned_after{0};
    auto scan = [&](std::int64_t begin, std::int64_t end) -> std::int64_t {
      if (hit >= begin && hit < end) return hit;
      if (begin >= hit_chunk_end) scanned_after.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return -1;
    };
    EXPECT_EQ(find_first(n, 0, grain, threads, scan), hit);
    EXPECT_LE(scanned_after.load(), 2 * threads) << "threads=" << threads;
  }
}

// Only the chunks from the cursor's on are dispatched, so a hit in the
// cursor's own chunk costs no claims on the chunks before it.
TEST(FindFirst, HitInCursorChunkClaimsNoChunkBeforeTheCursor) {
  const std::int64_t grain = 16;
  const std::int64_t n = 64 * grain;
  const std::int64_t start = 40 * grain + 5;
  const std::int64_t hit = start + 5;
  Pool& pool = Pool::instance();
  for (const std::int32_t threads : {2, 8}) {
    std::atomic<std::int64_t> lowest_begin{n};
    auto scan = [&](std::int64_t begin, std::int64_t end) -> std::int64_t {
      std::int64_t seen = lowest_begin.load();
      while (begin < seen && !lowest_begin.compare_exchange_weak(seen, begin)) {
      }
      return hit >= begin && hit < end ? hit : -1;
    };
    const std::uint64_t regions_before = pool.regions_parallel();
    const std::uint64_t chunks_before = pool.chunks_parallel();
    EXPECT_EQ(find_first(n, start, grain, threads, scan), hit);
    // The region fanned out, and claimed no more than the chunks from the
    // cursor's on.
    EXPECT_EQ(pool.regions_parallel() - regions_before, 1u)
        << "threads=" << threads;
    EXPECT_LE(pool.chunks_parallel() - chunks_before, 64u - 40u)
        << "threads=" << threads;
    EXPECT_EQ(lowest_begin.load(), start);
  }
}

// A region issued from inside a pool worker must run inline (no nested
// fan-out, no deadlock) and still produce the same coverage.
TEST(Pool, NestedRegionsRunInlineAndComplete) {
  Pool::instance().warm(8);
  const std::int64_t outer = 64;
  const std::int64_t inner = 257;
  std::vector<std::atomic<std::int64_t>> sums(outer);
  std::atomic<std::int32_t> nested_on_worker{0};
  parallel_for(outer, 4, 8, [&](std::int64_t begin, std::int64_t end, std::int32_t) {
    if (begin == 0 && !Pool::on_worker_thread()) {
      // Hold the submitting thread's first chunk until a helper has
      // demonstrably run one, so the nested-inline path is exercised even
      // when a loaded machine would otherwise let the caller finish every
      // chunk before any helper wakes.
      while (nested_on_worker.load() == 0) std::this_thread::yield();
    }
    for (std::int64_t o = begin; o < end; ++o) {
      if (Pool::on_worker_thread()) nested_on_worker.fetch_add(1);
      parallel_for(inner, 32, 8,
                   [&](std::int64_t b, std::int64_t e, std::int32_t) {
                     for (std::int64_t i = b; i < e; ++i) {
                       sums[static_cast<std::size_t>(o)].fetch_add(i);
                     }
                   });
    }
  });
  const std::int64_t expect = inner * (inner - 1) / 2;
  for (std::int64_t o = 0; o < outer; ++o) {
    ASSERT_EQ(sums[static_cast<std::size_t>(o)].load(), expect);
  }
  // With 8 requested threads some outer chunks ran on helpers, so the
  // inline-nesting path was actually exercised.
  EXPECT_GT(nested_on_worker.load(), 0);
}

TEST(Pool, FairShareBaseIsOverridableAndResultsUnchanged) {
  const std::int32_t saved = fair_share_base();
  set_fair_share_base(2);  // concurrent regions get at most 2 slots total
  std::vector<std::int64_t> out(1000, 0);
  parallel_for(1000, 50, 8, [&](std::int64_t b, std::int64_t e, std::int32_t) {
    for (std::int64_t i = b; i < e; ++i) out[static_cast<std::size_t>(i)] = i * i;
  });
  set_fair_share_base(0);
  EXPECT_EQ(fair_share_base(), saved);
  for (std::int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Pool, CountsRegionsAndSpawnsHelpersOnDemand) {
  Pool& pool = Pool::instance();
  const std::uint64_t regions_before = pool.regions_run();
  parallel_for(10000, 64, 8,
               [&](std::int64_t, std::int64_t, std::int32_t) {});
  EXPECT_GT(pool.regions_run(), regions_before);
  EXPECT_GT(pool.helpers_spawned(), 0);  // 8-thread request grew the pool
  pool.warm(4);
  EXPECT_GE(pool.helpers_spawned(), 4);
  // Idle pool: utilization is a fraction in [0, 1].
  EXPECT_GE(utilization(), 0.0);
  EXPECT_LE(utilization(), 1.0);
}

TEST(Pool, SingleThreadRequestNeverFansOut) {
  Pool& pool = Pool::instance();
  const std::uint64_t parallel_before = pool.regions_parallel();
  std::vector<std::int64_t> order;
  parallel_for(1000, 64, 1,
               [&](std::int64_t begin, std::int64_t, std::int32_t) {
                 order.push_back(begin);  // safe: inline means one thread
               });
  EXPECT_EQ(pool.regions_parallel(), parallel_before);
  // Inline execution visits chunks in ascending order.
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t c = 1; c < order.size(); ++c) {
    EXPECT_LT(order[c - 1], order[c]);
  }
}

}  // namespace
}  // namespace qbp::par
