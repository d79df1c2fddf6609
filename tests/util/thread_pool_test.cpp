#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace spcd::util {
namespace {

TEST(ConfiguredJobsTest, ReadsEnvAndDefaultsToHardware) {
  ::setenv("SPCD_JOBS", "3", 1);
  EXPECT_EQ(configured_jobs(), 3u);
  ::setenv("SPCD_JOBS", "1", 1);
  EXPECT_EQ(configured_jobs(), 1u);
  ::unsetenv("SPCD_JOBS");
  EXPECT_GE(configured_jobs(), 1u);
}

TEST(ThreadPoolTest, SerialPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
    // Inline execution: the job already ran when submit() returned.
    EXPECT_EQ(static_cast<int>(order.size()), i + 1);
  }
  pool.wait();
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kJobs = 200;
  std::vector<std::atomic<int>> hits(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    pool.submit([&hits, i] { hits[static_cast<std::size_t>(i)]++; });
  }
  pool.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitBlocksUntilAllJobsFinish) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done++;
    });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPoolTest, PoolIsReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) pool.submit([&count] { count++; });
    pool.wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitRethrowsFirstJobException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&completed, i] {
      if (i == 5) throw std::runtime_error("cell failed");
      completed++;
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
  // The error is consumed; the pool keeps working.
  pool.submit([&completed] { completed++; });
  pool.wait();
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPoolTest, WaitAggregatesEveryJobError) {
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.submit(
        [i] {
          if (i % 4 == 0) {
            throw std::runtime_error("job " + std::to_string(i) + " failed");
          }
        },
        "cell-" + std::to_string(i));
  }
  try {
    pool.wait();
    FAIL() << "wait() should have thrown JobErrors";
  } catch (const JobErrors& errors) {
    // Every failed job is listed, with its submit() context attached.
    ASSERT_EQ(errors.errors().size(), 4u);
    for (const auto& entry : errors.errors()) {
      EXPECT_TRUE(entry.context.rfind("cell-", 0) == 0) << entry.context;
      EXPECT_NE(entry.message.find("failed"), std::string::npos);
      EXPECT_NE(entry.error, nullptr);
      // The summary names the failure count and each context.
      EXPECT_NE(std::string(errors.what()).find(entry.context),
                std::string::npos);
    }
  }
  // The errors are consumed; the pool keeps working.
  std::atomic<int> done{0};
  pool.submit([&done] { done++; });
  pool.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolTest, WaitAllNoexceptSwallowsErrors) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done, i] {
      if (i == 3) throw std::runtime_error("ignored");
      done++;
    });
  }
  pool.wait_all_noexcept();
  EXPECT_EQ(done.load(), 7);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPoolTest, SerialSubmitPropagatesExceptionDirectly) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit([] { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelMapPreservesInputOrder) {
  ThreadPool pool(4);
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  const auto squares =
      parallel_map(pool, items, [](int x) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedJobs) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done++;
      });
    }
  }
  EXPECT_EQ(done.load(), 20);
}

}  // namespace
}  // namespace spcd::util
