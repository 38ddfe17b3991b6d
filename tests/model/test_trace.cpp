#include "model/trace.hpp"

#include <gtest/gtest.h>

namespace hyperrec {
namespace {

TaskTrace sample_trace() {
  TaskTrace trace(4);
  trace.push_back_local(DynamicBitset::from_string("1000"));
  trace.push_back_local(DynamicBitset::from_string("0100"));
  trace.push_back_local(DynamicBitset::from_string("0110"));
  return trace;
}

TEST(TaskTrace, SizeAndAccess) {
  const TaskTrace trace = sample_trace();
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.local_universe(), 4u);
  EXPECT_TRUE(trace.at(0).local.test(0));
  EXPECT_EQ(trace.at(2).local.count(), 2u);
}

TEST(TaskTrace, SliceMatchesPerStepCopyAcrossWordSeams) {
  // slice() is the bulk window-cut used on the streaming hot path; it must
  // agree bit-for-bit with the per-step push_back oracle, in particular at
  // the 64-bit word seams of the underlying bitsets.
  for (const std::size_t universe : {std::size_t{63}, std::size_t{64},
                                     std::size_t{65}}) {
    TaskTrace trace(universe);
    for (std::size_t i = 0; i < 12; ++i) {
      DynamicBitset bits(universe);
      bits.set(i % universe);
      bits.set(universe - 1 - (i % universe));
      if (i % 3 == 0) bits.set(universe / 2);
      trace.push_back({std::move(bits), static_cast<std::uint32_t>(i)});
    }
    for (const auto& [lo, hi] :
         {std::pair<std::size_t, std::size_t>{0, 12}, {3, 9}, {5, 5},
          {11, 12}, {0, 1}}) {
      const TaskTrace cut = trace.slice(lo, hi);
      TaskTrace oracle(universe);
      for (std::size_t i = lo; i < hi; ++i) oracle.push_back(trace.at(i));
      ASSERT_EQ(cut.size(), oracle.size()) << universe << " [" << lo << ","
                                           << hi << ")";
      EXPECT_EQ(cut.local_universe(), universe);
      for (std::size_t i = 0; i < cut.size(); ++i) {
        EXPECT_TRUE(cut.at(i).local == oracle.at(i).local);
        EXPECT_EQ(cut.at(i).private_demand, oracle.at(i).private_demand);
      }
    }
  }
}

TEST(TaskTrace, SliceOutOfBoundsThrows) {
  const TaskTrace trace = sample_trace();
  EXPECT_THROW((void)trace.slice(2, 1), PreconditionError);
  EXPECT_THROW((void)trace.slice(0, 4), PreconditionError);
}

TEST(TaskTrace, UniverseMismatchRejected) {
  TaskTrace trace(4);
  EXPECT_THROW(trace.push_back_local(DynamicBitset(5)), PreconditionError);
}

TEST(TaskTrace, OutOfRangeStepThrows) {
  const TaskTrace trace = sample_trace();
  EXPECT_THROW((void)trace.at(3), PreconditionError);
}

TEST(TaskTrace, LocalUnionOverRanges) {
  const TaskTrace trace = sample_trace();
  EXPECT_EQ(trace.local_union_naive(0, 3).to_string(), "1110");
  EXPECT_EQ(trace.local_union_naive(1, 3).to_string(), "0110");
  EXPECT_EQ(trace.local_union_naive(0, 1).to_string(), "1000");
}

TEST(TaskTrace, LocalUnionEmptyRangeIsEmptySet) {
  const TaskTrace trace = sample_trace();
  EXPECT_EQ(trace.local_union_naive(2, 2).count(), 0u);
}

TEST(TaskTrace, LocalUnionBadRangeThrows) {
  const TaskTrace trace = sample_trace();
  EXPECT_THROW((void)trace.local_union_naive(2, 1), PreconditionError);
  EXPECT_THROW((void)trace.local_union_naive(0, 4), PreconditionError);
}

TEST(TaskTrace, MaxPrivateDemand) {
  TaskTrace trace(2);
  trace.push_back({DynamicBitset(2), 3});
  trace.push_back({DynamicBitset(2), 7});
  trace.push_back({DynamicBitset(2), 1});
  EXPECT_EQ(trace.max_private_demand_naive(0, 3), 7u);
  EXPECT_EQ(trace.max_private_demand_naive(2, 3), 1u);
  EXPECT_EQ(trace.max_private_demand_naive(1, 1), 0u) << "empty range is zero";
}

TEST(MultiTaskTrace, SynchronizedDetection) {
  MultiTaskTrace trace;
  trace.add_task(sample_trace());
  trace.add_task(sample_trace());
  EXPECT_TRUE(trace.synchronized());
  EXPECT_EQ(trace.steps(), 3u);

  TaskTrace shorter(4);
  shorter.push_back_local(DynamicBitset(4));
  trace.add_task(std::move(shorter));
  EXPECT_FALSE(trace.synchronized());
  EXPECT_THROW((void)trace.steps(), PreconditionError);
}

TEST(MultiTaskTrace, TaskAccessBounds) {
  MultiTaskTrace trace;
  trace.add_task(sample_trace());
  EXPECT_EQ(trace.task_count(), 1u);
  EXPECT_NO_THROW((void)trace.task(0));
  EXPECT_THROW((void)trace.task(1), PreconditionError);
}

TEST(MultiTaskTrace, StepsOnEmptyTraceThrows) {
  MultiTaskTrace trace;
  EXPECT_THROW((void)trace.steps(), PreconditionError);
}

TEST(MultiTaskTrace, FromLocalBuildsTasks) {
  const auto trace = MultiTaskTrace::from_local(
      {2, 3},
      {{DynamicBitset::from_string("10"), DynamicBitset::from_string("01")},
       {DynamicBitset::from_string("111"), DynamicBitset::from_string("001")}});
  EXPECT_EQ(trace.task_count(), 2u);
  EXPECT_EQ(trace.task(0).local_universe(), 2u);
  EXPECT_EQ(trace.task(1).local_universe(), 3u);
  EXPECT_EQ(trace.steps(), 2u);
  EXPECT_EQ(trace.task(1).at(0).local.count(), 3u);
}

TEST(MultiTaskTrace, FromLocalSizeMismatchThrows) {
  EXPECT_THROW(MultiTaskTrace::from_local({2}, {}), PreconditionError);
}

TEST(MultiTaskTrace, SliceMatchesPerStepCopyAcrossWordSeams) {
  // Tasks with different universes on each side of the 64-bit word seam.
  MultiTaskTrace trace;
  for (const std::size_t universe : {std::size_t{63}, std::size_t{64},
                                     std::size_t{65}}) {
    TaskTrace task(universe);
    for (std::size_t i = 0; i < 10; ++i) {
      DynamicBitset bits(universe);
      bits.set((i * 7) % universe);
      bits.set(universe - 1 - (i % universe));
      task.push_back({std::move(bits), static_cast<std::uint32_t>(i % 4)});
    }
    trace.add_task(std::move(task));
  }
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 10},
                               {2, 7}, {4, 4}, {9, 10}}) {
    const MultiTaskTrace cut = trace.slice(lo, hi);
    ASSERT_EQ(cut.task_count(), trace.task_count());
    for (std::size_t j = 0; j < trace.task_count(); ++j) {
      const TaskTrace& task = cut.task(j);
      EXPECT_EQ(task.local_universe(), trace.task(j).local_universe());
      ASSERT_EQ(task.size(), hi - lo) << "[" << lo << "," << hi << ")";
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_TRUE(task.at(i - lo).local == trace.task(j).at(i).local);
        EXPECT_EQ(task.at(i - lo).private_demand,
                  trace.task(j).at(i).private_demand);
      }
    }
  }
  EXPECT_THROW((void)trace.slice(3, 2), PreconditionError);
  EXPECT_THROW((void)trace.slice(0, 11), PreconditionError);
}

}  // namespace
}  // namespace hyperrec
