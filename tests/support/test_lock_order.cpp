// Lockdep-lite validator tests: inversions are caught deterministically on
// the FIRST conflicting acquisition (before the underlying lock can block),
// naming both locks; legitimate nesting — reentrant same-class and strictly
// hierarchical — passes.

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "support/ensure.hpp"
#include "support/lock_order.hpp"
#include "support/thread_annotations.hpp"

namespace hyperrec {
namespace {

using lock_order::ScopedEnable;

TEST(LockOrder, ScopedEnableRestoresPreviousState) {
  // The library default is off unless the build sets HYPERREC_LOCK_ORDER;
  // either way ScopedEnable turns it on and restores the previous state.
  const bool before = lock_order::enabled();
  {
    const ScopedEnable enable;
    EXPECT_TRUE(lock_order::enabled());
  }
  EXPECT_EQ(lock_order::enabled(), before);
}

TEST(LockOrder, HierarchicalAcquisitionPasses) {
  const ScopedEnable enable;
  Mutex outer{"test::outer"};
  Mutex inner{"test::inner"};
  for (int i = 0; i < 3; ++i) {
    const MutexLock hold_outer(outer);
    const MutexLock hold_inner(inner);
  }
  EXPECT_EQ(lock_order::edge_count(), 1u);  // outer→inner, recorded once
  EXPECT_EQ(lock_order::held_count(), 0u);
}

TEST(LockOrder, SameClassNestingPasses) {
  // Sharded/hierarchical locks of one family share a name; nesting them in
  // either order is allowed by construction (no intra-class edges).  The
  // two orders nest different objects of the class, so no single pair of
  // mutexes is ever taken both ways (a thread sanitizer would report that
  // as an inversion); a validator that keyed edges by object instead of by
  // class would still record them.
  const ScopedEnable enable;
  Mutex shard_a1{"test::shard"};
  Mutex shard_b1{"test::shard"};
  Mutex shard_a2{"test::shard"};
  Mutex shard_b2{"test::shard"};
  {
    const MutexLock first(shard_a1);
    const MutexLock second(shard_b1);
  }
  {
    const MutexLock first(shard_b2);
    const MutexLock second(shard_a2);
  }
  EXPECT_EQ(lock_order::edge_count(), 0u);
}

TEST(LockOrder, InversionCaughtNamingBothLocks) {
  const ScopedEnable enable;
  Mutex a{"test::A"};
  Mutex b{"test::B"};
  {
    const MutexLock hold_a(a);
    const MutexLock hold_b(b);  // establishes A→B
  }
  const MutexLock hold_b(b);
  try {
    a.lock();
    a.unlock();
    FAIL() << "B→A after A→B must throw";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("lock-order inversion"), std::string::npos) << what;
    EXPECT_NE(what.find("\"test::A\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"test::B\""), std::string::npos) << what;
    // The established acquired-before chain is part of the message.
    EXPECT_NE(what.find("\"test::A\" -> \"test::B\""), std::string::npos)
        << what;
  }
  // The failed acquisition holds nothing: only b remains held.
  EXPECT_EQ(lock_order::held_count(), 1u);
}

TEST(LockOrder, TransitiveCycleAcrossThreadsCaught) {
  const ScopedEnable enable;
  Mutex a{"test::A"};
  Mutex b{"test::B"};
  Mutex c{"test::C"};
  // Different threads contribute the edges; the graph is global.
  std::thread([&] {
    const MutexLock hold_a(a);
    const MutexLock hold_b(b);  // A→B
  }).join();
  std::thread([&] {
    const MutexLock hold_b(b);
    const MutexLock hold_c(c);  // B→C
  }).join();
  const MutexLock hold_c(c);
  EXPECT_THROW(a.lock(), PreconditionError);  // C→A closes A→B→C
}

TEST(LockOrder, SameObjectReacquireFailsImmediately) {
  const ScopedEnable enable;
  Mutex a{"test::self"};
  const MutexLock hold(a);
  try {
    a.lock();
    a.unlock();
    FAIL() << "same-object re-acquire is a guaranteed self-deadlock";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("test::self"),
              std::string::npos);
  }
}

TEST(LockOrder, TryLockRecordsHoldButNoEdges) {
  const ScopedEnable enable;
  Mutex a{"test::A"};
  Mutex b{"test::B"};
  {
    const MutexLock hold_a(a);
    ASSERT_TRUE(b.try_lock());  // try_lock never blocks: no A→B edge
    EXPECT_EQ(lock_order::held_count(), 2u);
    b.unlock();
  }
  EXPECT_EQ(lock_order::edge_count(), 0u);
  // With no A→B edge on record, B→A is a legal first order.
  const MutexLock hold_b(b);
  const MutexLock hold_a(a);
  EXPECT_EQ(lock_order::edge_count(), 1u);
}

TEST(LockOrder, ReleaseBalancesWhenEnabledMidHold) {
  // A lock acquired while validation was off is simply untracked; enabling
  // before the release must not corrupt the held set.
  const bool was = lock_order::set_enabled(false);
  Mutex a{"test::toggle"};
  a.lock();
  EXPECT_EQ(lock_order::held_count(), 0u);
  lock_order::set_enabled(true);
  a.unlock();  // no-op removal: was never tracked
  EXPECT_EQ(lock_order::held_count(), 0u);
  lock_order::set_enabled(was);
  lock_order::reset();
}

// The headline guarantee: a would-be AB/BA deadlock between two threads
// surfaces as an exception in the second thread to attempt its inner
// acquisition — BEFORE that thread can block on the underlying mutex — so
// the test finishes without any timeout machinery.  The first thread runs
// to completion alone (fully serialized via join) to make WHICH thread
// fails deterministic; the validator's global graph makes the guarantee
// independent of that choice.
TEST(LockOrder, InversionFiresBeforeDeadlockAcrossThreads) {
  const ScopedEnable enable;
  Mutex a{"test::A"};
  Mutex b{"test::B"};
  std::thread([&] {
    const MutexLock hold_a(a);
    const MutexLock hold_b(b);  // thread 1 establishes A→B and exits
  }).join();
  bool threw = false;
  std::thread([&] {
    const MutexLock hold_b(b);
    try {
      a.lock();  // B→A: must throw instead of proceeding
      a.unlock();
    } catch (const PreconditionError&) {
      threw = true;
    }
  }).join();
  EXPECT_TRUE(threw);
}

TEST(LockOrder, CondVarWaitKeepsLockTracked) {
  const ScopedEnable enable;
  Mutex m{"test::cv"};
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    const MutexLock lock(m);
    ready = true;
    cv.notify_one();
  });
  {
    const MutexLock lock(m);
    while (!ready) cv.wait(m);
    EXPECT_EQ(lock_order::held_count(), 1u);
  }
  waker.join();
  EXPECT_EQ(lock_order::held_count(), 0u);
}

TEST(LockOrder, SharedMutexParticipates) {
  const ScopedEnable enable;
  SharedMutex rw{"test::rw"};
  Mutex m{"test::plain"};
  {
    const ReaderMutexLock read(rw);
    const MutexLock hold(m);  // rw→plain
  }
  const MutexLock hold(m);
  EXPECT_THROW(rw.lock_shared(), PreconditionError);  // plain→rw: cycle
}

}  // namespace
}  // namespace hyperrec
