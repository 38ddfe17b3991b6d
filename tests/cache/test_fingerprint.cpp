// Instance fingerprints: determinism, sensitivity to every field of
// (trace, machine, options), shape fingerprints, and the FNV-1a-128
// primitive itself.
#include "cache/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cctype>

namespace hyperrec::cache {
namespace {

MultiTaskTrace baseline_trace() {
  MultiTaskTrace trace;
  TaskTrace a(4);
  a.push_back({DynamicBitset::from_string("1100"), 0});
  a.push_back({DynamicBitset::from_string("0011"), 2});
  TaskTrace b(3);
  b.push_back({DynamicBitset::from_string("111"), 0});
  b.push_back({DynamicBitset::from_string("001"), 1});
  trace.add_task(std::move(a));
  trace.add_task(std::move(b));
  return trace;
}

MachineSpec baseline_machine() {
  MachineSpec machine;
  machine.tasks = {{4, 4}, {3, 5}};
  machine.private_global_units = 2;
  machine.public_context_size = 1;
  machine.global_init = 6;
  return machine;
}

TEST(Fingerprint, Fnv128MatchesReferenceVectors) {
  // FNV-1a-128 of the empty string is the offset basis.
  const Fingerprint128 empty = fingerprint_bytes("");
  EXPECT_EQ(empty.to_hex(), "6c62272e07bb014262b821756295c58d");
  // Distinct short strings separate and are stable across calls.
  const Fingerprint128 a1 = fingerprint_bytes("a");
  const Fingerprint128 a2 = fingerprint_bytes("a");
  const Fingerprint128 b = fingerprint_bytes("b");
  EXPECT_EQ(a1, a2);
  EXPECT_FALSE(a1 == b);
  EXPECT_FALSE(a1 == empty);
}

TEST(Fingerprint, HexIs32LowercaseHexChars) {
  const std::string hex = fingerprint_bytes("hyperrec").to_hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                !std::isupper(static_cast<unsigned char>(c)))
        << hex;
  }
}

TEST(Fingerprint, DeterministicAcrossIndependentConstructions) {
  // Two instances built independently (fresh allocations, fresh bitsets)
  // must canonicalize and fingerprint identically — nothing address- or
  // order-dependent may leak into the key.
  const InstanceKey first =
      make_instance_key(baseline_trace(), baseline_machine(), {});
  const InstanceKey second =
      make_instance_key(baseline_trace(), baseline_machine(), {});
  EXPECT_EQ(first.canonical, second.canonical);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.shape, second.shape);
}

TEST(Fingerprint, SensitiveToEveryTraceField) {
  const Fingerprint128 base =
      fingerprint_instance(baseline_trace(), baseline_machine(), {});

  {  // flip one requirement bit
    MultiTaskTrace trace;
    TaskTrace a(4);
    a.push_back({DynamicBitset::from_string("1101"), 0});  // was 1100
    a.push_back({DynamicBitset::from_string("0011"), 2});
    TaskTrace b(3);
    b.push_back({DynamicBitset::from_string("111"), 0});
    b.push_back({DynamicBitset::from_string("001"), 1});
    trace.add_task(std::move(a));
    trace.add_task(std::move(b));
    EXPECT_FALSE(fingerprint_instance(trace, baseline_machine(), {}) == base);
  }
  {  // change one private demand
    MultiTaskTrace trace;
    TaskTrace a(4);
    a.push_back({DynamicBitset::from_string("1100"), 0});
    a.push_back({DynamicBitset::from_string("0011"), 1});  // was 2
    TaskTrace b(3);
    b.push_back({DynamicBitset::from_string("111"), 0});
    b.push_back({DynamicBitset::from_string("001"), 1});
    trace.add_task(std::move(a));
    trace.add_task(std::move(b));
    EXPECT_FALSE(fingerprint_instance(trace, baseline_machine(), {}) == base);
  }
  {  // swap task order
    MultiTaskTrace trace;
    TaskTrace b(3);
    b.push_back({DynamicBitset::from_string("111"), 0});
    b.push_back({DynamicBitset::from_string("001"), 1});
    TaskTrace a(4);
    a.push_back({DynamicBitset::from_string("1100"), 0});
    a.push_back({DynamicBitset::from_string("0011"), 2});
    trace.add_task(std::move(b));
    trace.add_task(std::move(a));
    MachineSpec machine = baseline_machine();
    std::swap(machine.tasks[0], machine.tasks[1]);
    EXPECT_FALSE(fingerprint_instance(trace, machine, {}) == base);
  }
  {  // append a step
    MultiTaskTrace trace = baseline_trace();
    MultiTaskTrace longer;
    TaskTrace a(4);
    a.push_back({DynamicBitset::from_string("1100"), 0});
    a.push_back({DynamicBitset::from_string("0011"), 2});
    a.push_back({DynamicBitset::from_string("0000"), 0});
    TaskTrace b(3);
    b.push_back({DynamicBitset::from_string("111"), 0});
    b.push_back({DynamicBitset::from_string("001"), 1});
    b.push_back({DynamicBitset::from_string("000"), 0});
    longer.add_task(std::move(a));
    longer.add_task(std::move(b));
    EXPECT_FALSE(fingerprint_instance(longer, baseline_machine(), {}) == base);
  }
}

TEST(Fingerprint, SensitiveToEveryMachineField) {
  const MultiTaskTrace trace = baseline_trace();
  const Fingerprint128 base =
      fingerprint_instance(trace, baseline_machine(), {});

  MachineSpec machine = baseline_machine();
  machine.tasks[0].local_init = 40;
  EXPECT_FALSE(fingerprint_instance(trace, machine, {}) == base);

  machine = baseline_machine();
  machine.tasks[1].local_switches = 30;  // shape-invalid but must still hash
  EXPECT_FALSE(fingerprint_instance(trace, machine, {}) == base);

  machine = baseline_machine();
  machine.private_global_units = 7;
  EXPECT_FALSE(fingerprint_instance(trace, machine, {}) == base);

  machine = baseline_machine();
  machine.public_context_size = 9;
  EXPECT_FALSE(fingerprint_instance(trace, machine, {}) == base);

  machine = baseline_machine();
  machine.global_init = 123;
  EXPECT_FALSE(fingerprint_instance(trace, machine, {}) == base);
}

TEST(Fingerprint, SensitiveToEveryOption) {
  const MultiTaskTrace trace = baseline_trace();
  const MachineSpec machine = baseline_machine();
  const Fingerprint128 base = fingerprint_instance(trace, machine, {});

  EvalOptions options;
  options.hyper_upload = UploadMode::kTaskSequential;
  EXPECT_FALSE(fingerprint_instance(trace, machine, options) == base);

  options = {};
  options.reconfig_upload = UploadMode::kTaskParallel;
  EXPECT_FALSE(fingerprint_instance(trace, machine, options) == base);

  options = {};
  options.changeover = true;
  EXPECT_FALSE(fingerprint_instance(trace, machine, options) == base);
}

TEST(Fingerprint, ShapeIgnoresContentButNotGeometry) {
  // Same (task count, steps, universes), different bits/costs → same shape.
  MultiTaskTrace other;
  TaskTrace a(4);
  a.push_back({DynamicBitset::from_string("0001"), 1});
  a.push_back({DynamicBitset::from_string("1110"), 0});
  TaskTrace b(3);
  b.push_back({DynamicBitset::from_string("010"), 2});
  b.push_back({DynamicBitset::from_string("100"), 0});
  other.add_task(std::move(a));
  other.add_task(std::move(b));

  EXPECT_EQ(fingerprint_shape(baseline_trace()), fingerprint_shape(other));
  EXPECT_FALSE(fingerprint_instance(baseline_trace(), baseline_machine(), {}) ==
               fingerprint_instance(other, baseline_machine(), {}));

  // Different universe → different shape.
  MultiTaskTrace widened;
  TaskTrace w(5);
  w.push_back({DynamicBitset::from_string("11000"), 0});
  w.push_back({DynamicBitset::from_string("00110"), 2});
  TaskTrace b2(3);
  b2.push_back({DynamicBitset::from_string("111"), 0});
  b2.push_back({DynamicBitset::from_string("001"), 1});
  widened.add_task(std::move(w));
  widened.add_task(std::move(b2));
  EXPECT_FALSE(fingerprint_shape(widened) ==
               fingerprint_shape(baseline_trace()));
}

TEST(Fingerprint, FirstNonZeroPrivateDemandFlipsTheTaskFlag) {
  // Key v2 writes per-step demands only for tasks with a non-zero demand,
  // announced by one flag byte per task.  The first non-zero demand on an
  // otherwise all-zero task must flip the flag and change the key.
  const auto task_with_demand = [](std::uint32_t demand) {
    MultiTaskTrace trace;
    TaskTrace task(4);
    task.push_back({DynamicBitset::from_string("1100"), 0});
    task.push_back({DynamicBitset::from_string("0011"), 0});
    task.push_back({DynamicBitset::from_string("0110"), demand});
    trace.add_task(std::move(task));
    return trace;
  };
  MachineSpec machine = MachineSpec::local_only({4});
  machine.private_global_units = 1;
  const InstanceKey zero = make_instance_key(task_with_demand(0), machine, {});
  const InstanceKey one = make_instance_key(task_with_demand(1), machine, {});
  EXPECT_FALSE(zero.fingerprint == one.fingerprint);
  EXPECT_NE(zero.canonical, one.canonical);
  // Flagged, the task carries a u32 demand for each of its 3 steps.
  EXPECT_EQ(one.canonical.size(), zero.canonical.size() + 3 * 4);
}

TEST(Fingerprint, SensitiveToTheTopBitOfAPartialLastByte) {
  // Key v2 keeps ⌈universe/8⌉ payload bytes per step; with a 13-switch
  // universe, switch 12 is the top live bit of the truncated second byte.
  const auto trace_with = [](const char* last) {
    MultiTaskTrace trace;
    TaskTrace task(13);
    task.push_back({DynamicBitset::from_string("1000000000000"), 0});
    task.push_back({DynamicBitset::from_string(last), 0});
    trace.add_task(std::move(task));
    return trace;
  };
  const MachineSpec machine = MachineSpec::local_only({13});
  const InstanceKey low = make_instance_key(trace_with("0000000000000"),
                                            machine, {});
  const InstanceKey top = make_instance_key(trace_with("0000000000001"),
                                            machine, {});
  EXPECT_FALSE(low.fingerprint == top.fingerprint);
  EXPECT_NE(low.canonical, top.canonical);
  EXPECT_EQ(low.canonical.size(), top.canonical.size());
}

TEST(Fingerprint, CanonicalKeysArePrefixTagged) {
  const std::string canonical = canonical_instance_key(
      baseline_trace(), baseline_machine(), {});
  EXPECT_EQ(canonical.rfind("hyperrec-instance-v2", 0), 0u);
  const std::string shape = canonical_shape_key(baseline_trace());
  EXPECT_EQ(shape.rfind("hyperrec-shape-v1", 0), 0u);
}

}  // namespace
}  // namespace hyperrec::cache
