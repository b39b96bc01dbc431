#include <gtest/gtest.h>

#include "core/macs.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"

namespace stepping {
namespace {

Network two_conv_net() {
  Network net;
  net.emplace<Conv2d>("c1", 4, 3);
  net.emplace<Conv2d>("c2", 6, 3);
  net.emplace<Flatten>("flat");
  net.emplace<Dense>("fc", 2);
  Rng rng(1);
  net.wire(2, 8, 8, rng);
  return net;
}

TEST(Macs, FullMacsMatchHandComputation) {
  Network net = two_conv_net();
  // c1: 4 units x (2*9) cols x 64 positions = 4608
  // c2: 6 x (4*9) x 64 = 13824
  // fc: 2 x (6*64) x 1 = 768
  EXPECT_EQ(full_macs(net), 4608 + 13824 + 768);
}

TEST(Macs, SubnetOneOfFreshNetworkEqualsFullMacs) {
  Network net = two_conv_net();
  EXPECT_EQ(subnet_macs(net, 1), full_macs(net));
}

TEST(Macs, MovingUnitRemovesItsMacsFromSmallSubnet) {
  Network net = two_conv_net();
  auto* c1 = net.body_layers()[0];
  const std::int64_t before = subnet_macs(net, 1);
  c1->set_unit_subnet(0, 2);
  const std::int64_t after = subnet_macs(net, 1);
  // Unit 0 of c1: 18 incoming weights x 64, plus its outgoing synapses into
  // c2's subnet-1 units: 6 units x 9 weights x 64.
  EXPECT_EQ(before - after, 18 * 64 + 6 * 9 * 64);
  // Subnet 2 regains the unit's incoming weights but NOT its severed
  // outgoing synapses into subnet-1 units (paper: moving removes them so the
  // smaller subnet's results stay valid — in every subnet).
  EXPECT_EQ(subnet_macs(net, 2), before - 6 * 9 * 64);
}

TEST(Macs, StructuralRuleExcludesDownwardSynapses) {
  Network net = two_conv_net();
  auto* c1 = net.body_layers()[0];
  auto* c2 = net.body_layers()[1];
  c1->set_unit_subnet(0, 2);  // producer in subnet 2
  // In subnet 2, c2's subnet-1 units must NOT count weights from that
  // producer, even though both are active in subnet 2.
  const std::int64_t macs2 = subnet_macs(net, 2);
  std::int64_t expected_c2 = 0;
  for (int u = 0; u < c2->num_units(); ++u) {
    // all c2 units in subnet 1; producers: units 1..3 of c1 (subnet 1) + unit
    // 0 blocked by the structural rule.
    expected_c2 += 3 * 9 * 64;
  }
  const std::int64_t c1_macs = 4 * 18 * 64;
  const std::int64_t head = 2 * 6 * 64;
  EXPECT_EQ(macs2, c1_macs + expected_c2 + head);
}

TEST(Macs, HeadCountsOnlyActiveProducers) {
  Network net = two_conv_net();
  auto* c2 = net.body_layers()[1];
  c2->set_unit_subnet(5, 3);
  // In subnet 1 the head reads 5 active producers x 64 features each.
  const std::int64_t head1 = net.masked_layers().back()->subnet_macs(1);
  EXPECT_EQ(head1, 2 * 5 * 64);
  const std::int64_t head3 = net.masked_layers().back()->subnet_macs(3);
  EXPECT_EQ(head3, 2 * 6 * 64);
}

TEST(Macs, PruningReducesCount) {
  Network net = two_conv_net();
  const std::int64_t before = subnet_macs(net, 1);
  net.masked_layers()[0]->apply_magnitude_prune(1e9f);  // prune all of c1
  const std::int64_t after = subnet_macs(net, 1);
  EXPECT_EQ(before - after, 4608);
}

TEST(Macs, AllSubnetMacsMonotoneNondecreasing) {
  Network net = build_lenet3c1l(
      ModelConfig{.classes = 10, .expansion = 1.5, .width_mult = 0.2});
  // Scatter units across subnets.
  auto bodies = net.body_layers();
  Rng rng(5);
  for (MaskedLayer* m : bodies) {
    for (int u = 0; u < m->num_units(); ++u) {
      m->set_unit_subnet(u, rng.uniform_int(1, 4));
    }
  }
  const auto macs = all_subnet_macs(net, 4);
  for (std::size_t i = 1; i < macs.size(); ++i) {
    EXPECT_GE(macs[i], macs[i - 1]);
  }
}

TEST(Macs, MoveDeltaMatchesActualSubnetDifference) {
  Network net = two_conv_net();
  auto* c1 = net.body_layers()[0];
  auto* c2 = net.body_layers()[1];
  const std::int64_t predicted = c1->move_delta_macs(1, c2);
  const std::int64_t before = subnet_macs(net, 1);
  c1->set_unit_subnet(1, 2);
  const std::int64_t after = subnet_macs(net, 1);
  EXPECT_EQ(predicted, before - after);
}

TEST(Macs, DiscardPoolUnitsCountInNoSubnet) {
  Network net = two_conv_net();
  auto* c1 = net.body_layers()[0];
  const std::int64_t full = subnet_macs(net, 2);
  c1->set_unit_subnet(3, 3);  // with 2 executable subnets, 3 = discard pool
  EXPECT_LT(subnet_macs(net, 2), full);
}

/// active_weights() recounted from scratch through the public accessors.
std::int64_t brute_active_weights(const MaskedLayer& m, int id) {
  std::int64_t count = 0;
  for (int u = 0; u < m.num_units(); ++u) {
    const int sv = m.is_head() ? 1 : m.unit_subnet()[static_cast<std::size_t>(u)];
    if (sv > id) continue;
    for (int c = 0; c < m.num_cols(); ++c) {
      if (!m.prune_mask()[static_cast<std::size_t>(u) * m.num_cols() + c]) continue;
      const int su = m.in_subnet()[static_cast<std::size_t>(m.in_unit_of(u, c))];
      if (su > id || (!m.is_head() && su > sv)) continue;
      ++count;
    }
  }
  return count;
}

/// The memo answers every id the same as a fresh count (asked twice, so the
/// second answer comes from the memo).
void expect_memo_fresh(const MaskedLayer& m, const char* step) {
  for (int id = 1; id <= 3; ++id) {
    EXPECT_EQ(m.active_weights(id), brute_active_weights(m, id)) << step;
    EXPECT_EQ(m.active_weights(id), brute_active_weights(m, id)) << step;
  }
}

TEST(ActiveWeightsMemo, InvalidatesOnPruneMaskAssignmentAndHead) {
  Network net = two_conv_net();
  MaskedLayer* c1 = net.body_layers()[0];
  MaskedLayer* c2 = net.body_layers()[1];
  c2->set_unit_subnet(2, 2);
  expect_memo_fresh(*c2, "initial");

  std::int64_t before = c2->active_weights(3);
  c2->apply_magnitude_prune(0.3f);
  expect_memo_fresh(*c2, "prune mask");
  EXPECT_LT(c2->active_weights(3), before);

  before = c2->active_weights(1);
  c2->set_unit_subnet(0, 2);
  expect_memo_fresh(*c2, "own assignment");
  EXPECT_LT(c2->active_weights(1), before);

  // Written through the shared pointer: no setter sees it, the snapshot does.
  before = c2->active_weights(2);
  (*c2->unit_subnet_ptr())[1] = 3;
  expect_memo_fresh(*c2, "own assignment in place");
  EXPECT_LT(c2->active_weights(2), before);

  // The producer's move changes c2's input assignment (shared storage).
  before = c2->active_weights(1);
  c1->set_unit_subnet(0, 2);
  expect_memo_fresh(*c2, "input assignment");
  EXPECT_LT(c2->active_weights(1), before);

  before = c2->active_weights(1);
  c2->set_head(true);
  expect_memo_fresh(*c2, "head flag");
  EXPECT_GT(c2->active_weights(1), before);
  c2->set_head(false);
  expect_memo_fresh(*c2, "head flag cleared");

  c2->revive_unit_row(3);
  expect_memo_fresh(*c2, "revived row");
  c2->clear_prune_mask();
  expect_memo_fresh(*c2, "cleared prune mask");
  std::vector<std::uint8_t> mask(c2->prune_mask().size(), 0);
  c2->set_prune_mask(mask);
  expect_memo_fresh(*c2, "set prune mask");
  EXPECT_EQ(c2->active_weights(3), 0);
}

}  // namespace
}  // namespace stepping
