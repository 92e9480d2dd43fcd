#include <gtest/gtest.h>

#include "netlist/nets.hpp"
#include "util/strings.hpp"

namespace qbp {
namespace {

HyperNetlist make_hyper() {
  HyperNetlist hyper("h");
  for (int k = 0; k < 5; ++k) {
    hyper.add_component(numbered("c", k), 1.0 + k);
  }
  hyper.add_net("n2", {0, 1}, 3);        // 2-pin
  hyper.add_net("n4", {1, 2, 3, 4}, 1);  // 4-pin
  return hyper;
}

TEST(HyperNetlist, BasicAccessors) {
  const auto hyper = make_hyper();
  EXPECT_EQ(hyper.num_components(), 5);
  EXPECT_EQ(hyper.nets().size(), 2u);
  EXPECT_EQ(hyper.total_pins(), 6);
  EXPECT_TRUE(hyper.validate().empty());
}

TEST(HyperNetlist, CliqueExpansionOfTwoPinNetIsExact) {
  const auto hyper = make_hyper();
  const auto flat = hyper.expand(NetExpansion::kClique);
  EXPECT_EQ(flat.connection_matrix().value_or(0, 1, 0), 3);
  EXPECT_EQ(flat.connection_matrix().value_or(1, 0, 0), 3);
}

TEST(HyperNetlist, CliqueExpansionPairCount) {
  const auto hyper = make_hyper();
  const auto flat = hyper.expand(NetExpansion::kClique);
  // n2: 1 pair; n4: C(4,2) = 6 pairs; pair (1,2..) overlap check: n2 is
  // {0,1}, n4 covers {1,2,3,4} -> all 7 pairs distinct.
  EXPECT_EQ(flat.num_connected_pairs(), 7);
  EXPECT_EQ(expanded_pair_count(hyper.nets()[1], NetExpansion::kClique), 6);
}

TEST(HyperNetlist, StarExpansionUsesDriver) {
  const auto hyper = make_hyper();
  const auto flat = hyper.expand(NetExpansion::kStar);
  // n4 driver is pin 1: edges 1-2, 1-3, 1-4 only.
  EXPECT_EQ(flat.connection_matrix().value_or(1, 2, 0), 1);
  EXPECT_EQ(flat.connection_matrix().value_or(1, 3, 0), 1);
  EXPECT_EQ(flat.connection_matrix().value_or(2, 3, 0), 0);
  EXPECT_EQ(flat.num_connected_pairs(), 4);  // 0-1, 1-2, 1-3, 1-4
  EXPECT_EQ(expanded_pair_count(hyper.nets()[1], NetExpansion::kStar), 3);
}

TEST(HyperNetlist, ExpansionPreservesComponents) {
  const auto hyper = make_hyper();
  const auto flat = hyper.expand(NetExpansion::kClique);
  ASSERT_EQ(flat.num_components(), 5);
  EXPECT_DOUBLE_EQ(flat.component_size(4), 5.0);
  EXPECT_EQ(flat.component(2).name, "c2");
  EXPECT_EQ(flat.name(), "h");
}

TEST(HyperNetlist, OverlappingNetsAccumulate) {
  HyperNetlist hyper;
  hyper.add_component("a", 1.0);
  hyper.add_component("b", 1.0);
  hyper.add_component("c", 1.0);
  hyper.add_net("x", {0, 1, 2}, 2);
  hyper.add_net("y", {0, 1}, 5);
  const auto flat = hyper.expand(NetExpansion::kClique);
  EXPECT_EQ(flat.connection_matrix().value_or(0, 1, 0), 7);  // 2 + 5
  EXPECT_EQ(flat.connection_matrix().value_or(0, 2, 0), 2);
}

TEST(HyperNetlist, ValidateRejectsSinglePinNet) {
  HyperNetlist hyper;
  hyper.add_component("a", 1.0);
  hyper.add_net("bad", {0}, 1);
  EXPECT_FALSE(hyper.validate().empty());
}

TEST(HyperNetlist, ValidateRejectsDuplicatePins) {
  HyperNetlist hyper;
  hyper.add_component("a", 1.0);
  hyper.add_component("b", 1.0);
  hyper.add_net("bad", {0, 1, 0}, 1);
  EXPECT_NE(hyper.validate().find("twice"), std::string::npos);
}

TEST(HyperNetlist, ValidateRejectsOutOfRangePin) {
  HyperNetlist hyper;
  hyper.add_component("a", 1.0);
  hyper.add_component("b", 1.0);
  hyper.add_net("bad", {0, 7}, 1);
  EXPECT_FALSE(hyper.validate().empty());
}

TEST(HyperNetlist, ValidateRejectsNonPositiveWeight) {
  HyperNetlist hyper;
  hyper.add_component("a", 1.0);
  hyper.add_component("b", 1.0);
  hyper.add_net("bad", {0, 1}, 0);
  EXPECT_FALSE(hyper.validate().empty());
}

}  // namespace
}  // namespace qbp
