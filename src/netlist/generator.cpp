#include "netlist/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace qbp {

namespace {

/// Manhattan distance between two slots on a row-major grid.
std::int32_t slot_distance(std::int32_t a, std::int32_t b,
                           std::int32_t grid_width) {
  const std::int32_t ax = a % grid_width;
  const std::int32_t ay = a / grid_width;
  const std::int32_t bx = b % grid_width;
  const std::int32_t by = b / grid_width;
  return std::abs(ax - bx) + std::abs(ay - by);
}

/// Longest-processing-time style balanced placement: biggest components
/// first, each into the currently least-loaded slot.  Guarantees the hidden
/// placement is close to size-balanced, so capacities derived from it leave
/// genuine slack.
std::vector<std::int32_t> balanced_hidden_placement(
    const std::vector<double>& sizes, std::int32_t num_slots, Rng& rng) {
  const auto n = static_cast<std::int32_t>(sizes.size());
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(std::span<std::int32_t>(order));  // random tie-breaking
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return sizes[static_cast<std::size_t>(a)] >
                            sizes[static_cast<std::size_t>(b)];
                   });
  std::vector<double> load(static_cast<std::size_t>(num_slots), 0.0);
  std::vector<std::int32_t> slot_of(static_cast<std::size_t>(n), 0);
  for (const std::int32_t j : order) {
    const auto lightest =
        std::min_element(load.begin(), load.end()) - load.begin();
    slot_of[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(lightest);
    load[static_cast<std::size_t>(lightest)] += sizes[static_cast<std::size_t>(j)];
  }
  return slot_of;
}

}  // namespace

GeneratedNetlist generate_netlist(const RandomNetlistSpec& spec) {
  QBP_CHECK_GE(spec.num_components, 2);
  QBP_CHECK(spec.num_slots >= 1 && spec.grid_width >= 1)
      << "generator needs at least one slot and a positive grid width";
  QBP_CHECK_GE(spec.total_wires, spec.num_components - 1)
      << "too few wires to connect every component";

  Rng rng(spec.seed);
  Rng size_rng = rng.fork(1);
  Rng place_rng = rng.fork(2);
  Rng wire_rng = rng.fork(3);

  GeneratedNetlist result;
  result.spec = spec;
  result.netlist.set_name(spec.name);

  // --- component sizes: clamped log-normal, ~2 orders of magnitude spread.
  const double lo = spec.size_median / spec.size_span;
  const double hi = spec.size_median * spec.size_span;
  std::vector<double> sizes;
  sizes.reserve(static_cast<std::size_t>(spec.num_components));
  for (std::int32_t j = 0; j < spec.num_components; ++j) {
    const double raw =
        size_rng.next_log_normal(std::log(spec.size_median), spec.size_sigma);
    sizes.push_back(std::clamp(raw, lo, hi));
  }
  for (std::int32_t j = 0; j < spec.num_components; ++j) {
    result.netlist.add_component(numbered("u", j),
                                 sizes[static_cast<std::size_t>(j)]);
  }

  // --- hidden placement (size-balanced over the slot grid).
  result.hidden_slot =
      balanced_hidden_placement(sizes, spec.num_slots, place_rng);

  // Components grouped by hidden slot, and for every slot the list of
  // components in slots at Manhattan distance <= 1 ("nearby pool").
  std::vector<std::vector<std::int32_t>> slot_members(
      static_cast<std::size_t>(spec.num_slots));
  for (std::int32_t j = 0; j < spec.num_components; ++j) {
    slot_members[static_cast<std::size_t>(
                     result.hidden_slot[static_cast<std::size_t>(j)])]
        .push_back(j);
  }
  std::vector<std::vector<std::int32_t>> nearby_pool(
      static_cast<std::size_t>(spec.num_slots));
  for (std::int32_t s = 0; s < spec.num_slots; ++s) {
    for (std::int32_t t = 0; t < spec.num_slots; ++t) {
      if (slot_distance(s, t, spec.grid_width) <= 1) {
        const auto& members = slot_members[static_cast<std::size_t>(t)];
        nearby_pool[static_cast<std::size_t>(s)].insert(
            nearby_pool[static_cast<std::size_t>(s)].end(), members.begin(),
            members.end());
      }
    }
  }

  const auto pick_partner = [&](std::int32_t a) -> std::int32_t {
    const std::int32_t slot_a =
        result.hidden_slot[static_cast<std::size_t>(a)];
    const auto& pool = nearby_pool[static_cast<std::size_t>(slot_a)];
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::int32_t b;
      if (wire_rng.next_bool(spec.locality) && pool.size() > 1) {
        b = pool[wire_rng.pick_index(pool)];
      } else {
        b = static_cast<std::int32_t>(wire_rng.next_below(
            static_cast<std::uint64_t>(spec.num_components)));
      }
      if (b != a) return b;
    }
    // Degenerate pools: deterministic fallback.
    return (a + 1) % spec.num_components;
  };

  // --- wires.  First a random spanning tree so no component is isolated,
  // then the remaining budget as locality-biased random pairs.
  std::int64_t remaining = spec.total_wires;
  std::vector<std::int32_t> tree_order(
      static_cast<std::size_t>(spec.num_components));
  std::iota(tree_order.begin(), tree_order.end(), 0);
  wire_rng.shuffle(std::span<std::int32_t>(tree_order));
  for (std::int32_t k = 1; k < spec.num_components; ++k) {
    // Attach to a random earlier node, preferring a nearby one.
    std::int32_t parent = tree_order[static_cast<std::size_t>(
        wire_rng.next_below(static_cast<std::uint64_t>(k)))];
    const std::int32_t child = tree_order[static_cast<std::size_t>(k)];
    if (wire_rng.next_bool(spec.locality)) {
      // Scan a few earlier nodes for one in a nearby slot.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::int32_t candidate = tree_order[static_cast<std::size_t>(
            wire_rng.next_below(static_cast<std::uint64_t>(k)))];
        if (slot_distance(
                result.hidden_slot[static_cast<std::size_t>(candidate)],
                result.hidden_slot[static_cast<std::size_t>(child)],
                spec.grid_width) <= 1) {
          parent = candidate;
          break;
        }
      }
    }
    result.netlist.add_wires(parent, child, 1);
    --remaining;
  }

  while (remaining > 0) {
    const std::int32_t a = static_cast<std::int32_t>(wire_rng.next_below(
        static_cast<std::uint64_t>(spec.num_components)));
    const std::int32_t b = pick_partner(a);
    result.netlist.add_wires(a, b, 1);
    --remaining;
  }

  result.netlist.finalize();
  QBP_CHECK_EQ(result.netlist.total_wires(), spec.total_wires);
  return result;
}

}  // namespace qbp
