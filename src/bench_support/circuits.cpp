#include "bench_support/circuits.hpp"

#include <algorithm>
#include <utility>

#include "netlist/generator.hpp"
#include "timing/constraints.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace qbp {

const std::array<CircuitPreset, 7>& shihkuh_presets() {
  static const std::array<CircuitPreset, 7> presets = {{
      {"ckta", 339, 8200, 3464, 0xA1u},
      {"cktb", 357, 3017, 1325, 0xB2u},
      {"cktc", 545, 12141, 11545, 0xC3u},
      {"cktd", 521, 6309, 6009, 0xD4u},
      {"ckte", 380, 3831, 3760, 0xE5u},
      {"cktf", 607, 4809, 4683, 0xF6u},
      {"cktg", 472, 3376, 3376, 0x07u},
  }};
  return presets;
}

const CircuitPreset* find_preset(const std::string& name) {
  for (const auto& preset : shihkuh_presets()) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

CircuitInstance make_circuit(const CircuitPreset& preset,
                             const CircuitConfig& config) {
  constexpr std::int32_t kGridSide = 4;
  constexpr std::int32_t kPartitions = kGridSide * kGridSide;

  RandomNetlistSpec spec;
  spec.name = preset.name;
  spec.num_components = preset.num_components;
  spec.total_wires = preset.num_wires;
  spec.num_slots = kPartitions;
  spec.grid_width = kGridSide;
  spec.locality = config.locality;
  spec.seed = preset.seed;
  GeneratedNetlist generated = generate_netlist(spec);

  PartitionTopology topology =
      PartitionTopology::grid(kGridSide, kGridSide, config.metric);
  // Capacities: the hidden placement's usage plus headroom, so the hidden
  // placement is C1-feasible by construction and the instance stays tight.
  {
    std::vector<double> usage(kPartitions, 0.0);
    for (std::int32_t j = 0; j < preset.num_components; ++j) {
      usage[static_cast<std::size_t>(
          generated.hidden_slot[static_cast<std::size_t>(j)])] +=
          generated.netlist.component_size(j);
    }
    std::vector<double> capacities(kPartitions, 0.0);
    for (std::int32_t i = 0; i < kPartitions; ++i) {
      capacities[static_cast<std::size_t>(i)] =
          usage[static_cast<std::size_t>(i)] * (1.0 + config.capacity_slack);
    }
    topology.set_capacities(std::move(capacities));
  }

  TimingSpec timing_spec;
  timing_spec.target_count = preset.num_timing_constraints;
  timing_spec.seed = preset.seed ^ 0x7177u;
  TimingConstraints timing = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topology, timing_spec);

  CircuitInstance instance{
      PartitionProblem(std::move(generated.netlist), std::move(topology),
                       std::move(timing)),
      Assignment(std::move(generated.hidden_slot), kPartitions), preset};
  QBP_CHECK(instance.problem.is_feasible(instance.hidden_placement))
      << "construction must guarantee a feasible reference placement";
  return instance;
}

PartitionProblem make_scaling_problem(std::int32_t n, std::uint64_t seed) {
  RandomNetlistSpec spec;
  spec.name = numbered("scale", n);
  spec.num_components = n;
  spec.total_wires = 6 * static_cast<std::int64_t>(n);
  spec.seed = seed;
  GeneratedNetlist generated = generate_netlist(spec);
  PartitionTopology topology =
      PartitionTopology::grid(4, 4, CostKind::kManhattan);
  std::vector<double> usage(16, 0.0);
  for (std::int32_t j = 0; j < n; ++j) {
    usage[static_cast<std::size_t>(
        generated.hidden_slot[static_cast<std::size_t>(j)])] +=
        generated.netlist.component_size(j);
  }
  for (PartitionId i = 0; i < 16; ++i) {
    topology.set_capacity(i, usage[static_cast<std::size_t>(i)] * 1.15);
  }
  TimingSpec timing_spec;
  timing_spec.target_count = 3 * n;
  timing_spec.seed = seed ^ 0xabcd;
  TimingConstraints timing = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topology, timing_spec);
  return PartitionProblem(std::move(generated.netlist), std::move(topology),
                          std::move(timing));
}

PartitionProblem make_presolve_problem(std::int32_t n, std::uint64_t seed) {
  constexpr std::int32_t kPartitions = 16;
  // The grid's minimum separable delay is 1; any pair bound strictly below
  // that forces co-location (rule R2).
  constexpr double kCoLocationBound = 0.5;
  QBP_CHECK(n >= 64) << "presolve instances need room for the bait";

  const std::int32_t num_r2 = n * 15 / 100;
  const std::int32_t num_r1 = n * 5 / 100;
  const std::int32_t num_r0 = std::min<std::int32_t>(kPartitions, n / 50);
  const std::int32_t num_base = n - num_r2 - num_r1 - num_r0;

  RandomNetlistSpec spec;
  spec.name = numbered("presolve", n);
  spec.num_components = num_base;
  spec.total_wires = 6 * static_cast<std::int64_t>(num_base);
  spec.seed = seed;
  GeneratedNetlist generated = generate_netlist(spec);
  generated.netlist.finalize();

  PartitionTopology topology =
      PartitionTopology::grid(4, 4, CostKind::kManhattan);

  // Rebuild the base netlist so the bait can be appended after it.
  Netlist netlist(spec.name);
  std::vector<std::int32_t> slot = generated.hidden_slot;
  for (std::int32_t j = 0; j < num_base; ++j) {
    netlist.add_component(numbered("c", j),
                          generated.netlist.component_size(j));
  }
  for (const WireBundle& bundle : generated.netlist.bundles()) {
    netlist.add_wires(bundle.a, bundle.b, bundle.multiplicity);
  }

  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  // R2 companions: wired to a base host, co-location bound added below,
  // hidden at the host's slot so the reference placement satisfies it.
  std::vector<std::pair<std::int32_t, std::int32_t>> co_located;
  co_located.reserve(static_cast<std::size_t>(num_r2));
  for (std::int32_t k = 0; k < num_r2; ++k) {
    const auto host =
        static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(num_base)));
    const std::int32_t id = netlist.add_component(
        numbered("r2_", k), rng.next_double(0.2, 0.8));
    netlist.add_wires(host, id,
                      static_cast<std::int32_t>(1 + rng.next_below(3)));
    slot.push_back(slot[static_cast<std::size_t>(host)]);
    co_located.emplace_back(host, id);
  }
  // R1 stragglers: tiny timing-free pendants (one wire, no constraints).
  for (std::int32_t k = 0; k < num_r1; ++k) {
    const auto host =
        static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(num_base)));
    const std::int32_t id =
        netlist.add_component(numbered("r1_", k), 0.25);
    netlist.add_wires(host, id, 1);
    slot.push_back(slot[static_cast<std::size_t>(host)]);
  }

  // Capacities from everything placed so far (the macros are accounted for
  // separately: each home partition is widened by exactly its macro).
  std::vector<double> capacities(kPartitions, 0.0);
  for (std::size_t j = 0; j < slot.size(); ++j) {
    capacities[static_cast<std::size_t>(slot[j])] +=
        netlist.component_size(static_cast<std::int32_t>(j));
  }
  for (double& capacity : capacities) capacity *= 1.15;

  // R0 macros: geometrically growing sizes, one distinct home partition
  // each, so the largest free macro always has a singleton capacity domain
  // and R0 fixes them in a cascade.
  double macro_size = 2.0 * *std::max_element(capacities.begin(),
                                              capacities.end());
  for (std::int32_t k = 0; k < num_r0; ++k) {
    const auto host =
        static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(num_base)));
    const std::int32_t id =
        netlist.add_component(numbered("r0_", k), macro_size);
    netlist.add_wires(host, id, 1);
    slot.push_back(k % kPartitions);
    capacities[static_cast<std::size_t>(k % kPartitions)] += macro_size;
    macro_size *= 3.0;
  }
  topology.set_capacities(std::move(capacities));
  netlist.finalize();

  // Timing lives on the base circuit only (the stragglers must stay
  // timing-free), plus the co-location bounds that feed R2.
  TimingSpec timing_spec;
  timing_spec.target_count = 3 * num_base;
  timing_spec.seed = seed ^ 0xabcd;
  const TimingConstraints base_timing = generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topology, timing_spec);
  TimingConstraints timing(n);
  base_timing.matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        if (j1 < j2) timing.add(j1, j2, bound);
      });
  for (const auto& [host, companion] : co_located) {
    timing.add(host, companion, kCoLocationBound);
  }

  PartitionProblem problem(std::move(netlist), std::move(topology),
                           std::move(timing));
  QBP_CHECK(problem.is_feasible(Assignment(std::move(slot), kPartitions)))
      << "construction must guarantee a feasible reference placement";
  return problem;
}

}  // namespace qbp
