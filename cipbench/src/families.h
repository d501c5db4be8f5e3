// Seeded input families with analytic answers (see known_answers.json).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "petri/net.h"

namespace cipbench {

/// N disjoint two-place cycles: 1-safe, live, 2^N states, N*2^N edges.
/// Bit i of `phases` puts cycle i's token on its second place; the state
/// space is the same for every choice.
[[nodiscard]] cipnet::PetriNet independent_cycles(std::size_t n,
                                                  std::uint64_t phases = 0);

/// A k-place ring with one token on place 0 and one on place `second`
/// (1 <= second < k): unsafe (the tokens can meet), live, k(k+1)/2 states
/// and k^2 edges wherever the second token starts.
[[nodiscard]] cipnet::PetriNet two_token_ring(std::size_t k,
                                             std::size_t second = 1);

/// Independent one-shot chains, chain i with lengths[i] transitions and one
/// token at its head: 1-safe, one deadlock, prod(k_i+1) states.
/// `prefix` keeps the names of several instances apart.
[[nodiscard]] cipnet::PetriNet one_shot_chains(
    const std::vector<std::size_t>& lengths, const std::string& prefix = "x");

/// Label of transition `step` of chain `chain` in `one_shot_chains`.
[[nodiscard]] std::string chain_label(const std::string& prefix,
                                      std::size_t chain, std::size_t step);

/// A Muller C-element with `n` inputs `<prefix>a1..<prefix>an` and output
/// `<prefix>c` as petrify-style .g text: every input rises, then c rises,
/// every input falls, then c falls. CSC-clean, 2^(n+1) states, next-state
/// function c = all(a) || (c && any(a)).
[[nodiscard]] std::string celement_g(std::size_t n, const std::string& prefix);

}  // namespace cipbench
