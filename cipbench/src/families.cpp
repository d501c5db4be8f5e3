#include "families.h"

namespace cipbench {

using cipnet::PetriNet;
using cipnet::PlaceId;

PetriNet independent_cycles(std::size_t n, std::uint64_t phases) {
  PetriNet net;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string c = "c" + std::to_string(i);
    const bool high = ((phases >> (i % 64)) & 1u) != 0;
    PlaceId lo = net.add_place(c + "_lo", high ? 0 : 1);
    PlaceId hi = net.add_place(c + "_hi", high ? 1 : 0);
    net.add_transition({lo}, c + "_up", {hi});
    net.add_transition({hi}, c + "_down", {lo});
  }
  return net;
}

PetriNet two_token_ring(std::size_t k, std::size_t second) {
  PetriNet net;
  std::vector<PlaceId> places;
  for (std::size_t i = 0; i < k; ++i) {
    places.push_back(net.add_place("r" + std::to_string(i),
                                   i == 0 || i == second ? 1 : 0));
  }
  for (std::size_t i = 0; i < k; ++i) {
    net.add_transition({places[i]}, "t" + std::to_string(i),
                       {places[(i + 1) % k]});
  }
  return net;
}

std::string chain_label(const std::string& prefix, std::size_t chain,
                        std::size_t step) {
  return prefix + std::to_string(chain) + "_s" + std::to_string(step);
}

PetriNet one_shot_chains(const std::vector<std::size_t>& lengths,
                         const std::string& prefix) {
  PetriNet net;
  for (std::size_t c = 0; c < lengths.size(); ++c) {
    const std::string base = prefix + std::to_string(c) + "_p";
    PlaceId prev = net.add_place(base + "0", 1);
    for (std::size_t s = 0; s < lengths[c]; ++s) {
      PlaceId next = net.add_place(base + std::to_string(s + 1), 0);
      net.add_transition({prev}, chain_label(prefix, c, s), {next});
      prev = next;
    }
  }
  return net;
}

std::string celement_g(std::size_t n, const std::string& prefix) {
  const std::string c = prefix + "c";
  auto a = [&](std::size_t i) { return prefix + "a" + std::to_string(i); };
  std::string g = ".model " + prefix + "celement\n.inputs";
  for (std::size_t i = 1; i <= n; ++i) g += " " + a(i);
  g += "\n.outputs " + c + "\n.graph\n";
  std::string falls, marking;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::string s = std::to_string(i);
    // wait_i -> a_i+ -> rose_i -> c+ -> fall_i -> a_i- -> down_i -> c-
    g += "w" + s + " " + a(i) + "+\n";
    g += a(i) + "+ r" + s + "\n";
    g += "r" + s + " " + c + "+\n";
    g += "f" + s + " " + a(i) + "-\n";
    g += a(i) + "- d" + s + "\n";
    g += "d" + s + " " + c + "-\n";
    falls += " f" + s;
    marking += (i > 1 ? " w" : "w") + s;
  }
  g += c + "+" + falls + "\n";
  std::string waits;
  for (std::size_t i = 1; i <= n; ++i) waits += " w" + std::to_string(i);
  g += c + "-" + waits + "\n";
  g += ".marking { " + marking + " }\n.end\n";
  return g;
}

}  // namespace cipbench
