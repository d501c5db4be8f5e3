// `design_flow`: one thread, closed loop; each job is one iteration of the
// paper's Section 5-6 design flow: STG encoding, state graph and CSC on the
// paper's .g files; composition and receptiveness of the translator stack
// (E5, E6); compositional simplification and the Theorem 5.1 subset check
// (E7); hiding checked against the language oracle (E3); and synthesis of a
// seeded-size CSC-clean C-element.

#include <cstdio>

#include "algebra/hide.h"
#include "circuit/receptive.h"
#include "circuit/simplify.h"
#include "common.h"
#include "families.h"
#include "io/astg.h"
#include "io/files.h"
#include "io/net_format.h"
#include "lang/ops.h"
#include "models/figures.h"
#include "models/translator.h"
#include "petri/canonical.h"
#include "reach/properties.h"
#include "stg/coding.h"
#include "synth/synthesize.h"

namespace cipbench {

namespace {

using cipnet::Circuit;

// C-element sizes of one round, in seeded order.
const std::vector<std::size_t> kCelementSizes = {3, 4, 5, 6, 7, 8};

struct Inputs {
  std::vector<std::pair<std::string, std::string>> g_files;  // name, text
  Circuit sender, translator, receiver, inconsistent, restricted;
  cipnet::PetriNet fig3, fig3_mg;
  std::vector<std::string> celement_text;  // by n - kCelementSizes.front()
};

struct Totals {
  double stg_states = 0;
  double literals = 0;
  double checks = 0;
};

std::vector<std::string> outputs_of(const cipnet::Stg& stg) {
  std::vector<std::string> outputs =
      stg.signal_names(cipnet::SignalKind::kOutput);
  for (const auto& s : stg.signal_names(cipnet::SignalKind::kInternal)) {
    outputs.push_back(s);
  }
  return outputs;
}

}  // namespace

Outcome run_design_flow(const Args& args, const KnownAnswers& known) {
  Verdicts verdicts;
  Inputs in;
  Totals totals;
  std::vector<std::size_t> round;
  const bool all_csc = known.flag("paper.stg_files.csc_violation");

  // STG flow on one .g text: parse, infer the initial encoding, build the
  // state graph, check coding. False (and counted) when no initial
  // encoding exists.
  auto stg_flow = [&](const std::string& text, const std::string& what,
                      cipnet::Stg& stg, cipnet::StateGraph& sg,
                      cipnet::CodingReport& coding) {
    {
      Span span("io.read_astg");
      stg = cipnet::read_astg(text);
    }
    std::optional<std::vector<std::pair<std::string, cipnet::Level>>> initial;
    {
      Span span("stg.encoding");
      initial = cipnet::infer_initial_encoding(stg);
    }
    if (!verdicts.check(initial.has_value(), what + " initial encoding")) {
      return false;
    }
    {
      Span span("stg.state_graph");
      sg = cipnet::build_state_graph(stg, *initial);
    }
    {
      Span span("stg.coding");
      coding = cipnet::check_coding(sg, outputs_of(stg));
    }
    if (g_spans != nullptr) {
      totals.stg_states += static_cast<double>(sg.state_count());
    }
    return true;
  };

  auto paper_stgs = [&]() {
    bool ok = true;
    for (const auto& [name, text] : in.g_files) {
      cipnet::Stg stg;
      cipnet::StateGraph sg;
      cipnet::CodingReport coding;
      if (!stg_flow(text, name, stg, sg, coding)) {
        ok = false;
        continue;
      }
      ok &= verdicts.check(coding.has_csc_violation() == all_csc,
                           name + " CSC verdict");
    }
    return ok;
  };

  auto reach_check = [&](const cipnet::PetriNet& net, const std::string& key) {
    cipnet::ReachabilityGraph rg;
    {
      Span span("reach.explore");
      rg = cipnet::explore(net);
    }
    bool safe = false;
    {
      Span span("reach.props");
      safe = cipnet::is_safe(rg);
    }
    {
      Span span("petri.canonical_hash");
      (void)cipnet::canonical_hash(net);
    }
    const Expect expect(verdicts, known, "paper.e5." + key + ".", key);
    bool ok = expect.eq(rg.state_count(), "states");
    ok &= expect.is(safe, "safe");
    return ok;
  };

  auto receptive = [&](const Circuit& a, const Circuit& b,
                       const std::string& key) {
    cipnet::ReceptivenessReport rep;
    {
      Span span("circuit.receptiveness");
      rep = cipnet::check_receptiveness(a, b);
    }
    if (g_spans != nullptr) {
      totals.checks += static_cast<double>(rep.checked_transitions);
    }
    const Expect expect(verdicts, known, key + ".", key);
    bool ok = expect.eq(rep.checked_transitions, "checks");
    ok &= expect.eq(rep.failures.size(), "failures");
    return ok;
  };

  auto e5_e6 = [&]() {
    const Expect expect(verdicts, known, "paper.e5.translator.", "translator");
    bool ok = expect.eq(in.translator.net().place_count(), "places");
    ok &= expect.eq(in.translator.net().transition_count(), "transitions");
    cipnet::ComposeResult st, full;
    {
      Span span("circuit.compose");
      st = cipnet::compose(in.sender, in.translator);
      full = cipnet::compose(st.circuit, in.receiver);
    }
    ok &= reach_check(st.circuit.net(), "sender_translator");
    ok &= reach_check(full.circuit.net(), "full_stack");
    ok &= receptive(in.sender, in.translator, "paper.e5.sender_translator");
    ok &= receptive(in.translator, in.receiver, "paper.e5.translator_receiver");
    ok &= receptive(in.inconsistent, in.translator, "paper.e6");
    return ok;
  };

  auto e7 = [&]() {
    cipnet::SimplifyResult simp;
    {
      Span span("circuit.simplify");
      simp = cipnet::simplify_against(in.translator, in.restricted);
    }
    const auto& s = simp.stats;
    const Expect expect(verdicts, known, "paper.e7.", "e7");
    bool ok = expect.eq(s.places_before, "places_before");
    ok &= expect.eq(s.transitions_before, "transitions_before");
    ok &= expect.eq(s.places_after, "places_after");
    ok &= expect.eq(s.transitions_after, "transitions_after");
    ok &= expect.eq(s.dead_transitions_removed, "dead_removed");

    // The simplified translator as a design artifact: serialized, read
    // back, and keyed by its content hash.
    std::string text;
    {
      Span span("io.write_net");
      text = cipnet::write_net(simp.simplified.net(), "translator_simplified");
    }
    cipnet::PetriNet back;
    {
      Span span("io.read_net");
      back = cipnet::read_net(text);
    }
    {
      Span span("petri.canonical_hash");
      (void)cipnet::canonical_hash(back);
    }
    const Expect round_trip(verdicts, known, "paper.e7.", "e7 round trip");
    ok &= round_trip.eq(back.place_count(), "places_after");
    ok &= round_trip.eq(back.transition_count(), "transitions_after");

    const std::vector<std::string> eps = {std::string(cipnet::kEpsilonLabel)};
    cipnet::Dfa simplified, original;
    {
      Span span("lang.language");
      simplified = cipnet::canonical_language(simp.simplified.net(), eps);
      original = cipnet::canonical_language(in.translator.net(), eps);
    }
    bool subset = false;
    {
      Span span("lang.subset");
      subset = !cipnet::subset_witness(simplified, original).has_value();
    }
    ok &= expect.is(subset, "subset_holds");
    return ok;
  };

  auto e3 = [&](const cipnet::PetriNet& net, const std::string& key) {
    const std::string label = known.at("paper.e3_hide.label").as_string();
    cipnet::PetriNet hidden;
    {
      Span span("algebra.hide");
      hidden = cipnet::hide_action(net, label);
    }
    bool equal = false;
    {
      Span span("lang.language");
      const cipnet::Dfa lhs = cipnet::canonical_language(hidden);
      const cipnet::Dfa rhs = cipnet::minimize(cipnet::determinize(
          cipnet::hide_labels(cipnet::nfa_of_net(net), {label})));
      equal = cipnet::equivalent(lhs, rhs);
    }
    const Expect expect(verdicts, known, "paper.e3_hide." + key + ".", key);
    bool ok = expect.eq(net.place_count(), "places_before");
    ok &= expect.eq(net.transition_count(), "transitions_before");
    ok &= expect.eq(hidden.place_count(), "places_after");
    ok &= expect.eq(hidden.transition_count(), "transitions_after");
    ok &= verdicts.check(
        equal == known.flag("paper.e3_hide.language_preserved"),
        key + " Theorem 4.7");
    return ok;
  };

  auto celement = [&](std::size_t n) {
    const std::string what = "celement/" + std::to_string(n);
    cipnet::Stg stg;
    cipnet::StateGraph sg;
    cipnet::CodingReport coding;
    if (!stg_flow(in.celement_text[n - kCelementSizes.front()], what, stg, sg,
                  coding)) {
      return false;
    }
    const Expect expect(verdicts, known, "families.celement.", what,
                        {{"n", static_cast<std::int64_t>(n)}});
    bool ok = expect.eq(sg.state_count(), "states");
    ok &= expect.eq(coding.csc_count(), "csc_conflicts");
    if (!ok) return false;
    cipnet::SynthesisResult result;
    {
      Span span("synth.synthesize");
      result = cipnet::synthesize(sg, outputs_of(stg));
    }
    if (g_spans != nullptr) {
      totals.literals += static_cast<double>(result.total_literals());
    }
    ok &= expect.eq(result.total_literals(), "literals");
    if (!verdicts.check(result.functions.size() == 1 &&
                            result.functions[0].signal == "c",
                        what + " one function, for c")) {
      return false;
    }
    // The synthesized cover must equal the hand-derived next-state function
    // on every code (all 2^(n+1) are reachable, so none is a don't-care).
    const std::string formula =
        known.at("families.celement.next_state").as_string();
    const std::vector<std::string>& vars_order = result.variables;
    bool agrees = vars_order.size() == n + 1;
    for (std::uint32_t m = 0; agrees && m < (1u << vars_order.size()); ++m) {
      KnownAnswers::Vars scalar;
      std::vector<std::int64_t> a;
      for (std::size_t b = 0; b < vars_order.size(); ++b) {
        const std::int64_t bit = (m >> b) & 1u;
        if (vars_order[b] == "c") {
          scalar["c"] = bit;
        } else {
          a.push_back(bit);
        }
      }
      const bool want = eval_formula(formula, scalar, {{"a", a}}) != 0;
      agrees = cipnet::sop_evaluates(result.functions[0].sop, m) == want;
    }
    ok &= verdicts.check(agrees, what + " next-state function");
    return ok;
  };

  ClosedLoop loop;
  loop.latency_limit_ms = 1000;
  loop.setup = [&](Rng&) {
    in = Inputs{};
    for (const auto& v : known.at("paper.stg_files.files").items()) {
      const std::string name = v.as_string();
      in.g_files.emplace_back(
          name, cipnet::read_text_file(args.root + "/data/" + name));
    }
    in.sender = cipnet::models::sender();
    in.translator = cipnet::models::translator();
    in.receiver = cipnet::models::receiver();
    in.inconsistent = cipnet::models::sender_inconsistent();
    in.restricted = cipnet::models::sender_restricted();
    in.fig3 = cipnet::models::fig3_net();
    in.fig3_mg = cipnet::models::fig3_marked_graph();
    for (std::size_t n : kCelementSizes) {
      // Inputs a1..an, output c: the names the known answers use.
      in.celement_text.push_back(celement_g(n, ""));
    }
    // Warm-up: one iteration of the paper flow.
    paper_stgs();
    e5_e6();
  };
  loop.next_round = [&](Rng& rng) {
    round = kCelementSizes;
    shuffle(round, rng);
    return round.size();
  };
  loop.job = [&](std::size_t i) {
    bool ok = paper_stgs();
    ok &= e5_e6();
    ok &= e7();
    ok &= e3(in.fig3, "fig3");
    ok &= e3(in.fig3_mg, "fig3_marked_graph");
    ok &= celement(round[i]);
    return ok;
  };
  loop.layers = [&](Report& r, const std::map<std::string, double>& self,
                    std::size_t jobs) {
    const double n = jobs == 0 ? 1.0 : static_cast<double>(jobs);
    auto per_job = [&](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second / n;
    };
    for (const char* span :
         {"io.read_astg", "io.read_net", "io.write_net", "stg.encoding",
          "stg.state_graph", "stg.coding", "circuit.compose",
          "circuit.receptiveness", "circuit.simplify", "reach.explore",
          "reach.props", "petri.safety_check", "petri.canonical_hash",
          "algebra.parallel", "algebra.hide", "lang.language", "lang.subset",
          "synth.synthesize"}) {
      r.add(std::string(span) + ".ms", per_job(span), "ms", "self, per job");
    }
    r.add("stg.states", totals.stg_states / n, "count", "mean per job");
    r.add("synth.literals", totals.literals / n, "count", "mean per job");
    r.add("circuit.checks", totals.checks / n, "count", "mean per job");
  };

  Outcome out = run_closed_loop(args, loop, verdicts);
  std::printf(
      "design_flow: %zu jobs per round, %zu verdicts checked, %zu wrong\n",
      kCelementSizes.size(), verdicts.checked(), verdicts.wrong());
  return out;
}

}  // namespace cipbench
