#include "lowerbounds/disjointness.hpp"

#include <algorithm>

#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "dist/transform.hpp"
#include "steiner/validate.hpp"

namespace dsf {

SdInstance MakeSdInstance(int universe, bool disjoint, SplitMix64& rng) {
  DSF_CHECK(universe >= 2);
  SdInstance sd;
  sd.disjoint = disjoint;
  // Partition [1..m] into two halves; A draws from the first, B from the
  // second, so they are disjoint by construction; a NO instance additionally
  // shares one random element.
  std::vector<int> elems(static_cast<std::size_t>(universe));
  for (int i = 0; i < universe; ++i) elems[static_cast<std::size_t>(i)] = i + 1;
  for (int i = universe - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(i + 1)));
    std::swap(elems[static_cast<std::size_t>(i)], elems[static_cast<std::size_t>(j)]);
  }
  const int half = universe / 2;
  for (int i = 0; i < half; ++i) sd.a.push_back(elems[static_cast<std::size_t>(i)]);
  for (int i = half; i < universe; ++i) {
    sd.b.push_back(elems[static_cast<std::size_t>(i)]);
  }
  if (!disjoint) {
    // Share exactly one element (|A ∩ B| = 1, the hard regime).
    sd.b.push_back(sd.a.front());
  }
  std::sort(sd.a.begin(), sd.a.end());
  std::sort(sd.b.begin(), sd.b.end());
  return sd;
}

SdOutcome RunCrGadgetWithDetAlgorithm(const SdInstance& sd, int universe,
                                      std::uint64_t seed) {
  // The deterministic algorithm guarantees factor 2 (+ε); ρ = 3 suffices.
  const CrGadget gadget = BuildCrGadget(sd.a, sd.b, universe, 3);
  const IcInstance ic = CrToIc(gadget.cr);
  DetMoatOptions opt;
  opt.metered_cut = gadget.cut;
  const auto res = RunDistributedMoat(gadget.graph, ic, opt, seed);
  DSF_CHECK(IsFeasible(gadget.graph, MakeMinimal(ic), res.forest));
  SdOutcome out;
  out.answered_disjoint = CrGadgetAnswersDisjoint(gadget, res.forest);
  out.correct = out.answered_disjoint == sd.disjoint;
  out.cut_bits = res.stats.cut_bits;
  out.cut_messages = res.stats.cut_messages;
  out.rounds = res.stats.rounds;
  out.solution_weight = gadget.graph.WeightOf(res.forest);
  return out;
}

SdOutcome RunIcGadgetWithDetAlgorithm(const SdInstance& sd, int universe,
                                      std::uint64_t seed) {
  const IcGadget gadget = BuildIcGadget(sd.a, sd.b, universe);
  DetMoatOptions opt;
  opt.metered_cut = gadget.cut;
  const auto res = RunDistributedMoat(gadget.graph, gadget.ic, opt, seed);
  DSF_CHECK(IsFeasible(gadget.graph, MakeMinimal(gadget.ic), res.forest));
  SdOutcome out;
  out.answered_disjoint = IcGadgetAnswersDisjoint(gadget, res.forest);
  out.correct = out.answered_disjoint == sd.disjoint;
  out.cut_bits = res.stats.cut_bits;
  out.cut_messages = res.stats.cut_messages;
  out.rounds = res.stats.rounds;
  out.solution_weight = gadget.graph.WeightOf(res.forest);
  return out;
}

SdOutcome RunIcGadgetWithRandAlgorithm(const SdInstance& sd, int universe,
                                       std::uint64_t seed) {
  const IcGadget gadget = BuildIcGadget(sd.a, sd.b, universe);
  // The randomized pipeline minimizes its input centrally, and on a disjoint
  // gadget every label is a singleton: without this metered Lemma 2.4 run,
  // the answer would cross the cut for free.
  const auto minimal = RunDistributedMakeMinimal(gadget.graph, gadget.ic,
                                                 seed, {}, gadget.cut);
  RandomizedOptions opt;
  opt.metered_cut = gadget.cut;
  const auto res =
      RunRandomizedSteinerForest(gadget.graph, minimal.instance, opt, seed);
  SdOutcome out;
  out.answered_disjoint = IcGadgetAnswersDisjoint(gadget, res.forest);
  out.correct = out.answered_disjoint == sd.disjoint;
  out.cut_bits = minimal.stats.cut_bits + res.stats.cut_bits;
  out.cut_messages = minimal.stats.cut_messages + res.stats.cut_messages;
  out.rounds = minimal.stats.rounds + res.stats.rounds;
  out.solution_weight = gadget.graph.WeightOf(res.forest);
  return out;
}

}  // namespace dsf
