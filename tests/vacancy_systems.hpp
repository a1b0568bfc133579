#pragma once

// Random vacancy systems and the oracle sweeps every TET backend runs
// over them: each state energy must equal a test-local full recompute,
// bit for bit, one system at a time and in batches of 1 to 40.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "kmc/energy_model.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/net.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

inline int pick(Rng& rng, std::size_t n) {
  return static_cast<int>(rng.uniformBelow(n));
}

// An Fe-Cu environment around the vacancy at site 0, plus extra
// vacancies on a jump target, on a site some hop changes, and on an
// unchanged site that neighbours a changed one, so vacancy masking and
// the reuse of unchanged rows both see vacancies.
inline Vet randomSystem(Rng& rng, const Cet& cet, const Net& net) {
  Vet vet(cet.nAll());
  for (int id = 1; id < cet.nAll(); ++id)
    vet.set(id, rng.uniform() < 0.3 ? Species::kCu : Species::kFe);
  vet.set(0, Species::kVacancy);
  const auto affected = net.affectedSites(pick(rng, kNumJumpDirections));
  if (rng.uniform() < 0.5)
    vet.set(Cet::jumpTargetId(pick(rng, kNumJumpDirections)),
            Species::kVacancy);
  if (rng.uniform() < 0.7)
    vet.set(affected[static_cast<std::size_t>(pick(rng, affected.size()))],
            Species::kVacancy);
  if (rng.uniform() < 0.7) {
    const int site =
        affected[static_cast<std::size_t>(pick(rng, affected.size()))];
    std::vector<int> unaffected;
    for (const Net::Entry& e : net.neighbors(site))
      if (!std::binary_search(affected.begin(), affected.end(), e.siteId))
        unaffected.push_back(e.siteId);
    if (!unaffected.empty())
      vet.set(unaffected[static_cast<std::size_t>(
                  pick(rng, unaffected.size()))],
              Species::kVacancy);
  }
  return vet;
}

// 120 random systems through stateEnergiesFromVet(), numFinal cycling
// through 0..8. `reference(vet, numFinal)` gives the expected energies.
template <typename Reference>
void expectSingleSystemsEqual(EnergyModel& model, const Cet& cet,
                              const Net& net, Rng& rng,
                              Reference&& reference) {
  for (int i = 0; i < 120; ++i) {
    Vet vet = randomSystem(rng, cet, net);
    const Vet before = vet;
    const int numFinal = i % (kNumJumpDirections + 1);
    const std::vector<double> energies =
        model.stateEnergiesFromVet(vet, numFinal);
    EXPECT_EQ(vet.data(), before.data()) << "system " << i;
    const std::vector<double> expected = reference(vet, numFinal);
    ASSERT_EQ(energies.size(), expected.size());
    for (std::size_t s = 0; s < expected.size(); ++s)
      EXPECT_EQ(energies[s], expected[s])
          << "system " << i << ", state " << s << " of " << numFinal;
  }
}

// Batches of 1 to 40 random systems through stateEnergiesBatch(), then
// an empty batch.
template <typename Reference>
void expectBatchesEqual(EnergyModel& model, const Cet& cet, const Net& net,
                        Rng& rng, Reference&& reference) {
  int batchIndex = 0;
  for (const int batchSize : {1, 2, 3, 5, 8, 13, 21, 34, 1, 40}) {
    std::vector<Vet> vets;
    for (int i = 0; i < batchSize; ++i)
      vets.push_back(randomSystem(rng, cet, net));
    const std::vector<Vet> before = vets;
    std::vector<Vet*> ptrs;
    for (Vet& v : vets) ptrs.push_back(&v);
    const int numFinal = batchIndex++ % (kNumJumpDirections + 1);
    const auto batch = model.stateEnergiesBatch(ptrs, numFinal);
    ASSERT_EQ(batch.size(), vets.size());
    for (std::size_t i = 0; i < vets.size(); ++i) {
      EXPECT_EQ(vets[i].data(), before[i].data());
      const std::vector<double> expected = reference(vets[i], numFinal);
      ASSERT_EQ(batch[i].size(), expected.size());
      for (std::size_t s = 0; s < expected.size(); ++s)
        EXPECT_EQ(batch[i][s], expected[s])
            << "batch of " << batchSize << ", system " << i << ", state "
            << s << " of " << numFinal;
    }
  }
  EXPECT_TRUE(model.stateEnergiesBatch({}, kNumJumpDirections).empty());
}

}  // namespace tkmc
