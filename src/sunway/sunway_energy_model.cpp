#include "sunway/sunway_energy_model.hpp"

#include "common/error.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {

SunwayEnergyModel::SunwayEnergyModel(const Cet& cet, const Net& net,
                                     const FeatureTable& table,
                                     const Network& network, int mBlock)
    : cet_(cet), features_(net, table, grid_, RowPlan::hopLocal(net)),
      fusion_(network.foldedSnapshot(), grid_, mBlock) {
  require(network.inputDim() == table.numPq() * kNumElements,
          "network input dimension must match the descriptor");
  loadTraffic_ = fusion_.loadModel();
}

std::vector<double> SunwayEnergyModel::stateEnergies(const LatticeState& state,
                                                     Vec3i center,
                                                     int numFinal) {
  Vet vet = Vet::gather(cet_, state, center);
  return stateEnergiesFromVet(vet, numFinal);
}

std::vector<double> SunwayEnergyModel::stateEnergiesFromVet(Vet& vet,
                                                            int numFinal) {
  // The per-system path is the batched pipeline at batch size one, so
  // the two cannot diverge numerically.
  Vet* one = &vet;
  return stateEnergiesBatch({&one, 1}, numFinal).front();
}

std::vector<std::vector<double>> SunwayEnergyModel::stateEnergiesBatch(
    std::span<Vet* const> vets, int numFinal) {
  if (vets.empty()) return {};
  TKMC_SPAN("sunway.batch_dispatch");
  namespace tm = telemetry;
  const bool instrumented = tm::enabled();
  Traffic before;
  if (instrumented) before = grid_.peekTraffic();

  vetPtrScratch_.assign(vets.begin(), vets.end());
  features_.computeBatch(vetPtrScratch_, numFinal, featureBuffer_);
  const RowPlan& rows = features_.rows();
  const std::size_t systemRows = rows.systemRows(numFinal);
  energyBuffer_.resize(systemRows * vets.size());
  fusion_.forward(featureBuffer_.data(), static_cast<int>(energyBuffer_.size()),
                  energyBuffer_.data());

  // The MPE-side per-state reduction, accumulating the float atomic
  // energies in double.
  std::vector<std::vector<double>> energies(vets.size());
  for (std::size_t sys = 0; sys < vets.size(); ++sys) {
    energies[sys].resize(static_cast<std::size_t>(numFinal) + 1);
    rows.reduce(*vets[sys], numFinal, energyBuffer_.data() + sys * systemRows,
                energies[sys].data());
  }

  if (instrumented) {
    const Traffic after = grid_.peekTraffic();
    tm::MetricsRegistry& reg = tm::metrics();
    reg.counter("sunway.batch.dispatches").inc();
    reg.counter("sunway.batch.systems_total").add(vets.size());
    reg.histogram("sunway.batch.systems", tm::Histogram::batchSizeBounds())
        .observe(static_cast<double>(vets.size()));
    reg.histogram("sunway.dispatch.main_bytes", tm::Histogram::trafficBounds())
        .observe(static_cast<double>(after.mainBytes() - before.mainBytes()));
    reg.histogram("sunway.dispatch.flops", tm::Histogram::trafficBounds())
        .observe(static_cast<double>(after.flops - before.flops));
  }
  return energies;
}

}  // namespace tkmc
