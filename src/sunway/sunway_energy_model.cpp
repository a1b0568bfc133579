#include "sunway/sunway_energy_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {

SunwayEnergyModel::SunwayEnergyModel(const Cet& cet, const Net& net,
                                     const FeatureTable& table,
                                     const Network& network, int mBlock)
    : TetEnergyModel(cet, net), features_(net, table, grid_, rows()),
      fusion_(network.foldedSnapshot(), grid_, mBlock) {
  require(network.inputDim() == table.numPq() * kNumElements,
          "network input dimension must match the descriptor");
  loadTraffic_ = fusion_.loadModel();
}

void SunwayEnergyModel::atomEnergies(std::span<Vet* const> vets,
                                     int numFinal, double* out) {
  TKMC_SPAN("sunway.batch_dispatch");
  namespace tm = telemetry;
  const bool instrumented = tm::enabled();
  Traffic before;
  if (instrumented) before = grid_.peekTraffic();

  vetPtrScratch_.assign(vets.begin(), vets.end());
  features_.computeBatch(vetPtrScratch_, numFinal, featureBuffer_);
  energyBuffer_.resize(rows().systemRows(numFinal) * vets.size());
  fusion_.forward(featureBuffer_.data(), static_cast<int>(energyBuffer_.size()),
                  energyBuffer_.data());
  std::copy(energyBuffer_.begin(), energyBuffer_.end(), out);

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
}

}  // namespace tkmc
