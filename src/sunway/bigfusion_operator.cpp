#include "sunway/bigfusion_operator.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/telemetry/tracer.hpp"
#include "nnp/dense_tile.hpp"

namespace tkmc {

BigFusionOperator::BigFusionOperator(const Network::Snapshot& snapshot,
                                     CpeGrid& grid, int mBlock)
    : grid_(grid), channels_(snapshot.channels), mBlock_(mBlock) {
  require(mBlock > 0, "tile height must be positive");
  require(numLayers() <= grid.spec().cpeCols,
          "big-fusion supports at most one layer per CPE column");
  layers_.resize(static_cast<std::size_t>(numLayers()));
  for (int li = 0; li < numLayers(); ++li) {
    const int in = channels_[static_cast<std::size_t>(li)];
    const int out = channels_[static_cast<std::size_t>(li) + 1];
    LayerImage& img = layers_[static_cast<std::size_t>(li)];
    img.weightsChannelMajor.resize(static_cast<std::size_t>(in) * out);
    for (int o = 0; o < out; ++o)
      for (int c = 0; c < in; ++c)
        img.weightsChannelMajor[static_cast<std::size_t>(c) * out + o] =
            snapshot.weights[static_cast<std::size_t>(li)]
                            [static_cast<std::size_t>(o) * in + c];
    img.biases = snapshot.biases[static_cast<std::size_t>(li)];
  }

  // Static LDM budget check: tile activations (ping-pong at max width),
  // the largest remote layer image, and the resident own layer image.
  const int maxWidth = *std::max_element(channels_.begin(), channels_.end());
  std::size_t maxLayerBytes = 0;
  for (const LayerImage& img : layers_)
    maxLayerBytes = std::max(
        maxLayerBytes, (img.weightsChannelMajor.size() + img.biases.size()) *
                           sizeof(float));
  const std::size_t working =
      2 * static_cast<std::size_t>(mBlock_) * maxWidth * sizeof(float) +
      2 * maxLayerBytes;
  require(working <= grid.spec().ldmBytes,
          "big-fusion working set exceeds LDM; reduce mBlock or layers");
}

Traffic BigFusionOperator::loadModel() {
  // Every CPE of column j receives layer j once via DMA. Traffic is the
  // model size times the 8 rows — a one-time cost amortized over the
  // simulation, reported separately from steady-state forward traffic.
  Traffic total;
  grid_.run([&](CpeContext& cpe) {
    const int col = cpe.col();
    if (col >= numLayers()) return;
    const LayerImage& img = layers_[static_cast<std::size_t>(col)];
    auto w = cpe.ldm().alloc<float>(img.weightsChannelMajor.size());
    cpe.dmaGet(w.data(), img.weightsChannelMajor.data(),
               img.weightsChannelMajor.size() * sizeof(float));
    auto b = cpe.ldm().alloc<float>(img.biases.size());
    cpe.dmaGet(b.data(), img.biases.data(), img.biases.size() * sizeof(float));
  });
  total = grid_.collectTraffic();
  modelLoaded_ = true;
  return total;
}

void BigFusionOperator::forward(const float* input, int m, float* output) const {
  TKMC_SPAN("sunway.bigfusion_forward");
  require(modelLoaded_, "call loadModel() before forward()");
  require(m > 0, "batch must be non-empty");
  const int c0 = inputDim();
  const int cLast = outputDim();
  const int maxWidth = *std::max_element(channels_.begin(), channels_.end());
  const int numCpes = grid_.size();

  // Row tiles are dealt to CPEs round-robin: tile t -> CPE t % 64.
  const int numTiles = tileCount(m);

  grid_.run([&](CpeContext& cpe) {
    Ldm& ldm = cpe.ldm();
    auto bufA = ldm.alloc<float>(static_cast<std::size_t>(mBlock_) * maxWidth);
    auto bufB = ldm.alloc<float>(static_cast<std::size_t>(mBlock_) * maxWidth);

    for (int tile = cpe.id(); tile < numTiles; tile += numCpes) {
      const int rowBegin = tile * mBlock_;
      const int rows = std::min(mBlock_, m - rowBegin);
      // DMA get: the only main-memory read of the whole stack.
      cpe.dmaGet(bufA.data(), input + static_cast<std::size_t>(rowBegin) * c0,
                 static_cast<std::size_t>(rows) * c0 * sizeof(float));
      float* cur = bufA.data();
      float* nxt = bufB.data();
      for (int li = 0; li < numLayers(); ++li) {
        const int in = channels_[static_cast<std::size_t>(li)];
        const int out = channels_[static_cast<std::size_t>(li) + 1];
        const bool lastLayer = li + 1 == numLayers();
        const LayerImage& img = layers_[static_cast<std::size_t>(li)];
        // Layer parameters arrive from the owning column over the mesh.
        // Algorithm 1 overlaps the RMA of layer i+1 with the compute of
        // layer i, so no wall-clock is charged here — only the on-mesh
        // byte counters; the kernel reads the owner's image directly.
        cpe.traffic().rmaBytes +=
            (img.weightsChannelMajor.size() + img.biases.size()) *
            sizeof(float);
        // Fused matmul + bias + ReLU over the whole tile, register-blocked;
        // the exact kernel ConvStack's fused mode uses, so results are
        // bit-identical.
        detail::denseTile(cur, img.weightsChannelMajor.data(),
                          img.biases.data(), nxt, rows, in, out, !lastLayer);
        cpe.traffic().flops +=
            2ULL * rows * in * out + static_cast<std::uint64_t>(rows) * out *
                                         (lastLayer ? 1 : 2);
        std::swap(cur, nxt);
      }
      // DMA put: the only main-memory write.
      cpe.dmaPut(output + static_cast<std::size_t>(rowBegin) * cLast, cur,
                 static_cast<std::size_t>(rows) * cLast * sizeof(float));
    }
  });
}

}  // namespace tkmc
