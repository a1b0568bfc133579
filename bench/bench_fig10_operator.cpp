// Fig. 10 reproduction: performance of the TensorKMC operator at each
// optimization rung, on the paper's conv shape.
//
// Paper speedups over the base Conv2D implementation on SW26010-pro:
//   conv -> matmul                ~1.23x
//   + SIMD vectorization          16x ~ 22x
//   + (conv, bias, relu) fusion   33x ~ 41x
//   + big-fusion                  131x ~ 161x
// Absolute factors are architecture-specific (the host lacks the CPEs'
// scratchpad/SIMD asymmetry); the reproduced *ordering* — each rung at
// least as fast as the previous, big-fusion far ahead on memory traffic —
// is the claim under test. Timings come from google-benchmark; a summary
// table with measured speedups is printed afterwards.
//
// The host-timed "+ fusion" and "+ big-fusion" rungs run the float
// detail::denseTile, which takes its AVX2 clone on a CPU that has AVX2,
// while "+ SIMD" (kMatmulSimd) stays baseline SSE2 code. On such a host
// the measured step from "+ SIMD" to "+ fusion" therefore includes an
// ISA step (8 float lanes instead of 4) as well as the fusion. The
// rungs' modeled traffic (ConvStack and big-fusion Traffic counters:
// bytes, flops, modeled SW26010 time) does not depend on the host kernel
// and does not move.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <memory>

#include "common/stopwatch.hpp"
#include "common/table_writer.hpp"
#include "nnp/conv_stack.hpp"
#include "sunway/bigfusion_operator.hpp"

namespace {

using namespace tkmc;

const std::vector<int> kChannels{64, 128, 128, 128, 64, 1};
constexpr int kM = 32 * 16 * 16;

struct Fixture {
  Fixture() : network(kChannels) {
    Rng rng(3);
    network.initHe(rng);
    snapshot = network.foldedSnapshot();
    stack = std::make_unique<ConvStack>(snapshot);
    input.resize(static_cast<std::size_t>(kM) * 64);
    Rng in(4);
    for (float& v : input) v = static_cast<float>(in.uniform());
    output.resize(static_cast<std::size_t>(kM));
    fusion = std::make_unique<BigFusionOperator>(snapshot, grid, 32);
    fusion->loadModel();
  }

  Network network;
  Network::Snapshot snapshot;
  std::unique_ptr<ConvStack> stack;
  std::vector<float> input;
  std::vector<float> output;
  CpeGrid grid;
  std::unique_ptr<BigFusionOperator> fusion;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_NaiveConv(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state)
    f.stack->forward(ConvStack::Mode::kNaiveConv, f.input.data(), kM,
                     f.output.data());
}
BENCHMARK(BM_NaiveConv)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Matmul(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state)
    f.stack->forward(ConvStack::Mode::kMatmul, f.input.data(), kM,
                     f.output.data());
}
BENCHMARK(BM_Matmul)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_MatmulSimd(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state)
    f.stack->forward(ConvStack::Mode::kMatmulSimd, f.input.data(), kM,
                     f.output.data());
}
BENCHMARK(BM_MatmulSimd)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_FusedLayer(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state)
    f.stack->forward(ConvStack::Mode::kFusedLayer, f.input.data(), kM,
                     f.output.data());
}
BENCHMARK(BM_FusedLayer)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_BigFusion(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) f.fusion->forward(f.input.data(), kM, f.output.data());
}
BENCHMARK(BM_BigFusion)->Unit(benchmark::kMillisecond)->Iterations(3);

double measureSeconds(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) fn();
  return sw.seconds() / reps;
}

void printSummary() {
  Fixture& f = fixture();
  struct Rung {
    const char* name;
    const char* paper;
    double seconds;
  };
  const int reps = 3;
  std::vector<Rung> rungs = {
      {"base conv2d", "1.0x", measureSeconds(
                                  [&] {
                                    f.stack->forward(ConvStack::Mode::kNaiveConv,
                                                     f.input.data(), kM,
                                                     f.output.data());
                                  },
                                  reps)},
      {"conv -> matmul", "1.23x",
       measureSeconds(
           [&] {
             f.stack->forward(ConvStack::Mode::kMatmul, f.input.data(), kM,
                              f.output.data());
           },
           reps)},
      {"+ SIMD", "16x~22x",
       measureSeconds(
           [&] {
             f.stack->forward(ConvStack::Mode::kMatmulSimd, f.input.data(), kM,
                              f.output.data());
           },
           reps)},
      {"+ fusion", "33x~41x",
       measureSeconds(
           [&] {
             f.stack->forward(ConvStack::Mode::kFusedLayer, f.input.data(), kM,
                              f.output.data());
           },
           reps)},
      {"+ big-fusion", "131x~161x",
       measureSeconds(
           [&] { f.fusion->forward(f.input.data(), kM, f.output.data()); },
           reps)},
  };
  TableWriter table({"rung", "time (ms)", "speedup (this host)",
                     "speedup (paper, SW26010-pro)"});
  const double base = rungs.front().seconds;
  for (const Rung& r : rungs)
    table.addRow({r.name, TableWriter::num(r.seconds * 1e3, 2),
                  TableWriter::num(base / r.seconds, 2) + "x", r.paper});
  std::printf("\nFig. 10 — operator optimization rungs (shape 32x16x16, "
              "channels 64-128-128-128-64-1)\n");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printSummary();
  return 0;
}
