// google-benchmark microbenchmarks for the performance-critical substrate:
// string similarity measures, phonetic codes, blocking, pre-matching,
// clustering and subgraph construction.
//
//   ./perf_microbench [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include "tglink/blocking/blocking.h"
#include "tglink/graph/enrichment.h"
#include "tglink/graph/union_find.h"
#include "tglink/linkage/config.h"
#include "tglink/linkage/iterative.h"
#include "tglink/linkage/prematching.h"
#include "tglink/linkage/subgraph.h"
#include "tglink/similarity/batch_kernels.h"
#include "tglink/similarity/edit_distance.h"
#include "tglink/similarity/jaro.h"
#include "tglink/similarity/phonetic.h"
#include "tglink/similarity/qgram.h"
#include "tglink/synth/generator.h"

namespace tglink {
namespace {

const char* const kNamePairs[][2] = {
    {"ashworth", "ashwerth"}, {"elizabeth", "elisabeth"},
    {"john", "jack"},         {"ramsbottom", "ramsbotham"},
    {"smith", "smyth"},       {"butterworth", "buttersworth"},
};

void BM_BigramDice(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& pair = kNamePairs[i++ % std::size(kNamePairs)];
    benchmark::DoNotOptimize(BigramDice(pair[0], pair[1]));
  }
}
BENCHMARK(BM_BigramDice);

void BM_Levenshtein(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& pair = kNamePairs[i++ % std::size(kNamePairs)];
    benchmark::DoNotOptimize(LevenshteinDistance(pair[0], pair[1]));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& pair = kNamePairs[i++ % std::size(kNamePairs)];
    benchmark::DoNotOptimize(JaroWinklerSimilarity(pair[0], pair[1]));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_Soundex(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const auto& pair = kNamePairs[i++ % std::size(kNamePairs)];
    benchmark::DoNotOptimize(Soundex(pair[0]));
  }
}
BENCHMARK(BM_Soundex);

// Scalar measure vs batched kernel, per measure: state.range(0) selects the
// variant (0 = scalar ComputeMeasure, 1 = batched), so each kernel reports
// two comparable rows.
void BM_KernelVsScalar(benchmark::State& state, Measure measure) {
  const bool batched = state.range(0) == 1;
  size_t i = 0;
  for (auto _ : state) {
    const auto& pair = kNamePairs[i++ % std::size(kNamePairs)];
    benchmark::DoNotOptimize(
        batched ? simkernel::BatchMeasure(measure, pair[0], pair[1])
                : ComputeMeasure(measure, pair[0], pair[1]));
  }
  state.SetLabel(batched ? "batched" : "scalar");
}
BENCHMARK_CAPTURE(BM_KernelVsScalar, qgram_dice, Measure::kQGramDice)
    ->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_KernelVsScalar, trigram_dice, Measure::kTrigramDice)
    ->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_KernelVsScalar, levenshtein, Measure::kLevenshtein)
    ->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_KernelVsScalar, damerau, Measure::kDamerau)
    ->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_KernelVsScalar, jaro, Measure::kJaro)
    ->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_KernelVsScalar, jaro_winkler, Measure::kJaroWinkler)
    ->Arg(0)->Arg(1);
BENCHMARK_CAPTURE(BM_KernelVsScalar, soundex, Measure::kSoundexEqual)
    ->Arg(0)->Arg(1);

/// One fully configured record-pair similarity (ω2, five attributes).
void BM_AggregateSimilarity(benchmark::State& state) {
  GeneratorConfig gen;
  gen.scale = 0.02;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  const SimilarityFunction sim_func = configs::Omega2();
  size_t o = 0, n = 0;
  for (auto _ : state) {
    o = (o + 1) % pair.old_dataset.num_records();
    n = (n + 7) % pair.new_dataset.num_records();
    benchmark::DoNotOptimize(sim_func.AggregateSimilarity(
        pair.old_dataset.record(o), pair.new_dataset.record(n)));
  }
}
BENCHMARK(BM_AggregateSimilarity);

void BM_BlockingCandidates(benchmark::State& state) {
  GeneratorConfig gen;
  gen.scale = state.range(0) / 100.0;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  const BlockingConfig blocking = BlockingConfig::MakeDefault();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCandidatePairs(pair.old_dataset, pair.new_dataset, blocking));
  }
  state.SetLabel(std::to_string(pair.old_dataset.num_records()) + " x " +
                 std::to_string(pair.new_dataset.num_records()) + " records");
}
BENCHMARK(BM_BlockingCandidates)->Arg(5)->Arg(10)->Arg(20);

void BM_PreMatcherBuild(benchmark::State& state) {
  GeneratorConfig gen;
  gen.scale = state.range(0) / 100.0;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  SimilarityFunction sim_func = configs::Omega2();
  sim_func.set_year_gap(10);
  for (auto _ : state) {
    PreMatcher pm(pair.old_dataset, pair.new_dataset, sim_func,
                  BlockingConfig::MakeDefault(), 0.5);
    benchmark::DoNotOptimize(pm.scored_pairs().size());
  }
}
BENCHMARK(BM_PreMatcherBuild)->Arg(5)->Arg(10)->Arg(20);

void BM_ClusterRound(benchmark::State& state) {
  GeneratorConfig gen;
  gen.scale = 0.1;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  SimilarityFunction sim_func = configs::Omega2();
  sim_func.set_year_gap(10);
  const PreMatcher pm(pair.old_dataset, pair.new_dataset, sim_func,
                      BlockingConfig::MakeDefault(), 0.5);
  const std::vector<bool> active_old(pair.old_dataset.num_records(), true);
  const std::vector<bool> active_new(pair.new_dataset.num_records(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.Cluster(0.7, active_old, active_new));
  }
}
BENCHMARK(BM_ClusterRound);

void BM_SubgraphRound(benchmark::State& state) {
  GeneratorConfig gen;
  gen.scale = 0.1;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  const LinkageConfig config = configs::DefaultConfig();
  SimilarityFunction sim_func = config.sim_func;
  sim_func.set_year_gap(10);
  const PreMatcher pm(pair.old_dataset, pair.new_dataset, sim_func,
                      config.blocking, 0.5);
  const auto old_graphs = EnrichAllHouseholds(pair.old_dataset);
  const auto new_graphs = EnrichAllHouseholds(pair.new_dataset);
  const Clustering clustering = pm.Cluster(
      0.7, std::vector<bool>(pair.old_dataset.num_records(), true),
      std::vector<bool>(pair.new_dataset.num_records(), true));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildAllSubgraphs(pair.old_dataset, pair.new_dataset, old_graphs,
                          new_graphs, clustering, pm, config, 0.7));
  }
}
BENCHMARK(BM_SubgraphRound);

void BM_EndToEndLinkage(benchmark::State& state) {
  GeneratorConfig gen;
  gen.scale = state.range(0) / 100.0;
  gen.num_censuses = 2;
  const SyntheticPair pair = GenerateCensusPair(gen, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinkCensusPair(
        pair.old_dataset, pair.new_dataset, configs::DefaultConfig()));
  }
  state.SetLabel(std::to_string(pair.old_dataset.num_records()) + " records");
}
BENCHMARK(BM_EndToEndLinkage)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_UnionFind(benchmark::State& state) {
  const size_t n = 100000;
  for (auto _ : state) {
    UnionFind uf(n);
    uint64_t s = 1;
    for (size_t i = 0; i < n; ++i) {
      uf.Union(SplitMix64(&s) % n, SplitMix64(&s) % n);
    }
    benchmark::DoNotOptimize(uf.num_components());
  }
}
BENCHMARK(BM_UnionFind)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tglink

BENCHMARK_MAIN();
