#include "tglink/linkage/iterative.h"

#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "tglink/graph/enrichment.h"
#include "tglink/linkage/prematching.h"
#include "tglink/linkage/residual.h"
#include "tglink/linkage/selection.h"
#include "tglink/linkage/subgraph.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/similarity/sim_batch.h"
#include "tglink/similarity/sim_tables.h"
#include "tglink/util/logging.h"

namespace tglink {

namespace {

/// Ablation variant of enrichment: only the head-relative star of explicit
/// role edges, no implicit member-member relationships (enrich_groups=false).
std::vector<HouseholdGraph> BuildStarGraphs(const CensusDataset& dataset) {
  std::vector<HouseholdGraph> graphs;
  graphs.reserve(dataset.num_households());
  for (GroupId g = 0; g < dataset.num_households(); ++g) {
    const Household& hh = dataset.household(g);
    HouseholdGraph graph(g, hh.members);
    RecordId head = kInvalidRecord;
    for (RecordId r : hh.members) {
      if (dataset.record(r).role == Role::kHead) {
        head = r;
        break;
      }
    }
    if (head == kInvalidRecord && !hh.members.empty()) head = hh.members[0];
    for (RecordId r : hh.members) {
      if (r == head) continue;
      const PersonRecord& a = dataset.record(head);
      const PersonRecord& b = dataset.record(r);
      const bool ages = a.has_age() && b.has_age();
      graph.AddEdge(head, r, DeriveRelType(a.role, b.role),
                    ages ? a.age - b.age : 0, ages);
    }
    graphs.push_back(std::move(graph));
  }
  return graphs;
}

#ifndef NDEBUG
size_t CountActive(const std::vector<bool>& active) {
  size_t count = 0;
  for (bool b : active) count += b ? 1 : 0;
  return count;
}
#endif

}  // namespace

const char* LinkPhaseName(LinkPhase phase) {
  switch (phase) {
    case LinkPhase::kSubgraph:
      return "subgraph";
    case LinkPhase::kContextResidual:
      return "context-residual";
    case LinkPhase::kGlobalResidual:
      return "global-residual";
  }
  return "?";
}

std::string LinkageResult::Summary() const {
  std::ostringstream os;
  os << "record links: " << record_mapping.size()
     << " (context: " << context_record_links
     << ", residual: " << residual_record_links << "), group links: "
     << group_mapping.size() << ", iterations: " << iterations.size();
  return os.str();
}

LinkageResult LinkCensusPair(const CensusDataset& old_dataset,
                             const CensusDataset& new_dataset,
                             const LinkageConfig& config) {
  TGLINK_TRACE_SPAN("linkage.link_census_pair");
  TGLINK_MEM_STAGE("linkage.link_census_pair");
  TGLINK_CHECK(config.delta_step > 0.0)
      << "delta_step must be positive or the iteration cannot terminate";
  // δ_high above 1 is legal (an unreachable threshold disables subgraph
  // matching — see edge_cases_test), but an inverted or negative schedule
  // is always a configuration bug.
  TGLINK_DCHECK(config.delta_high >= config.delta_low &&
                config.delta_low >= 0.0)
      << "inverted/negative δ schedule: high=" << config.delta_high
      << " low=" << config.delta_low;

  LinkageResult result;
  result.record_mapping =
      RecordMapping(old_dataset.num_records(), new_dataset.num_records());

  // Initialization: completeGroups — enrich the household graphs once; the
  // groups themselves never change during linkage.
  std::vector<HouseholdGraph> old_graphs;
  std::vector<HouseholdGraph> new_graphs;
  {
    TGLINK_TRACE_SPAN("linkage.complete_groups");
    TGLINK_MEM_STAGE("linkage.complete_groups");
    old_graphs = config.enrich_groups ? EnrichAllHouseholds(old_dataset)
                                      : BuildStarGraphs(old_dataset);
    new_graphs = config.enrich_groups ? EnrichAllHouseholds(new_dataset)
                                      : BuildStarGraphs(new_dataset);
  }

  // One set of similarity tables for the census pair, covering Ω2 and the
  // residual function; pre-matching and both residual passes plan over it.
  SimilarityFunction sim_func = config.sim_func;
  sim_func.set_year_gap(new_dataset.year() - old_dataset.year());
  SimilarityFunction sim_func_rem = config.sim_func_rem;
  sim_func_rem.set_year_gap(new_dataset.year() - old_dataset.year());
  const auto tables = std::make_shared<const SimTables>(
      std::initializer_list<const SimilarityFunction*>{&sim_func,
                                                       &sim_func_rem},
      old_dataset, new_dataset);

  // Pre-score all candidate pairs once at the loosest threshold the
  // schedule can reach (see PreMatcher docs).
  std::optional<PreMatcher> prematcher;
  prematcher.emplace(tables, sim_func, config.blocking, config.delta_low);

  std::vector<bool> active_old(old_dataset.num_records(), true);
  std::vector<bool> active_new(new_dataset.num_records(), true);

  // Iterative subgraph matching: δ_high down to δ_low in steps of Δ.
  double delta = config.delta_high;
  while (delta + 1e-9 >= config.delta_low) {
    TGLINK_TRACE_SPAN("linkage.iteration", delta);
    TGLINK_COUNTER_INC("linkage.iterations");
    const Clustering clustering =
        prematcher->Cluster(delta, active_old, active_new);
    std::vector<GroupPairSubgraph> subgraphs =
        BuildAllSubgraphs(old_dataset, new_dataset, old_graphs, new_graphs,
                          clustering, *prematcher, config, delta);

    IterationStats stats;
    stats.delta = delta;
    stats.scored_pairs = clustering.admissible_pairs;
    stats.candidate_subgraphs = subgraphs.size();

#ifndef NDEBUG
    const size_t active_before =
        CountActive(active_old) + CountActive(active_new);
#endif
    const SelectionResult selection = SelectGroupLinks(
        std::move(subgraphs), &result.group_mapping, &result.record_mapping,
        &active_old, &active_new);
#ifndef NDEBUG
    // Every record link claims exactly one old and one new record, so the
    // residual must shrink by exactly two records per link — the strict
    // monotone progress that guarantees Algorithm 1 terminates.
    const size_t active_after =
        CountActive(active_old) + CountActive(active_new);
    TGLINK_CHECK(active_before - active_after ==
                 2 * selection.new_record_links)
        << "residual shrank by " << (active_before - active_after)
        << " records but selection reported " << selection.new_record_links
        << " links";
#endif
    result.provenance.resize(result.record_mapping.size(),
                             {LinkPhase::kSubgraph, delta});
    TGLINK_DCHECK(result.provenance.size() == result.record_mapping.size());
    stats.accepted_subgraphs = selection.accepted_subgraphs;
    stats.new_group_links = selection.new_group_links;
    stats.new_record_links = selection.new_record_links;
    result.iterations.push_back(stats);

    TGLINK_LOG(kInfo) << "iteration δ=" << delta << ": "
                      << stats.accepted_subgraphs << " subgraphs, "
                      << stats.new_record_links << " record links";

    if (selection.accepted_subgraphs == 0) break;  // M_G^p = ∅
    delta -= config.delta_step;
  }

  const SimBatch residual_scorer(sim_func_rem, tables);

  // Extension: place leftovers within already-linked household pairs first
  // (see LinkageConfig::context_residual).
  if (config.context_residual) {
    result.context_record_links = MatchWithinLinkedHouseholds(
        residual_scorer, config.context_residual_threshold,
        result.group_mapping, &result.record_mapping, &active_old,
        &active_new);
    result.provenance.resize(
        result.record_mapping.size(),
        {LinkPhase::kContextResidual, config.context_residual_threshold});
  }

  // Residual attribute-only matching for the leftovers (lines 17-19), over
  // the candidates pre-matching already generated. ActiveCandidates fills
  // an exact-size list; the store is freed before the list is scored, and
  // the tables stay for the residual scorer.
  std::vector<CandidatePair> residual_candidates =
      prematcher->ActiveCandidates(active_old, active_new);
  prematcher.reset();
  result.residual_record_links = MatchResidualRecords(
      residual_scorer, std::move(residual_candidates), &result.record_mapping,
      &result.group_mapping, &active_old, &active_new);
  result.provenance.resize(result.record_mapping.size(),
                           {LinkPhase::kGlobalResidual,
                            sim_func_rem.threshold()});

  TGLINK_DCHECK(result.provenance.size() == result.record_mapping.size());
  TGLINK_COUNTER_ADD("linkage.record_links", result.record_mapping.size());
  TGLINK_COUNTER_ADD("linkage.group_links", result.group_mapping.size());
  return result;
}

}  // namespace tglink
