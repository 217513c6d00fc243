#include "tglink/linkage/residual.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "tglink/obs/memprof.h"
#include "tglink/obs/metrics.h"
#include "tglink/obs/trace.h"
#include "tglink/util/parallel.h"

namespace tglink {

namespace {

/// Sorts `scored` by descending similarity, ties by (old, new) — the order
/// both greedy passes accept links in.
void SortForGreedy(std::vector<ScoredPair>* scored) {
  std::sort(scored->begin(), scored->end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.old_id != b.old_id) return a.old_id < b.old_id;
              return a.new_id < b.new_id;
            });
}

}  // namespace

std::vector<ScoredPair> GreedyOneToOneMatch(
    const SimBatch& scorer, std::vector<CandidatePair> candidates,
    const std::vector<bool>& active_old, const std::vector<bool>& active_new) {
  // Drop the pairs of inactive records in place, fan the scoring out over
  // the shared pool, then keep threshold survivors in candidate order — the
  // same list the serial loop builds, for any thread count. The active
  // candidates stay in (old, new) order, so each chunk scores them one
  // old-record row at a time through the batched row scorer; pairs below
  // the accept threshold come back as kPruned (-1), which never survives
  // the keep filter, so the kept set equals the exact one.
  const double threshold = scorer.fn().threshold();
  std::erase_if(candidates, [&](const CandidatePair& cand) {
    return !active_old[cand.old_id] || !active_new[cand.new_id];
  });
  std::vector<double> sims(candidates.size());
  ParallelFor(candidates.size(), "residual.score_chunk",
              [&](size_t begin, size_t end) {
                scorer.AggregateRowsWithThreshold(
                    std::span<const CandidatePair>(candidates).subspan(
                        begin, end - begin),
                    threshold,
                    std::span<double>(sims).subspan(begin, end - begin));
              });
  std::vector<ScoredPair> scored;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (sims[i] >= threshold) {
      scored.push_back({candidates[i].old_id, candidates[i].new_id, sims[i]});
    }
  }
  SortForGreedy(&scored);
  std::vector<bool> used_old(scorer.old_dataset().num_records(), false);
  std::vector<bool> used_new(scorer.new_dataset().num_records(), false);
  std::vector<ScoredPair> accepted;
  for (const ScoredPair& pair : scored) {
    if (used_old[pair.old_id] || used_new[pair.new_id]) continue;
    used_old[pair.old_id] = true;
    used_new[pair.new_id] = true;
    accepted.push_back(pair);
  }
  return accepted;
}

std::vector<ScoredPair> GreedyOneToOneMatch(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const SimilarityFunction& sim_func, const BlockingConfig& blocking,
    const std::vector<bool>& active_old, const std::vector<bool>& active_new) {
  return GreedyOneToOneMatch(
      SimBatch(sim_func, old_dataset, new_dataset),
      GenerateCandidatePairs(old_dataset, new_dataset, blocking), active_old,
      active_new);
}

size_t MatchWithinLinkedHouseholds(const SimBatch& scorer, double threshold,
                                   const GroupMapping& group_mapping,
                                   RecordMapping* record_mapping,
                                   std::vector<bool>* active_old,
                                   std::vector<bool>* active_new) {
  TGLINK_TRACE_SPAN("residual.context");
  TGLINK_MEM_STAGE("residual.context");
  // Every active member pair of every linked household pair, one old
  // member's row at a time, scored in one call of the row scorer: below
  // `threshold` it answers kPruned, which the keep filter drops, so the
  // kept pairs carry the exact aggregates the scalar loop computed.
  std::vector<CandidatePair> pairs;
  for (const GroupLink& link : group_mapping.SortedLinks()) {
    const Household& old_hh = scorer.old_dataset().household(link.first);
    const Household& new_hh = scorer.new_dataset().household(link.second);
    for (RecordId o : old_hh.members) {
      if (!(*active_old)[o]) continue;
      for (RecordId n : new_hh.members) {
        if ((*active_new)[n]) pairs.push_back({o, n});
      }
    }
  }
  std::vector<double> sims(pairs.size());
  scorer.AggregateRowsWithThreshold(pairs, threshold, sims);
  std::vector<ScoredPair> scored;
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (sims[k] >= threshold) {
      scored.push_back({pairs[k].old_id, pairs[k].new_id, sims[k]});
    }
  }
  SortForGreedy(&scored);
  size_t added = 0;
  for (const ScoredPair& pair : scored) {
    if (!(*active_old)[pair.old_id] || !(*active_new)[pair.new_id]) continue;
    const Status st = record_mapping->Add(pair.old_id, pair.new_id);
    assert(st.ok());
    (void)st;
    (*active_old)[pair.old_id] = false;
    (*active_new)[pair.new_id] = false;
    ++added;
  }
  TGLINK_COUNTER_ADD("residual.context_links", added);
  return added;
}

size_t MatchWithinLinkedHouseholds(const CensusDataset& old_dataset,
                                   const CensusDataset& new_dataset,
                                   const SimilarityFunction& sim_func,
                                   double threshold,
                                   const GroupMapping& group_mapping,
                                   RecordMapping* record_mapping,
                                   std::vector<bool>* active_old,
                                   std::vector<bool>* active_new) {
  return MatchWithinLinkedHouseholds(
      SimBatch(sim_func, old_dataset, new_dataset), threshold, group_mapping,
      record_mapping, active_old, active_new);
}

size_t MatchResidualRecords(const SimBatch& scorer,
                            std::vector<CandidatePair> candidates,
                            RecordMapping* record_mapping,
                            GroupMapping* group_mapping,
                            std::vector<bool>* active_old,
                            std::vector<bool>* active_new) {
  TGLINK_TRACE_SPAN("residual.global");
  TGLINK_MEM_STAGE("residual.global");
  const std::vector<ScoredPair> links = GreedyOneToOneMatch(
      scorer, std::move(candidates), *active_old, *active_new);
  for (const ScoredPair& link : links) {
    const Status st = record_mapping->Add(link.old_id, link.new_id);
    assert(st.ok());
    (void)st;
    (*active_old)[link.old_id] = false;
    (*active_new)[link.new_id] = false;
    group_mapping->Add(scorer.old_dataset().record(link.old_id).group,
                       scorer.new_dataset().record(link.new_id).group);
  }
  TGLINK_COUNTER_ADD("residual.global_links", links.size());
  return links.size();
}

size_t MatchResidualRecords(const CensusDataset& old_dataset,
                            const CensusDataset& new_dataset,
                            const SimilarityFunction& sim_func,
                            const BlockingConfig& blocking,
                            RecordMapping* record_mapping,
                            GroupMapping* group_mapping,
                            std::vector<bool>* active_old,
                            std::vector<bool>* active_new) {
  return MatchResidualRecords(
      SimBatch(sim_func, old_dataset, new_dataset),
      GenerateCandidatePairs(old_dataset, new_dataset, blocking),
      record_mapping, group_mapping, active_old, active_new);
}

}  // namespace tglink
