// Configuration of the iterative temporal group linkage algorithm
// (inputs of Algorithm 1) plus the paper's published presets.

#ifndef TGLINK_LINKAGE_CONFIG_H_
#define TGLINK_LINKAGE_CONFIG_H_

#include "tglink/blocking/blocking.h"
#include "tglink/similarity/composite.h"

namespace tglink {

/// Weights of the aggregated group similarity (Eq. 4):
///   g_sim = alpha * avg_sim + beta * e_sim + (1 - alpha - beta) * unique.
struct GroupScoreWeights {
  double alpha = 0.2;  // record similarity weight
  double beta = 0.7;   // edge similarity weight — the paper's best config

  double uniqueness_weight() const { return 1.0 - alpha - beta; }
};

struct LinkageConfig {
  /// Sim_func: initial record matching (pre-matching). Its threshold field
  /// is ignored — the iterative schedule below controls δ.
  SimilarityFunction sim_func;

  /// δ_high / δ_low / Δ of Algorithm 1. Defaults follow Section 5.2.1.
  double delta_high = 0.70;
  double delta_low = 0.50;
  double delta_step = 0.05;

  /// Sim_func_rem: matcher for records left over after subgraph-based
  /// linkage (line 17 of Algorithm 1). Uses its own threshold.
  SimilarityFunction sim_func_rem;

  /// Extension beyond the paper: before the global residual matching, try
  /// to place leftover records *within already-linked household pairs* at a
  /// relaxed threshold. Once a household's other members are matched and
  /// removed, a leftover corrupted member has no relationship context left,
  /// so Algorithm 1's subgraph rounds can never recover it — but the linked
  /// households themselves are strong evidence. Disabled -> strictly
  /// Algorithm 1; the ablation bench quantifies the recall this buys.
  bool context_residual = true;
  double context_residual_threshold = 0.55;

  /// Weights for selecting group links (Eq. 4).
  GroupScoreWeights group_weights;

  /// Maximum deviation (years) between the old and the new age difference
  /// for an edge to be part of a common subgraph (Section 3.3).
  int edge_age_tolerance = 2;

  /// Absolute temporal plausibility gate on subgraph vertices: a vertex
  /// pair whose recorded ages deviate from the expected ageing by more than
  /// this many years is never considered. Footnote 2 of the paper states
  /// that implausible age differences "are not accepted" by its subgraph
  /// matching; this gate realizes that claim at the vertex level (edges
  /// additionally constrain *relative* age differences). Tolerance is wider
  /// than the footnote's 3 years because both records carry independent
  /// misstatement. 0 disables the gate (used by the ablation bench and by
  /// tests reproducing Fig. 4 literally).
  int vertex_age_tolerance = 6;

  /// Candidate-pair generation, once per census pair: pre-matching scores
  /// the candidates and the global residual pass reuses them.
  BlockingConfig blocking = BlockingConfig::MakeDefault();

  /// Ablation switch: when false, households are compared on the raw
  /// head-relative role edges without enrichment (no implicit edges between
  /// non-head members, head-relative types kept). Default on, as the paper.
  bool enrich_groups = true;
};

namespace configs {

/// The paper's Table 2 weight vectors. `delta` initializes the Sim_func
/// threshold (overridden by the iterative schedule when used as sim_func).
SimilarityFunction Omega1(double delta = 0.7);
SimilarityFunction Omega2(double delta = 0.7);

/// Default full configuration: ω2 pre-matching, δ ∈ [0.5, 0.7] with Δ=0.05,
/// (α, β) = (0.2, 0.7), residual matcher ω2 + age at threshold 0.78 — the
/// paper's best setting throughout Section 5.
LinkageConfig DefaultConfig();

/// Residual matcher used by DefaultConfig: ω2 attributes extended with a
/// temporal age component, strict threshold.
SimilarityFunction ResidualSimFunc(double delta = 0.78);

}  // namespace configs
}  // namespace tglink

#endif  // TGLINK_LINKAGE_CONFIG_H_
