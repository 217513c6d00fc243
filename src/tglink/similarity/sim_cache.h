// The former name of SimBatch (similarity/sim_batch.h), kept only because the
// benchmark probe in perfbench/linkbench.cc still includes this header and
// names SimCache. The next change to the benchmark probes through SimBatch
// and deletes this header.

#ifndef TGLINK_SIMILARITY_SIM_CACHE_H_
#define TGLINK_SIMILARITY_SIM_CACHE_H_

#include "tglink/similarity/sim_batch.h"

namespace tglink {

using SimCache = SimBatch;

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_SIM_CACHE_H_
