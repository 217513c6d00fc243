#include "tglink/blocking/blocking.h"

#include <string>

#include "tglink/blocking/candidate_index.h"
#include "tglink/obs/memprof.h"
#include "tglink/obs/trace.h"

namespace tglink {

BlockingConfig BlockingConfig::MakeDefault() {
  BlockingConfig config;
  config.passes = {SoundexSurnameFirstInitial(),
                   SoundexFirstNameSurnameInitial(), SoundexFirstNameSex()};
  return config;
}

BlockingConfig BlockingConfig::MakeExhaustive() {
  BlockingConfig config;
  config.passes = {[](const PersonRecord&) { return std::string("*"); }};
  return config;
}

std::vector<CandidatePair> GenerateCandidatePairs(
    const CensusDataset& old_dataset, const CensusDataset& new_dataset,
    const BlockingConfig& config) {
  TGLINK_TRACE_SPAN("blocking.generate_candidates");
  TGLINK_MEM_STAGE("blocking.generate_candidates");
  return CandidateIndex(old_dataset, new_dataset, config).GeneratePairs();
}

}  // namespace tglink
