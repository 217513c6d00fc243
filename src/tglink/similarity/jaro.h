// Jaro and Jaro–Winkler similarity — the standard matcher family for short
// personal names. Monge–Elkan (token.cc) scores its tokens with
// Jaro–Winkler, and both are available as a Measure everywhere.

#ifndef TGLINK_SIMILARITY_JARO_H_
#define TGLINK_SIMILARITY_JARO_H_

#include <string_view>

namespace tglink {

/// Jaro similarity in [0,1]. Two empty strings score 1.
[[nodiscard]] double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro–Winkler: Jaro + l * 0.1 * (1 - Jaro) for a common prefix of l <= 4
/// characters, so the result stays within [0,1].
[[nodiscard]] double JaroWinklerSimilarity(std::string_view a,
                                           std::string_view b);

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_JARO_H_
