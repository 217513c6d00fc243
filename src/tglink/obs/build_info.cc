#include "tglink/obs/build_info.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define TGLINK_HAVE_GETHOSTNAME 1
#else
#define TGLINK_HAVE_GETHOSTNAME 0
#endif

// Configure-time injection (src/CMakeLists.txt); the fallbacks keep the
// file compiling when someone builds it outside the CMake tree.
#if __has_include("tglink/obs/build_sha.h")
#include "tglink/obs/build_sha.h"
#endif
#ifndef TGLINK_BUILD_GIT_SHA
#define TGLINK_BUILD_GIT_SHA "unknown"
#endif
#ifndef TGLINK_BUILD_COMPILER
#define TGLINK_BUILD_COMPILER "unknown"
#endif
#ifndef TGLINK_BUILD_CXX_FLAGS
#define TGLINK_BUILD_CXX_FLAGS ""
#endif
#ifndef TGLINK_BUILD_TYPE
#define TGLINK_BUILD_TYPE "unknown"
#endif
#ifndef TGLINK_BUILD_PRESET
#define TGLINK_BUILD_PRESET ""
#endif

namespace tglink {
namespace obs {

namespace {

std::string ResolveHostname() {
#if TGLINK_HAVE_GETHOSTNAME
  char buffer[256];
  if (gethostname(buffer, sizeof(buffer)) == 0) {
    buffer[sizeof(buffer) - 1] = '\0';
    return std::string(buffer);
  }
#endif
  return "unknown";
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = TGLINK_BUILD_GIT_SHA;
    b.compiler = TGLINK_BUILD_COMPILER;
    b.flags = TGLINK_BUILD_CXX_FLAGS;
    b.build_type = TGLINK_BUILD_TYPE;
    b.preset = TGLINK_BUILD_PRESET;
    b.hostname = ResolveHostname();
    return b;
  }();
  return info;
}

}  // namespace obs
}  // namespace tglink
