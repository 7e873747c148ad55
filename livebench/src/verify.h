// Post-run check: after every daemon was SIGKILLed and restarted on its
// store, compare what the servers hold with the client-side ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace livebench {

struct VerifyResult {
  std::uint64_t checked = 0;     // paths compared
  std::uint64_t mismatches = 0;
  std::vector<std::string> examples;  // the first few mismatches
  std::string error;                  // mount failure, if any
};

// Every expected-present directory exists with its expected mode and lists
// exactly its expected children; every expected-absent directory is gone;
// every file under a present directory is present or absent as expected.
// The work is spread over `threads` mounts of `connect_spec`.
VerifyResult Verify(const std::string& connect_spec, const Ledger& ledger,
                    int threads);

}  // namespace livebench
