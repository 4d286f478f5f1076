// Suite manifests: the benchmark wall's instance-source list.
//
// `scenarios/suite/manifest.dsf-suite` names everything one `dsf suite` run
// measures: which instance sources to expand, which solvers to run them
// through, and the knobs of the latency tolerance policy. Line-oriented
// text; `#` starts a comment; blank lines are ignored:
//
//   seed <N>               # suite master seed, >= 1 (default 1); per-cell
//                          #   solver seeds derive from it
//   solver <spec>          # one roster entry: a registry name or a
//                          #   parameterized spec (repeat per solver),
//                          #   stored in canonical form
//   timing-reps <N>        # timed repetitions of the matrix (default 3);
//                          #   p50/p95 are taken across the reps
//   latency-band <X>       # p95 regression tolerance: fresh p95 may exceed
//                          #   the committed p95 by the factor (1 + X) ...
//   latency-floor-ms <X>   # ... plus this absolute floor (absorbs CI noise
//                          #   on sub-millisecond cells)
//   stp <path>             # SteinLib instance (terminals become the
//                          #   single "terminals" instance)
//   optional-stp <path>    # like stp, but an absent file is skipped and
//                          #   recorded, not an error (real SteinLib sets
//                          #   live behind scripts/fetch_steinlib.sh)
//   spec <path>            # a full .dsf workload spec (generators,
//                          #   samplers, churn replays, sweeps)
//
// Paths resolve relative to the manifest file. `SuiteDigest` fingerprints
// the manifest AND the content of every referenced file — including the
// imports and churn traces a spec names — so `--check` can tell "the corpus
// changed, regenerate the baseline" apart from "a solver regressed".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dsf {

struct SuiteSource {
  enum class Kind { kStp, kOptionalStp, kSpec };
  Kind kind = Kind::kStp;
  std::string path;  // as written; resolved against SuiteManifest::base_dir
  int line = 0;
};

struct SuiteManifest {
  std::string origin;    // for error messages
  std::string base_dir;  // directory source paths resolve against
  std::uint64_t seed = 1;
  std::vector<std::string> solvers;
  int timing_reps = 3;
  double latency_band = 3.0;
  double latency_floor_ms = 50.0;
  std::vector<SuiteSource> sources;
};

// Rejects malformed input with `origin:line` errors (unknown directives,
// invalid solver specs, duplicate solvers — compared in canonical form —
// or paths, out-of-range knobs, empty roster or source list).
SuiteManifest ParseSuiteManifest(std::istream& in, const std::string& origin);

// Reads and parses `path` (sets base_dir to its directory). Throws
// std::runtime_error when unreadable.
SuiteManifest LoadSuiteManifest(const std::string& path);

// `source.path` joined onto the manifest's base_dir (absolute paths pass
// through).
std::string ResolveSuitePath(const SuiteManifest& manifest,
                             const SuiteSource& source);

// Hex fingerprint of the manifest's semantic content: seed, knobs, roster,
// and per source its kind, path, and the bytes of the resolved file (absent
// optional files hash as a distinguished marker); for a `spec` source, also
// the path and bytes of every `import` / `churn` file it names. Any corpus
// edit — a new source line, a regenerated .stp, an edited trace, a fetched
// optional set — changes the digest, which is what lets `--check` fail a
// stale baseline loudly instead of diffing cells across different corpora.
// Throws std::runtime_error when a readable spec source does not parse.
std::string SuiteDigest(const SuiteManifest& manifest);

}  // namespace dsf
