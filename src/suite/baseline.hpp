// Canonical baseline serialization for the suite wall.
//
// `bench/SUITE_baseline.json` is a committed artifact that gets diffed —
// by `dsf suite --check` and by humans reading version control — so the
// encoding is canonical: fixed key order, quality fields segregated from
// timing fields (a quality diff is a bug, a timing diff is a machine), and
// every double emitted in round-trippable %.17g form. Write → read → write
// is byte-identical, which is what makes the committed file a fixed point
// of `--record` on an unchanged tree.
#pragma once

#include <iosfwd>
#include <string>

#include "suite/runner.hpp"

namespace dsf {

// Bumped when the cell schema changes; readers reject other versions.
inline constexpr int kSuiteBaselineVersion = 2;

void WriteSuiteBaseline(std::ostream& out, const SuiteBaseline& baseline);
// The document as a string (the canonical bytes `--record` commits).
std::string SuiteBaselineToJson(const SuiteBaseline& baseline);

// Strict readers: throw std::runtime_error (mentioning `origin`) on version
// mismatches, missing fields, or type errors. Integer fields are recovered
// from the raw JSON literals, not the double approximation, so 64-bit
// costs/duals survive exactly.
SuiteBaseline ParseSuiteBaseline(const std::string& text,
                                 const std::string& origin);
SuiteBaseline LoadSuiteBaseline(const std::string& path);
void SaveSuiteBaseline(const std::string& path, const SuiteBaseline& baseline);

}  // namespace dsf
