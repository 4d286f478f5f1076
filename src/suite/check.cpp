#include "suite/check.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace dsf {

namespace {

std::string CellKey(const SuiteCell& cell) {
  return cell.solver + " / " + cell.case_name + " / " + cell.instance;
}

std::string FormatMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fms", ms);
  return buf;
}

std::string FormatRatio(double r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", r);
  return buf;
}

}  // namespace

SuiteCheckResult CompareBaselines(const SuiteBaseline& committed,
                                  const SuiteBaseline& fresh) {
  SuiteCheckResult result;
  auto add = [&](const std::string& cell, const std::string& metric,
                 std::string was, std::string now) {
    result.regressions.push_back(
        {cell, metric, std::move(was), std::move(now)});
  };

  // A corpus change invalidates every cell comparison at once; report it
  // alone so the verdict says "regenerate", not "120 regressions".
  if (committed.manifest_digest != fresh.manifest_digest) {
    add("<suite>", "manifest_digest", committed.manifest_digest,
        fresh.manifest_digest);
    result.ok = false;
    std::ostringstream os;
    os << "suite --check: STALE BASELINE\n"
       << "  the manifest or a file it references changed since the "
          "baseline was recorded\n"
       << "  committed digest: " << committed.manifest_digest << "\n"
       << "  fresh digest:     " << fresh.manifest_digest << "\n"
       << "  if the corpus change is intentional, regenerate with: "
          "dsf suite --record\n";
    result.report = os.str();
    return result;
  }

  std::map<std::string, const SuiteCell*> fresh_cells;
  for (const SuiteCell& cell : fresh.cells) fresh_cells[CellKey(cell)] = &cell;
  std::map<std::string, const SuiteCell*> committed_cells;
  for (const SuiteCell& cell : committed.cells) {
    committed_cells[CellKey(cell)] = &cell;
  }
  for (const auto& [key, cell] : fresh_cells) {
    if (committed_cells.find(key) == committed_cells.end()) {
      add(key, "extra cell", "<absent>", "present");
    }
  }

  const double band = committed.latency_band;
  const double floor_ms = committed.latency_floor_ms;
  for (const SuiteCell& base : committed.cells) {
    const std::string key = CellKey(base);
    const auto it = fresh_cells.find(key);
    if (it == fresh_cells.end()) {
      add(key, "missing cell", "present", "<absent>");
      continue;
    }
    const SuiteCell& now = *it->second;
    const auto exact = [&](const char* metric, long long was,
                           long long is) {
      if (was != is) add(key, metric, std::to_string(was), std::to_string(is));
    };
    exact("n", base.n, now.n);
    exact("m", base.m, now.m);
    exact("D", base.D, now.D);
    exact("s", base.s, now.s);
    exact("cost", base.cost, now.cost);
    if (base.feasible != now.feasible) {
      add(key, "feasible", base.feasible ? "true" : "false",
          now.feasible ? "true" : "false");
    }
    exact("dual_lb_fixed", base.dual_lb_fixed, now.dual_lb_fixed);
    if (base.ratio != now.ratio) {
      add(key, "ratio", FormatRatio(base.ratio), FormatRatio(now.ratio));
    }
    exact("rounds", base.rounds, now.rounds);
    exact("charged_rounds", base.charged_rounds, now.charged_rounds);
    exact("messages", base.messages, now.messages);
    exact("phases", base.phases, now.phases);
    // Timing: only a p95 beyond the committed band is a regression. Faster
    // is never flagged — committing a faster baseline is a deliberate act.
    const double limit = base.p95_ms * (1.0 + band) + floor_ms;
    if (now.p95_ms > limit) {
      add(key, "p95_ms",
          FormatMs(base.p95_ms) + " (limit " + FormatMs(limit) + ")",
          FormatMs(now.p95_ms));
    }
  }

  result.ok = result.regressions.empty();
  std::ostringstream os;
  if (result.ok) {
    os << "suite --check: OK (" << committed.cells.size()
       << " cells match the committed baseline; p95 within " << band
       << "x band + " << floor_ms << "ms floor)\n";
  } else {
    os << "suite --check: " << result.regressions.size()
       << " regression(s) across " << committed.cells.size() << " cells\n";
    // Column widths for an aligned, human-readable table.
    std::size_t w_cell = 4;
    std::size_t w_metric = 6;
    std::size_t w_was = 9;
    for (const SuiteRegression& r : result.regressions) {
      w_cell = std::max(w_cell, r.cell.size());
      w_metric = std::max(w_metric, r.metric.size());
      w_was = std::max(w_was, r.committed.size());
    }
    const auto pad = [](const std::string& s, std::size_t width) {
      return s + std::string(width - s.size(), ' ');
    };
    os << "  " << pad("cell", w_cell) << "  " << pad("metric", w_metric)
       << "  " << pad("committed", w_was) << "  fresh\n";
    for (const SuiteRegression& r : result.regressions) {
      os << "  " << pad(r.cell, w_cell) << "  " << pad(r.metric, w_metric)
         << "  " << pad(r.committed, w_was) << "  " << r.fresh << "\n";
    }
    os << "  quality fields compare exactly; regenerate intentionally with: "
          "dsf suite --record\n";
  }
  result.report = os.str();
  return result;
}

}  // namespace dsf
