#include "suite/manifest.hpp"

#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/text.hpp"
#include "solve/solver_spec.hpp"
#include "workload/spec.hpp"

namespace dsf {

namespace {

[[noreturn]] void Fail(const std::string& origin, int line,
                       const std::string& what) {
  std::ostringstream os;
  os << origin << ":" << line << ": " << what;
  throw std::runtime_error(os.str());
}

}  // namespace

SuiteManifest ParseSuiteManifest(std::istream& in, const std::string& origin) {
  SuiteManifest manifest;
  manifest.origin = origin;
  bool seed_seen = false;
  bool reps_seen = false;
  bool band_seen = false;
  bool floor_seen = false;

  std::string raw;
  int line = 0;
  while (ReadLine(in, raw)) {
    ++line;
    if (const auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    std::istringstream fields(raw);
    std::string directive;
    if (!(fields >> directive)) continue;  // blank / comment-only line

    const auto want_long = [&](const char* what) -> long long {
      long long value = 0;
      if (!(fields >> value)) {
        Fail(origin, line, std::string("expected ") + what + " after '" +
                               directive + "'");
      }
      return value;
    };
    const auto want_real = [&](const char* what) -> double {
      double value = 0;
      if (!(fields >> value)) {
        Fail(origin, line, std::string("expected ") + what + " after '" +
                               directive + "'");
      }
      return value;
    };
    const auto want_word = [&](const char* what) -> std::string {
      std::string value;
      if (!(fields >> value)) {
        Fail(origin, line, std::string("expected ") + what + " after '" +
                               directive + "'");
      }
      return value;
    };
    const auto no_trailing = [&] {
      std::string trailing;
      if (fields >> trailing) {
        Fail(origin, line, "trailing tokens after '" + directive + "'");
      }
    };
    const auto add_source = [&](SuiteSource::Kind kind) {
      SuiteSource src;
      src.kind = kind;
      src.path = want_word("file path");
      src.line = line;
      no_trailing();
      for (const SuiteSource& other : manifest.sources) {
        if (other.path == src.path) {
          Fail(origin, line, "duplicate source path '" + src.path + "'");
        }
      }
      manifest.sources.push_back(std::move(src));
    };

    if (directive == "seed") {
      if (seed_seen) Fail(origin, line, "duplicate 'seed' directive");
      const long long value = want_long("seed value");
      if (value < 1) Fail(origin, line, "seed must be >= 1");
      no_trailing();
      manifest.seed = static_cast<std::uint64_t>(value);
      seed_seen = true;
    } else if (directive == "solver") {
      const std::string spec = want_word("solver spec");
      no_trailing();
      // Canonical form: two spellings of one configuration (a reordered
      // portfolio roster) would otherwise run the same cells twice.
      std::string canonical;
      try {
        canonical = ParseSolverSpec(spec).Canonical();
      } catch (const std::exception& e) {
        Fail(origin, line, e.what());
      }
      for (const std::string& other : manifest.solvers) {
        if (other == canonical) {
          Fail(origin, line, "duplicate solver '" + canonical + "'");
        }
      }
      manifest.solvers.push_back(std::move(canonical));
    } else if (directive == "timing-reps") {
      if (reps_seen) Fail(origin, line, "duplicate 'timing-reps' directive");
      const long long value = want_long("repetition count");
      if (value < 1 || value > 100) {
        Fail(origin, line, "timing-reps must be in [1, 100]");
      }
      no_trailing();
      manifest.timing_reps = static_cast<int>(value);
      reps_seen = true;
    } else if (directive == "latency-band") {
      if (band_seen) Fail(origin, line, "duplicate 'latency-band' directive");
      const double value = want_real("band factor");
      if (!(value >= 0.0) || value > 1000.0) {
        Fail(origin, line, "latency-band must be in [0, 1000]");
      }
      no_trailing();
      manifest.latency_band = value;
      band_seen = true;
    } else if (directive == "latency-floor-ms") {
      if (floor_seen) {
        Fail(origin, line, "duplicate 'latency-floor-ms' directive");
      }
      const double value = want_real("floor in ms");
      if (!(value >= 0.0) || value > 1e9) {
        Fail(origin, line, "latency-floor-ms must be in [0, 1e9]");
      }
      no_trailing();
      manifest.latency_floor_ms = value;
      floor_seen = true;
    } else if (directive == "stp") {
      add_source(SuiteSource::Kind::kStp);
    } else if (directive == "optional-stp") {
      add_source(SuiteSource::Kind::kOptionalStp);
    } else if (directive == "spec") {
      add_source(SuiteSource::Kind::kSpec);
    } else {
      Fail(origin, line, "unknown directive '" + directive + "'");
    }
  }

  if (manifest.solvers.empty()) {
    Fail(origin, line, "a suite manifest needs at least one 'solver' line");
  }
  if (manifest.sources.empty()) {
    Fail(origin, line, "a suite manifest needs at least one source line");
  }
  return manifest;
}

SuiteManifest LoadSuiteManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read suite manifest: " + path);
  SuiteManifest manifest = ParseSuiteManifest(in, path);
  manifest.base_dir = std::filesystem::path(path).parent_path().string();
  return manifest;
}

std::string ResolveSuitePath(const SuiteManifest& manifest,
                             const SuiteSource& source) {
  const std::filesystem::path p(source.path);
  if (p.is_absolute() || manifest.base_dir.empty()) return source.path;
  return (std::filesystem::path(manifest.base_dir) / p).string();
}

std::string SuiteDigest(const SuiteManifest& manifest) {
  Fnv1a h;
  h.Bytes("dsf-suite-digest-v1");
  h.U64(manifest.seed);
  h.I64(manifest.timing_reps);
  h.U64(std::bit_cast<std::uint64_t>(manifest.latency_band));
  h.U64(std::bit_cast<std::uint64_t>(manifest.latency_floor_ms));
  h.I64(static_cast<std::int64_t>(manifest.solvers.size()));
  for (const std::string& solver : manifest.solvers) {
    h.Bytes(solver).Byte(0);
  }
  // Hashes a file's bytes; false when it cannot be read.
  const auto hash_file = [&h](const std::string& path) {
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in) {
      // Only tolerable for optional sources; the runner rejects missing
      // required files before any digest is compared, so hashing a marker
      // here keeps the digest total without duplicating that error path.
      h.Bytes("<absent>");
      return false;
    }
    std::ostringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    h.I64(static_cast<std::int64_t>(text.size()));
    h.Bytes(text);
    return true;
  };
  h.I64(static_cast<std::int64_t>(manifest.sources.size()));
  for (const SuiteSource& src : manifest.sources) {
    h.Byte(static_cast<std::uint8_t>(src.kind));
    h.Bytes(src.path).Byte(0);
    const std::string resolved = ResolveSuitePath(manifest, src);
    if (!hash_file(resolved) || src.kind != SuiteSource::Kind::kSpec) continue;
    // A spec's imports and churn traces are corpus too: editing one must
    // read as a stale baseline, not as a solver regression.
    const WorkloadSpec spec = LoadWorkloadSpec(resolved);
    for (const CaseSpec& cs : spec.cases) {
      if (cs.kind == CaseSpec::Kind::kImportStp ||
          cs.kind == CaseSpec::Kind::kImportDimacs) {
        h.Bytes(cs.path).Byte(0);
        hash_file(ResolveSpecPath(spec, cs.path));
      }
      for (const InstanceSpec& inst : cs.instances) {
        if (inst.kind == InstanceSpec::Kind::kChurn) {
          h.Bytes(inst.path).Byte(0);
          hash_file(ResolveSpecPath(spec, inst.path));
        }
      }
    }
  }

  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << h.Digest();
  return os.str();
}

}  // namespace dsf
