#include "solve/solver_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "solve/solver.hpp"

namespace dsf {

namespace {

[[noreturn]] void Fail(const std::string& msg) {
  throw std::runtime_error("solver spec: " + msg);
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Registry position of `name`; -1 when unknown. Defines the canonical
// roster order and the deterministic mode=all tie-break.
int RegistryIndex(std::string_view name) {
  const auto names = SolverRegistry::Names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string_view> SplitOn(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(sep);
    out.push_back(Trim(s.substr(0, pos)));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

// Which solver reads which key; every other (solver, key) pair is rejected.
constexpr std::pair<std::string_view, std::string_view> kKeys[] = {
    {"gw-moat", "eps"},      {"dist-det", "eps"},
    {"dist-rand", "reps"},   {"portfolio", "roster"},
    {"portfolio", "mode"},   {"portfolio", "deadline_ms"},
};

void CheckKey(const std::string& base, std::string_view key) {
  std::string expected;
  for (const auto& [solver, k] : kKeys) {
    if (solver != base) continue;
    if (k == key) return;
    expected += (expected.empty() ? "" : ", ") + std::string(k);
  }
  if (expected.empty()) {
    Fail("'" + base + "' takes no parameters (got '" + std::string(key) +
         "')");
  }
  Fail("unknown key '" + std::string(key) + "' for '" + base +
       "' (expected " + expected + ")");
}

// A decimal integer in [1, max]; digits only.
int ParsePositiveInt(std::string_view key, std::string_view value, int max) {
  long long v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9' || v > max) {
      v = 0;
      break;
    }
    v = v * 10 + (c - '0');
  }
  if (v < 1 || v > max) {
    Fail(std::string(key) + " must be an integer in [1, " +
         std::to_string(max) + "], got '" + std::string(value) + "'");
  }
  return static_cast<int>(v);
}

// strtod over the whole value, finite and in [0, 64] (NaN fails the range).
double ParseEpsilon(std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      !(v >= 0.0 && v <= 64.0)) {
    Fail("eps must be a number in [0, 64], got '" + text + "'");
  }
  return v == 0.0 ? 0.0 : v;  // -0 canonicalizes like 0
}

}  // namespace

std::string SolverSpec::Canonical() const {
  if (!IsPortfolio()) {
    if (epsilon != 0.0) {
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, epsilon);
      return base + "(eps=" + std::string(buf, res.ptr) + ")";
    }
    if (repetitions != 1) {
      return base + "(reps=" + std::to_string(repetitions) + ")";
    }
    return base;
  }
  std::string out = "portfolio(roster=";
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (i > 0) out += '+';
    out += roster[i];
  }
  out += ",mode=" + mode;
  if (deadline_ms > 0) {
    out += ",deadline_ms=" + std::to_string(deadline_ms);
  }
  out += ')';
  return out;
}

SolverSpec ParseSolverSpec(std::string_view text) {
  SolverSpec spec;
  text = Trim(text);
  if (text.empty()) Fail("empty solver name");

  const auto open = text.find('(');
  spec.base = std::string(Trim(text.substr(0, open)));
  if (RegistryIndex(spec.base) < 0) {
    Fail("unknown solver '" + spec.base + "'");
  }
  if (open != std::string_view::npos) {
    if (text.back() != ')') {
      Fail("expected ')' at the end of '" + std::string(text) + "'");
    }
    const std::string_view inner =
        text.substr(open + 1, text.size() - open - 2);
    for (const std::string_view kv : SplitOn(inner, ',')) {
      if (kv.empty()) continue;
      const auto eq = kv.find('=');
      if (eq == std::string_view::npos) {
        Fail("expected key=value, got '" + std::string(kv) + "'");
      }
      const std::string_view key = Trim(kv.substr(0, eq));
      const std::string_view value = Trim(kv.substr(eq + 1));
      CheckKey(spec.base, key);
      if (key == "eps") {
        spec.epsilon = ParseEpsilon(value);
      } else if (key == "reps") {
        spec.repetitions = ParsePositiveInt(key, value, 1 << 20);
      } else if (key == "roster") {
        for (const std::string_view member : SplitOn(value, '+')) {
          if (member.empty()) Fail("empty roster member");
          spec.roster.emplace_back(member);
        }
      } else if (key == "mode") {
        if (value != "all" && value != "first") {
          Fail("mode must be 'all' or 'first', got '" + std::string(value) +
               "'");
        }
        spec.mode = std::string(value);
      } else {  // deadline_ms
        spec.deadline_ms = ParsePositiveInt(key, value, 1'000'000'000);
      }
    }
  }
  if (!spec.IsPortfolio()) return spec;

  if (spec.roster.empty()) {
    for (const std::string_view name : kDefaultPortfolioRoster) {
      spec.roster.emplace_back(name);
    }
  }
  for (const std::string& member : spec.roster) {
    if (member.find_first_of("()") != std::string::npos) {
      Fail("roster member '" + member +
           "' cannot take parameters; a portfolio races plain registry "
           "names");
    }
    if (member == "portfolio") Fail("portfolio cannot nest itself");
    if (RegistryIndex(member) < 0) {
      Fail("unknown roster member '" + member + "'");
    }
  }
  // Canonicalize: registry order, duplicates dropped.
  std::sort(spec.roster.begin(), spec.roster.end(),
            [](const std::string& a, const std::string& b) {
              return RegistryIndex(a) < RegistryIndex(b);
            });
  spec.roster.erase(std::unique(spec.roster.begin(), spec.roster.end()),
                    spec.roster.end());
  return spec;
}

bool IsValidSolverSpec(std::string_view text, std::string* error) {
  try {
    (void)ParseSolverSpec(text);
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

std::vector<std::string> SplitSolverList(std::string_view list) {
  std::vector<std::string> out;
  int depth = 0;
  std::string current;
  for (const char c : list) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      const std::string_view t = Trim(current);
      if (!t.empty()) out.emplace_back(t);
      current.clear();
      continue;
    }
    current += c;
  }
  const std::string_view t = Trim(current);
  if (!t.empty()) out.emplace_back(t);
  return out;
}

}  // namespace dsf
