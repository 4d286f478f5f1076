#include "measure.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "cli/json.hpp"
#include "solve/batch.hpp"

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return dsf::PercentileOfSorted(samples, p);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(static_cast<long>(pid)) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::pair<double, double> Accounting::TrimmedSums(std::vector<Op> ops) {
  const auto deviation = [](const Op& op) {
    const double total = op.untraced + op.spans;
    return total > 0.0 ? (op.untraced - op.spans) / total : 0.0;
  };
  std::sort(ops.begin(), ops.end(), [&](const Op& a, const Op& b) {
    return deviation(a) < deviation(b);
  });
  const auto trim = static_cast<std::size_t>(kTrim * static_cast<double>(ops.size()));
  double untraced = 0.0;
  double spans = 0.0;
  for (std::size_t i = trim; i + trim < ops.size(); ++i) {
    untraced += ops[i].untraced;
    spans += ops[i].spans;
  }
  return {untraced, spans};
}

double Accounting::Overall() const {
  double untraced = 0.0;
  double spans = 0.0;
  for (const auto& [name, ops] : groups_) {
    const auto [u, s] = TrimmedSums(ops);
    untraced += u;
    spans += s;
  }
  return untraced > 0.0 ? (untraced - spans) / untraced : 0.0;
}

void Accounting::Check(Outcome& out, double bound) const {
  const auto judge = [&](const std::string& name, double share) {
    out.info["unaccounted." + name] = share;
    if (share > bound || share < -bound) {
      out.Fail("span accounting: " + name + " has " + std::to_string(100.0 * share) +
               "% of its untraced time outside the named spans");
    }
  };
  judge("all", Overall());
  for (const auto& [name, ops] : groups_) {
    const auto [untraced, spans] = TrimmedSums(ops);
    if (ops.size() >= kMinOps && untraced > 0.0) {
      judge(name, (untraced - spans) / untraced);
    }
  }
}

std::string ToJson(const Outcome& outcome) {
  std::ostringstream os;
  dsf::JsonWriter json(os);
  json.BeginObject();
  json.Key("correct");
  json.Bool(outcome.Correct());
  json.Key("attempted");
  json.Int(outcome.attempted);
  json.Key("failed");
  json.Int(outcome.failed);
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, m] : outcome.metrics) {
    json.Key(name);
    json.BeginObject();
    json.Key("value");
    json.DoubleExact(m.value);
    json.Key("unit");
    json.String(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("info");
  json.BeginObject();
  for (const auto& [name, v] : outcome.info) {
    json.Key(name);
    json.DoubleExact(v);
  }
  json.EndObject();
  json.Key("bypassed");
  json.BeginArray();
  for (const std::string& name : outcome.bypassed) json.String(name);
  json.EndArray();
  json.Key("failures");
  json.BeginArray();
  for (const std::string& f : outcome.failures) json.String(f);
  json.EndArray();
  json.EndObject();
  return os.str();
}

}  // namespace perfbench
