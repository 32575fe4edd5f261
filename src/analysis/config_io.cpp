#include "analysis/config_io.hpp"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <utility>

#include "common/check.hpp"

namespace wrsn::analysis {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

void parse(const std::string& key, const std::string& value, double& out) {
  std::size_t consumed = 0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "': cannot parse number '" +
                      value + "'");
  }
  if (consumed != value.size()) {
    throw ConfigError("config key '" + key + "': trailing junk in '" + value +
                      "'");
  }
}

void parse(const std::string& key, const std::string& value,
           std::size_t& out) {
  double parsed = 0.0;
  parse(key, value, parsed);
  if (parsed < 0.0 || parsed != std::floor(parsed)) {
    throw ConfigError("config key '" + key + "': expected a non-negative "
                      "integer, got '" + value + "'");
  }
  out = static_cast<std::size_t>(parsed);
}

void parse(const std::string& key, const std::string& value, bool& out) {
  if (value == "true" || value == "1" || value == "yes") {
    out = true;
  } else if (value == "false" || value == "0" || value == "no") {
    out = false;
  } else {
    throw ConfigError("config key '" + key + "': expected a boolean, got '" +
                      value + "'");
  }
}

/// Enum keys: the value must be one of `names`; the error lists them all.
template <typename E>
void parse_name(const std::string& key, const std::string& value, E& out,
                std::initializer_list<std::pair<const char*, E>> names) {
  for (const auto& [name, e] : names) {
    if (value == name) {
      out = e;
      return;
    }
  }
  std::string expected;
  for (const auto& [name, e] : names) {
    expected += (expected.empty() ? "" : "|") + std::string(name);
  }
  throw ConfigError("config key '" + key + "': expected " + expected);
}

void parse(const std::string& key, const std::string& value,
           net::Deployment& out) {
  using D = net::Deployment;
  parse_name(key, value, out,
             {{"uniform", D::Uniform}, {"grid", D::Grid},
              {"clustered", D::Clustered}, {"corridor", D::Corridor}});
}

void parse(const std::string& key, const std::string& value,
           net::KeyNodeRule& out) {
  using R = net::KeyNodeRule;
  parse_name(key, value, out,
             {{"articulation", R::Articulation},
              {"top-traffic", R::TopTraffic}, {"hybrid", R::Hybrid}});
}

void parse(const std::string& key, const std::string& value,
           csa::SpoofMode& out) {
  using S = csa::SpoofMode;
  parse_name(key, value, out,
             {{"phase-cancel", S::PhaseCancel},
              {"partial-cancel", S::PartialCancel},
              {"silent-skip", S::SilentSkip}, {"no-service", S::NoService}});
}

void parse(const std::string& key, const std::string& value,
           mc::SchedulePolicy& out) {
  using P = mc::SchedulePolicy;
  parse_name(key, value, out,
             {{"njnp", P::Njnp}, {"edf", P::Edf}, {"fcfs", P::Fcfs},
              {"tour", P::Tour}});
}

void parse(const std::string&, const std::string& value,
           policy::AttackPolicyKind& out) {
  out = policy::parse_attack_policy(value);
}

void parse(const std::string&, const std::string& value,
           policy::DefenderPolicyKind& out) {
  out = policy::parse_defender_policy(value);
}

}  // namespace

std::map<std::string, std::string> parse_ini(std::istream& in) {
  std::map<std::string, std::string> entries;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    if (stripped.front() == '[' && stripped.back() == ']') continue;

    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(line_number) +
                        ": expected 'key = value', got '" + stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw ConfigError("config line " + std::to_string(line_number) +
                        ": empty key or value");
    }
    if (!entries.emplace(key, value).second) {
      throw ConfigError("config line " + std::to_string(line_number) +
                        ": duplicate key '" + key + "'");
    }
  }
  return entries;
}

ScenarioConfig apply_config(
    const ScenarioConfig& base,
    const std::map<std::string, std::string>& entries) {
  ScenarioConfig cfg = base;
  for (const auto& [key, value] : entries) {
    // The keys that are not one digested field.
    if (key == "topology.region_size") {
      double side = 0.0;
      parse(key, value, side);
      cfg.topology.region = {{0.0, 0.0}, {side, side}};
      continue;
    }
    if (key == "seed") {
      std::size_t seed = 0;
      parse(key, value, seed);
      cfg.seed = static_cast<std::uint64_t>(seed);
      continue;
    }
    bool found = false;
    for_each_field(cfg, [&](const char*, const char* ini_key, auto& field) {
      if (found || ini_key == nullptr || key != ini_key) return;
      found = true;
      // Digest-only field types (territories, the world update mode) have
      // no parser and no INI key.
      if constexpr (requires { parse(key, value, field); }) {
        parse(key, value, field);
      }
    });
    if (!found) throw ConfigError("unknown config key '" + key + "'");
    if (key == "horizon") cfg.attack.campaign_deadline = cfg.horizon;
    if (key == "fleet.size" && cfg.fleet_size == 0) {
      throw ConfigError("'" + key + "' must be >= 1");
    }
  }
  // Fault parameters carry cross-field constraints (e.g. drop + delay
  // probabilities summing past 1), so the whole section validates at load
  // time rather than at the first run_scenario call.  The topology class /
  // corridor knobs and the mobility/coverage sections carry the same kind
  // of constraints (speed and pause ordering, positive ratios), so they
  // validate here too.
  cfg.faults.validate();
  cfg.topology.validate();
  cfg.world.mobility.validate();
  cfg.world.coverage.validate();
  cfg.policy.validate();
  return cfg;
}

ScenarioConfig load_config(std::istream& in) {
  return apply_config(default_scenario(), parse_ini(in));
}

ScenarioConfig load_config_file(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    throw ConfigError("cannot open config file '" + path + "'");
  }
  return load_config(file);
}

}  // namespace wrsn::analysis
