#include "core/config.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "util/check.hpp"

namespace ccf::core {

namespace {
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) out.push_back(tok);
  return out;
}

/// Splits "P0.r1" into {"P0", "r1"}.
std::pair<std::string, std::string> split_region_ref(const std::string& text) {
  const auto dot = text.find('.');
  CCF_REQUIRE(dot != std::string::npos && dot > 0 && dot + 1 < text.size(),
              "bad region reference '" << text << "' (expected program.region)");
  return {text.substr(0, dot), text.substr(dot + 1)};
}
}  // namespace

Config Config::parse_string(const std::string& text) {
  Config config;
  std::istringstream stream(text);
  std::string line;
  bool in_connections = false;
  int lineno = 0;
  while (std::getline(stream, line)) {
    ++lineno;
    // Strip trailing CR and whitespace-only lines.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line[first] == '#') {
      // A line that is exactly "#" separates programs from connections;
      // anything else starting with '#' is a comment.
      if (line.substr(first) == "#") in_connections = true;
      continue;
    }
    const auto tokens = tokenize(line);
    if (!in_connections) {
      CCF_REQUIRE(tokens.size() >= 4,
                  "config line " << lineno << ": program needs <name> <host> <exe> <nprocs>");
      ProgramSpec spec;
      spec.name = tokens[0];
      spec.host = tokens[1];
      spec.executable = tokens[2];
      char* end = nullptr;
      spec.nprocs = static_cast<int>(std::strtol(tokens[3].c_str(), &end, 10));
      CCF_REQUIRE(end && *end == '\0' && spec.nprocs > 0,
                  "config line " << lineno << ": bad process count '" << tokens[3] << "'");
      // Optional `fanin=F` / `shards=S` / `flush_count=N` tokens configure
      // the program's control tree; anything else goes to extra_args
      // verbatim.
      for (auto it = tokens.begin() + 4; it != tokens.end(); ++it) {
        int* field = nullptr;
        std::size_t prefix = 0;
        if (it->rfind("fanin=", 0) == 0) {
          field = &spec.rep_fanin;
          prefix = 6;
        } else if (it->rfind("shards=", 0) == 0) {
          field = &spec.rep_shards;
          prefix = 7;
        } else if (it->rfind("flush_count=", 0) == 0) {
          field = &spec.tree_flush_count;
          prefix = 12;
        }
        if (!field) {
          spec.extra_args.push_back(*it);
          continue;
        }
        char* vend = nullptr;
        *field = static_cast<int>(std::strtol(it->c_str() + prefix, &vend, 10));
        CCF_REQUIRE(vend && *vend == '\0',
                    "config line " << lineno << ": bad value in '" << *it << "'");
      }
      config.add_program(std::move(spec));
    } else {
      CCF_REQUIRE(tokens.size() == 4 || tokens.size() == 8,
                  "config line " << lineno
                                 << ": connection needs <exp.reg> <imp.reg> <policy> <tol> "
                                    "[r0 r1 c0 c1]");
      ConnectionSpec spec;
      std::tie(spec.exporter_program, spec.exporter_region) = split_region_ref(tokens[0]);
      std::tie(spec.importer_program, spec.importer_region) = split_region_ref(tokens[1]);
      spec.policy = parse_match_policy(tokens[2]);
      char* end = nullptr;
      spec.tolerance = std::strtod(tokens[3].c_str(), &end);
      CCF_REQUIRE(end && *end == '\0' && spec.tolerance >= 0,
                  "config line " << lineno << ": bad tolerance '" << tokens[3] << "'");
      if (tokens.size() == 8) {
        dist::Box window;
        dist::Index* fields[4] = {&window.row_begin, &window.row_end, &window.col_begin,
                                  &window.col_end};
        for (int i = 0; i < 4; ++i) {
          char* iend = nullptr;
          *fields[i] = std::strtoll(tokens[static_cast<std::size_t>(4 + i)].c_str(), &iend, 10);
          CCF_REQUIRE(iend && *iend == '\0',
                      "config line " << lineno << ": bad window bound '"
                                     << tokens[static_cast<std::size_t>(4 + i)] << "'");
        }
        CCF_REQUIRE(!window.empty(), "config line " << lineno << ": empty transfer window");
        spec.exporter_window = window;
      }
      config.add_connection(std::move(spec));
    }
  }
  config.validate();
  return config;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  CCF_REQUIRE(in.is_open(), "cannot open config file: " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_string(buffer.str());
}

void Config::add_program(ProgramSpec spec) {
  CCF_REQUIRE(!spec.name.empty(), "program name is empty");
  CCF_REQUIRE(spec.nprocs > 0, "program " << spec.name << " needs at least one process");
  CCF_REQUIRE(!has_program(spec.name), "duplicate program '" << spec.name << "'");
  CCF_REQUIRE(spec.rep_fanin == 0 || spec.rep_fanin >= 2,
              "program " << spec.name << ": rep_fanin must be 0 (flat) or >= 2, got "
                         << spec.rep_fanin);
  CCF_REQUIRE(spec.rep_shards >= 1,
              "program " << spec.name << ": rep_shards must be >= 1, got " << spec.rep_shards);
  CCF_REQUIRE(spec.tree_flush_count >= 0,
              "program " << spec.name << ": tree_flush_count must be >= 0, got "
                         << spec.tree_flush_count);
  programs_.push_back(std::move(spec));
}

void Config::add_connection(ConnectionSpec spec) {
  CCF_REQUIRE(spec.tolerance >= 0, "negative tolerance on connection");
  connections_.push_back(std::move(spec));
}

void Config::validate() const {
  CCF_REQUIRE(connections_.size() <= 32,
              "at most 32 connections supported (buffer masks are 32-bit)");
  std::set<std::pair<std::string, std::string>> imported;
  for (const auto& conn : connections_) {
    CCF_REQUIRE(has_program(conn.exporter_program),
                "connection references undeclared exporter program '" << conn.exporter_program
                                                                      << "'");
    CCF_REQUIRE(has_program(conn.importer_program),
                "connection references undeclared importer program '" << conn.importer_program
                                                                      << "'");
    CCF_REQUIRE(conn.exporter_program != conn.importer_program,
                "self-coupling of program '" << conn.exporter_program
                                             << "' is not supported");
    const auto key = std::make_pair(conn.importer_program, conn.importer_region);
    CCF_REQUIRE(!imported.count(key), "imported region " << conn.importer_program << "."
                                                         << conn.importer_region
                                                         << " has more than one exporter");
    imported.insert(key);
  }
}

const ProgramSpec& Config::program(const std::string& name) const {
  for (const auto& p : programs_) {
    if (p.name == name) return p;
  }
  throw util::InvalidArgument("unknown program '" + name + "'");
}

bool Config::has_program(const std::string& name) const {
  for (const auto& p : programs_) {
    if (p.name == name) return true;
  }
  return false;
}

std::vector<int> Config::connections_exporting(const std::string& program,
                                               const std::string& region) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i].exporter_program == program && connections_[i].exporter_region == region) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::optional<int> Config::connection_importing(const std::string& program,
                                                const std::string& region) const {
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i].importer_program == program && connections_[i].importer_region == region) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

std::vector<int> Config::connections_of_exporter_program(const std::string& program) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i].exporter_program == program) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Config::connections_of_importer_program(const std::string& program) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i].importer_program == program) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::string Config::summary() const {
  std::ostringstream os;
  os << programs_.size() << " programs, " << connections_.size() << " connections\n";
  for (const auto& p : programs_) {
    os << "  " << p.name << " on " << p.host << " x" << p.nprocs << "\n";
  }
  for (const auto& c : connections_) {
    os << "  " << c.exporter_program << "." << c.exporter_region << " -> " << c.importer_program
       << "." << c.importer_region << " " << to_string(c.policy) << " " << c.tolerance << "\n";
  }
  return os.str();
}

}  // namespace ccf::core
