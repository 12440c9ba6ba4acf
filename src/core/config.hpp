// Framework-level configuration (paper §3.1, Figure 2).
//
// The configuration is separate from all user programs: it lists the
// participating programs (name, host, executable, process count) and the
// directed connections between exported and imported regions, each with a
// match policy and tolerance:
//
//   P0 cluster0 /home/meou/bin/P0 16
//   P1 cluster1 /home/meou/bin/P1 8
//   #
//   P0.r1 P1.r1 REGL 0.2
//
// A program line may add `fanin=F`, `shards=S` and `flush_count=N`
// tokens, which shape the program's control tree (ProgramSpec below; the
// default is the paper's single flat rep, the depth-0 tree). Lines that
// are exactly "#" separate the two sections; lines starting with "#"
// otherwise are comments. Validation detects incorrect coupling
// specifications early (e.g. a connection naming an undeclared program, or
// two exporters feeding one imported region).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/match_policy.hpp"
#include "dist/box.hpp"

namespace ccf::core {

struct ProgramSpec {
  std::string name;
  std::string host;
  std::string executable;
  int nprocs = 0;
  std::vector<std::string> extra_args;

  /// Representative control-tree fan-in (docs/PROTOCOL.md, "Hierarchical
  /// representatives"). 0 keeps the paper's single flat representative:
  /// the depth-0 tree, every worker a direct child of the rep. A value
  /// F >= 2 interposes sub-representative relays between the workers and
  /// the rep: every tree node has at most F children, so the rep's inbound
  /// control traffic is bounded by F wire messages per collective wave
  /// instead of one per rank. Config file syntax: a `fanin=F` token on the
  /// program line. F == 1 is rejected (a one-child tree never contracts).
  int rep_fanin = 0;

  /// Number of sibling representative shards. Connection c is owned by
  /// shard `c % rep_shards`, so no single process serializes every peer of
  /// a hub program. 1 (the default) keeps today's single rep. Config file
  /// syntax: a `shards=S` token on the program line.
  int rep_shards = 1;

  /// Pipelined tree aggregation (docs/PROTOCOL.md, "Partial tree frames").
  /// Sub-reps and rep shards normally buffer a whole drained wave before
  /// emitting one TreeUp/TreeDown frame per destination. A nonzero
  /// tree_flush_count flushes a destination's frame early once it holds
  /// that many entries; the wave-end flush always remains. Config file
  /// syntax: a `flush_count=N` token on the program line.
  int tree_flush_count = 0;
};

struct ConnectionSpec {
  std::string exporter_program;
  std::string exporter_region;
  std::string importer_program;
  std::string importer_region;
  MatchPolicy policy = MatchPolicy::REGL;
  double tolerance = 0;

  /// Optional sub-region of the exporter's domain carried by this
  /// connection (the paper's "shared boundaries or overlapped regions"):
  /// the importer's whole region maps onto this window, so the window's
  /// dimensions must equal the imported region's dimensions. Config file
  /// syntax appends 4 integers: row_begin row_end col_begin col_end.
  /// Absent -> the whole exporter domain is transferred (dims must match).
  std::optional<dist::Box> exporter_window = std::nullopt;
};

class Config {
 public:
  static Config parse_string(const std::string& text);
  static Config parse_file(const std::string& path);

  /// Programmatic construction (used by tests and benches).
  void add_program(ProgramSpec spec);
  void add_connection(ConnectionSpec spec);

  /// Cross-checks the specification; throws InvalidArgument on problems.
  void validate() const;

  const std::vector<ProgramSpec>& programs() const { return programs_; }
  const std::vector<ConnectionSpec>& connections() const { return connections_; }

  const ProgramSpec& program(const std::string& name) const;
  bool has_program(const std::string& name) const;

  /// Connection index in connections() order; used as the wire conn id.
  std::vector<int> connections_exporting(const std::string& program,
                                         const std::string& region) const;
  std::optional<int> connection_importing(const std::string& program,
                                          const std::string& region) const;
  std::vector<int> connections_of_exporter_program(const std::string& program) const;
  std::vector<int> connections_of_importer_program(const std::string& program) const;

  std::string summary() const;

 private:
  std::vector<ProgramSpec> programs_;
  std::vector<ConnectionSpec> connections_;
};

}  // namespace ccf::core
