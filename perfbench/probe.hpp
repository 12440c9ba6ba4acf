// Timing probes placed around calls into the framework's public API.
//
// Every worker rank of a coupled run owns one Recorder. It times the calls
// a program body makes into each layer (CouplingRuntime::commit /
// export_region / import_region / finalize, and the application's own
// compute) and, in traced mode, keeps one span per call. Under
// CCF_MODE=procs a body runs in a forked child whose memory the launcher
// never sees again, so the Recorder ships its samples out through a
// per-rank file that the launching process reads back once run() returns. All
// timestamps are CLOCK_MONOTONIC nanoseconds, which every process of the
// run shares.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace pb {

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t mono_ns();

/// Restarts the calling process's resident-set high-water mark at its
/// current resident set, so that peak_rss_kb() covers only what follows
/// rather than the process's whole life.
void reset_peak_rss();

/// Resident-set high-water mark of the calling process in KiB (VmHWM).
std::int64_t peak_rss_kb();

/// The layers a body calls into, as seen from outside.
enum class Layer : std::uint8_t { Body, Compute, Commit, Export, Import, Finalize, kCount };
constexpr int kLayers = static_cast<int>(Layer::kCount);
const char* layer_name(Layer layer);

/// One timed call. `parent` indexes the enclosing span of the same rank
/// (-1 for the body span, the root).
struct Span {
  Layer layer = Layer::Body;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One import call as the importer saw it.
struct ImportSample {
  double requested = 0;
  double matched = 0;
  std::uint8_t ok = 0;  ///< MATCH (data delivered)
  std::uint8_t region = 0;
  std::uint64_t checksum = 0;  ///< of the imported block (0 unless ok)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Everything one rank ships back to the launching process.
struct RankRecord {
  char program = '?';
  std::int32_t rank = 0;
  std::int32_t run_id = 0;
  std::int64_t body_start_ns = 0;
  std::int64_t commit_end_ns = 0;
  std::int64_t body_end_ns = 0;
  std::int64_t max_rss_kb = 0;  ///< peak_rss_kb() of the rank's process at body exit
  std::vector<std::int64_t> export_ns;  ///< duration of every export_region call
  std::vector<ImportSample> imports;
  std::vector<Span> spans;  ///< traced runs only
};

class Recorder {
 public:
  Recorder(char program, int rank, int run_id, bool traced);

  /// Times `fn()` as one call into `layer`, nested under the body span.
  template <class Fn>
  auto timed(Layer layer, Fn&& fn) {
    const std::int64_t start = mono_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      note(layer, start, mono_ns());
    } else {
      auto result = fn();
      note(layer, start, mono_ns());
      return result;
    }
  }

  void note_import(ImportSample sample) { record_.imports.push_back(sample); }
  std::int64_t last_start_ns() const { return last_start_; }
  std::int64_t last_end_ns() const { return last_end_; }

  /// Closes the body span and writes the record to `path`.
  void finish(const std::string& path);

 private:
  void note(Layer layer, std::int64_t start, std::int64_t end);

  RankRecord record_;
  bool traced_;
  std::int64_t last_start_ = 0;
  std::int64_t last_end_ = 0;
};

/// Reads a record written by Recorder::finish; throws on a short file.
RankRecord read_record(const std::string& path);

}  // namespace pb
