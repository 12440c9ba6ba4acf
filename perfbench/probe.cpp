#include "probe.hpp"

#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace pb {

namespace {

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

}  // namespace

std::int64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void reset_peak_rss() {
  // "5" is CLEAR_REFS_MM_HIWATER_RSS (proc(5), /proc/pid/clear_refs).
  File f(std::fopen("/proc/self/clear_refs", "w"), &std::fclose);
  if (f) std::fputs("5", f.get());
}

std::int64_t peak_rss_kb() {
  if (File f(std::fopen("/proc/self/status", "r"), &std::fclose); f) {
    char line[256];
    while (std::fgets(line, sizeof line, f.get()))
      if (std::strncmp(line, "VmHWM:", 6) == 0) return std::strtoll(line + 6, nullptr, 10);
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Body: return "body";
    case Layer::Compute: return "app.compute";
    case Layer::Commit: return "core.commit";
    case Layer::Export: return "core.export";
    case Layer::Import: return "core.import";
    case Layer::Finalize: return "core.finalize";
    case Layer::kCount: break;
  }
  return "?";
}

Recorder::Recorder(char program, int rank, int run_id, bool traced) : traced_(traced) {
  record_.program = program;
  record_.rank = rank;
  record_.run_id = run_id;
  record_.body_start_ns = mono_ns();
  if (traced_) record_.spans.push_back(Span{Layer::Body, -1, record_.body_start_ns, 0});
}

void Recorder::note(Layer layer, std::int64_t start, std::int64_t end) {
  if (layer == Layer::Export) record_.export_ns.push_back(end - start);
  if (layer == Layer::Commit) record_.commit_end_ns = end;
  if (traced_) record_.spans.push_back(Span{layer, 0, start, end});
  last_start_ = start;
  last_end_ = end;
}

namespace {

template <class T>
void put(std::FILE* f, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (std::fwrite(&value, sizeof value, 1, f) != 1) throw std::runtime_error("short write");
}

template <class T>
void put_vec(std::FILE* f, const std::vector<T>& v) {
  put(f, static_cast<std::uint64_t>(v.size()));
  if (!v.empty() && std::fwrite(v.data(), sizeof(T), v.size(), f) != v.size())
    throw std::runtime_error("short write");
}

template <class T>
void get(std::FILE* f, T& value) {
  if (std::fread(&value, sizeof value, 1, f) != 1) throw std::runtime_error("short record");
}

template <class T>
void get_vec(std::FILE* f, std::vector<T>& v) {
  std::uint64_t n = 0;
  get(f, n);
  if (n > (1u << 28)) throw std::runtime_error("corrupt record length");
  v.resize(static_cast<std::size_t>(n));
  if (n > 0 && std::fread(v.data(), sizeof(T), v.size(), f) != v.size())
    throw std::runtime_error("short record");
}

}  // namespace

void Recorder::finish(const std::string& path) {
  record_.body_end_ns = mono_ns();
  record_.max_rss_kb = peak_rss_kb();
  if (traced_) record_.spans[0].end_ns = record_.body_end_ns;
  File f(std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) throw std::runtime_error("cannot write " + path);
  put(f.get(), record_.program);
  put(f.get(), record_.rank);
  put(f.get(), record_.run_id);
  put(f.get(), record_.body_start_ns);
  put(f.get(), record_.commit_end_ns);
  put(f.get(), record_.body_end_ns);
  put(f.get(), record_.max_rss_kb);
  put_vec(f.get(), record_.export_ns);
  put_vec(f.get(), record_.imports);
  put_vec(f.get(), record_.spans);
}

RankRecord read_record(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) throw std::runtime_error("missing rank record " + path);
  RankRecord r;
  get(f.get(), r.program);
  get(f.get(), r.rank);
  get(f.get(), r.run_id);
  get(f.get(), r.body_start_ns);
  get(f.get(), r.commit_end_ns);
  get(f.get(), r.body_end_ns);
  get(f.get(), r.max_rss_kb);
  get_vec(f.get(), r.export_ns);
  get_vec(f.get(), r.imports);
  get_vec(f.get(), r.spans);
  return r;
}

}  // namespace pb
