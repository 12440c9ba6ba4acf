#include "core/result_codec.hpp"

#include <utility>

#include "transport/serialize.hpp"

namespace ccf::core {

namespace {

using transport::Reader;
using transport::Writer;

Reader reader_of(const std::vector<std::byte>& bytes) {
  return Reader(transport::make_payload(std::vector<std::byte>(bytes)));
}

void put(Writer& w, const ExportRegionStats& e) {
  w.put<ExportCounters>(e);
  w.put_string(e.region);
  w.put_vector(e.export_seconds);
  w.put_vector(e.export_timestamps);
  w.put_vector(e.t_i);
  w.put_vector(e.trace_events);
}

void get(Reader& r, ExportRegionStats& e) {
  static_cast<ExportCounters&>(e) = r.get<ExportCounters>();
  e.region = r.get_string();
  e.export_seconds = r.get_vector<double>();
  e.export_timestamps = r.get_vector<Timestamp>();
  e.t_i = r.get_vector<double>();
  e.trace_events = r.get_vector<TraceEvent>();
}

void put(Writer& w, const ImportRegionStats& i) {
  w.put<ImportCounters>(i);
  w.put_string(i.region);
  w.put_vector(i.import_seconds);
  w.put_vector(i.matched_timestamps);
}

void get(Reader& r, ImportRegionStats& i) {
  static_cast<ImportCounters&>(i) = r.get<ImportCounters>();
  i.region = r.get_string();
  i.import_seconds = r.get_vector<double>();
  i.matched_timestamps = r.get_vector<Timestamp>();
}

template <typename T>
void put_list(Writer& w, const std::vector<T>& items) {
  w.put<std::uint64_t>(items.size());
  for (const T& item : items) put(w, item);
}

// No reserve: the count is trusted only as far as the bytes behind it,
// and each element's read throws on underflow.
template <typename T>
void get_list(Reader& r, std::vector<T>& items) {
  for (auto n = r.get<std::uint64_t>(); n > 0; --n) get(r, items.emplace_back());
}

}  // namespace

std::vector<std::byte> encode_proc_result(const ProcStats& stats) {
  Writer w;
  w.put<ProcCounters>(stats);
  put_list(w, stats.exports);
  put_list(w, stats.imports);
  w.put<std::uint64_t>(stats.published.size());
  for (const auto& [name, values] : stats.published) {
    w.put_string(name);
    w.put_vector(values);
  }
  return w.take_bytes();
}

ProcStats decode_proc_result(const std::vector<std::byte>& bytes) {
  Reader r = reader_of(bytes);
  ProcStats stats;
  static_cast<ProcCounters&>(stats) = r.get<ProcCounters>();
  get_list(r, stats.exports);
  get_list(r, stats.imports);
  for (auto n = r.get<std::uint64_t>(); n > 0; --n) {
    std::string name = r.get_string();
    stats.published[std::move(name)] = r.get_vector<double>();
  }
  CCF_CHECK(r.exhausted(), "trailing bytes in encoded process result");
  return stats;
}

std::vector<std::byte> encode_rep_result(const RepResult& result) {
  Writer w;
  w.put<RepCounters>(result);
  w.put_vector(result.answers);
  return w.take_bytes();
}

RepResult decode_rep_result(const std::vector<std::byte>& bytes) {
  Reader r = reader_of(bytes);
  RepResult out;
  static_cast<RepCounters&>(out) = r.get<RepCounters>();
  out.answers = r.get_vector<AnswerMsg>();
  CCF_CHECK(r.exhausted(), "trailing bytes in encoded rep result");
  return out;
}

std::vector<std::byte> encode_subrep_result(const SubRepResult& result) {
  Writer w;
  w.put(result);
  return w.take_bytes();
}

SubRepResult decode_subrep_result(const std::vector<std::byte>& bytes) {
  Reader r = reader_of(bytes);
  const auto out = r.get<SubRepResult>();
  CCF_CHECK(r.exhausted(), "trailing bytes in encoded sub-rep result");
  return out;
}

}  // namespace ccf::core
