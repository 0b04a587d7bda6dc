#include "obs/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>

#include "metrics/tracker.hpp"
#include "profile/compact.hpp"
#include "sim/engine.hpp"

namespace whatsup::obs {

namespace {

// Metric names contain only [a-z0-9._] today; escape defensively anyway.
void write_escaped(std::ostream& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

void write_metric_json(std::ostream& out, const MetricValue& m) {
  out << '"';
  write_escaped(out, m.name);
  out << "\":";
  if (m.kind == Kind::kHistogram) {
    out << "{\"count\":" << m.count << ",\"sum\":" << m.sum << ",\"bounds\":[";
    for (std::size_t i = 0; i < m.bounds.size(); ++i) {
      if (i != 0) out << ',';
      out << m.bounds[i];
    }
    out << "],\"buckets\":[";
    for (std::size_t i = 0; i < m.buckets.size(); ++i) {
      if (i != 0) out << ',';
      out << m.buckets[i];
    }
    out << "]}";
  } else {
    out << m.value;
  }
}

void write_metrics_object(std::ostream& out, const Snapshot& snap) {
  out << "{\"metrics\":{";
  for (std::size_t i = 0; i < snap.metrics.size(); ++i) {
    if (i != 0) out << ',';
    write_metric_json(out, snap.metrics[i]);
  }
  out << "}}";
}

}  // namespace

Snapshot Snapshot::collect() {
  Snapshot s;
  s.metrics = Registry::instance().merge();
  return s;
}

void Snapshot::set_gauge(std::string_view name, std::uint64_t value,
                         std::string_view unit) {
  // Keep `metrics` sorted by name so absorbed gauges and registry metrics
  // share one canonical order.
  MetricValue v;
  v.name = std::string(name);
  v.kind = Kind::kGauge;
  v.unit = std::string(unit);
  v.value = value;
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), v.name,
      [](const MetricValue& m, const std::string& n) { return m.name < n; });
  if (it != metrics.end() && it->name == v.name) {
    *it = std::move(v);
  } else {
    metrics.insert(it, std::move(v));
  }
}

void Snapshot::absorb(const sim::Engine& engine) {
  const sim::Engine::MemoryStats m = engine.memory_stats();
  set_gauge("engine.mem.mailbox_bytes", m.mailbox_bytes, "bytes");
  set_gauge("engine.mem.payload_bytes", m.payload_bytes, "bytes");
  set_gauge("engine.mem.outbox_bytes", m.outbox_bytes, "bytes");
  set_gauge("engine.mem.scratch_bytes", m.scratch_bytes, "bytes");
  set_gauge("engine.mem.arena_bytes", m.arena_bytes, "bytes");
  set_gauge("engine.mem.total_bytes", m.total(), "bytes");
}

void Snapshot::absorb(const metrics::Tracker& tracker) {
  set_gauge("tracker.resident_bytes", tracker.resident_bytes(), "bytes");
}

void Snapshot::absorb_arena() {
  const SnapshotArena::Stats a = SnapshotArena::instance().stats();
  set_gauge("arena.entries", a.entries);
  set_gauge("arena.live", a.live);
  set_gauge("arena.interned", a.interned);
  set_gauge("arena.intern_hits", a.reused);
  set_gauge("arena.purged", a.purged);
  set_gauge("arena.blob_resident_bytes", a.blobs.resident_bytes, "bytes");
  set_gauge("arena.stamp_resident_bytes", a.stamps.resident_bytes, "bytes");
}

const MetricValue* Snapshot::find(std::string_view name) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
  if (it != metrics.end() && it->name == name) return &*it;
  return nullptr;
}

std::uint64_t Snapshot::value(std::string_view name) const {
  const MetricValue* m = find(name);
  return m != nullptr ? (m->kind == Kind::kHistogram ? m->count : m->value) : 0;
}

void Snapshot::write_json(std::ostream& out) const {
  write_metrics_object(out, *this);
}

void write_stats_json(std::ostream& out, const std::vector<CycleSample>& series,
                      const Snapshot& final_snapshot) {
  out << "{\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"cycle\":" << series[i].cycle << ",\"metrics\":{";
    const Snapshot& s = series[i].snapshot;
    for (std::size_t j = 0; j < s.metrics.size(); ++j) {
      if (j != 0) out << ',';
      write_metric_json(out, s.metrics[j]);
    }
    out << "}}";
  }
  out << "],\"final\":";
  write_metrics_object(out, final_snapshot);
  out << "}";
}

std::uint64_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::uint64_t>(
          std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

Heartbeat::Heartbeat(Cycle total_cycles, Cycle every)
    : total_(total_cycles),
      every_(every > 0 ? every : 1),
      start_ns_(now_ns()),
      rss_gauge_(gauge("run.rss_peak_kib", "KiB")) {}

void Heartbeat::tick(Cycle cycle) {
  const Cycle done = cycle + 1;  // tick fires after the cycle completed
  if (done % every_ != 0 && done != total_) return;
  const std::uint64_t rss = resident_kib();
  gauge_max(rss_gauge_, rss);
  const double elapsed_s =
      static_cast<double>(now_ns() - start_ns_) / 1e9;
  const double rate = elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0;
  const double eta_s =
      rate > 0 ? static_cast<double>(total_ - done) / rate : 0;
  if (enabled()) {
    // Routed through the registry: message totals come from the merged
    // lanes, not a side channel.
    const Snapshot s = Snapshot::collect();
    std::fprintf(stderr,
                 "[progress] cycle %d/%d  %.1f cyc/s  eta %.0fs  rss %.1f MiB"
                 "  delivered=%" PRIu64 " routed=%" PRIu64 "\n",
                 done, total_, rate, eta_s, static_cast<double>(rss) / 1024.0,
                 s.value("engine.deliver.messages"),
                 s.value("engine.route.messages"));
  } else {
    std::fprintf(stderr,
                 "[progress] cycle %d/%d  %.1f cyc/s  eta %.0fs  rss %.1f MiB\n",
                 done, total_, rate, eta_s, static_cast<double>(rss) / 1024.0);
  }
}

}  // namespace whatsup::obs
