#include "obs/sampler.hpp"

#include <chrono>
#include <cstdio>

namespace atm::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Histogram series entry: summary stats plus the full per-bucket CDF as
/// [bucket_lo, cumulative_count] pairs over occupied buckets. A p50 scalar
/// would hide multi-modal shapes (e.g. steal batch sizes clustering at 1 for
/// deque steals and at the chain length for inbox adoptions); consumers get
/// the whole distribution at every tick.
void append_hist(std::string& out, const LatencyHistogram::Snapshot& h) {
  out += "{\"count\":";
  out += std::to_string(h.count);
  out += ",\"max\":";
  out += std::to_string(h.max);
  out += ",\"mean\":";
  append_double(out, h.mean);
  out += ",\"p50\":";
  append_double(out, h.p50);
  out += ",\"p95\":";
  append_double(out, h.p95);
  out += ",\"p99\":";
  append_double(out, h.p99);
  out += ",\"cdf\":[";
  std::uint64_t cumulative = 0;
  bool first = true;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    cumulative += h.buckets[b];
    if (!first) out += ',';
    first = false;
    out += '[';
    out += std::to_string(LatencyHistogram::bucket_lo(b));
    out += ',';
    out += std::to_string(cumulative);
    out += ']';
  }
  out += "]}";
}

}  // namespace

std::string MetricsSampler::Series::to_json() const {
  std::string out;
  out.reserve(256 + samples.size() * 256);
  out += "{\"interval_ms\":";
  out += std::to_string(interval_ms);
  out += ",\"dropped\":";
  out += std::to_string(dropped);
  out += ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n{\"t_ns\":";
    out += std::to_string(samples[i].t_ns);
    out += ",\"metrics\":{";
    for (std::size_t k = 0; k < samples[i].metrics.size(); ++k) {
      const MetricSample& m = samples[i].metrics[k];
      if (k > 0) out += ',';
      json_append_string(out, m.name);
      out += ':';
      if (m.kind == MetricKind::Histogram) {
        append_hist(out, m.hist);
      } else {
        append_double(out, m.value);
      }
    }
    out += "}}";
  }
  out += "\n]}";
  return out;
}

std::string MetricsSampler::Series::to_csv() const {
  std::string out;
  if (samples.empty()) return "t_ns\n";
  // Column set = scalar metrics of the first sample; the registry only grows
  // during warm-up, so later samples are a superset and extra names drop.
  std::vector<std::string> cols;
  out += "t_ns";
  for (const MetricSample& m : samples.front().metrics) {
    if (m.kind == MetricKind::Histogram) continue;
    cols.push_back(m.name);
    out += ',';
    out += m.name;
  }
  out += '\n';
  for (const RegistrySnapshot& s : samples) {
    out += std::to_string(s.t_ns);
    for (const std::string& col : cols) {
      out += ',';
      const MetricSample* m = s.find(col);
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", m != nullptr ? m->value : 0.0);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

MetricsSampler::MetricsSampler(const MetricsRegistry& registry, Options opts)
    : registry_(registry), opts_(opts) {
  if (opts_.interval_ms == 0) opts_.interval_ms = 1;
  if (opts_.ring_capacity == 0) opts_.ring_capacity = 1;
  ring_.reserve(std::min<std::size_t>(opts_.ring_capacity, 1024));
  thread_ = std::thread([this] { run(); });
}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    if (stop_claimed_) {
      // Regression guard: a second concurrent stop() used to race the
      // first caller into thread_.join() (joining one std::thread from two
      // threads is undefined). Losers now wait for the winner to finish.
      while (!stopped_) cv_.wait(mutex_);
      return;
    }
    stop_claimed_ = true;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  take_sample();  // final snapshot: short runs still get >= 1 sample
  {
    MutexLock lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
}

void MetricsSampler::run() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(opts_.interval_ms);
      while (!stopping_) {
        if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) break;
      }
      if (stopping_) return;
    }
    take_sample();
  }
}

void MetricsSampler::take_sample() {
  RegistrySnapshot snap = registry_.snapshot();
  if (opts_.live_stderr) {
    std::string line = "[atm-metrics t=" + std::to_string(snap.t_ns / 1000000) +
                       "ms]";
    for (const MetricSample& m : snap.metrics) {
      if (m.kind != MetricKind::Gauge) continue;
      line += ' ';
      line += m.name;
      line += '=';
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(m.value));
      line += buf;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  MutexLock lock(mutex_);
  if (ring_.size() < opts_.ring_capacity) {
    ring_.push_back(std::move(snap));
  } else {
    ring_[ring_head_] = std::move(snap);
    ring_head_ = (ring_head_ + 1) % opts_.ring_capacity;
    wrapped_ = true;
    ++dropped_;
  }
}

MetricsSampler::Series MetricsSampler::series() const {
  MutexLock lock(mutex_);
  Series s;
  s.interval_ms = opts_.interval_ms;
  s.dropped = dropped_;
  s.samples.reserve(ring_.size());
  if (wrapped_) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      s.samples.push_back(ring_[(ring_head_ + i) % ring_.size()]);
    }
  } else {
    s.samples = ring_;
  }
  return s;
}

}  // namespace atm::obs
