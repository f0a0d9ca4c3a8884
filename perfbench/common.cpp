#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

using harmony::Configuration;
using harmony::ExperienceRecord;
using harmony::Rng;

ServedSpec served_spec(const std::string& name) {
  ServedSpec s;
  if (name == "serve_warm") {
    s.prior_records = 500000;
    s.params = 4;
    s.budget = 40;
  } else if (name == "serve_ingest") {
    s.prior_records = 50000;
    s.params = 4;
    s.budget = 4;
    s.snapshot_every = 2000;
  } else if (name == "serve_long") {
    s.prior_records = 0;
    s.params = 8;
    s.budget = 200;
    s.signature = false;
    s.binary = false;
    s.record = false;
  } else {
    throw std::invalid_argument("unknown served workload: " + name);
  }
  return s;
}

std::uint64_t unit_seed(std::uint64_t base, std::uint64_t unit) {
  std::uint64_t state = base + unit * 0x9e3779b97f4a7c15ULL;
  return harmony::splitmix64(state);
}

std::vector<Family> make_families() {
  Rng rng(0xfa111e5);
  std::vector<Family> out(kFamilies);
  for (Family& f : out) {
    for (std::size_t d = 0; d < kSigDims; ++d) f.center.push_back(rng.uniform01());
    for (int d = 0; d < 8; ++d) {
      f.optimum.push_back(static_cast<double>(rng.uniform_int(2, 18)));
    }
  }
  return out;
}

double family_perf(const Family& f, const Configuration& c) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double t = c[i] - f.optimum[i];
    d2 += t * t;
  }
  return 100.0 * 50.0 / (50.0 + d2);
}

std::string family_label(std::size_t family) {
  return "f" + std::to_string(family);
}

std::string make_rsl(int params) {
  std::string rsl;
  for (int i = 0; i < params; ++i) {
    rsl += "{ harmonyBundle p" + std::to_string(i) + " { int {0 20 1 0} } }";
  }
  return rsl;
}

namespace {

harmony::WorkloadSignature near(const harmony::WorkloadSignature& center,
                                Rng& rng) {
  harmony::WorkloadSignature s;
  s.reserve(center.size());
  for (double c : center) s.push_back(c + rng.normal(0.0, 0.03));
  return s;
}

}  // namespace

ExperienceRecord prior_record(const std::vector<Family>& families,
                              std::uint64_t seed, std::size_t i, int params) {
  Rng rng(unit_seed(seed ^ 0x9e1057ULL, i));
  const auto fam = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(families.size()) - 1));
  const Family& f = families[fam];
  ExperienceRecord rec;
  rec.label = family_label(fam);
  rec.signature = near(f.center, rng);
  for (std::size_t m = 0; m < kPriorMeasurements; ++m) {
    Configuration c;
    for (int d = 0; d < params; ++d) {
      const double v = f.optimum[static_cast<std::size_t>(d)] +
                       static_cast<double>(rng.uniform_int(-3, 3));
      c.push_back(std::clamp(v, 0.0, 20.0));
    }
    const double perf = family_perf(f, c);
    rec.measurements.push_back({std::move(c), perf});
  }
  return rec;
}

ScriptStream::ScriptStream(const std::vector<Family>& families,
                           std::uint64_t seed, int conn)
    : families_(families),
      rng_(unit_seed(seed ^ 0x5c2197ULL, static_cast<std::uint64_t>(conn))) {}

SessionScript ScriptStream::next() {
  SessionScript s;
  s.family = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(families_.size()) - 1));
  s.signature = near(families_[s.family].center, rng_);
  return s;
}

// ---- statistics -------------------------------------------------------------

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : harmony::percentile(xs, p);
}

double median(const std::vector<double>& xs) { return pct(xs, 50.0); }

double tail_rank(std::size_t n) {
  if (n < 20) return 50.0;
  return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double tail(const std::vector<double>& xs) {
  return pct(xs, tail_rank(xs.size()));
}

std::size_t window_of(Clock::time_point from, Clock::time_point t) {
  if (t <= from) return 0;
  return static_cast<std::size_t>(us_between(from, t) / 1e6 / kWindowSeconds);
}

void Windowed::add(std::size_t window, double x) {
  if (windows_.size() <= window) windows_.resize(window + 1);
  windows_[window].push_back(x);
}

void Windowed::add(std::size_t window, const std::vector<double>& xs) {
  if (windows_.size() <= window) windows_.resize(window + 1);
  windows_[window].insert(windows_[window].end(), xs.begin(), xs.end());
}

void Windowed::merge(const Windowed& other) {
  for (std::size_t w = 0; w < other.windows_.size(); ++w) {
    add(w, other.windows_[w]);
  }
}

std::size_t Windowed::size() const {
  std::size_t n = 0;
  for (const std::vector<double>& w : windows_) n += w.size();
  return n;
}

double Windowed::median() const {
  std::vector<double> all;
  all.reserve(size());
  for (const std::vector<double>& w : windows_) {
    all.insert(all.end(), w.begin(), w.end());
  }
  return perfbench::median(all);
}

double Windowed::median_window_size() const {
  std::vector<double> sizes;
  for (const std::vector<double>& w : windows_) {
    if (!w.empty()) sizes.push_back(static_cast<double>(w.size()));
  }
  return perfbench::median(sizes);
}

bool Windowed::in_tail(const std::vector<double>& w) const {
  return !w.empty() &&
         2.0 * static_cast<double>(w.size()) >= median_window_size();
}

double Windowed::tail_rank() const {
  return perfbench::tail_rank(
      static_cast<std::size_t>(std::floor(median_window_size())));
}

double Windowed::tail() const {
  const double rank = tail_rank();
  std::vector<double> tails;
  for (const std::vector<double>& w : windows_) {
    if (in_tail(w)) tails.push_back(pct(w, rank));
  }
  return perfbench::median(tails);
}

std::size_t Windowed::tail_windows() const {
  std::size_t n = 0;
  for (const std::vector<double>& w : windows_) n += in_tail(w) ? 1 : 0;
  return n;
}

int selftest_stats() {
  int failures = 0;
  auto check = [&](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-12) {
      std::printf("selftest FAILED %s: got %.17g want %.17g\n", what, got,
                  want);
      ++failures;
    }
  };
  // Sorted: 1 2 3 4 10. Linear interpolation at rank p/100 * (n - 1).
  const std::vector<double> xs = {4.0, 1.0, 10.0, 3.0, 2.0};
  check("median odd", median(xs), 3.0);
  check("p25", pct(xs, 25.0), 2.0);
  check("p75", pct(xs, 75.0), 4.0);
  check("p90", pct(xs, 90.0), 7.6);  // rank 3.6: 4 + 0.6 * (10 - 4)
  check("median even", median({1.0, 2.0, 3.0, 4.0}), 2.5);
  check("empty", pct({}, 50.0), 0.0);
  check("tail rank small", tail_rank(19), 50.0);
  check("tail rank 100", tail_rank(100), 90.0);
  check("tail rank 2000", tail_rank(2000), 99.0);
  // 1..100: p90 sits at rank 89.1 -> 90.1, with exactly ten samples above.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check("tail 1..100", tail(hundred), 90.1);
  // Three windows of 100 (one a contention burst, +1000) and a partial one
  // of 10 that stays out of the tail: p90 per window is 90.1, 1090.1 and
  // 100.1, median 100.1. The median over all 310 samples is 83 (ranks 155
  // and 156 of 1..100 merged with 11..110).
  Windowed win;
  for (int i = 1; i <= 100; ++i) {
    win.add(0, i);
    win.add(1, i + 1000.0);
    win.add(2, i + 10.0);
  }
  win.add(3, std::vector<double>(10, 1e6));
  check("window of", static_cast<double>(window_of(
                         Clock::time_point{}, Clock::time_point{} +
                                                  std::chrono::milliseconds(2500))),
        2.0);
  check("windowed size", static_cast<double>(win.size()), 310.0);
  check("windowed median", win.median(), 83.0);
  check("windowed rank", win.tail_rank(), 90.0);
  check("windowed tail", win.tail(), 100.1);
  check("windowed windows", static_cast<double>(win.tail_windows()), 3.0);
  return failures;
}

// ---- tracing ----------------------------------------------------------------

std::size_t Tracer::begin(std::string name, std::int64_t session,
                          std::int64_t parent) {
  Span s;
  s.name = std::move(name);
  s.session = session;
  s.parent = parent;
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) { spans_[index].end = Clock::now(); }

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

void Tracer::write_chrome(const std::string& path, int pid) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxWritten); ++i) {
    const Span& s = spans_[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), pid,
                  static_cast<long long>(s.session),
                  us_between(origin_, s.start), s.us(), i,
                  static_cast<long long>(s.parent));
    os << buf;
  }
  os << "]}\n";
}

// ---- output -----------------------------------------------------------------

JsonLine& JsonLine::num(const std::string& key, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

std::string JsonLine::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

void emit_timing(JsonLine& j, const std::string& name, const std::string& unit,
                 const Windowed& xs) {
  j.num(name + "_p50_" + unit, xs.median())
      .num(name + "_p99_" + unit, xs.tail())
      .num(name + "_tail_rank", xs.tail_rank())
      .num(name + "_tail_windows", static_cast<double>(xs.tail_windows()))
      .num(name + "_samples", static_cast<double>(xs.size()));
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
