// Tests for the observability subsystem (src/obs): metrics registry
// concurrency and merging, trace-event recording/export round-trips, the
// kill switches, and the per-pass profiler.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace_events.h"
#include "src/solver/solver.h"

namespace ddt::obs {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to verify the exported trace files are
// well-formed and carry the fields chrome://tracing needs. Deliberately
// independent of the exporter (no shared serialization code to hide a bug
// in).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  bool Has(const std::string& key) const { return fields.count(key) != 0; }
  const JsonValue& At(const std::string& key) const {
    static const JsonValue kNullValue;
    auto it = fields.find(key);
    return it == fields.end() ? kNullValue : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = Value(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            out->push_back('?');  // exact code point irrelevant for these tests
            pos_ += 4;
            break;
          }
          default: out->push_back(esc); break;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Value(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipWs();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_++] != ':') {
          return false;
        }
        JsonValue child;
        if (!Value(&child)) {
          return false;
        }
        out->fields.emplace(std::move(key), std::move(child));
        SkipWs();
        if (pos_ >= text_.size()) {
          return false;
        }
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JsonValue child;
        if (!Value(&child)) {
          return false;
        }
        out->items.push_back(std::move(child));
        SkipWs();
        if (pos_ >= text_.size()) {
          return false;
        }
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    // Number.
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* c = registry.counter("test.count");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(registry.counter("test.count"), c);

  Gauge* g = registry.gauge("test.depth");
  g->Set(7);
  g->Set(3);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(g->max(), 7);  // high-water mark survives the drop
  g->Add(10);
  EXPECT_EQ(g->value(), 13);
  EXPECT_EQ(g->max(), 13);

  Histogram* h = registry.histogram("test.latency", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // bucket 0
  h->Observe(5.0);    // bucket 1
  h->Observe(5000.0); // overflow bucket
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 5005.5);
  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 0u);
  EXPECT_EQ(h->bucket_count(3), 1u);  // +inf
}

// Exercised under TSan in CI: concurrent updates through handles plus
// mid-flight snapshots must be race-free, and the final counts exact.
TEST(MetricsTest, ConcurrentIncrementAndSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Registration races against other registrants and the snapshotter.
      Counter* c = registry.counter("shared.count");
      Gauge* g = registry.gauge("shared.depth");
      Histogram* h = registry.histogram("shared.ms", Histogram::LatencyBucketsMs());
      for (int i = 0; i < kIncrements; ++i) {
        c->Add();
        g->Set(t * kIncrements + i);
        h->Observe(static_cast<double>(i % 100));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshot while the writers run: values are torn-free and monotonic.
  uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = registry.Snapshot();
    auto it = snap.counters.find("shared.count");
    if (it != snap.counters.end()) {
      EXPECT_GE(it->second, last_count);
      last_count = it->second;
    }
  }
  for (std::thread& w : workers) {
    w.join();
  }
  MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.counters.at("shared.count"),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(final_snap.histograms.at("shared.ms").count,
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(final_snap.gauges.at("shared.depth").max,
            static_cast<int64_t>(kThreads - 1) * kIncrements + (kIncrements - 1));
}

TEST(MetricsTest, SnapshotsMergeLikePassStats) {
  // Two per-pass registries merge the way EngineStats::Accumulate folds pass
  // stats: counters and histogram buckets sum, gauges keep the high-water.
  MetricsRegistry pass1;
  MetricsRegistry pass2;
  pass1.counter("engine.instructions")->Add(100);
  pass2.counter("engine.instructions")->Add(250);
  pass2.counter("engine.forks")->Add(3);  // only in pass 2
  pass1.gauge("engine.live_states")->Set(12);
  pass2.gauge("engine.live_states")->Set(5);
  pass1.histogram("solver.query_ms", {1.0, 10.0})->Observe(0.5);
  pass2.histogram("solver.query_ms", {1.0, 10.0})->Observe(4.0);
  pass2.histogram("solver.query_ms", {1.0, 10.0})->Observe(40.0);

  MetricsSnapshot merged = pass1.Snapshot();
  merged.Merge(pass2.Snapshot());
  EXPECT_EQ(merged.counters.at("engine.instructions"), 350u);
  EXPECT_EQ(merged.counters.at("engine.forks"), 3u);
  EXPECT_EQ(merged.gauges.at("engine.live_states").max, 12);
  const MetricsSnapshot::HistogramValue& h = merged.histograms.at("solver.query_ms");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 44.5);
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 1u);

  // Merging is associative enough for campaign use: order never changes sums.
  MetricsSnapshot reversed = pass2.Snapshot();
  reversed.Merge(pass1.Snapshot());
  EXPECT_EQ(reversed.ToJson(), merged.ToJson());
}

TEST(MetricsTest, MismatchedHistogramBoundsFoldCountAndSumOnly) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.histogram("h", {1.0, 2.0})->Observe(0.5);
  b.histogram("h", {5.0})->Observe(7.0);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const MetricsSnapshot::HistogramValue& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 7.5);
  EXPECT_EQ(h.bounds.size(), 2u);  // keeps this snapshot's resolution
}

TEST(MetricsTest, ToJsonIsValidAndStable) {
  MetricsRegistry registry;
  registry.counter("z.last")->Add(1);
  registry.counter("a.first")->Add(2);
  registry.gauge("depth \"quoted\"")->Set(-4);
  registry.histogram("lat", {0.5})->Observe(0.25);
  std::string json = registry.Snapshot().ToJson();
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(json).Parse(&parsed)) << json;
  EXPECT_EQ(parsed.At("counters").At("a.first").number, 2);
  EXPECT_EQ(parsed.At("counters").At("z.last").number, 1);
  EXPECT_EQ(parsed.At("gauges").At("depth \"quoted\"").At("value").number, -4);
  EXPECT_EQ(parsed.At("histograms").At("lat").At("count").number, 1);
  // Sorted keys make the serialization deterministic.
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_EQ(json, registry.Snapshot().ToJson());
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

#ifdef DDT_OBS_DISABLED

// The compile-time kill switch: Enable is a no-op, every probe is dead code.
// (The live-tracer tests below only build in the normal configuration.)
TEST(TracerKillSwitchTest, CompileTimeDisabledRecordsNothing) {
  Tracer::Get().Enable();
  EXPECT_FALSE(Tracer::Enabled());
  {
    ScopedSpan span("never.recorded");
    span.Tag("key", "val");
    TraceInstant("also.never");
  }
  EXPECT_TRUE(Tracer::Get().Collect().empty());
  EXPECT_EQ(Tracer::Get().DroppedEvents(), 0u);
  // Exports still work (an empty but valid document).
  std::string path = TempPath("obs_disabled_trace.json");
  std::string error;
  ASSERT_TRUE(Tracer::Get().ExportChromeJson(path, &error)) << error;
  JsonValue root;
  std::string text = ReadFile(path);
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  EXPECT_TRUE(root.At("traceEvents").items.empty());
}

#else  // !DDT_OBS_DISABLED

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Get().Disable(); }
};

TEST_F(TracerTest, DisabledModeRecordsNothing) {
  Tracer::Get().Disable();
  ASSERT_FALSE(Tracer::Enabled());
  {
    ScopedSpan span("should.not.record");
    span.Tag("key", "val");
    TraceInstant("also.not.recorded");
  }
  // Enable clears anything previously buffered, so a fresh Enable right
  // after proves the spans above never landed.
  Tracer::Get().Enable();
  EXPECT_TRUE(Tracer::Get().Collect().empty());
  Tracer::Get().Disable();
  // Events emitted while disabled (after a previous enabled period) are
  // dropped too.
  TraceInstant("late.event");
  EXPECT_TRUE(Tracer::Get().Collect().empty());
}

TEST_F(TracerTest, ExportRoundTripPreservesNestingAndThreads) {
  Tracer::Get().Enable();
  std::thread worker([] {
    ScopedSpan outer("worker.outer");
    {
      ScopedSpan inner("worker.inner");
      inner.Tag("result", "sat");
    }
  });
  worker.join();
  {
    ScopedSpan main_span("main.span");
    main_span.Arg("label text");
    TraceInstant("main.instant");
  }
  Tracer::Get().Disable();

  std::string path = TempPath("obs_trace.json");
  std::string error;
  ASSERT_TRUE(Tracer::Get().ExportChromeJson(path, &error)) << error;

  JsonValue root;
  std::string text = ReadFile(path);
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  ASSERT_EQ(root.At("traceEvents").kind, JsonValue::Kind::kArray);
  const std::vector<JsonValue>& events = root.At("traceEvents").items;
  ASSERT_EQ(events.size(), 4u);

  std::map<std::string, const JsonValue*> by_name;
  for (const JsonValue& ev : events) {
    // Every event carries the fields chrome://tracing requires.
    EXPECT_TRUE(ev.Has("name"));
    EXPECT_TRUE(ev.Has("ph"));
    EXPECT_TRUE(ev.Has("pid"));
    EXPECT_TRUE(ev.Has("tid"));
    EXPECT_TRUE(ev.Has("ts"));
    by_name[ev.At("name").str] = &ev;
  }
  ASSERT_TRUE(by_name.count("worker.outer"));
  ASSERT_TRUE(by_name.count("worker.inner"));
  ASSERT_TRUE(by_name.count("main.span"));
  ASSERT_TRUE(by_name.count("main.instant"));

  const JsonValue& outer = *by_name["worker.outer"];
  const JsonValue& inner = *by_name["worker.inner"];
  const JsonValue& main_span = *by_name["main.span"];
  const JsonValue& main_instant = *by_name["main.instant"];

  // Span nesting: the inner span lies within the outer on the same thread,
  // one level deeper.
  EXPECT_EQ(outer.At("ph").str, "X");
  EXPECT_EQ(inner.At("ph").str, "X");
  EXPECT_EQ(inner.At("tid").number, outer.At("tid").number);
  EXPECT_GE(inner.At("ts").number, outer.At("ts").number);
  EXPECT_LE(inner.At("ts").number + inner.At("dur").number,
            outer.At("ts").number + outer.At("dur").number + 5e-3);
  EXPECT_EQ(outer.At("args").At("depth").number, 0);
  EXPECT_EQ(inner.At("args").At("depth").number, 1);
  EXPECT_EQ(inner.At("args").At("result").str, "sat");

  // Thread attribution: the worker's events and the main thread's events
  // carry different tracer-assigned thread ids.
  EXPECT_NE(main_span.At("tid").number, outer.At("tid").number);
  EXPECT_EQ(main_instant.At("tid").number, main_span.At("tid").number);
  EXPECT_EQ(main_instant.At("ph").str, "i");
  EXPECT_EQ(main_span.At("args").At("label").str, "label text");
}

TEST_F(TracerTest, JsonlExportOneValidObjectPerLine) {
  Tracer::Get().Enable();
  TraceInstant("a");
  TraceInstant("b", "key", "val");
  Tracer::Get().Disable();
  std::string path = TempPath("obs_trace.jsonl");
  std::string error;
  ASSERT_TRUE(Tracer::Get().ExportJsonl(path, &error)) << error;
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    JsonValue parsed;
    EXPECT_TRUE(JsonParser(line).Parse(&parsed)) << line;
    EXPECT_EQ(parsed.kind, JsonValue::Kind::kObject);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(TracerTest, RingOverflowKeepsNewestAndCountsDrops) {
  Tracer::Get().Enable(/*events_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    TraceInstant("overflow.event");
  }
  Tracer::Get().Disable();
  std::vector<TraceEventRecord> events = Tracer::Get().Collect();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(Tracer::Get().DroppedEvents(), 12u);
  // The survivors are the newest events: strictly increasing timestamps with
  // the first survivor later than the overall start.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
}

TEST_F(TracerTest, ConcurrentSpansAcrossThreads) {
  Tracer::Get().Enable();
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedSpan span("worker.span");
        TraceInstant("worker.tick");
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  Tracer::Get().Disable();
  std::vector<TraceEventRecord> events = Tracer::Get().Collect();
  EXPECT_EQ(events.size() + Tracer::Get().DroppedEvents(),
            static_cast<size_t>(kThreads) * kSpans * 2);
  // Collect is sorted by (tid, ts).
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].tid == events[i - 1].tid) {
      EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
    } else {
      EXPECT_GT(events[i].tid, events[i - 1].tid);
    }
  }
}

// A SAT query's span splits encoding (bit-blasting and clause intake) from
// the CDCL search: every solver.query span holds exactly one solver.encode
// span, one level deeper and within its bounds.
TEST_F(TracerTest, SolverQuerySpanContainsEncodeSpan) {
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  Tracer::Get().Enable();
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(ctx.Mul(x, x), ctx.Const(49, 32))));
  EXPECT_FALSE(solver.IsSatisfiable({ctx.Ult(x, ctx.Const(3, 32))},
                                    ctx.Eq(x, ctx.Const(9, 32))));
  Tracer::Get().Disable();

  std::vector<const TraceEventRecord*> queries;
  std::vector<const TraceEventRecord*> encodes;
  std::vector<TraceEventRecord> events = Tracer::Get().Collect();
  for (const TraceEventRecord& ev : events) {
    if (ev.phase != 'X') {
      continue;
    }
    if (std::string(ev.name) == "solver.query") {
      queries.push_back(&ev);
    } else if (std::string(ev.name) == "solver.encode") {
      encodes.push_back(&ev);
    }
  }
  ASSERT_EQ(queries.size(), 2u);
  ASSERT_EQ(encodes.size(), 2u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const TraceEventRecord& query = *queries[i];
    const TraceEventRecord& encode = *encodes[i];
    EXPECT_EQ(encode.tid, query.tid);
    EXPECT_EQ(encode.depth, query.depth + 1);
    EXPECT_GE(encode.ts_us, query.ts_us);
    EXPECT_LE(encode.ts_us + encode.dur_us, query.ts_us + query.dur_us + 5e-3);
  }
}

#endif  // DDT_OBS_DISABLED

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

TEST(ProfilerTest, DerivesInterpretBySubtraction) {
  PassProfile profile;
  profile.Add(Phase::kDecode, 100);
  profile.Add(Phase::kSolver, 300);
  profile.Add(Phase::kChecker, 100);
  profile.Add(Phase::kJournal, 1'000'000);  // outside the engine run: excluded
  profile.SetTotalAndDeriveInterpret(1000);
  PhaseBreakdown breakdown = profile.Snapshot();
  EXPECT_EQ(breakdown.phase_ns(Phase::kInterpret), 500u);
  EXPECT_EQ(breakdown.total_ns, 1000u);
  std::string summary = breakdown.Summary();
  EXPECT_NE(summary.find("solver"), std::string::npos) << summary;
  EXPECT_NE(summary.find("interpret"), std::string::npos) << summary;
}

TEST(ProfilerTest, InterpretNeverUnderflows) {
  PassProfile profile;
  profile.Add(Phase::kSolver, 5000);
  profile.SetTotalAndDeriveInterpret(1000);  // claimed > total (clock skew)
  EXPECT_EQ(profile.Snapshot().phase_ns(Phase::kInterpret), 0u);
}

TEST(ProfilerTest, ScopedPhaseIsNullSafe) {
  { ScopedPhase phase(nullptr, Phase::kSolver); }
  PassProfile profile;
  {
    ScopedPhase phase(&profile, Phase::kDecode);
  }
  // A timed scope records a sane duration (zero is possible on a coarse
  // clock, but not a wild value).
  EXPECT_LT(profile.Snapshot().phase_ns(Phase::kDecode), 1'000'000'000u);
}

TEST(ProfilerTest, CampaignProfileRanksSlowestFirst) {
  CampaignProfile profile;
  for (size_t i = 0; i < 4; ++i) {
    CampaignProfile::PassEntry entry;
    entry.index = i;
    entry.label = "plan" + std::to_string(i);
    entry.wall_ms = static_cast<double>(10 * (i + 1));
    entry.phases.total_ns = static_cast<uint64_t>(entry.wall_ms * 1e6);
    profile.passes.push_back(entry);
  }
  profile.passes[1].quarantined = true;  // excluded from the ranking
  std::string top = profile.FormatTopPasses(2);
  size_t p3 = top.find("plan3");
  size_t p2 = top.find("plan2");
  EXPECT_NE(p3, std::string::npos) << top;
  EXPECT_NE(p2, std::string::npos) << top;
  EXPECT_LT(p3, p2) << top;
  EXPECT_EQ(top.find("plan1"), std::string::npos) << top;  // quarantined
  EXPECT_EQ(top.find("plan0"), std::string::npos) << top;  // beyond top-2

  profile.fault_site_occurrences["allocation"] = 12;
  profile.fault_site_occurrences["map-io-space"] = 3;
  std::string hot = profile.FormatHotFaultSites(8);
  size_t alloc = hot.find("allocation: 12");
  size_t map = hot.find("map-io-space: 3");
  EXPECT_NE(alloc, std::string::npos) << hot;
  EXPECT_NE(map, std::string::npos) << hot;
  EXPECT_LT(alloc, map) << hot;
}

}  // namespace
}  // namespace ddt::obs
