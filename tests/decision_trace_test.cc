// The decision-trace wire format and the name table behind it: golden
// JSONL lines written by the string-carrying event of earlier releases
// must parse, re-serialize byte for byte, and pass through the RingTracer
// unchanged; the parser must reject bad bytes with a Status, never crash
// or invoke undefined behaviour (the UBSan job builds with
// -fsanitize=float-cast-overflow); and interning must be safe against
// concurrent lock-free resolution.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/name_table.h"
#include "obs/ring_tracer.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "verify/guarantee_audit.h"

namespace scrpqo {
namespace {

// Every outcome, without and then with a template; ring-dropped lines
// carry "dropped", decisions in the second half carry "stages" (the
// optimized ones name every stage). Written by the serializer of the
// string-carrying DecisionEvent; seq runs 0..17 so a RingTracer, which
// re-stamps seq in record order, reproduces the lines exactly.
const char* const kGoldenLines[] = {
    R"golden({"seq":0,"instance":7,"technique":"SCR2","outcome":"sel-check-hit","matched":3,"g":1.0625,"l":1.25,"r":-1,"s":1.0009765625,"lambda":2,"candidates":0,"recosts":0,"wall_us":1})golden",
    R"golden({"seq":1,"instance":14,"technique":"SCR1.1(k=10)","outcome":"cost-check-hit","matched":12,"g":1.3,"l":1.0000000000000002,"r":0.98765432109876539,"s":1.05,"lambda":1.1000000000000001,"candidates":8,"recosts":3,"wall_us":4})golden",
    R"golden({"seq":2,"instance":21,"technique":"SCR2(dyn)","outcome":"optimized","matched":5,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":2,"recosts":2,"wall_us":137})golden",
    R"golden({"seq":3,"instance":28,"technique":"PCM2+R","outcome":"redundant-discard","matched":1,"g":-1,"l":-1,"r":1.2,"s":1.2,"lambda":1.4142135623730951,"candidates":6,"recosts":0,"wall_us":250})golden",
    R"golden({"seq":4,"instance":35,"technique":"SCR2(k=1)","outcome":"evicted","matched":0,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":0,"wall_us":0})golden",
    R"golden({"seq":5,"instance":42,"technique":"online-auditor","outcome":"audit-alert","matched":2,"g":3.5,"l":1.2,"r":-1,"s":1.1000000000000001,"lambda":2,"candidates":0,"recosts":0,"wall_us":0})golden",
    R"golden({"seq":6,"instance":49,"technique":"ring-tracer","outcome":"ring-dropped","matched":-1,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":0,"wall_us":0,"dropped":4096})golden",
    R"golden({"seq":7,"instance":56,"technique":"AsyncSCR2","outcome":"degraded","matched":-1,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":5,"wall_us":1234567})golden",
    R"golden({"seq":8,"instance":63,"technique":"optimizer.fail","outcome":"fault-injected","matched":-1,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":0,"wall_us":0})golden",
    R"golden({"seq":9,"instance":70,"technique":"SCR2","template":"rd2_t3_d2 \"quoted\"\\path\ttab","outcome":"sel-check-hit","matched":3,"g":1.0625,"l":1.25,"r":-1,"s":1.0009765625,"lambda":2,"candidates":0,"recosts":0,"wall_us":1,"stages":{"shard_wait":0,"sel_check":2}})golden",
    R"golden({"seq":10,"instance":77,"technique":"SCR1.1(k=10)","template":"tpch_shipping","outcome":"cost-check-hit","matched":12,"g":1.3,"l":1.0000000000000002,"r":0.98765432109876539,"s":1.05,"lambda":1.1000000000000001,"candidates":8,"recosts":3,"wall_us":4,"stages":{"shard_wait":0,"sel_check":2,"batch_recost":3}})golden",
    R"golden({"seq":11,"instance":84,"technique":"SCR2(dyn)","template":"tpch_shipping","outcome":"optimized","matched":5,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":2,"recosts":2,"wall_us":137,"stages":{"shard_wait":0,"svector":2147483,"index_probe":0,"sel_check":2,"recost":1,"optimize":120,"manage_cache":9,"batch_recost":3}})golden",
    R"golden({"seq":12,"instance":91,"technique":"PCM2+R","template":"tpch_shipping","outcome":"redundant-discard","matched":1,"g":-1,"l":-1,"r":1.2,"s":1.2,"lambda":1.4142135623730951,"candidates":6,"recosts":0,"wall_us":250,"stages":{"shard_wait":0,"svector":2147483,"index_probe":0,"sel_check":2,"recost":1,"optimize":120,"manage_cache":9,"batch_recost":3}})golden",
    R"golden({"seq":13,"instance":98,"technique":"SCR2(k=1)","template":"tpch_shipping","outcome":"evicted","matched":0,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":0,"wall_us":0})golden",
    R"golden({"seq":14,"instance":105,"technique":"online-auditor","template":"tpch_shipping","outcome":"audit-alert","matched":2,"g":3.5,"l":1.2,"r":-1,"s":1.1000000000000001,"lambda":2,"candidates":0,"recosts":0,"wall_us":0})golden",
    R"golden({"seq":15,"instance":112,"technique":"ring-tracer","template":"tpch_shipping","outcome":"ring-dropped","matched":-1,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":0,"wall_us":0,"dropped":4096})golden",
    R"golden({"seq":16,"instance":119,"technique":"AsyncSCR2","template":"tpch_shipping","outcome":"degraded","matched":-1,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":5,"wall_us":1234567,"stages":{"shard_wait":0,"sel_check":2,"batch_recost":3}})golden",
    R"golden({"seq":17,"instance":126,"technique":"optimizer.fail","template":"tpch_shipping","outcome":"fault-injected","matched":-1,"g":-1,"l":-1,"r":-1,"s":-1,"lambda":-1,"candidates":0,"recosts":0,"wall_us":0})golden",
};

std::vector<DecisionEvent> ParseGolden() {
  std::vector<DecisionEvent> events;
  for (const char* line : kGoldenLines) {
    auto parsed = DecisionEventFromJsonl(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (parsed.ok()) events.push_back(parsed.ValueOrDie());
  }
  return events;
}

TEST(DecisionEventJsonlTest, GoldenLinesReproduceWireBytes) {
  std::vector<DecisionEvent> events = ParseGolden();
  ASSERT_EQ(events.size(), std::size(kGoldenLines));
  for (size_t i = 0; i < events.size(); ++i) {
    // Exact round trip: the fixed-size event re-serializes to the bytes
    // the string-carrying event wrote.
    EXPECT_EQ(DecisionEventToJsonl(events[i]), kGoldenLines[i]);
  }
  // Spot-check the unit conversions: whole microseconds on the wire,
  // nanoseconds in memory.
  EXPECT_EQ(events[7].wall_ns, 1234567000);
  EXPECT_EQ(events[11].stages.get(Stage::kSVector), 2147483000);
  EXPECT_EQ(events[9].template_key.str(), "rd2_t3_d2 \"quoted\"\\path\ttab");

  // The same bytes come out of the capture pipeline: recorded through a
  // RingTracer (which re-stamps seq in record order) and streamed by the
  // JSONL file sink.
  std::string path = ::testing::TempDir() + "/golden_trace.jsonl";
  {
    RingTracer tracer(64);
    tracer.AddSink(std::make_shared<JsonlFileSink>(path));
    for (const DecisionEvent& e : events) tracer.Record(e);
    ASSERT_TRUE(tracer.Flush().ok());
  }
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string written;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) written.append(buf, n);
  std::fclose(f);
  std::string expected;
  for (const char* line : kGoldenLines) {
    expected += line;
    expected += '\n';
  }
  EXPECT_EQ(written, expected);

  // And a trace written before the change still audits: the offline
  // auditor reads the file (the alert line is a meta event; the rest
  // claim bounds they satisfy).
  Result<AuditReport> report = AuditTraceFile(path, AuditConfig{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().events_checked,
            static_cast<int64_t>(std::size(kGoldenLines)));
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
  EXPECT_EQ(report.ValueOrDie().by_template.count("tpch_shipping"), 1u);
  std::remove(path.c_str());
}

TEST(DecisionEventJsonlTest, RejectsOutOfRangeIntegerFields) {
  // The line that aborted a float-cast-overflow build.
  EXPECT_FALSE(DecisionEventFromJsonl(
                   R"({"seq":1,"instance":2,"technique":"SCR2",)"
                   R"("outcome":"sel-check-hit","matched":1e300})")
                   .ok());
  const std::string head =
      R"({"seq":1,"instance":2,"technique":"SCR2","outcome":"optimized")";
  for (const char* bad : {
           // int32 fields
           R"("matched":2147483648)", R"("matched":-2147483649)",
           R"("candidates":1e300)", R"("recosts":-1e300)",
           // int64 fields (wall_us is scaled to ns)
           R"("dropped":1e19)", R"("dropped":-1e300)",
           R"("wall_us":9223372036854776)", R"("wall_us":-1e300)",
           // stages: non-negative, at most ~2.1 s
           R"("stages":{"optimize":2147484})",
           R"("stages":{"optimize":-1})", R"("stages":{"recost":1e300})",
           R"("stages":{"recost":nan})"}) {
    std::string line = head + "," + bad + "}";
    EXPECT_FALSE(DecisionEventFromJsonl(line).ok()) << line;
  }
  for (const char* bad_head :
       {R"({"seq":1e300,"instance":2,"outcome":"optimized"})",
        R"({"seq":-9.3e18,"instance":2,"outcome":"optimized"})",
        R"({"seq":1,"instance":3e9,"outcome":"optimized"})",
        R"({"seq":1,"instance":-1e300,"outcome":"optimized"})"}) {
    EXPECT_FALSE(DecisionEventFromJsonl(bad_head).ok()) << bad_head;
  }
  // The extremes that do fit still parse, and round-trip.
  std::string edge = head +
                     R"(,"matched":2147483647,"candidates":-2147483648,)"
                     R"("wall_us":9007199254740992,"dropped":1,)"
                     R"("stages":{"optimize":2147483}})";
  auto parsed = DecisionEventFromJsonl(edge);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().matched_entry, 2147483647);
  EXPECT_EQ(parsed.ValueOrDie().wall_ns, int64_t{9007199254740992} * 1000);
  auto again = DecisionEventFromJsonl(DecisionEventToJsonl(parsed.ValueOrDie()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(DecisionEventToJsonl(again.ValueOrDie()),
            DecisionEventToJsonl(parsed.ValueOrDie()));
}

TEST(DecisionEventJsonlTest, MutatedGoldenLinesParseOrFail) {
  // Seeded byte-level mutations (as the SQL parser sweeps): erase,
  // insert, overwrite with any byte, or splice in a token that pushes a
  // number out of range. Every line must parse or return a Status; an
  // accepted line must re-serialize to one that parses back to the same
  // bytes.
  static const char* const kSplices[] = {
      "e300", "e-400", "9999999999", "-", "nan", "inf", "0x1p70", "\"",
      "\\",   "\\u",   "{",          "}", ":",   ",",   ".",      " "};
  Pcg32 rng(20170514);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string line = kGoldenLines[rng.UniformInt(
        0, static_cast<int64_t>(std::size(kGoldenLines)) - 1)];
    const int edits = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(line.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          line.erase(pos, 1);
          break;
        case 1:
          line.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
          break;
        case 2:
          line[pos] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        default:
          line.insert(pos, kSplices[rng.UniformInt(
                               0, static_cast<int64_t>(std::size(kSplices)) -
                                      1)]);
          break;
      }
      if (line.empty()) line = "{";
    }
    Result<DecisionEvent> r = DecisionEventFromJsonl(line);
    if (!r.ok()) {
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string out = DecisionEventToJsonl(r.ValueOrDie());
    Result<DecisionEvent> back = DecisionEventFromJsonl(out);
    ASSERT_TRUE(back.ok()) << line << "\n" << out;
    EXPECT_EQ(DecisionEventToJsonl(back.ValueOrDie()), out);
  }
  // Some mutations land in places the parser tolerates, most must not.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(NameTableTest, InternDedupesAndResolves) {
  EXPECT_TRUE(NameId().empty());
  EXPECT_EQ(NameId().str(), "");
  EXPECT_EQ(NameId::Intern(""), NameId());
  const NameId a = NameId::Intern("name-table-test-a");
  const NameId b = NameId::Intern("name-table-test-b");
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a, b);
  EXPECT_EQ(NameId::Intern(std::string("name-table-test-a")), a);
  EXPECT_EQ(a.str(), "name-table-test-a");
  // Bytes, not C strings: embedded NULs are part of the name.
  const std::string with_nul("x\0y", 3);
  EXPECT_EQ(NameId::Intern(with_nul).str(), with_nul);
  EXPECT_NE(NameId::Intern(with_nul), NameId::Intern("x"));
}

TEST(NameTableTest, InterningRacesResolution) {
  // Writers intern fresh names (crossing several 1024-name chunks) and
  // publish the ids; readers resolve every published id while interning
  // continues. Resolution takes no lock, so TSan checks the publication
  // order; the values check dedupe across racing writers.
  constexpr int kNames = 3000;
  std::vector<std::atomic<NameId>> published(kNames);
  std::atomic<int> writers_done{0};
  auto name_of = [](int i) { return "race-" + std::to_string(i); };
  auto writer = [&](int start) {
    for (int k = 0; k < kNames; ++k) {
      const int i = (start + k) % kNames;
      const NameId id = NameId::Intern(name_of(i));
      const NameId prev = published[static_cast<size_t>(i)].exchange(id);
      if (!prev.empty()) {
        EXPECT_EQ(prev, id);
      }
    }
    writers_done.fetch_add(1);
  };
  auto reader = [&] {
    do {
      for (int i = 0; i < kNames; ++i) {
        const NameId id = published[static_cast<size_t>(i)].load();
        if (!id.empty()) {
          EXPECT_EQ(id.str(), name_of(i));
        }
      }
    } while (writers_done.load() < 2);
  };
  std::thread w1(writer, 0);
  std::thread w2(writer, kNames / 2);
  std::thread r1(reader);
  std::thread r2(reader);
  w1.join();
  w2.join();
  r1.join();
  r2.join();
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(published[static_cast<size_t>(i)].load().str(), name_of(i));
  }
}

}  // namespace
}  // namespace scrpqo
