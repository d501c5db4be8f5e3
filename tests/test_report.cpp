// The post-mortem analyzer behind `cipnet report`: format auto-detection
// across the four artifact kinds (span JSONL, Chrome traces, flight dumps,
// sample streams), aggregation, and the three renderers.

#include <gtest/gtest.h>

#include <string>

#include "obs/postmortem.h"
#include "util/error.h"
#include "util/json.h"

namespace cipnet {
namespace {

const char* kSpanTrace =
    R"({"event":"span","name":"reach.explore","path":"profile/reach.explore","depth":1,"start_ns":1000,"dur_ns":500000,"job":3})"
    "\n"
    R"({"event":"span","name":"structure.scc","path":"profile/structure.scc","depth":1,"start_ns":600000,"dur_ns":20000,"job":3})"
    "\n"
    R"({"event":"span","name":"reach.explore","path":"profile/reach.explore","depth":1,"start_ns":700000,"dur_ns":300000,"job":4})"
    "\n"
    R"({"event":"counters","counters":{"reach.states":320,"reach.edges":976,"idle.zero":0,"reach.packed.selected":1,"reach.packed.fallbacks":0,"store.ckpt.writes":3,"store.corrupt.skipped":1,"svc.cache.hit":2}})"
    "\n";

const char* kProgressAndSamples =
    R"({"event":"progress","phase":"reach.explore","items":100,"frontier":12,"items_per_sec":5000.0,"elapsed_ms":20,"peak_rss_bytes":1048576,"final":false})"
    "\n"
    R"({"event":"progress","phase":"reach.explore","items":320,"frontier":0,"items_per_sec":6000.0,"elapsed_ms":53,"peak_rss_bytes":2097152,"final":true})"
    "\n"
    R"({"event":"sample","seq":1,"ns":1000000,"rss_bytes":1048576,"counters":{"reach.states":100},"gauges":{},"histograms":{}})"
    "\n"
    R"({"event":"sample","seq":2,"ns":2000000,"rss_bytes":2097152,"counters":{"reach.states":320},"gauges":{},"histograms":{}})"
    "\n";

const char* kFlightDump =
    R"({"event":"flight_dump","reason":"serve-exit","recorded":5,"discarded":2,"events":5})"
    "\n"
    R"({"seq":0,"ns":10,"job":1,"kind":"job_submitted","detail":"reach"})"
    "\n"
    R"({"seq":1,"ns":20,"job":1,"kind":"job_started","detail":"reach"})"
    "\n"
    R"({"seq":2,"ns":30,"job":1,"kind":"fault_fired","detail":"reach.cancel"})"
    "\n"
    R"({"seq":3,"ns":40,"job":2,"kind":"fault_fired","detail":"reach.cancel"})"
    "\n"
    R"({"seq":4,"ns":50,"job":3,"kind":"fault_fired","detail":"svc.parse"})"
    "\n";

const char* kChromeTrace =
    R"({"displayTimeUnit":"ms","traceEvents":[)"
    R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"cipnet"}},)"
    R"({"ph":"X","name":"reach.explore","ts":1.5,"dur":2000.0,"pid":1,"tid":1},)"
    R"({"ph":"C","name":"states","ts":3.0,"pid":1,"args":{"states":10}}]})";

TEST(Report, SpanJsonlAggregatesPhasesAndTopSpans) {
  obs::PostMortemBuilder builder;
  EXPECT_EQ(builder.ingest("trace.jsonl", kSpanTrace), 4u);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_spans);
  EXPECT_EQ(pm.lines, 4u);
  EXPECT_EQ(pm.skipped, 0u);

  ASSERT_EQ(pm.phases.size(), 2u);
  // Sorted by total time descending: explore (800µs) before scc (20µs).
  EXPECT_EQ(pm.phases[0].name, "reach.explore");
  EXPECT_EQ(pm.phases[0].count, 2u);
  EXPECT_EQ(pm.phases[0].total_ns, 800000u);
  EXPECT_EQ(pm.phases[0].max_ns, 500000u);
  EXPECT_EQ(pm.phases[1].name, "structure.scc");

  ASSERT_EQ(pm.top_spans.size(), 3u);
  EXPECT_EQ(pm.top_spans[0].dur_ns, 500000u);
  EXPECT_EQ(pm.top_spans[0].path, "profile/reach.explore");
  EXPECT_EQ(pm.top_spans[0].job, 3u);

  // Zero-valued counters are elided from the final snapshot.
  ASSERT_EQ(pm.final_counters.size(), 6u);
  for (const auto& [name, value] : pm.final_counters) {
    EXPECT_NE(name, "idle.zero");
    EXPECT_NE(name, "reach.packed.fallbacks");
  }
}

TEST(Report, ProgressAndSampleStreamsBuildCurves) {
  obs::PostMortemBuilder builder;
  builder.ingest("samples.jsonl", kProgressAndSamples);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_progress);
  EXPECT_TRUE(pm.saw_samples);

  ASSERT_EQ(pm.progress.size(), 2u);
  EXPECT_EQ(pm.progress[1].items, 320u);
  EXPECT_DOUBLE_EQ(pm.progress[1].items_per_sec, 6000.0);

  ASSERT_EQ(pm.samples.size(), 2u);
  EXPECT_EQ(pm.samples[0].states, 100u);
  EXPECT_EQ(pm.samples[1].rss_bytes, 2097152u);
}

TEST(Report, FlightDumpYieldsKindAndFaultSiteBreakdown) {
  obs::PostMortemBuilder builder;
  EXPECT_EQ(builder.ingest("flight.jsonl", kFlightDump), 6u);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_flight);
  EXPECT_EQ(pm.flight_recorded, 5u);
  EXPECT_EQ(pm.flight_discarded, 2u);

  ASSERT_FALSE(pm.flight_kinds.empty());
  EXPECT_EQ(pm.flight_kinds[0].first, "fault_fired");  // most frequent first
  EXPECT_EQ(pm.flight_kinds[0].second, 3u);

  ASSERT_EQ(pm.fault_sites.size(), 2u);
  EXPECT_EQ(pm.fault_sites[0].site, "reach.cancel");
  EXPECT_EQ(pm.fault_sites[0].fired, 2u);
  EXPECT_EQ(pm.fault_sites[1].site, "svc.parse");
}

TEST(Report, ChromeTraceIsDetectedAndCompleteEventsIngested) {
  obs::PostMortemBuilder builder;
  // 3 traceEvents, only the ph:"X" one is a span; M and C are skipped.
  EXPECT_EQ(builder.ingest("trace.json", kChromeTrace), 3u);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_spans);
  EXPECT_EQ(pm.skipped, 2u);
  ASSERT_EQ(pm.top_spans.size(), 1u);
  // Chrome timestamps are microseconds: ts 1.5µs → 1500ns, dur 2000µs.
  EXPECT_EQ(pm.top_spans[0].start_ns, 1500u);
  EXPECT_EQ(pm.top_spans[0].dur_ns, 2000000u);
}

TEST(Report, MalformedLinesAreSkippedNotFatal) {
  obs::PostMortemBuilder builder;
  const std::string text =
      "not json at all\n"
      "{\"event\":\"span\",\"name\":\"ok\",\"start_ns\":1,\"dur_ns\":2}\n"
      "[1,2,3]\n"
      "{\"event\":\"mystery\"}\n";
  builder.ingest("mixed.jsonl", text);
  const obs::PostMortem pm = builder.finish();
  EXPECT_EQ(pm.lines, 4u);
  EXPECT_EQ(pm.skipped, 3u);
  ASSERT_EQ(pm.phases.size(), 1u);
  EXPECT_EQ(pm.phases[0].name, "ok");
}

TEST(Report, TopSpansAreCappedByLimit) {
  obs::PostMortemBuilder builder;
  std::string text;
  for (int i = 0; i < 30; ++i) {
    text += "{\"event\":\"span\",\"name\":\"s\",\"start_ns\":0,\"dur_ns\":" +
            std::to_string(100 + i) + "}\n";
  }
  builder.ingest("many.jsonl", text);
  const obs::PostMortem pm = builder.finish(/*top_limit=*/5);
  ASSERT_EQ(pm.top_spans.size(), 5u);
  EXPECT_EQ(pm.top_spans[0].dur_ns, 129u);  // slowest kept
  EXPECT_EQ(pm.phases[0].count, 30u);       // aggregation sees everything
}

obs::PostMortem full_postmortem() {
  obs::PostMortemBuilder builder;
  builder.ingest("trace.jsonl", kSpanTrace);
  builder.ingest("samples.jsonl", kProgressAndSamples);
  builder.ingest("flight.jsonl", kFlightDump);
  return builder.finish();
}

TEST(Report, TextRenderingCoversEverySection) {
  const std::string out = obs::render_postmortem(full_postmortem(), "text");
  for (const char* section :
       {"Phase breakdown", "Top spans", "Throughput", "RSS curve",
        "Flight recorder", "Fault sites", "Final counters"}) {
    EXPECT_NE(out.find(section), std::string::npos) << section;
  }
  EXPECT_NE(out.find("reach.explore"), std::string::npos);
  EXPECT_NE(out.find("reach.cancel"), std::string::npos);
}

TEST(Report, FinalCountersSectionHighlightsEngineAndDurability) {
  const std::string out = obs::render_postmortem(full_postmortem(), "text");
  // Engine-selection, durability, and cache counters are surfaced...
  EXPECT_NE(out.find("reach.packed.selected"), std::string::npos);
  EXPECT_NE(out.find("store.ckpt.writes"), std::string::npos);
  EXPECT_NE(out.find("store.corrupt.skipped"), std::string::npos);
  EXPECT_NE(out.find("svc.cache.hit"), std::string::npos);
  // ...the bulk statistics are not (json carries the full set)...
  EXPECT_EQ(out.find("reach.edges"), std::string::npos);
  // ...and the summary line reports the full count.
  EXPECT_NE(out.find("6 nonzero counter(s) total"), std::string::npos);
}

TEST(Report, MarkdownRenderingEmitsTables) {
  const std::string out = obs::render_postmortem(full_postmortem(), "md");
  EXPECT_NE(out.find("# Post-mortem report"), std::string::npos);
  EXPECT_NE(out.find("| phase | count | total | mean | max |"),
            std::string::npos);
  EXPECT_NE(out.find("|---|"), std::string::npos);
  // "markdown" is an accepted alias.
  EXPECT_EQ(out, obs::render_postmortem(full_postmortem(), "markdown"));
}

TEST(Report, JsonRenderingRoundTripsThroughTheStrictParser) {
  const obs::PostMortem pm = full_postmortem();
  const json::Value doc = json::parse(obs::render_postmortem(pm, "json"));
  const json::Value* ingested = doc.find("ingested");
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->get_number("files", 0), 3.0);
  EXPECT_TRUE(ingested->find("spans")->as_bool());
  EXPECT_TRUE(ingested->find("flight")->as_bool());

  ASSERT_TRUE(doc.find("phases")->is_array());
  EXPECT_EQ(doc.find("phases")->items().size(), pm.phases.size());

  const json::Value* flight = doc.find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->get_number("recorded", 0), 5.0);
  EXPECT_EQ(flight->find("kinds")->get_number("fault_fired", 0), 3.0);
}

TEST(Report, UnknownFormatThrows) {
  EXPECT_THROW((void)obs::render_postmortem(full_postmortem(), "xml"),
               Error);
}

TEST(Report, EmptyInputRendersWithoutSections) {
  obs::PostMortemBuilder builder;
  builder.ingest("empty.jsonl", "");
  const std::string out = obs::render_postmortem(builder.finish(), "text");
  EXPECT_NE(out.find("ingested 1 file(s): 0 line(s)"), std::string::npos);
  EXPECT_EQ(out.find("Phase breakdown"), std::string::npos);
}

}  // namespace
}  // namespace cipnet
