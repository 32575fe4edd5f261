// Tests of the benchmark's own ledger: the percentile rule, the metric-name
// charset, the self-time / unattributed arithmetic and the correctness
// checks (each must fail on a planted mismatch).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_THROW(percentile(std::vector<double>{}, 0.5), std::invalid_argument);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_reportable(1000, 0.99));
  EXPECT_FALSE(tail_reportable(999, 0.99));
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(tail_reportable(100, 0.9));
  EXPECT_FALSE(tail_reportable(99, 0.9));
  EXPECT_FALSE(tail_reportable(0, 0.5));
}

TEST(Percentile, WindowedTailIsTheMedianOverWindows) {
  // Three windows of 1000: the middle one has a burst of slow samples.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 1 ? 100.0 * i : i);
  }
  v.push_back(1e9);  // a trailing partial window is dropped
  EXPECT_EQ(windowed_percentile(v, 1000, 0.99), 990.0);
  EXPECT_EQ(windowed_percentile(std::vector<double>(v.begin(), v.end() - 1),
                                3000, 0.99),
            97000.0);  // one window: the plain p99 (30 samples beyond)
  EXPECT_THROW(windowed_percentile(v, 999, 0.99), std::invalid_argument);
  EXPECT_THROW(windowed_percentile(v, 5000, 0.99), std::invalid_argument);
  EXPECT_THROW(windowed_percentile(v, 0, 0.99), std::invalid_argument);
}

TEST(MetricName, Charset) {
  EXPECT_TRUE(valid_metric_name("op_ms_p50"));
  EXPECT_TRUE(valid_metric_name("net.topology_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_hidden"));
  EXPECT_FALSE(valid_metric_name(".dot"));
  EXPECT_FALSE(valid_metric_name("-dash"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name("pct%"));
  EXPECT_FALSE(valid_metric_name("caf\xc3\xa9"));
}

TEST(MetricName, UnitCharset) {
  for (const char* unit : {"ms", "s", "1/s", "count", "%", "MB", "ratio"}) {
    EXPECT_TRUE(valid_unit(unit)) << unit;
  }
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit(std::string(17, 'u')));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(MetricName, ReportRefusesBadMetrics) {
  Report report;
  report.metric("op_ms_p50", 1.5, "ms");
  EXPECT_THROW(report.metric("op_ms_p50", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(report.metric("bad name", 1.0, "ms"), std::invalid_argument);
  EXPECT_THROW(report.metric("ok", 1.0, "m s"), std::invalid_argument);
  EXPECT_THROW(report.metric("nan", std::nan(""), "ms"),
               std::invalid_argument);
  EXPECT_EQ(report.result_json(),
            "{\"correct\":true,\"attempted\":0,\"failed\":0,\"metrics\":"
            "{\"op_ms_p50\":{\"value\":1.5,\"unit\":\"ms\"}}}");
}

// root [0,10] with children a [1,4] and b [5,9]; b has child c [6,7].
std::vector<Span> planted_spans() {
  return {
      {"op", 0.0, 10.0, -1, 7},
      {"a", 1.0, 4.0, 0, 7},
      {"b", 5.0, 9.0, 0, 7},
      {"c", 6.0, 7.0, 2, 7},
  };
}

TEST(Unattributed, SelfTimesAndRemainderSumToOpTime) {
  const LayerTable t = layer_table(planted_spans());
  EXPECT_DOUBLE_EQ(t.self_ms.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(t.self_ms.at("b"), 3.0);  // 4 minus child c's 1
  EXPECT_DOUBLE_EQ(t.self_ms.at("c"), 1.0);
  EXPECT_DOUBLE_EQ(t.unattributed_ms, 3.0);  // 10 minus a and b
  EXPECT_DOUBLE_EQ(t.op_total_ms, 10.0);
  EXPECT_EQ(t.ops, 1u);
  double sum = t.unattributed_ms;
  for (const auto& [name, ms] : t.self_ms) sum += ms;
  EXPECT_DOUBLE_EQ(sum, t.op_total_ms);
  EXPECT_DOUBLE_EQ(t.attributed_fraction(), 0.7);
  EXPECT_DOUBLE_EQ(t.per_op_ms("b"), 3.0);
  EXPECT_DOUBLE_EQ(t.per_op_ms("absent"), 0.0);
}

TEST(Unattributed, AveragesOverOperations) {
  std::vector<Span> spans = planted_spans();
  spans.push_back({"op", 20.0, 22.0, -1, 8});
  spans.push_back({"a", 20.5, 21.5, 4, 8});
  const LayerTable t = layer_table(spans);
  EXPECT_EQ(t.ops, 2u);
  EXPECT_DOUBLE_EQ(t.per_op_ms("a"), 2.0);  // (3 + 1) / 2
  EXPECT_DOUBLE_EQ(t.unattributed_ms, 4.0);  // 3 + 1
}

TEST(Unattributed, MergedTablesEqualOneTable) {
  const std::vector<Span> second{{"op", 20.0, 22.0, -1, 8},
                                 {"a", 20.5, 21.5, 0, 8}};
  LayerTable merged = layer_table(planted_spans());
  merged.merge(layer_table(second));
  std::vector<Span> all = planted_spans();
  all.push_back({"op", 20.0, 22.0, -1, 8});
  all.push_back({"a", 20.5, 21.5, 4, 8});
  const LayerTable one = layer_table(all);
  EXPECT_EQ(merged.self_ms, one.self_ms);
  EXPECT_DOUBLE_EQ(merged.unattributed_ms, one.unattributed_ms);
  EXPECT_DOUBLE_EQ(merged.op_total_ms, one.op_total_ms);
  EXPECT_EQ(merged.ops, one.ops);
}

TEST(Unattributed, RejectsDanglingParent) {
  std::vector<Span> spans = planted_spans();
  spans[1].parent = 9;
  EXPECT_THROW(layer_table(spans), std::invalid_argument);
}

TEST(Spans, LogNestsAndClosesInnermostFirst) {
  SpanLog log;
  {
    const ScopedSpan root(&log, "op", 1);
    const ScopedSpan child(&log, "child", 1);
  }
  const ScopedSpan none(nullptr, "ignored", 1);
  const std::vector<Span> spans = log.take();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
  EXPECT_GE(spans[0].end_ms, spans[1].end_ms);

  SpanLog bad;
  const std::int32_t outer = bad.open("outer", 1);
  bad.open("inner", 1);
  EXPECT_THROW(bad.close(outer), std::logic_error);
  EXPECT_THROW(bad.take(), std::logic_error);
}

// The mission checks (1 vs N workers, composed traced path vs run_mission)
// and the served-digest check all go through expect_digests.
TEST(Checks, DigestCheckFailsOnPlantedMismatch) {
  const std::vector<std::uint64_t> good{11, 22, 33, 44};
  Report ok;
  EXPECT_TRUE(ok.expect_digests("same", good, good));
  EXPECT_TRUE(ok.correct());

  std::vector<std::uint64_t> planted = good;
  planted[2] ^= 1;
  Report report;
  report.ops(4, 0);
  EXPECT_FALSE(report.expect_digests("planted", good, planted));
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.failed(), 1u);
  ASSERT_EQ(report.mismatches().size(), 1u);
  EXPECT_NE(report.mismatches()[0].find("index 2"), std::string::npos);
  EXPECT_NE(report.result_json().find("\"correct\":false"), std::string::npos);
}

TEST(Checks, DigestCheckFailsOnMissingOperations) {
  const std::vector<std::uint64_t> good{1, 2, 3};
  const std::vector<std::uint64_t> shorter{1, 2};
  Report report;
  EXPECT_FALSE(report.expect_digests("short", good, shorter));
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_EQ(first_mismatch(good, shorter), std::optional<std::size_t>(2));
  EXPECT_EQ(first_mismatch(good, good), std::nullopt);
}

TEST(Checks, FoldIsOrderSensitive) {
  const std::vector<std::uint64_t> ab{1, 2}, ba{2, 1};
  EXPECT_NE(fold_digests(ab), fold_digests(ba));
  EXPECT_EQ(fold_digests(ab), fold_digests(std::vector<std::uint64_t>{1, 2}));
}

// The plan-cold checks (pinned utility/visits, a template's plans agreeing
// across fresh planners) go through expect_value.
TEST(Checks, ValueCheckFailsOnPlantedMismatch) {
  Report report;
  EXPECT_TRUE(report.expect_value("pinned utility", 904708.12270134501,
                                  904708.12270134501));
  EXPECT_TRUE(report.correct());
  EXPECT_FALSE(report.expect_value("pinned utility", 904708.12270134501,
                                   200.0));
  EXPECT_FALSE(report.expect_value("pinned visits", 145.0, 144.0));
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.mismatches().size(), 2u);
  EXPECT_EQ(report.failed(), 2u);
}

TEST(Checks, FailedOperationsAreCounted) {
  Report report;
  report.ops(2, 1);
  report.ops(10, 3);
  EXPECT_EQ(report.attempted(), 12u);
  EXPECT_EQ(report.failed(), 4u);
}

}  // namespace
}  // namespace perfbench
