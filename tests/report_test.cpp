// Tests for the CSV experiment exporters.
#include <sstream>

#include <gtest/gtest.h>

#include "birp/metrics/report_csv.hpp"
#include "birp/util/csv.hpp"

namespace birp {
namespace {

metrics::RunMetrics sample_metrics(double offset) {
  metrics::RunMetrics m;
  for (int i = 1; i <= 10; ++i) {
    m.record_request(offset + static_cast<double>(i) / 10.0, i <= 9);
  }
  m.record_slot_loss(10.0 + offset);
  m.record_slot_loss(20.0 + offset);
  m.record_edge_busy(0.5);
  return m;
}

TEST(ReportCsv, CdfExportShape) {
  const auto a = sample_metrics(0.0);
  const auto b = sample_metrics(0.3);
  std::ostringstream out;
  metrics::write_cdf_csv(out, {{"A", &a}, {"B", &b}}, 2.0, 9);
  const auto rows = util::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 10u);  // header + 9 points
  EXPECT_EQ(rows[0], (std::vector<std::string>{"tau", "A", "B"}));
  // CDF columns are monotone nondecreasing and end at 1.
  double prev_a = -1.0;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const double value = std::stod(rows[r][1]);
    EXPECT_GE(value, prev_a);
    prev_a = value;
  }
  EXPECT_DOUBLE_EQ(std::stod(rows.back()[1]), 1.0);
}

TEST(ReportCsv, LossSeriesRoundTrip) {
  const auto a = sample_metrics(0.0);
  std::ostringstream slot_out;
  metrics::write_slot_loss_csv(slot_out, {{"A", &a}});
  auto rows = util::parse_csv(slot_out.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 10.0);
  EXPECT_DOUBLE_EQ(std::stod(rows[2][1]), 20.0);

  std::ostringstream cumulative_out;
  metrics::write_cumulative_loss_csv(cumulative_out, {{"A", &a}});
  rows = util::parse_csv(cumulative_out.str());
  EXPECT_DOUBLE_EQ(std::stod(rows[2][1]), 30.0);
}

TEST(ReportCsv, SummaryHasOneRowPerRun) {
  const auto a = sample_metrics(0.0);
  const auto b = sample_metrics(0.1);
  std::ostringstream out;
  metrics::write_summary_csv(out, {{"A", &a}, {"B", &b}});
  const auto rows = util::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][0], "A");
  EXPECT_EQ(rows[2][0], "B");
}

TEST(ReportCsv, MismatchedHorizonsRejected) {
  const auto a = sample_metrics(0.0);
  metrics::RunMetrics b;
  b.record_slot_loss(1.0);  // only one slot
  std::ostringstream out;
  EXPECT_THROW(metrics::write_slot_loss_csv(out, {{"A", &a}, {"B", &b}}),
               std::logic_error);
}

TEST(ReportCsv, EmptyRunListRejected) {
  std::ostringstream out;
  EXPECT_THROW(metrics::write_summary_csv(out, {}), std::logic_error);
}

}  // namespace
}  // namespace birp
