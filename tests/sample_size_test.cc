// Tests for the Theorem-5 sample-size calculator.

#include <gtest/gtest.h>

#include <cmath>

#include "core/sample_size.h"

namespace vblock {
namespace {

TEST(SampleSizeTest, MatchesFormula) {
  EstimationGuarantee g;
  g.epsilon = 0.1;
  g.l = 1.0;
  g.opt_lower_bound = 1.0;
  const VertexId n = 1000;
  const double expected = 1.0 * 2.1 * 1000.0 * std::log(1000.0) / 0.01;
  EXPECT_EQ(RequiredSampleCount(n, g),
            static_cast<uint64_t>(std::ceil(expected)));
}

TEST(SampleSizeTest, MonotoneInParameters) {
  EstimationGuarantee base;
  base.epsilon = 0.2;
  base.l = 1.0;
  base.opt_lower_bound = 5.0;
  const uint64_t theta = RequiredSampleCount(500, base);

  EstimationGuarantee tighter = base;
  tighter.epsilon = 0.1;
  EXPECT_GT(RequiredSampleCount(500, tighter), theta);

  EstimationGuarantee safer = base;
  safer.l = 2.0;
  EXPECT_GT(RequiredSampleCount(500, safer), theta);

  EstimationGuarantee easier = base;
  easier.opt_lower_bound = 50.0;
  EXPECT_LT(RequiredSampleCount(500, easier), theta);

  EXPECT_GT(RequiredSampleCount(5000, base), theta);
}

TEST(SampleSizeTest, EpsilonInverseIsConsistent) {
  // GuaranteedEpsilon(θ(ε)) ≈ ε.
  EstimationGuarantee g;
  g.epsilon = 0.15;
  g.l = 1.5;
  g.opt_lower_bound = 3.0;
  const VertexId n = 2000;
  const uint64_t theta = RequiredSampleCount(n, g);
  const double eps = GuaranteedEpsilon(n, theta, g.l, g.opt_lower_bound);
  EXPECT_NEAR(eps, g.epsilon, 0.01);
}

TEST(SampleSizeTest, EpsilonDecreasesWithTheta) {
  const double e1 = GuaranteedEpsilon(1000, 10000, 1.0, 1.0);
  const double e2 = GuaranteedEpsilon(1000, 1000000, 1.0, 1.0);
  EXPECT_LT(e2, e1);
}

}  // namespace
}  // namespace vblock
