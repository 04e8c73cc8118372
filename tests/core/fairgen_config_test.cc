#include "core/fairgen_config.h"

#include <gtest/gtest.h>

namespace fairgen {
namespace {

TEST(FairGenConfigTest, DefaultsAreValid) {
  FairGenConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsBadWalkLength) {
  FairGenConfig cfg;
  cfg.walk_length = 1;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(FairGenConfigTest, RejectsZeroWalks) {
  FairGenConfig cfg;
  cfg.num_walks = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsBadRatio) {
  FairGenConfig cfg;
  cfg.general_ratio = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.general_ratio = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsNegativeLossWeights) {
  FairGenConfig cfg;
  cfg.alpha = -1.0f;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsBadLambda) {
  FairGenConfig cfg;
  cfg.lambda = 0.0f;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.lambda = 0.5f;
  cfg.lambda_growth = 0.9f;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsIndivisibleHeads) {
  FairGenConfig cfg;
  cfg.embedding_dim = 30;
  cfg.num_heads = 4;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsBadRates) {
  FairGenConfig cfg;
  cfg.generator_lr = 0.0f;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.generator_lr = 1e-3f;
  cfg.temperature = 0.0f;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(FairGenConfigTest, RejectsEmptyGeneratorBatches) {
  FairGenConfig cfg;
  cfg.generator_batch = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(FairGenVariantTest, NamesMatchPaper) {
  EXPECT_EQ(FairGenVariantName(FairGenVariant::kFull), "FairGen");
  EXPECT_EQ(FairGenVariantName(FairGenVariant::kRandom), "FairGen-R");
  EXPECT_EQ(FairGenVariantName(FairGenVariant::kNoSelfPaced),
            "FairGen-w/o-SPL");
  EXPECT_EQ(FairGenVariantName(FairGenVariant::kNoParity),
            "FairGen-w/o-Parity");
}

}  // namespace
}  // namespace fairgen
