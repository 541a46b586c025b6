// Negative-path coverage for the shared front-end option layer: config
// parsing must fail loudly on typos (unknown keys, duplicates, bare `key=`)
// instead of silently running with defaults, and the failure message must
// point at the likely fix ("did you mean 'backend'?").
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pss/common/error.hpp"
#include "pss/io/config.hpp"
#include "tools/run_options.hpp"

using namespace pss;

namespace {

Config config_from(std::initializer_list<const char*> kvs) {
  std::vector<const char*> argv = {"test_options"};
  argv.insert(argv.end(), kvs.begin(), kvs.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data(), 1);
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(OptionsNegative, UnknownKeySuggestsNearestKnownKey) {
  const Config cfg = config_from({"bakend=cpu"});
  const std::string msg =
      error_message([&] { tools::require_known_keys(cfg); });
  EXPECT_NE(msg.find("unknown config key 'bakend'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'backend'?"), std::string::npos) << msg;
}

TEST(OptionsNegative, UnknownKeyFarFromEverythingGetsNoSuggestion) {
  const Config cfg = config_from({"zzqqzz=1"});
  const std::string msg =
      error_message([&] { tools::require_known_keys(cfg); });
  EXPECT_NE(msg.find("unknown config key 'zzqqzz'"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
}

TEST(OptionsNegative, ToolSpecificExtraKeysAreAccepted) {
  const Config cfg = config_from({"seed=3", "maps=out/x.pgm"});
  EXPECT_THROW(tools::require_known_keys(cfg), Error);
  EXPECT_NO_THROW(tools::require_known_keys(cfg, {"maps"}));
}

TEST(OptionsNegative, EverySharedKeyIsAcceptedWithoutExtras) {
  Config cfg;
  for (const std::string& key : tools::shared_config_keys()) {
    cfg.set(key, "1");
  }
  EXPECT_NO_THROW(tools::require_known_keys(cfg));
}

TEST(OptionsNegative, DuplicateKeyOnCommandLineIsRejected) {
  const std::string msg =
      error_message([] { config_from({"seed=1", "seed=2"}); });
  EXPECT_NE(msg.find("duplicate config key 'seed'"), std::string::npos) << msg;
}

TEST(OptionsNegative, EmptyValueIsRejected) {
  const std::string msg = error_message([] { config_from({"seed="}); });
  EXPECT_NE(msg.find("config key 'seed' has an empty value"),
            std::string::npos)
      << msg;
}

TEST(OptionsNegative, DuplicateKeyInConfigFileIsRejected) {
  const std::string path = testing::TempDir() + "/pss_dup_key.cfg";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "neurons=100\n# comment line\nneurons=200\n";
  }
  const std::string msg =
      error_message([&] { Config::from_file(path); });
  EXPECT_NE(msg.find("duplicate config key 'neurons'"), std::string::npos)
      << msg;
}

TEST(OptionsNegative, EmptyValueInConfigFileIsRejected) {
  const std::string path = testing::TempDir() + "/pss_empty_value.cfg";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "workers=\n";
  }
  const std::string msg =
      error_message([&] { Config::from_file(path); });
  EXPECT_NE(msg.find("config key 'workers' has an empty value"),
            std::string::npos)
      << msg;
}

TEST(OptionsNegative, BackendTypoGetsSuggestion) {
  const Config cfg = config_from({"backend=cpu_sprase"});
  const std::string msg = error_message(
      [&] { tools::spec_from_config(cfg, "test_options"); });
  EXPECT_NE(msg.find("unknown backend 'cpu_sprase'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("did you mean 'cpu_sparse'?"), std::string::npos) << msg;
}

TEST(OptionsNegative, BackendFarFromEverythingStillListsKnown) {
  // Includes the removed backend names: they are ordinary unknown names.
  for (const char* name : {"tpu9999", "cpu_simd", "cuda"}) {
    const std::string arg = std::string("backend=") + name;
    const Config cfg = config_from({arg.c_str()});
    const std::string msg = error_message(
        [&] { tools::spec_from_config(cfg, "test_options"); });
    EXPECT_NE(msg.find(std::string("unknown backend '") + name + "'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("(known: cpu|cpu_sparse)"), std::string::npos) << msg;
  }
}

TEST(OptionsPositive, ValidConfigStillBuildsASpec) {
  const Config cfg = config_from(
      {"kind=deterministic", "option=8bit", "rounding=trunc", "neurons=40",
       "train=10", "label=5", "eval=5", "seed=7", "backend=cpu"});
  EXPECT_NO_THROW(tools::require_known_keys(cfg));
  const ExperimentSpec spec = tools::spec_from_config(cfg, "test_options");
  EXPECT_EQ(spec.neuron_count, 40u);
  EXPECT_EQ(spec.backend, "cpu");
  EXPECT_EQ(spec.seed, 7u);
}

// --- layers= spec grammar (graph_config_from_options) -----------------------

std::string layers_error(const std::string& spec) {
  const Config cfg = config_from({("layers=" + spec).c_str()});
  return error_message(
      [&] { tools::graph_config_from_options(cfg, WtaConfig{}); });
}

TEST(OptionsLayers, UnknownLayerKindGetsSuggestion) {
  const std::string msg = layers_error("pol:window=2;wta:neurons=10");
  EXPECT_NE(msg.find("unknown layer kind 'pol'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'pool'?"), std::string::npos) << msg;
}

TEST(OptionsLayers, UnknownLayerKeyGetsSuggestion) {
  const std::string msg = layers_error("wta:nurons=10");
  EXPECT_NE(msg.find("unknown key 'nurons' in 'wta' layer"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("did you mean 'neurons'?"), std::string::npos) << msg;
}

TEST(OptionsLayers, BadIntegerIsRejected) {
  const std::string msg = layers_error("wta:neurons=ten");
  EXPECT_NE(msg.find("bad integer 'ten'"), std::string::npos) << msg;
}

TEST(OptionsLayers, TrailingGarbageOnNumberIsRejected) {
  const std::string msg = layers_error("wta:neurons=10,gain=1.5x");
  EXPECT_NE(msg.find("bad number '1.5x'"), std::string::npos) << msg;
}

TEST(OptionsLayers, PoolAfterWtaIsRejected) {
  const std::string msg = layers_error("wta:neurons=10;pool:window=2");
  EXPECT_NE(msg.find("'pool' must precede the WTA blocks"), std::string::npos)
      << msg;
}

TEST(OptionsLayers, MissingWtaBlockIsRejected) {
  const std::string msg = layers_error("conv:filters=4,kernel=5");
  EXPECT_NE(msg.find("at least one 'wta' block is required"),
            std::string::npos)
      << msg;
}

TEST(OptionsLayers, ReadoutMustBeLast) {
  const std::string msg = layers_error("readout:theta=1;wta:neurons=10");
  EXPECT_NE(msg.find("'readout' must be the last layer"), std::string::npos)
      << msg;
}

TEST(OptionsLayers, EncodeMustBeFirst) {
  const std::string msg = layers_error("wta:neurons=10;encode:peak=100");
  EXPECT_NE(msg.find("'encode' must be the first layer"), std::string::npos)
      << msg;
}

TEST(OptionsLayers, LayersKeyTypoSuggestsLayers) {
  const Config cfg = config_from({"layer=wta:neurons=10"});
  const std::string msg =
      error_message([&] { tools::require_known_keys(cfg); });
  EXPECT_NE(msg.find("unknown config key 'layer'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean 'layers'?"), std::string::npos) << msg;
}

TEST(OptionsLayers, AbsentLayersKeyYieldsSingleWtaGraph) {
  const Config cfg = config_from({"seed=3"});
  WtaConfig base;
  base.neuron_count = 17;
  const pss::graph::GraphConfig graph =
      tools::graph_config_from_options(cfg, base);
  EXPECT_TRUE(graph.single_wta());
  ASSERT_EQ(graph.layers.size(), 1u);
  EXPECT_EQ(graph.layers[0].wta.neurons, 17u);
}

TEST(OptionsLayers, ValidStackedSpecParses) {
  const Config cfg = config_from(
      {"layers=encode:temporal=diff;conv:filters=6,kernel=5,bank=gabor;"
       "pool:window=2;wta:neurons=40"});
  const pss::graph::GraphConfig graph =
      tools::graph_config_from_options(cfg, WtaConfig{});
  EXPECT_FALSE(graph.single_wta());
  EXPECT_TRUE(graph.encode.temporal_diff);
  EXPECT_EQ(graph.layers.size(), 3u);
}

TEST(OptionsPositive, CrossSourceOverrideStillWorksViaSet) {
  // pss_run merges file + CLI by calling set() per key — that path must stay
  // overwrite-capable even though one source rejects duplicates.
  Config cfg = config_from({"seed=1"});
  cfg.set("seed", "2");
  EXPECT_EQ(cfg.get_int("seed", 0), 2);
}

}  // namespace
