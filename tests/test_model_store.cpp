// Tests for the crash-safe model store (core/model_store.h): snapshot
// round-trip equality, torn-write rejection at every byte offset, bit-flip
// rejection, fingerprint mismatches, and the load_or_train fallback.

#include "core/model_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dataset/synthetic.h"
#include "net/wire.h"
#include "util/hash.h"
#include "util/rng.h"

namespace cs2p {
namespace {

SyntheticConfig store_world() {
  SyntheticConfig config;
  config.num_isps = 3;
  config.num_provinces = 3;
  config.cities_per_province = 2;
  config.num_servers = 4;
  config.prefixes_per_isp_city = 1;
  config.num_sessions = 1500;
  config.seed = 77;
  return config;
}

Cs2pConfig fast_config() {
  Cs2pConfig config;
  config.hmm.num_states = 3;
  config.hmm.max_iterations = 10;
  config.selector.min_cluster_size = 10;
  config.max_sequences_per_cluster = 20;
  config.max_global_sequences = 120;
  return config;
}

/// Tiny hand-built dataset so the torn-write sweep (one restore attempt per
/// byte offset) stays fast: two throughput levels determined by City.
Dataset tiny_dataset(std::size_t per_city = 8) {
  Dataset train;
  Rng rng(5);
  std::int64_t id = 0;
  for (const auto& [city, level] :
       std::vector<std::pair<std::string, double>>{{"low-city", 1.0},
                                                   {"high-city", 8.0}}) {
    for (std::size_t i = 0; i < per_city; ++i) {
      Session s;
      s.id = id++;
      s.features = {"ISP0", "AS0", "P0", city, "S0", "Pfx-" + city};
      s.start_hour = rng.uniform(0.0, 24.0);
      for (int t = 0; t < 6; ++t)
        s.throughput_mbps.push_back(level * (1.0 + rng.uniform(-0.1, 0.1)));
      train.add(s);
    }
  }
  return train;
}

Cs2pConfig tiny_config() {
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 5;
  config.selector.min_cluster_size = 4;
  config.max_sequences_per_cluster = 8;
  config.max_global_sequences = 16;
  return config;
}

SnapshotErrorCode code_of(const std::string& bytes, Dataset training,
                          const Cs2pConfig& config) {
  try {
    (void)restore_engine_from_bytes(bytes, std::move(training), config);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "restore unexpectedly succeeded";
  return SnapshotErrorCode::kIo;
}

TEST(ModelStore, RoundTripProducesBitIdenticalSessionModels) {
  const Dataset dataset = SyntheticWorld(store_world()).generate();
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pConfig config = fast_config();

  const Cs2pEngine trained(train, config);
  const std::size_t warmed = trained.warm_up();
  ASSERT_GT(warmed, 0u);

  const std::string bytes = serialize_engine(trained);
  const auto restored = restore_engine_from_bytes(bytes, train, config);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->stats().clusters_restored, warmed);

  // Every test session must resolve to an identical per-session model:
  // same HMM parameters bit-for-bit (via the exact-precision text round
  // trip), same initial prediction, same global/cluster routing.
  std::size_t compared = 0;
  for (const auto& s : test.sessions()) {
    const SessionModelRef a = trained.session_model(s.features, s.start_hour);
    const SessionModelRef b = restored->session_model(s.features, s.start_hour);
    ASSERT_NE(a.kernel, nullptr);
    ASSERT_NE(b.kernel, nullptr);
    EXPECT_EQ(serialize_hmm(a.kernel->model()), serialize_hmm(b.kernel->model()));
    EXPECT_EQ(a.initial_prediction, b.initial_prediction);  // bit identical
    EXPECT_EQ(a.used_global_model, b.used_global_model);
    EXPECT_EQ(a.cluster_size, b.cluster_size);
    ++compared;
  }
  EXPECT_GT(compared, 100u);
  // The restore itself ran no EM. Probing test sessions may lazily train
  // clusters the warm-up never saw — but then both engines train the same
  // ones, so the restored engine's EM count is exactly the trained engine's
  // count beyond its warm-up.
  EXPECT_EQ(restored->stats().clusters_trained,
            trained.stats().clusters_trained - warmed);
}

// A snapshot's checksum names a model set, not a memory layout: two engines
// trained and warmed up in one process from the same data (so their
// clusters sit at different addresses) serialize to the same bytes.
TEST(ModelStore, EqualEnginesSerializeToEqualBytes) {
  const Dataset dataset = SyntheticWorld(store_world()).generate();
  auto [train, test] = dataset.split_by_day(1);
  (void)test;
  const Cs2pConfig config = fast_config();
  const Cs2pEngine first(train, config);
  const Cs2pEngine second(train, config);
  ASSERT_GT(first.warm_up(), 1u);
  ASSERT_EQ(second.warm_up(), first.stats().clusters_trained);

  const std::string first_bytes = serialize_engine(first);
  const std::string second_bytes = serialize_engine(second);
  EXPECT_EQ(first_bytes, second_bytes);
  EXPECT_EQ(snapshot_checksum(first_bytes), snapshot_checksum(second_bytes));
}

TEST(ModelStore, SaveRestoreThroughFileAndAtomicity) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);
  engine.warm_up();

  const std::string path = ::testing::TempDir() + "/cs2p_store_file.snapshot";
  save_snapshot(path, engine);
  const auto restored = restore_engine(path, train, config);
  EXPECT_EQ(serialize_hmm(restored->global_hmm()), serialize_hmm(engine.global_hmm()));
  EXPECT_EQ(restored->global_initial(), engine.global_initial());

  // The temp file of the atomic write protocol must not linger.
  const std::string tmp_prefix = path + ".tmp.";
  FILE* f = std::fopen((tmp_prefix + "0").c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f) std::fclose(f);

  // Overwrite-in-place (the retrain path) must also round-trip.
  save_snapshot(path, engine);
  EXPECT_NE(restore_engine(path, train, config), nullptr);
  std::remove(path.c_str());
}

TEST(ModelStore, TruncationAtEveryByteOffsetIsRejected) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);
  engine.warm_up();

  const std::string bytes = serialize_engine(engine);
  ASSERT_NE(restore_engine_from_bytes(bytes, train, config), nullptr)
      << "untruncated snapshot must restore";

  // A torn write can stop after any byte; every prefix must be rejected
  // with a typed error — never UB, never a silently wrong engine.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      (void)restore_engine_from_bytes(bytes.substr(0, len), train, config);
      FAIL() << "truncation to " << len << " bytes was accepted";
    } catch (const SnapshotError&) {
      // expected: typed rejection -> caller falls back to fresh training
    }
  }
}

TEST(ModelStore, BitFlipsAreRejected) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);
  engine.warm_up();

  const std::string bytes = serialize_engine(engine);
  for (std::size_t pos = 0; pos < bytes.size(); pos += 97) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x01);
    EXPECT_THROW(
        (void)restore_engine_from_bytes(corrupted, train, config),
        SnapshotError)
        << "flip at offset " << pos << " was accepted";
  }
}

TEST(ModelStore, PayloadCorruptionIsChecksumMismatch) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);

  std::string bytes = serialize_engine(engine);
  // Flip one digit deep inside the payload (after the header line).
  const std::size_t payload_start = bytes.find('\n') + 1;
  const std::size_t pos = payload_start + bytes.size() / 2 - payload_start / 2;
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x02);
  EXPECT_EQ(code_of(bytes, train, config), SnapshotErrorCode::kChecksumMismatch);
}

TEST(ModelStore, VersionAndMagicMismatch) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);

  std::string bytes = serialize_engine(engine);
  for (const char* tag : {"cs2p-snapshot-v1", "cs2p-snapshot-v9"}) {
    std::string other = bytes;
    other.replace(0, 16, tag);
    EXPECT_EQ(code_of(other, train, config), SnapshotErrorCode::kVersionMismatch)
        << tag;
  }

  std::string garbage = "definitely not a snapshot\n" + bytes;
  EXPECT_EQ(code_of(garbage, train, config), SnapshotErrorCode::kBadMagic);
}

TEST(ModelStore, SnapshotWithoutLineageRecordIsCorrupt) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);

  // Cut the lineage line out of the payload and re-seal the envelope (length
  // and checksum), so only the missing record can fail the restore.
  const std::string bytes = serialize_engine(engine);
  const std::size_t payload_start = bytes.find('\n') + 1;
  const std::size_t footer_start = bytes.rfind("checksum ");
  std::string payload = bytes.substr(payload_start, footer_start - payload_start);
  const std::size_t lineage = payload.find("\nlineage ") + 1;
  ASSERT_NE(lineage, 0u);
  payload.erase(lineage, payload.find('\n', lineage) + 1 - lineage);
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  const std::string resealed = "cs2p-snapshot-v2 " + std::to_string(payload.size()) +
                               "\n" + payload + "checksum " + checksum + "\n";
  EXPECT_EQ(code_of(resealed, train, config), SnapshotErrorCode::kCorruptModel);
}

TEST(ModelStore, SnapshotChecksumIsTheSyncChecksum) {
  const Cs2pEngine engine(tiny_dataset(), tiny_config());
  const std::string bytes = serialize_engine(engine);
  // One FNV-1a on both sides, so a trainer checksums a snapshot once.
  EXPECT_EQ(snapshot_checksum(bytes), sync_checksum(bytes));
  EXPECT_EQ(snapshot_checksum(""), sync_checksum(""));
}

TEST(ModelStore, ConfigAndDatasetMismatch) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const Cs2pEngine engine(train, config);
  const std::string bytes = serialize_engine(engine);

  Cs2pConfig other = config;
  other.hmm.num_states = 4;
  EXPECT_EQ(code_of(bytes, train, other), SnapshotErrorCode::kConfigMismatch);

  Dataset fewer = tiny_dataset(7);
  EXPECT_EQ(code_of(bytes, fewer, config), SnapshotErrorCode::kDatasetMismatch);

  // Same shape, different samples: fingerprint still catches it.
  Dataset tweaked = tiny_dataset();
  tweaked.sessions()[0].throughput_mbps[0] += 0.25;
  EXPECT_EQ(code_of(bytes, tweaked, config), SnapshotErrorCode::kDatasetMismatch);
}

TEST(ModelStore, ConfigFingerprintExcludesTrainerHook) {
  Cs2pConfig a = tiny_config();
  Cs2pConfig b = tiny_config();
  b.trainer = [](const std::vector<std::vector<double>>& seqs,
                 const BaumWelchConfig& cfg) { return train_hmm(seqs, cfg); };
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));

  b = tiny_config();
  b.hmm.seed += 1;
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

TEST(ModelStore, LoadOrTrainFallsBackAndPersists) {
  const Dataset train = tiny_dataset();
  const Cs2pConfig config = tiny_config();
  const std::string path = ::testing::TempDir() + "/cs2p_load_or_train.snapshot";
  std::remove(path.c_str());

  std::string status;
  auto first = load_or_train(path, train, config, /*warm_up=*/true, &status);
  ASSERT_NE(first, nullptr);
  EXPECT_NE(status.find("training fresh"), std::string::npos) << status;
  EXPECT_NE(status.find("snapshot saved"), std::string::npos) << status;

  auto second = load_or_train(path, train, config, /*warm_up=*/true, &status);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(status.find("restored engine"), std::string::npos) << status;
  EXPECT_EQ(serialize_hmm(second->global_hmm()), serialize_hmm(first->global_hmm()));

  // Corrupt the file: the next load must fall back to training and heal the
  // store in place.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputs("XX", f);
    std::fclose(f);
  }
  auto third = load_or_train(path, train, config, /*warm_up=*/true, &status);
  ASSERT_NE(third, nullptr);
  EXPECT_NE(status.find("snapshot unusable"), std::string::npos) << status;

  auto fourth = load_or_train(path, train, config, /*warm_up=*/true, &status);
  ASSERT_NE(fourth, nullptr);
  EXPECT_NE(status.find("restored engine"), std::string::npos) << status;
  std::remove(path.c_str());
}

TEST(ModelStore, EmptyPathTrainsWithoutPersistence) {
  std::string status;
  auto engine = load_or_train("", tiny_dataset(), tiny_config(),
                              /*warm_up=*/false, &status);
  ASSERT_NE(engine, nullptr);
  EXPECT_NE(status.find("no snapshot path"), std::string::npos) << status;
}

}  // namespace
}  // namespace cs2p
