#include "core/model_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/hash.h"

namespace cs2p {
namespace {

constexpr std::string_view kMagic = "cs2p-snapshot";
constexpr std::string_view kMagicV2 = "cs2p-snapshot-v2";
constexpr double kInf = std::numeric_limits<double>::infinity();

// -- fingerprint mixing (FNV-1a 64, util/hash.h) ----------------------------

std::uint64_t fnv_mix_double(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a64_u64(h, bits);
}

std::uint64_t fnv_mix_string(std::uint64_t h, std::string_view s) noexcept {
  h = fnv1a64_u64(h, s.size());
  return fnv1a64(s, h);
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

// -- payload cursor ----------------------------------------------------------

/// Sequential reader over the (already checksum-verified) payload. Any
/// structural surprise past this point is corruption that the checksum
/// could not catch only if the snapshot was *written* wrong — still
/// reported as a typed error, never undefined behaviour.
class Cursor {
 public:
  explicit Cursor(std::string_view payload) : payload_(payload) {}

  std::string_view next_line() {
    if (pos_ >= payload_.size())
      throw SnapshotError(SnapshotErrorCode::kCorruptModel,
                          "payload ended early");
    const std::size_t nl = payload_.find('\n', pos_);
    if (nl == std::string_view::npos)
      throw SnapshotError(SnapshotErrorCode::kCorruptModel,
                          "unterminated payload line");
    std::string_view line = payload_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  /// Takes `n` raw bytes followed by a terminating newline.
  std::string_view take_block(std::size_t n) {
    if (payload_.size() - pos_ < n + 1 || payload_[pos_ + n] != '\n')
      throw SnapshotError(SnapshotErrorCode::kCorruptModel,
                          "length-prefixed block out of range");
    std::string_view block = payload_.substr(pos_, n);
    pos_ += n + 1;
    return block;
  }

  bool at_end() const noexcept { return pos_ >= payload_.size(); }

 private:
  std::string_view payload_;
  std::size_t pos_ = 0;
};

[[noreturn]] void corrupt(const std::string& what) {
  throw SnapshotError(SnapshotErrorCode::kCorruptModel, what);
}

std::istringstream line_stream(std::string_view line) {
  return std::istringstream(std::string(line));
}

/// Expects `tag` as the line's first token; returns a stream positioned
/// after it.
std::istringstream expect_tag(Cursor& cursor, std::string_view tag) {
  auto is = line_stream(cursor.next_line());
  std::string got;
  if (!(is >> got) || got != tag) corrupt("expected '" + std::string(tag) + "' record");
  return is;
}

std::uint64_t parse_hex16(const std::string& token) {
  if (token.size() != 16 ||
      token.find_first_not_of("0123456789abcdef") != std::string::npos)
    corrupt("malformed fingerprint/checksum token");
  return std::stoull(token, nullptr, 16);
}

}  // namespace

std::string_view snapshot_error_code_name(SnapshotErrorCode code) noexcept {
  switch (code) {
    case SnapshotErrorCode::kIo: return "IO";
    case SnapshotErrorCode::kBadMagic: return "BAD_MAGIC";
    case SnapshotErrorCode::kVersionMismatch: return "VERSION_MISMATCH";
    case SnapshotErrorCode::kTruncated: return "TRUNCATED";
    case SnapshotErrorCode::kChecksumMismatch: return "CHECKSUM_MISMATCH";
    case SnapshotErrorCode::kConfigMismatch: return "CONFIG_MISMATCH";
    case SnapshotErrorCode::kDatasetMismatch: return "DATASET_MISMATCH";
    case SnapshotErrorCode::kCorruptModel: return "CORRUPT_MODEL";
  }
  return "UNKNOWN";
}

std::uint64_t snapshot_checksum(const std::string& snapshot_bytes) noexcept {
  return fnv1a64(snapshot_bytes);
}

std::uint64_t config_fingerprint(const Cs2pConfig& config) noexcept {
  std::uint64_t h = kFnv1a64Offset;
  h = fnv1a64_u64(h, config.selector.min_cluster_size);
  h = fnv1a64_u64(h, config.selector.estimation_set_size);
  h = fnv1a64_u64(h, config.hmm.num_states);
  h = fnv1a64_u64(h, static_cast<std::uint64_t>(config.hmm.max_iterations));
  h = fnv_mix_double(h, config.hmm.tolerance);
  h = fnv_mix_double(h, config.hmm.min_sigma);
  h = fnv_mix_double(h, config.hmm.transition_prior);
  h = fnv1a64_u64(h, config.hmm.seed);
  h = fnv1a64_u64(h, config.max_sequences_per_cluster);
  h = fnv1a64_u64(h, config.max_global_sequences);
  h = fnv1a64_u64(h, static_cast<std::uint64_t>(config.prediction_rule));
  h = fnv1a64_u64(h, config.median_initial ? 1 : 0);
  // config.trainer is a test hook, not a semantic parameter: excluded.
  return h;
}

std::uint64_t dataset_fingerprint(const Dataset& dataset) noexcept {
  std::uint64_t h = kFnv1a64Offset;
  h = fnv1a64_u64(h, dataset.size());
  for (const auto& s : dataset.sessions()) {
    h = fnv1a64_u64(h, static_cast<std::uint64_t>(s.id));
    h = fnv1a64_u64(h, static_cast<std::uint64_t>(s.day));
    h = fnv_mix_double(h, s.start_hour);
    h = fnv_mix_double(h, s.epoch_seconds);
    h = fnv_mix_string(h, s.features.isp);
    h = fnv_mix_string(h, s.features.as_number);
    h = fnv_mix_string(h, s.features.province);
    h = fnv_mix_string(h, s.features.city);
    h = fnv_mix_string(h, s.features.server);
    h = fnv_mix_string(h, s.features.client_prefix);
    h = fnv1a64_u64(h, s.throughput_mbps.size());
    for (double w : s.throughput_mbps) h = fnv_mix_double(h, w);
  }
  return h;
}

std::string serialize_engine(const Cs2pEngine& engine) {
  std::ostringstream payload;
  payload.precision(17);

  payload << "config " << hex16(config_fingerprint(engine.config())) << "\n";
  payload << "dataset " << hex16(dataset_fingerprint(engine.training())) << ' '
          << engine.training().size() << "\n";
  // Continuous-training lineage (DESIGN.md §15).
  payload << "lineage " << engine.lineage().generation << ' '
          << hex16(engine.lineage().parent_checksum) << "\n";
  payload << "global-initial " << engine.global_initial() << "\n";

  const std::string global_hmm = serialize_hmm(engine.global_hmm());
  payload << "global-hmm " << global_hmm.size() << "\n" << global_hmm << "\n";

  // Feature-selection error table, sparse: +inf ("cluster removed from
  // consideration") dominates the table and is the implicit default.
  const auto& table = engine.selector().error_table();
  payload << "selector-table " << table.size() << ' '
          << engine.training().size() << "\n";
  for (std::size_t c = 0; c < table.size(); ++c) {
    std::size_t finite = 0;
    for (double err : table[c])
      if (!std::isinf(err)) ++finite;
    if (finite == 0) continue;
    payload << "errs " << c << ' ' << finite;
    for (std::size_t i = 0; i < table[c].size(); ++i)
      if (!std::isinf(table[c][i])) payload << ' ' << i << ' ' << table[c][i];
    payload << "\n";
  }

  const auto cluster_models = engine.export_cluster_models();
  payload << "cluster-models " << cluster_models.size() << "\n";
  for (const auto& entry : cluster_models) {
    const std::string hmm = serialize_hmm(entry.hmm);
    // Bucket keys embed dataset feature values; length-prefix both blocks so
    // no separator choice can collide with their content.
    payload << "cluster " << entry.candidate_id << ' ' << entry.bucket_key.size()
            << ' ' << hmm.size() << "\n"
            << entry.bucket_key << "\n"
            << hmm << "\n";
  }
  payload << "end\n";

  const std::string body = payload.str();
  std::ostringstream out;
  out << kMagicV2 << ' ' << body.size() << "\n"
      << body << "checksum " << hex16(fnv1a64(body)) << "\n";
  return out.str();
}

EngineRestoreData parse_snapshot(const std::string& bytes,
                                 const Cs2pConfig& expected_config,
                                 const Dataset& training) {
  // -- framing: magic, declared length, checksum -----------------------------
  const std::size_t magic_probe = std::min(bytes.size(), kMagic.size());
  if (bytes.compare(0, magic_probe, kMagic, 0, magic_probe) != 0)
    throw SnapshotError(SnapshotErrorCode::kBadMagic, "not a cs2p snapshot");
  const std::size_t header_end = bytes.find('\n');
  if (bytes.size() < kMagic.size() || header_end == std::string::npos)
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "incomplete snapshot header");

  auto header = line_stream(std::string_view(bytes).substr(0, header_end));
  std::string magic;
  std::uint64_t payload_bytes = 0;
  if (!(header >> magic))
    throw SnapshotError(SnapshotErrorCode::kBadMagic, "empty snapshot header");
  if (magic != kMagicV2)
    throw SnapshotError(SnapshotErrorCode::kVersionMismatch,
                        "unsupported snapshot version '" + magic + "'");
  if (!(header >> payload_bytes))
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "snapshot header missing payload length");

  const std::size_t payload_begin = header_end + 1;
  if (bytes.size() - payload_begin < payload_bytes)
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "payload shorter than declared (torn write)");
  const std::string_view payload =
      std::string_view(bytes).substr(payload_begin, payload_bytes);

  const std::string_view footer =
      std::string_view(bytes).substr(payload_begin + payload_bytes);
  const std::size_t footer_nl = footer.find('\n');
  if (footer_nl == std::string_view::npos)
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "missing checksum footer");
  if (footer_nl + 1 != footer.size())
    throw SnapshotError(SnapshotErrorCode::kCorruptModel,
                        "trailing bytes after checksum footer");
  auto footer_line = line_stream(footer.substr(0, footer_nl));
  std::string tag, checksum_hex;
  if (!(footer_line >> tag >> checksum_hex) || tag != "checksum")
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "malformed checksum footer");
  if (parse_hex16(checksum_hex) != fnv1a64(payload))
    throw SnapshotError(SnapshotErrorCode::kChecksumMismatch,
                        "payload checksum mismatch");

  // -- payload ---------------------------------------------------------------
  Cursor cursor(payload);

  {
    auto is = expect_tag(cursor, "config");
    std::string fp;
    if (!(is >> fp)) corrupt("config record missing fingerprint");
    if (parse_hex16(fp) != config_fingerprint(expected_config))
      throw SnapshotError(SnapshotErrorCode::kConfigMismatch,
                          "snapshot was trained under a different config");
  }
  {
    auto is = expect_tag(cursor, "dataset");
    std::string fp;
    std::size_t n = 0;
    if (!(is >> fp >> n)) corrupt("dataset record malformed");
    if (n != training.size() ||
        parse_hex16(fp) != dataset_fingerprint(training))
      throw SnapshotError(SnapshotErrorCode::kDatasetMismatch,
                          "snapshot was trained on a different dataset");
  }

  EngineRestoreData restored;
  {
    auto is = expect_tag(cursor, "lineage");
    std::string parent_hex;
    if (!(is >> restored.lineage.generation >> parent_hex))
      corrupt("lineage record malformed");
    restored.lineage.parent_checksum = parse_hex16(parent_hex);
  }
  {
    auto is = expect_tag(cursor, "global-initial");
    if (!(is >> restored.global_initial) ||
        !std::isfinite(restored.global_initial) || restored.global_initial < 0.0)
      corrupt("global-initial invalid");
  }
  {
    auto is = expect_tag(cursor, "global-hmm");
    std::size_t len = 0;
    if (!(is >> len)) corrupt("global-hmm record missing length");
    try {
      restored.global_hmm = deserialize_hmm(std::string(cursor.take_block(len)));
    } catch (const ModelParseError& e) {
      corrupt(e.what());
    }
  }

  std::size_t num_candidates = 0, num_sessions = 0;
  {
    auto is = expect_tag(cursor, "selector-table");
    if (!(is >> num_candidates >> num_sessions)) corrupt("selector-table malformed");
    if (num_sessions != training.size())
      throw SnapshotError(SnapshotErrorCode::kDatasetMismatch,
                          "selector table session count mismatch");
    if (num_candidates == 0 || num_candidates > 4096)
      corrupt("selector table candidate count absurd");
  }
  restored.selector_table.assign(num_candidates,
                                 std::vector<double>(num_sessions, kInf));

  // errs rows until the cluster-models record.
  std::size_t num_cluster_models = 0;
  for (;;) {
    auto is = line_stream(cursor.next_line());
    std::string tag;
    if (!(is >> tag)) corrupt("empty payload record");
    if (tag == "cluster-models") {
      if (!(is >> num_cluster_models)) corrupt("cluster-models record malformed");
      break;
    }
    if (tag != "errs") corrupt("expected 'errs' or 'cluster-models' record");
    std::size_t c = 0, count = 0;
    if (!(is >> c >> count) || c >= num_candidates || count > num_sessions)
      corrupt("errs row header out of range");
    for (std::size_t k = 0; k < count; ++k) {
      std::size_t i = 0;
      double err = 0.0;
      if (!(is >> i >> err) || i >= num_sessions || std::isnan(err) || err < 0.0)
        corrupt("errs entry out of range");
      restored.selector_table[c][i] = err;
    }
  }

  restored.cluster_models.reserve(num_cluster_models);
  for (std::size_t m = 0; m < num_cluster_models; ++m) {
    auto is = expect_tag(cursor, "cluster");
    ClusterModelEntry entry;
    std::size_t key_len = 0, hmm_len = 0;
    if (!(is >> entry.candidate_id >> key_len >> hmm_len) ||
        entry.candidate_id >= num_candidates)
      corrupt("cluster record malformed");
    entry.bucket_key = std::string(cursor.take_block(key_len));
    try {
      entry.hmm = deserialize_hmm(std::string(cursor.take_block(hmm_len)));
    } catch (const ModelParseError& e) {
      corrupt(e.what());
    }
    restored.cluster_models.push_back(std::move(entry));
  }

  if (std::string_view end_line = cursor.next_line(); end_line != "end")
    corrupt("missing end marker");
  if (!cursor.at_end()) corrupt("trailing payload records");
  return restored;
}

namespace {

/// Close-on-destruction fd for the save path.
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  int release() noexcept {
    const int f = fd;
    fd = -1;
    return f;
  }
};

[[noreturn]] void io_error(const std::string& what) {
  throw SnapshotError(SnapshotErrorCode::kIo,
                      what + ": " + std::strerror(errno));
}

void write_fully(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("write");
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

void save_snapshot(const std::string& path, const Cs2pEngine& engine) {
  const auto start = std::chrono::steady_clock::now();
  if (path.empty())
    throw SnapshotError(SnapshotErrorCode::kIo, "empty snapshot path");
  const std::string bytes = serialize_engine(engine);

  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    ScopedFd tmp;
    tmp.fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tmp.fd < 0) io_error("open " + tmp_path);
    try {
      write_fully(tmp.fd, bytes);
      // fsync BEFORE rename: rename can commit the name while the data is
      // still dirty, which is exactly the loadable-but-corrupt state this
      // store exists to rule out.
      if (::fsync(tmp.fd) != 0) io_error("fsync " + tmp_path);
    } catch (...) {
      ::unlink(tmp_path.c_str());
      throw;
    }
    if (::close(tmp.release()) != 0) {
      ::unlink(tmp_path.c_str());
      io_error("close " + tmp_path);
    }
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    io_error("rename " + tmp_path + " -> " + path);
  }

  // Durability of the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  ScopedFd dirfd;
  dirfd.fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd.fd < 0) io_error("open dir " + dir);
  if (::fsync(dirfd.fd) != 0) io_error("fsync dir " + dir);

  engine.metrics()
      .histogram("cs2p_model_snapshot_save_seconds",
                 obs::default_latency_buckets_seconds())
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count());
}

std::unique_ptr<Cs2pEngine> restore_engine_from_bytes(const std::string& bytes,
                                                      Dataset training,
                                                      const Cs2pConfig& config) {
  EngineRestoreData restored = parse_snapshot(bytes, config, training);
  try {
    return std::make_unique<Cs2pEngine>(std::move(training), config,
                                        std::move(restored));
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(SnapshotErrorCode::kCorruptModel, e.what());
  }
}

std::unique_ptr<Cs2pEngine> restore_engine(const std::string& path,
                                           Dataset training,
                                           const Cs2pConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw SnapshotError(SnapshotErrorCode::kIo, "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    throw SnapshotError(SnapshotErrorCode::kIo, "read failed for " + path);
  auto engine =
      restore_engine_from_bytes(buffer.str(), std::move(training), config);
  engine->metrics()
      .histogram("cs2p_model_snapshot_load_seconds",
                 obs::default_latency_buckets_seconds())
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count());
  return engine;
}

std::shared_ptr<const Cs2pEngine> load_or_train(const std::string& snapshot_path,
                                                Dataset training,
                                                const Cs2pConfig& config,
                                                bool warm_up,
                                                std::string* status_out) {
  std::string status;
  if (!snapshot_path.empty()) {
    try {
      std::shared_ptr<const Cs2pEngine> engine =
          restore_engine(snapshot_path, training, config);
      status = "restored engine from " + snapshot_path + " (" +
               std::to_string(engine->stats().clusters_restored) +
               " cluster models, no EM run)";
      engine->metrics()
          .counter("cs2p_model_restores_total", {{"outcome", "restored"}})
          .inc();
      if (status_out) *status_out = status;
      return engine;
    } catch (const SnapshotError& e) {
      status = std::string("snapshot unusable (") + e.what() +
               "), training fresh";
    }
  } else {
    status = "no snapshot path, training fresh";
  }

  auto engine = std::make_shared<Cs2pEngine>(std::move(training), config);
  engine->metrics()
      .counter("cs2p_model_restores_total", {{"outcome", "trained_fresh"}})
      .inc();
  if (warm_up) {
    const std::size_t trained = engine->warm_up();
    status += "; warm-up trained " + std::to_string(trained) + " cluster models";
  }
  if (!snapshot_path.empty()) {
    try {
      save_snapshot(snapshot_path, *engine);
      status += "; snapshot saved to " + snapshot_path;
    } catch (const SnapshotError& e) {
      // Persistence is best-effort on this path: a broken disk must not
      // stop a freshly trained engine from serving.
      status += std::string("; snapshot save failed (") + e.what() + ")";
    }
  }
  if (status_out) *status_out = status;
  return engine;
}

}  // namespace cs2p
