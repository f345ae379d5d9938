// Crash-safe persistence of a trained Cs2pEngine (the model lifecycle of
// DESIGN.md §9).
//
// The paper's deployment retrains per day (§6) and serves continuously; a
// production engine therefore needs (a) restarts that cost a snapshot load
// instead of a full Baum-Welch pass over the training set, and (b) writes
// that a kill -9 can never tear into a loadable-but-corrupt store.
//
// Snapshot format (text, single file):
//
//   cs2p-snapshot-v2 <payload-bytes>\n     header, read before the payload
//   <payload>                              see serialize_engine
//   checksum <16-hex fnv1a64(payload)>\n   footer
//
// The payload carries the config fingerprint, the training-dataset
// fingerprint, the global model + initial prediction, the feature-selection
// error table (sparse: +inf entries are omitted), and every cached
// per-cluster HMM keyed by its stable (candidate id, bucket key) identity.
//
// Durability: save_snapshot writes to `<path>.tmp.<pid>`, fsyncs the file,
// atomically rename(2)s it over `path`, then fsyncs the directory — a crash
// at any point leaves either the old snapshot or the new one, never a mix.
// Integrity: restore verifies the declared payload length (truncation) and
// the checksum (bit rot / torn writes) before parsing a single field, and
// every parse failure is a typed SnapshotError — corrupt bytes can fall
// back to fresh training but can never construct an invalid engine.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/engine.h"

namespace cs2p {

/// Why a snapshot could not be saved or restored. Callers branch on this to
/// distinguish "retrain and overwrite" (mismatch/corruption) from "disk is
/// broken" (kIo).
enum class SnapshotErrorCode : std::uint8_t {
  kIo = 0,            ///< open/read/write/fsync/rename failed
  kBadMagic,          ///< not a cs2p snapshot at all
  kVersionMismatch,   ///< a cs2p snapshot, but a different format version
  kTruncated,         ///< shorter than the declared payload (torn write)
  kChecksumMismatch,  ///< payload bytes do not hash to the footer
  kConfigMismatch,    ///< trained under a different Cs2pConfig
  kDatasetMismatch,   ///< trained on a different dataset
  kCorruptModel,      ///< decoded fields do not form a valid engine
};

/// Stable name for logs ("IO", "BAD_MAGIC", ...).
std::string_view snapshot_error_code_name(SnapshotErrorCode code) noexcept;

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& message)
      : std::runtime_error("snapshot: [" +
                           std::string(snapshot_error_code_name(code)) + "] " +
                           message),
        code_(code) {}

  SnapshotErrorCode code() const noexcept { return code_; }

 private:
  SnapshotErrorCode code_;
};

/// FNV-1a 64-bit over the numeric/semantic fields of the config (the
/// `trainer` test hook is deliberately excluded). Two engines with equal
/// fingerprints produce identical models from identical data.
std::uint64_t config_fingerprint(const Cs2pConfig& config) noexcept;

/// FNV-1a 64-bit over every session's identity, features and throughput
/// series. A snapshot only restores against the exact dataset it was
/// trained on (cluster bucket keys and the error table index into it).
std::uint64_t dataset_fingerprint(const Dataset& dataset) noexcept;

/// FNV-1a 64-bit over the complete snapshot bytes (header + payload +
/// footer). This is the identity recorded in ModelLineage::parent_checksum:
/// two byte-identical snapshots are the same model generation. Equal to the
/// SYNC checksum (net/wire.h sync_checksum) of the same bytes.
std::uint64_t snapshot_checksum(const std::string& snapshot_bytes) noexcept;

/// Serializes the engine's trained state into complete snapshot bytes
/// (header + payload + checksum footer), ready to be written to disk.
std::string serialize_engine(const Cs2pEngine& engine);

/// Verifies framing, checksum and fingerprints, then decodes the trained
/// state. Throws SnapshotError with the precise failure code; never returns
/// partially-decoded state.
EngineRestoreData parse_snapshot(const std::string& bytes,
                                 const Cs2pConfig& expected_config,
                                 const Dataset& training);

/// Atomic, durable write of `engine`'s snapshot to `path` (temp file +
/// fsync + rename + directory fsync). Throws SnapshotError{kIo} on any
/// filesystem failure; `path` is either untouched or fully replaced.
void save_snapshot(const std::string& path, const Cs2pEngine& engine);

/// Loads `path`, verifies it against `config` and `training`, and builds an
/// engine without running EM. Throws SnapshotError on any failure.
std::unique_ptr<Cs2pEngine> restore_engine(const std::string& path,
                                           Dataset training,
                                           const Cs2pConfig& config);

/// In-memory variant of restore_engine (tests exercise torn-write handling
/// at every byte offset without touching the filesystem).
std::unique_ptr<Cs2pEngine> restore_engine_from_bytes(const std::string& bytes,
                                                      Dataset training,
                                                      const Cs2pConfig& config);

/// The serving startup path: restore from `snapshot_path` when it is valid
/// for (config, training); otherwise train fresh, warm up the per-cluster
/// cache when `warm_up` is set, and best-effort persist the result back to
/// `snapshot_path`. An empty `snapshot_path` trains without persistence.
/// `status_out` (optional) receives a one-line human-readable account of
/// which path was taken — serving tools log it verbatim.
std::shared_ptr<const Cs2pEngine> load_or_train(const std::string& snapshot_path,
                                                Dataset training,
                                                const Cs2pConfig& config,
                                                bool warm_up = true,
                                                std::string* status_out = nullptr);

}  // namespace cs2p
