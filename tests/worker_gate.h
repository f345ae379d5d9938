// Parking a server's worker inside a pass: a gated session's observe() holds
// the worker until the test opens the gate, so the test can queue frames that
// the next wakeup reads all at once. Shared by the suites that test what one
// wakeup serves (test_net_service, test_overload).
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>

namespace cs2p::testing_support {

/// What a gated session's observe() and the test share.
struct WorkerGate {
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};

  /// The gated observe(): says the worker is in, then waits for the test.
  void park() {
    entered.store(true);
    entered.notify_all();
    open.wait(false);
  }
};

/// The gated OBSERVE's round trip, run on a thread of its own while its
/// request parks the serving worker on a WorkerGate. The constructor closes
/// the gate, starts the round trip and waits until the worker enters or the
/// round trip returns. A round trip that returns first means the server
/// answered without reaching the gated session: the constructor opens the
/// gate, joins, and entered() fails. Either way release() opens the gate,
/// joins, and fails if the round trip threw, so a reply that was lost,
/// closed or not a PRED fails the test too. The round trip must carry a
/// receive deadline, or a reply the server never sends blocks the join.
class ParkedRoundTrip {
 public:
  ParkedRoundTrip(WorkerGate& gate, std::function<void()> round_trip)
      : gate_(gate) {
    gate_.entered.store(false);
    gate_.open.store(false);
    thread_ = std::thread([this, round_trip = std::move(round_trip)] {
      try {
        round_trip();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
      // Wakes the wait below when the worker never parks; returned_ tells
      // that apart from a worker that did.
      returned_.store(true);
      gate_.entered.store(true);
      gate_.entered.notify_all();
    });
    gate_.entered.wait(false);
    if (returned_.load()) {
      parked_ = false;
      (void)release();
    }
  }

  ParkedRoundTrip(const ParkedRoundTrip&) = delete;
  ParkedRoundTrip& operator=(const ParkedRoundTrip&) = delete;
  ~ParkedRoundTrip() { (void)release(); }

  /// Whether the worker parked before the gated OBSERVE's reply came back.
  ::testing::AssertionResult entered() const {
    if (parked_) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "the worker never entered the gate: the gated OBSERVE's reply "
              "came back first"
           << (error_.empty() ? "" : " (" + error_ + ")");
  }

  /// Opens the gate, joins the round trip and fails with what it threw; a
  /// second call only repeats the verdict.
  ::testing::AssertionResult release() {
    gate_.open.store(true);
    gate_.open.notify_all();
    if (thread_.joinable()) thread_.join();
    if (error_.empty()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "the gated OBSERVE's reply failed: " << error_;
  }

 private:
  WorkerGate& gate_;
  bool parked_ = true;
  std::string error_;  ///< what the round trip threw, read after the join
  std::atomic<bool> returned_{false};
  std::thread thread_;
};

}  // namespace cs2p::testing_support
