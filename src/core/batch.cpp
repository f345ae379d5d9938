// Batch driver of the serving tier (DESIGN.md §16): Cs2pEngine::advance_batch
// and predict_batch, plus observe_batch, which is the two in sequence.
//
// Grouping rule: sessions are batchable together exactly when their filters
// share an HmmKernel pointer (same pinned model — RCU hot-swaps naturally
// split old and new generations into different groups). Groups are formed in
// first-appearance order with a linear sweep: a serving round sees one or
// two distinct models in practice, so anything cleverer than O(groups x
// items) would be tuning the cold path.
//
// Sequential-dependence rule: a session may appear at most once per call.
// The batch kernel gathers all beliefs, advances, and scatters back; two
// observations for the same session in one batch would both read the
// pre-advance belief instead of chaining. The server enforces this by
// extracting at most one frame per connection per round and running a
// session's later frames of a round (a session driven over two connections
// at once) in later waves, after the earlier frame has applied.
#include <vector>

#include "core/engine.h"
#include "hmm/batch_filter.h"

namespace cs2p {

namespace {

struct PlannedObserve {
  std::size_t item = 0;
  OnlineHmmFilter* filter = nullptr;
  double value = 0.0;
  const HmmKernel* kernel = nullptr;
  bool grouped = false;
};

struct PlannedPredict {
  std::size_t item = 0;
  const OnlineHmmFilter* filter = nullptr;
  unsigned steps = 1;
  const HmmKernel* kernel = nullptr;
  bool grouped = false;
};

/// Per-worker scratch: the batch workspace plus the staging vectors, all
/// reused across rounds so the steady-state serve path allocates nothing.
struct BatchWorkspace {
  BatchHmmFilter batch;
  std::vector<PlannedObserve> observes;
  std::vector<PlannedPredict> predicts;
  std::vector<OnlineHmmFilter*> filters;
  std::vector<const OnlineHmmFilter*> const_filters;
  std::vector<double> values;
  std::vector<std::size_t> members;
  std::vector<PredictBatchItem> next_epoch;  ///< observe_batch's horizon-1 items
};

BatchWorkspace& workspace() {
  thread_local BatchWorkspace ws;
  return ws;
}

}  // namespace

void Cs2pEngine::advance_batch(std::span<ObserveBatchItem> items) {
  BatchWorkspace& ws = workspace();

  // Stage every observation. kScalar items advance inline (their observe()
  // is the whole contract); kFilter items queue for the kernel.
  ws.observes.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    ObserveBatchItem& item = items[i];
    const BatchObservePlan plan = item.predictor->begin_batch_observe(item.observation);
    switch (plan.kind) {
      case BatchObservePlan::Kind::kScalar:
        item.predictor->observe(item.observation);
        break;
      case BatchObservePlan::Kind::kConsumed:
        break;
      case BatchObservePlan::Kind::kFilter:
        ws.observes.push_back(
            {i, plan.filter, plan.value, plan.filter->kernel().get(), false});
        break;
    }
  }

  // One kernel walk per distinct model, first-appearance order.
  for (std::size_t start = 0; start < ws.observes.size(); ++start) {
    if (ws.observes[start].grouped) continue;
    const HmmKernel* kernel = ws.observes[start].kernel;
    ws.filters.clear();
    ws.values.clear();
    for (std::size_t j = start; j < ws.observes.size(); ++j) {
      PlannedObserve& p = ws.observes[j];
      if (p.grouped || p.kernel != kernel) continue;
      p.grouped = true;
      ws.filters.push_back(p.filter);
      ws.values.push_back(p.value);
    }
    ws.batch.observe(*kernel, ws.filters, ws.values);
  }
  // Completion hooks after the advance, in item order (guardrail scoring,
  // trip/recover events — the scalar observe() tail).
  for (const PlannedObserve& p : ws.observes)
    items[p.item].predictor->finish_batch_observe();
}

BatchStats Cs2pEngine::observe_batch(std::span<ObserveBatchItem> items) {
  advance_batch(items);
  // A session can leave the batchable set during the advance (this very
  // observation tripped its guardrail) — predict_batch re-decides per item.
  BatchWorkspace& ws = workspace();
  ws.next_epoch.clear();
  for (const ObserveBatchItem& item : items)
    ws.next_epoch.push_back({item.predictor, 1});
  const BatchStats stats = predict_batch(ws.next_epoch);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].prediction = ws.next_epoch[i].prediction;
    items[i].via_batch_kernel = ws.next_epoch[i].via_batch_kernel;
  }
  return stats;
}

BatchStats Cs2pEngine::predict_batch(std::span<PredictBatchItem> items) {
  BatchStats stats;
  BatchWorkspace& ws = workspace();

  ws.predicts.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    PredictBatchItem& item = items[i];
    const OnlineHmmFilter* filter = item.predictor->batch_predict_filter();
    if (filter == nullptr) {
      item.prediction = item.predictor->predict(item.steps_ahead);
      ++stats.scalar;
      continue;
    }
    ws.predicts.push_back(
        {i, filter, item.steps_ahead, filter->kernel().get(), false});
  }
  // Group key is (kernel, horizon): one propagation matrix per group.
  for (std::size_t start = 0; start < ws.predicts.size(); ++start) {
    if (ws.predicts[start].grouped) continue;
    const HmmKernel* kernel = ws.predicts[start].kernel;
    const unsigned steps = ws.predicts[start].steps;
    ws.const_filters.clear();
    ws.members.clear();
    for (std::size_t j = start; j < ws.predicts.size(); ++j) {
      PlannedPredict& p = ws.predicts[j];
      if (p.grouped || p.kernel != kernel || p.steps != steps) continue;
      p.grouped = true;
      ws.const_filters.push_back(p.filter);
      ws.members.push_back(p.item);
    }
    ws.values.resize(ws.const_filters.size());
    ws.batch.predict(*kernel, ws.const_filters, steps, ws.values);
    for (std::size_t k = 0; k < ws.members.size(); ++k) {
      items[ws.members[k]].prediction = ws.values[k];
      items[ws.members[k]].via_batch_kernel = true;
    }
    stats.batched += ws.members.size();
  }
  return stats;
}

}  // namespace cs2p
