#include "nn/packed_batch.h"

#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace qpe::nn {

namespace {

std::atomic<uint64_t> g_growth_events{0};

}  // namespace

void PackedBatch::BeginBatch() {
  pack_capacity_snapshot_ = PackCapacitySum();
  ids1.clear();
  ids2.clear();
  ids3.clear();
  lengths.clear();
  layout.offsets.clear();
  layout.lengths.clear();
  layout.positions.clear();
  layout.total_rows = 0;
}

void PackedBatch::BuildLayout() {
  // Same validation as BatchLayout::FromLengthsChecked, but filling the
  // existing vectors so their capacity carries across micro-batches.
  long long total = 0;
  bool valid = true;
  for (const int len : lengths) {
    if (len <= 0) valid = false;
    total += len;
    if (total > INT_MAX) valid = false;
  }
  if (!valid) {
    const util::StatusOr<BatchLayout> checked =
        BatchLayout::FromLengthsChecked(lengths);
    std::fprintf(stderr, "%s\n", checked.status().message().c_str());
    std::abort();
  }
  layout.offsets.clear();
  layout.lengths.assign(lengths.begin(), lengths.end());
  layout.positions.clear();
  layout.total_rows = 0;
  layout.offsets.reserve(lengths.size());
  for (const int len : lengths) {
    layout.offsets.push_back(layout.total_rows);
    layout.total_rows += len;
  }
  layout.positions.reserve(layout.total_rows);
  for (const int len : lengths) {
    for (int t = 0; t < len; ++t) layout.positions.push_back(t);
  }
}

void PackedBatch::FinishPack() {
  if (PackCapacitySum() != pack_capacity_snapshot_) {
    g_growth_events.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t PackedBatch::PackCapacitySum() const {
  return ids1.capacity() + ids2.capacity() + ids3.capacity() +
         lengths.capacity() + layout.offsets.capacity() +
         layout.lengths.capacity() + layout.positions.capacity();
}

void PackedBatch::EnsureF(std::vector<float>* buf, size_t n) {
  if (buf->capacity() < n) {
    g_growth_events.fetch_add(1, std::memory_order_relaxed);
  }
  if (buf->size() < n) buf->resize(n);
}

PackedBatch& PackedBatch::ThreadLocal() {
  thread_local PackedBatch ws;
  return ws;
}

uint64_t PackedBatch::TotalGrowthEvents() {
  return g_growth_events.load(std::memory_order_relaxed);
}

}  // namespace qpe::nn
