#include "cache/delayed_replicator.hpp"

#include <algorithm>
#include <map>

#include "globedoc/fetch_many.hpp"
#include "globedoc/verify.hpp"

namespace globe::cache {

bool DelayedReplicator::schedule(const globedoc::Oid& oid,
                                 const net::Endpoint& origin,
                                 const globedoc::IntegrityCertificate& cert,
                                 const std::string& accessed_name) {
  std::vector<std::string> names;
  names.reserve(cert.entries().size());
  for (const auto& entry : cert.entries()) {
    if (entry.name != accessed_name) names.push_back(entry.name);
  }
  if (names.empty()) return false;

  util::LockGuard lock(mutex_);
  for (const auto& task : queue_) {
    if (task.oid == oid) return false;  // already queued
  }
  if (queue_.size() >= kMaxQueue) return false;
  queue_.push_back(Task{oid, origin, cert, std::move(names)});
  return true;
}

void DelayedReplicator::cancel(const globedoc::Oid& oid) {
  util::LockGuard lock(mutex_);
  std::erase_if(queue_, [&](const Task& t) { return t.oid == oid; });
}

std::optional<DelayedReplicator::Task> DelayedReplicator::claim_batch_locked(
    const globedoc::Oid& oid) {
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [&](const Task& t) { return t.oid == oid; });
  if (it == queue_.end()) return std::nullopt;  // cancelled meanwhile

  Task batch;
  batch.oid = it->oid;
  batch.origin = it->origin;
  batch.certificate = it->certificate;
  const std::size_t take =
      std::min(it->names.size(), globedoc::kFetchManyMaxElements);
  batch.names.assign(it->names.begin(), it->names.begin() + take);
  it->names.erase(it->names.begin(), it->names.begin() + take);
  if (it->names.empty()) queue_.erase(it);
  return batch;
}

DelayedReplicator::PumpStats DelayedReplicator::pump(
    net::Transport& transport) {
  PumpStats stats;
  std::map<net::Endpoint, std::size_t> origin_batches;

  for (;;) {
    // Pick the next document whose origin still has budget this pump.
    std::optional<Task> batch;
    bool drained_doc = false;
    {
      util::LockGuard lock(mutex_);
      globedoc::Oid target;
      bool found = false;
      for (const auto& task : queue_) {
        if (origin_batches[task.origin] < kPerOriginBatches) {
          target = task.oid;
          found = true;
          break;
        }
      }
      if (!found) break;
      batch = claim_batch_locked(target);
      if (!batch) continue;
      // claim_batch_locked erased the task when it took the last names.
      drained_doc = std::none_of(queue_.begin(), queue_.end(), [&](const Task& t) {
        return t.oid == target;
      });
    }
    ++origin_batches[batch->origin];

    // Network + verification run without the replicator lock: cancel() and
    // schedule() stay responsive, and the cache's eviction listener (which
    // runs under the cache lock and may call cancel) can never deadlock.
    globedoc::FetchManyRequest request;
    request.oid = batch->oid;
    request.include_cert = false;  // we pull under the cert we were handed
    request.names = batch->names;
    auto response = globedoc::fetch_many(transport, batch->origin, request);
    if (!response.is_ok()) {
      stats.elements_failed += batch->names.size();
      if (drained_doc) ++stats.documents_done;
      continue;
    }

    for (std::size_t i = 0; i < batch->names.size(); ++i) {
      auto& item = response.value().items[i];
      if (!item.found) {
        ++stats.elements_failed;
        continue;
      }
      auto element = globedoc::verify_element(transport, batch->certificate,
                                              batch->names[i], std::move(item.element));
      if (!element.is_ok()) {
        ++stats.elements_failed;
        continue;
      }
      const auto* entry = batch->certificate.find(batch->names[i]);
      cache_->insert(CacheKey{batch->oid, batch->names[i], entry->sha1},
                     *element, entry->expires);
      ++stats.elements_pulled;
    }
    if (drained_doc) ++stats.documents_done;
  }
  return stats;
}

std::size_t DelayedReplicator::pending() const {
  util::LockGuard lock(mutex_);
  return queue_.size();
}

}  // namespace globe::cache
