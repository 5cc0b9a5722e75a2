#include "core/node_context.h"

namespace provnet {

Table& NodeContext::TableFor(const std::string& pred) {
  auto it = tables_.find(pred);
  if (it == tables_.end()) {
    it = tables_
             .emplace(pred,
                      std::make_unique<Table>(pred, plan_->OptionsFor(pred)))
             .first;
  }
  return *it->second;
}

void NodeContext::ClearTables() {
  tables_.clear();
  online_.Clear();
}

Status NodeContext::OpenArchive(const std::string& path) {
  auto fresh = std::make_unique<store::ProvArchive>();
  PROVNET_RETURN_IF_ERROR(fresh->Open(path));
  offline_ = std::move(fresh);
  return OkStatus();
}

void NodeContext::ResetForCrash() {
  ClearTables();
  offline_->Abandon();
  offline_ = std::make_unique<store::ProvArchive>();
  replay_guards_.clear();
  co_asserters_.clear();
}

const Table* NodeContext::FindTable(const std::string& pred) const {
  auto it = tables_.find(pred);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* NodeContext::FindTableMutable(const std::string& pred) {
  auto it = tables_.find(pred);
  return it == tables_.end() ? nullptr : it->second.get();
}

size_t NodeContext::TupleCount() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->size();
  return total;
}

std::vector<Table*> NodeContext::AllTables() {
  std::vector<Table*> out;
  out.reserve(tables_.size());
  for (auto& [name, table] : tables_) out.push_back(table.get());
  return out;
}

void NodeContext::NoteCoAsserter(uint64_t digest, const Principal& principal) {
  std::vector<Principal>& list = co_asserters_[digest];
  for (const Principal& p : list) {
    if (p == principal) return;
  }
  list.push_back(principal);
}

bool NodeContext::IsCoAsserter(uint64_t digest,
                               const Principal& principal) const {
  auto it = co_asserters_.find(digest);
  if (it == co_asserters_.end()) return false;
  for (const Principal& p : it->second) {
    if (p == principal) return true;
  }
  return false;
}

size_t NodeContext::ExpireTablesBefore(double now,
                                       std::vector<StoredTuple>* expired) {
  size_t dropped = 0;
  for (auto& [name, table] : tables_) {
    std::vector<StoredTuple> entries = table->ExpireBefore(now);
    dropped += entries.size();
    if (expired != nullptr) {
      for (StoredTuple& e : entries) expired->push_back(std::move(e));
    }
  }
  return dropped;
}

}  // namespace provnet
