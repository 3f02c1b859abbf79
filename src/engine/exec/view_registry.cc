#include "engine/exec/view_registry.h"

#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;

void AppendDoubleBits(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  *out += StringPrintf("%llx", static_cast<unsigned long long>(bits));
}

void AppendDatumKey(const Datum& v, std::string* out) {
  if (v.is_null()) {
    *out += "null";
    return;
  }
  switch (v.type()) {
    case DataType::kDouble:
      AppendDoubleBits(v.double_value(), out);
      break;
    case DataType::kInt64:
      *out += StringPrintf("%lld", static_cast<long long>(v.int_value()));
      break;
    case DataType::kVarchar:
      *out += v.string_value();
      break;
  }
}

/// The `view_maintenance` failpoint, guarding a take and a store.
Status InjectedFault() {
  NLQ_FAILPOINT("view_maintenance");
  return Status::OK();
}

/// Index of grid morsel `s` within its partition, given the previous
/// morsel's (the grid lists each partition's morsels in row order).
size_t MorselIndex(const std::vector<Morsel>& grid, size_t s, size_t prev) {
  return s > 0 && grid[s - 1].partition == grid[s].partition ? prev + 1 : 0;
}

}  // namespace

std::string ViewKey(const std::string& table_name,
                    const std::vector<size_t>& slots,
                    const std::vector<ColumnFilter>& filters,
                    const std::vector<AggregateSpec>& specs,
                    const std::vector<VectorAggSpec>& args,
                    uint64_t morsel_rows) {
  std::string key = table_name;
  key += "|s:";
  for (const size_t slot : slots) key += StringPrintf("%zu,", slot);
  key += "|f:";
  for (const ColumnFilter& f : filters) {
    key += StringPrintf("%zu~%d~", f.col, static_cast<int>(f.op));
    AppendDoubleBits(f.value, &key);
    key += ";";
  }
  key += "|a:";
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggregateSpec& spec = specs[i];
    key += StringPrintf("%d:", static_cast<int>(spec.kind));
    if (spec.udaf != nullptr) key += spec.udaf->name();
    key += "(";
    for (const Datum& c : args[i].const_args) {
      AppendDatumKey(c, &key);
      key += ",";
    }
    key += ")";
    for (const CompiledExprPtr& prog : args[i].progs) {
      // Length-prefixed: the serialized program is binary.
      key += StringPrintf("%zu:", prog->cache_key().size());
      key += prog->cache_key();
    }
    key += StringPrintf("%d;", static_cast<int>(spec.result_type));
  }
  key += StringPrintf("|m:%llu", static_cast<unsigned long long>(morsel_rows));
  return key;
}

ViewRegistry::ViewRegistry(size_t max_views, uint64_t memory_limit_bytes)
    : max_views_(max_views), memory_(memory_limit_bytes) {}

bool ViewRegistry::EntryCurrent(const Entry& e, const ViewDescriptor& d) {
  if (e.table != d.table) return false;  // DROP + CREATE reused the name
  const size_t parts = d.table->num_partitions();
  if (e.epochs.size() != parts) return false;
  for (size_t p = 0; p < parts; ++p) {
    const storage::Table& part = d.table->partition(p);
    if (part.mutation_epoch() != e.epochs[p]) return false;
    const std::vector<Partial>& plist = e.partials[p];
    if (!plist.empty() && part.num_rows() < plist.back().row) return false;
  }
  return true;
}

ViewLease ViewRegistry::Take(const ViewDescriptor& d,
                             std::vector<Morsel> grid) {
  ViewLease lease;
  lease.total_rows = d.table->num_rows();
  for (size_t p = 0; p < d.table->num_partitions(); ++p) {
    lease.epochs.push_back(d.table->partition(p).mutation_epoch());
  }
  lease.stored.resize(grid.size());
  lease.taken.resize(grid.size());
  lease.grid = std::move(grid);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = views_.find(d.key);
    if (it != views_.end()) {
      if (!EntryCurrent(*it->second, d)) {
        // Stale state can never be reused; drop it now so the next
        // statement reseeds instead of re-probing a corpse.
        views_.erase(it);
        lease.invalidated = true;
      } else if (!InjectedFault().ok()) {
        views_.erase(it);
      } else {
        lease.registered = true;
        Entry& e = *it->second;
        size_t m = 0;
        for (size_t s = 0; s < lease.grid.size(); ++s) {
          Morsel& morsel = lease.grid[s];
          m = MorselIndex(lease.grid, s, m);
          std::vector<Partial>& plist = e.partials[morsel.partition];
          // Below the morsel's first row: a slot no store has filled.
          if (m >= plist.size() || plist[m].row < morsel.begin) continue;
          Partial& slot = plist[m];
          const uint64_t first = morsel.begin;
          morsel.begin = slot.row;
          if (morsel.begin == morsel.end) {
            lease.stored[s] = slot.state;
          } else if (slot.state != nullptr) {
            // Until Store, the entry holds nothing for this morsel.
            lease.taken[s] = std::move(slot.state);
            slot.row = first;
          }
        }
      }
    }
  }
  for (const Morsel& morsel : lease.grid) lease.delta_rows += morsel.rows();
  return lease;
}

void ViewRegistry::Store(const ViewDescriptor& d, ViewLease lease) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!StoreLocked(d, &lease).ok()) views_.erase(d.key);
}

Status ViewRegistry::StoreLocked(const ViewDescriptor& d, ViewLease* lease) {
  NLQ_RETURN_IF_ERROR(InjectedFault());
  std::unique_ptr<Entry>& e = views_[d.key];
  const bool seeded =
      e == nullptr || e->table != d.table || e->epochs != lease->epochs;
  if (seeded) {
    e = std::make_unique<Entry>();
    e->table = d.table;
    e->table_name = d.table_name;
    e->epochs = lease->epochs;
    e->partials.resize(lease->epochs.size());
  }
  e->last_served = ++lru_tick_;
  size_t m = 0;
  for (size_t s = 0; s < lease->grid.size(); ++s) {
    const Morsel& morsel = lease->grid[s];
    m = MorselIndex(lease->grid, s, m);
    if (lease->stored[s] != nullptr) continue;  // read in place: unchanged
    std::shared_ptr<AggState>& state = lease->taken[s];
    if (state != nullptr) {
      for (const auto& heap : state->heaps) {
        if (heap != nullptr) NLQ_RETURN_IF_ERROR(heap->MoveCharge(&memory_));
      }
    }
    // A concurrent statement over the same rows may have stored first;
    // either partial is exact for its rows, so keep the further one.
    std::vector<Partial>& plist = e->partials[morsel.partition];
    if (plist.size() <= m) plist.resize(m + 1);
    if (plist[m].row <= morsel.begin) {
      plist[m] = {std::move(state), morsel.begin};
    }
  }
  if (seeded) EvictIfNeeded();
  return Status::OK();
}

void ViewRegistry::InvalidateTable(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = views_.begin(); it != views_.end();) {
    if (it->second->table_name == table_name) {
      it = views_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ViewRegistry::num_views() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

void ViewRegistry::EvictIfNeeded() {
  while (views_.size() > max_views_) {
    auto victim = views_.begin();
    for (auto it = views_.begin(); it != views_.end(); ++it) {
      if (it->second->last_served < victim->second->last_served) victim = it;
    }
    views_.erase(victim);
  }
}

}  // namespace nlq::engine::exec
