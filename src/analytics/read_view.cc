#include "analytics/read_view.h"

#include <algorithm>
#include <utility>

#include "service/protocol.h"

namespace optshare::analytics {

std::shared_ptr<RcuCell<ReadState>> ReadRegistry::Cell(
    const std::string& tenancy, bool create) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(tenancy);
  if (it != cells_.end()) return it->second;
  if (!create) return nullptr;
  auto cell = std::make_shared<RcuCell<ReadState>>();
  cells_.emplace(tenancy, cell);
  return cell;
}

std::shared_ptr<const ReadState> ReadRegistry::Read(
    const std::string& tenancy) const {
  std::shared_ptr<RcuCell<ReadState>> cell = Cell(tenancy, /*create=*/false);
  return cell ? cell->Read() : nullptr;
}

void ReadRegistry::PublishView(const std::string& tenancy,
                               service::TenancySnapshot boundary,
                               const service::PeriodReport* closed_report) {
  std::shared_ptr<RcuCell<ReadState>> cell = Cell(tenancy, /*create=*/true);
  std::shared_ptr<const ReadState> old = cell->Read();

  auto view = std::make_shared<ReadView>();
  view->boundary = std::move(boundary);
  if (closed_report != nullptr) {
    // Copy-on-write append: the old history vector stays alive for any
    // reader still holding it.
    auto history = old && old->view && old->view->history
                       ? std::make_shared<std::vector<service::PeriodReport>>(
                             *old->view->history)
                       : std::make_shared<std::vector<service::PeriodReport>>();
    history->push_back(*closed_report);
    view->history = std::move(history);
  } else if (old && old->view && old->view->history) {
    view->history = old->view->history;
  } else {
    view->history = std::make_shared<std::vector<service::PeriodReport>>();
  }

  auto next = std::make_shared<ReadState>();
  next->view = std::move(view);
  next->delta = ReadDelta{};  // A boundary has no open session.
  next->version = (old ? old->version : 0) + 1;
  cell->Publish(std::move(next));
  views_published_.fetch_add(1, std::memory_order_relaxed);
}

void ReadRegistry::PublishDelta(const std::string& tenancy, ReadDelta delta) {
  std::shared_ptr<RcuCell<ReadState>> cell = Cell(tenancy, /*create=*/false);
  if (!cell) return;
  std::shared_ptr<const ReadState> old = cell->Read();
  if (!old || !old->view) return;  // No boundary yet: nothing to overlay.
  auto next = std::make_shared<ReadState>();
  next->view = old->view;  // The view is shared; only the delta moves.
  next->delta = delta;
  next->version = old->version + 1;
  cell->Publish(std::move(next));
  delta_publishes_.fetch_add(1, std::memory_order_relaxed);
}

void ReadRegistry::Drop(const std::string& tenancy) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.erase(tenancy);
}

std::vector<std::string> ReadRegistry::TenancyNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(cells_.size());
    for (const auto& [name, cell] : cells_) {
      if (cell->Read() != nullptr) names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

JsonValue ReadRegistry::InfoJson() const {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("views_published",
          JsonValue::Number(static_cast<double>(views_published())));
  obj.Set("delta_publishes",
          JsonValue::Number(static_cast<double>(delta_publishes())));
  return obj;
}

JsonValue ReportPayload(const std::string& tenancy, int periods_run,
                        const std::vector<std::string>& built,
                        double cumulative_balance, double cumulative_utility,
                        const ReadDelta& delta) {
  JsonValue payload = JsonValue::MakeObject();
  payload.Set("tenancy", JsonValue::Str(tenancy));
  payload.Set("periods_run", JsonValue::Number(periods_run));
  payload.Set("period_open", JsonValue::Bool(delta.period_open));
  payload.Set("current_slot", JsonValue::Number(delta.current_slot));
  payload.Set("num_tenants", JsonValue::Number(delta.num_tenants));
  JsonValue names = JsonValue::MakeArray();
  names.Reserve(built.size());
  for (const std::string& name : built) names.Append(JsonValue::Str(name));
  payload.Set("built_structures", std::move(names));
  payload.Set("cumulative_balance", JsonValue::Number(cumulative_balance));
  payload.Set("cumulative_utility", JsonValue::Number(cumulative_utility));
  return payload;
}

Result<JsonValue> HistoricalReportPayload(const ReadState& state,
                                          int period) {
  const std::vector<service::PeriodReport>& history = *state.view->history;
  for (const service::PeriodReport& report : history) {
    if (report.period == period) {
      JsonValue payload = JsonValue::MakeObject();
      payload.Set("tenancy", JsonValue::Str(state.view->boundary.name));
      payload.Set("period", JsonValue::Number(period));
      payload.Set("report", service::protocol::ToJson(report));
      return payload;
    }
  }
  return Status::NotFound(
      "no report retained for period " + std::to_string(period) +
      " of tenancy \"" + state.view->boundary.name +
      "\" (reports are retained in-memory since the tenancy was rebuilt)");
}

}  // namespace optshare::analytics
