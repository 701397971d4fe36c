#include "service/state_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/fs.h"
#include "common/logging.h"
#include "service/protocol.h"
#include "simdb/json.h"

namespace optshare::service {
namespace {

constexpr char kSnapshotFile[] = "snapshot.json";

std::string JournalFile(int64_t epoch) {
  return "journal-" + std::to_string(epoch) + ".jsonl";
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " " + path + ": " + std::strerror(errno));
}

/// A snapshot file, unwrapped: the journal epoch it names and the inner
/// state document. Shared by Ensure (epoch discovery) and Load.
struct SnapshotFile {
  int64_t epoch = 0;
  JsonValue state;
};

Result<SnapshotFile> ReadSnapshotFile(const std::string& path) {
  Result<std::string> contents = fs::ReadFile(path);
  if (!contents.ok()) return contents.status();
  Result<JsonValue> doc = JsonValue::Parse(*contents);
  if (!doc.ok()) {
    return Status::Internal("corrupt snapshot " + path + ": " +
                            doc.status().message());
  }
  Result<int64_t> epoch = JsonIntField(*doc, "journal_epoch", "snapshot");
  if (!epoch.ok()) return epoch.status();
  const JsonValue* state = doc->Find("state");
  if (state == nullptr) {
    return Status::Internal("corrupt snapshot " + path +
                            ": missing \"state\"");
  }
  SnapshotFile snapshot;
  snapshot.epoch = *epoch;
  snapshot.state = *state;
  return snapshot;
}

/// Splits journal file contents into complete records. A final segment
/// without its trailing newline is a torn append (crash mid-write) and is
/// dropped, reported through `torn`.
std::vector<std::string> SplitJournal(const std::string& contents,
                                      bool* torn) {
  std::vector<std::string> records;
  size_t start = 0;
  while (start < contents.size()) {
    const size_t newline = contents.find('\n', start);
    if (newline == std::string::npos) {
      *torn = true;
      break;
    }
    if (newline > start) {
      records.push_back(contents.substr(start, newline - start));
    }
    start = newline + 1;
  }
  return records;
}

}  // namespace

Result<std::optional<PersistedTenancy>> StateStore::LoadTenancy(
    const std::string& tenancy) {
  Result<std::vector<PersistedTenancy>> all = Load();
  if (!all.ok()) return all.status();
  for (PersistedTenancy& persisted : *all) {
    if (persisted.name == tenancy) {
      return std::optional<PersistedTenancy>(std::move(persisted));
    }
  }
  return std::optional<PersistedTenancy>(std::nullopt);
}

// -- Snapshot schema --------------------------------------------------------

JsonValue ToJson(const TenancySnapshot& snapshot) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("name", JsonValue::Str(snapshot.name));
  JsonValue tables = JsonValue::MakeArray();
  for (const simdb::TableDef& table : snapshot.tables) {
    tables.Append(simdb::ToJson(table));
  }
  obj.Set("tables", std::move(tables));
  obj.Set("config", protocol::ToJson(snapshot.config));
  JsonValue built = JsonValue::MakeArray();
  for (const std::string& name : snapshot.built) {
    built.Append(JsonValue::Str(name));
  }
  obj.Set("built", std::move(built));
  obj.Set("periods_run", JsonValue::Number(snapshot.periods_run));
  obj.Set("cumulative_balance", JsonValue::Number(snapshot.cumulative_balance));
  obj.Set("cumulative_utility", JsonValue::Number(snapshot.cumulative_utility));
  return obj;
}

Result<TenancySnapshot> TenancySnapshotFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "snapshot"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      v,
      {"name", "tables", "config", "built", "periods_run",
       "cumulative_balance", "cumulative_utility"},
      "snapshot"));
  TenancySnapshot snapshot;
  Result<std::string> name = JsonStringField(v, "name", "snapshot");
  if (!name.ok()) return name.status();
  snapshot.name = std::move(*name);
  Result<const JsonValue::Array*> tables =
      JsonArrayField(v, "tables", "snapshot");
  if (!tables.ok()) return tables.status();
  for (const JsonValue& table_v : **tables) {
    Result<simdb::TableDef> table = simdb::TableDefFromJson(table_v);
    if (!table.ok()) return table.status();
    snapshot.tables.push_back(std::move(*table));
  }
  const JsonValue* config = v.Find("config");
  if (config == nullptr) {
    return Status::InvalidArgument("snapshot: missing \"config\"");
  }
  Result<ServiceConfig> parsed_config =
      protocol::ServiceConfigFromJson(*config);
  if (!parsed_config.ok()) return parsed_config.status();
  snapshot.config = std::move(*parsed_config);
  Result<const JsonValue::Array*> built =
      JsonArrayField(v, "built", "snapshot");
  if (!built.ok()) return built.status();
  for (const JsonValue& name_v : **built) {
    if (!name_v.is_string()) {
      return Status::InvalidArgument(
          "snapshot: \"built\" entries must be strings");
    }
    snapshot.built.push_back(name_v.AsString());
  }
  Result<int64_t> periods = JsonIntField(v, "periods_run", "snapshot");
  if (!periods.ok()) return periods.status();
  snapshot.periods_run = static_cast<int>(*periods);
  Result<double> balance =
      JsonNumberField(v, "cumulative_balance", "snapshot");
  if (!balance.ok()) return balance.status();
  snapshot.cumulative_balance = *balance;
  Result<double> utility =
      JsonNumberField(v, "cumulative_utility", "snapshot");
  if (!utility.ok()) return utility.status();
  snapshot.cumulative_utility = *utility;
  return snapshot;
}

// -- MemoryStateStore -------------------------------------------------------

Status MemoryStateStore::Append(const std::string& tenancy,
                                const std::string& record) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[tenancy].journal.push_back(record);
  ++stats_.appends;
  return Status::OK();
}

Status MemoryStateStore::Checkpoint(const std::string& tenancy,
                                    const JsonValue& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[tenancy];
  entry.snapshot = snapshot;
  entry.journal.clear();
  ++stats_.checkpoints;
  return Status::OK();
}

Status MemoryStateStore::Sync(const std::string& tenancy) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)tenancy;
  ++stats_.syncs;
  return Status::OK();
}

Status MemoryStateStore::Remove(const std::string& tenancy) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(tenancy);
  return Status::OK();
}

Result<std::vector<PersistedTenancy>> MemoryStateStore::Load() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PersistedTenancy> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    PersistedTenancy persisted;
    persisted.name = name;
    persisted.snapshot = entry.snapshot;
    persisted.journal = entry.journal;
    out.push_back(std::move(persisted));
  }
  return out;  // std::map iterates sorted by name.
}

StateStoreStats MemoryStateStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// -- FileStateStore ---------------------------------------------------------

FileStateStore::FileStateStore(std::string data_dir)
    : dir_(std::move(data_dir)) {}

Result<std::unique_ptr<FileStateStore>> FileStateStore::Open(
    std::string data_dir) {
  OPTSHARE_RETURN_NOT_OK(fs::EnsureDir(data_dir));
  return std::unique_ptr<FileStateStore>(
      new FileStateStore(std::move(data_dir)));
}

FileStateStore::~FileStateStore() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, tenant] : tenants_) {
    std::lock_guard<std::mutex> tenant_lock(tenant->mu);
    if (tenant->journal_fd >= 0) {
      ::close(tenant->journal_fd);
      tenant->journal_fd = -1;
    }
  }
}

std::string FileStateStore::TenancyDir(const std::string& tenancy) const {
  return dir_ + "/" + fs::EncodePathComponent(tenancy);
}

Result<FileStateStore::Tenant*> FileStateStore::Ensure(
    const std::string& tenancy) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenancy);
    if (it != tenants_.end()) return it->second.get();
  }
  // First touch: discover the on-disk epoch outside the map lock (file IO),
  // then race-insert.
  const std::string dir = TenancyDir(tenancy);
  OPTSHARE_RETURN_NOT_OK(fs::EnsureDir(dir));
  int64_t epoch = 0;
  const std::string snapshot_path = dir + "/" + kSnapshotFile;
  if (fs::PathExists(snapshot_path)) {
    Result<SnapshotFile> snapshot = ReadSnapshotFile(snapshot_path);
    if (!snapshot.ok()) return snapshot.status();
    epoch = snapshot->epoch;
  }
  // Repair a torn tail (crash mid-append) BEFORE the first new append:
  // recovery drops the newline-less partial record, so leaving it in place
  // would glue it onto the next record and corrupt everything after it on
  // the following recovery.
  const std::string journal_path = dir + "/" + JournalFile(epoch);
  if (fs::PathExists(journal_path)) {
    Result<std::string> contents = fs::ReadFile(journal_path);
    if (!contents.ok()) return contents.status();
    if (!contents->empty() && contents->back() != '\n') {
      const size_t last_newline = contents->find_last_of('\n');
      const off_t keep = last_newline == std::string::npos
                             ? 0
                             : static_cast<off_t>(last_newline) + 1;
      if (::truncate(journal_path.c_str(), keep) != 0) {
        return ErrnoStatus("truncate", journal_path);
      }
    }
  }
  auto fresh = std::make_unique<Tenant>();
  fresh->epoch = epoch;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tenants_.emplace(tenancy, std::move(fresh));
  (void)inserted;
  return it->second.get();
}

Status FileStateStore::Append(const std::string& tenancy,
                              const std::string& record) {
  Result<Tenant*> tenant = Ensure(tenancy);
  if (!tenant.ok()) return tenant.status();
  std::lock_guard<std::mutex> lock((*tenant)->mu);
  if ((*tenant)->journal_fd < 0) {
    const std::string path =
        TenancyDir(tenancy) + "/" + JournalFile((*tenant)->epoch);
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    (*tenant)->journal_fd = fd;
  }
  std::string line = record;
  line.push_back('\n');
  OPTSHARE_RETURN_NOT_OK(
      fs::WriteAllFd((*tenant)->journal_fd, line, TenancyDir(tenancy)));
  appends_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileStateStore::Checkpoint(const std::string& tenancy,
                                  const JsonValue& snapshot) {
  Result<Tenant*> tenant = Ensure(tenancy);
  if (!tenant.ok()) return tenant.status();
  std::lock_guard<std::mutex> lock((*tenant)->mu);
  const std::string dir = TenancyDir(tenancy);
  // Publish the new snapshot first: it names the next journal epoch, so a
  // crash before the old journal is deleted leaves an unambiguous state
  // (the stale epoch is simply never read back).
  JsonValue wrapper = JsonValue::MakeObject();
  wrapper.Set("journal_epoch",
              JsonValue::Number(static_cast<double>((*tenant)->epoch + 1)));
  wrapper.Set("state", snapshot);
  bool published = false;
  Status wrote = fs::WriteFileAtomic(dir + "/" + kSnapshotFile,
                                     wrapper.Dump(), /*sync=*/true,
                                     &published);
  if (!wrote.ok() && !published) {
    // Nothing visible changed: the old snapshot + full journal still
    // replay to the current state, so the caller may keep serving.
    return wrote;
  }
  if (!wrote.ok()) {
    // The rename took effect but its directory fsync failed: readers see
    // the new snapshot, so the bookkeeping below must proceed as if the
    // checkpoint succeeded — only its durability against an OS crash is
    // degraded (equivalent to crashing just before the checkpoint).
    OPTSHARE_LOG(Warning) << "checkpoint of \"" << tenancy
                          << "\" published but not fsync-durable: "
                          << wrote.ToString();
  }
  if ((*tenant)->journal_fd >= 0) {
    ::close((*tenant)->journal_fd);
    (*tenant)->journal_fd = -1;
  }
  // The snapshot is published and names epoch+1, so the in-memory epoch
  // MUST advance with it no matter what: appends that kept writing the
  // old epoch would never be read back. A failed delete merely leaves a
  // stale journal behind — the documented, harmless crash state that
  // recovery already ignores.
  const std::string stale = dir + "/" + JournalFile((*tenant)->epoch);
  ++(*tenant)->epoch;
  Status removed = fs::RemoveFile(stale);
  if (!removed.ok()) {
    OPTSHARE_LOG(Warning) << "checkpoint of \"" << tenancy
                          << "\": stale journal not deleted (ignored on "
                          << "recovery): " << removed.ToString();
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileStateStore::Sync(const std::string& tenancy) {
  Result<Tenant*> tenant = Ensure(tenancy);
  if (!tenant.ok()) return tenant.status();
  std::lock_guard<std::mutex> lock((*tenant)->mu);
  if ((*tenant)->journal_fd >= 0 && ::fsync((*tenant)->journal_fd) != 0) {
    return ErrnoStatus("fsync", TenancyDir(tenancy));
  }
  // The journal file's creation must be durable too.
  OPTSHARE_RETURN_NOT_OK(fs::SyncDir(TenancyDir(tenancy)));
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileStateStore::Remove(const std::string& tenancy) {
  // Take the entry out of the map first; per-tenancy calls are serialized
  // by the server (one shard), so nobody else holds its mutex. Destroying
  // it inside a lock on its own mutex would free locked memory.
  std::unique_ptr<Tenant> removed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenancy);
    if (it != tenants_.end()) {
      removed = std::move(it->second);
      tenants_.erase(it);
    }
  }
  if (removed != nullptr && removed->journal_fd >= 0) {
    ::close(removed->journal_fd);
    removed->journal_fd = -1;
  }
  return fs::RemoveAll(TenancyDir(tenancy));
}

Result<std::vector<PersistedTenancy>> FileStateStore::Load() {
  Result<std::vector<std::string>> entries = fs::ListDir(dir_);
  if (!entries.ok()) return entries.status();
  std::vector<PersistedTenancy> out;
  for (const std::string& entry : *entries) {
    const std::string dir = dir_ + "/" + entry;
    Result<std::string> name = fs::DecodePathComponent(entry);
    if (!name.ok()) {
      return Status::Internal("unrecognized entry \"" + entry +
                              "\" in state dir " + dir_);
    }
    PersistedTenancy persisted;
    persisted.name = std::move(*name);
    int64_t epoch = 0;
    const std::string snapshot_path = dir + "/" + kSnapshotFile;
    if (fs::PathExists(snapshot_path)) {
      Result<SnapshotFile> snapshot = ReadSnapshotFile(snapshot_path);
      if (!snapshot.ok()) return snapshot.status();
      epoch = snapshot->epoch;
      persisted.snapshot = std::move(snapshot->state);
    }
    const std::string journal_path = dir + "/" + JournalFile(epoch);
    if (fs::PathExists(journal_path)) {
      Result<std::string> contents = fs::ReadFile(journal_path);
      if (!contents.ok()) return contents.status();
      persisted.journal = SplitJournal(*contents, &persisted.torn_tail);
    }
    if (persisted.snapshot || !persisted.journal.empty()) {
      out.push_back(std::move(persisted));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PersistedTenancy& a, const PersistedTenancy& b) {
              return a.name < b.name;
            });
  return out;
}

StateStoreStats FileStateStore::stats() const {
  StateStoreStats stats;
  stats.appends = appends_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.syncs = syncs_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace optshare::service
