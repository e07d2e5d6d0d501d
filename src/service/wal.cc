#include "src/service/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/service/protocol.h"

namespace rwl::service {
namespace {

using Clock = std::chrono::steady_clock;

const char* OpName(WalRecord::Op op) {
  switch (op) {
    case WalRecord::Op::kLoad: return "LOAD";
    case WalRecord::Op::kAssert: return "ASSERT";
    case WalRecord::Op::kRetract: return "RETRACT";
    case WalRecord::Op::kSnapshot: return "SNAPSHOT";
    case WalRecord::Op::kDrop: return "DROP";
  }
  return "?";
}

bool ParseU64(const Json* field, uint64_t* out) {
  if (field == nullptr) return false;
  if (field->type == Json::Type::kString) {
    char* end = nullptr;
    *out = std::strtoull(field->string.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && !field->string.empty();
  }
  if (field->type == Json::Type::kNumber && field->number >= 0) {
    *out = static_cast<uint64_t>(field->number);
    return true;
  }
  return false;
}

bool ParseSymbolArray(const Json* field,
                      std::vector<std::pair<std::string, int>>* out,
                      std::string* error) {
  if (field == nullptr) return true;  // optional (empty)
  if (field->type != Json::Type::kArray) {
    *error = "symbol list must be an array";
    return false;
  }
  for (const Json& item : field->items) {
    if (item.type != Json::Type::kArray || item.items.size() != 2 ||
        item.items[0].type != Json::Type::kString ||
        item.items[1].type != Json::Type::kNumber) {
      *error = "symbol entry must be [name, arity]";
      return false;
    }
    out->emplace_back(item.items[0].string,
                      static_cast<int>(item.items[1].number));
  }
  return true;
}

// Filesystem-safe, reversible encoding of a KB name: [A-Za-z0-9_.-] pass
// through, everything else becomes %XX.
std::string EscapeKbName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (unsigned char c : name) {
    if (std::isalnum(c) || c == '_' || c == '.' || c == '-') {
      out += static_cast<char>(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out.empty() ? std::string("%") : out;
}

bool EnsureDir(const std::string& path, std::string* error) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) return true;
  *error = "mkdir " + path + ": " + std::strerror(errno);
  return false;
}

void FsyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

// Writes all of `data` at `offset`; false on an error or a zero-length
// write.
bool WriteAll(int fd, size_t offset, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n =
        ::pwrite(fd, data.data(), data.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
    offset += static_cast<size_t>(n);
  }
  return true;
}

std::string SegmentName(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06" PRIu64 ".ndjson", index);
  return buf;
}

std::string SnapshotName(uint64_t version) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%09" PRIu64 ".ndjson", version);
  return buf;
}

// Parses "wal-<N>.ndjson" / "snap-<N>.ndjson"; returns false otherwise.
bool ParseIndexedName(const std::string& name, const char* prefix,
                      uint64_t* index) {
  size_t prefix_len = std::strlen(prefix);
  if (name.size() <= prefix_len + 7 ||
      name.compare(0, prefix_len, prefix) != 0 ||
      name.compare(name.size() - 7, 7, ".ndjson") != 0) {
    return false;
  }
  std::string digits = name.substr(prefix_len, name.size() - prefix_len - 7);
  if (digits.empty()) return false;
  char* end = nullptr;
  *index = std::strtoull(digits.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ListDir(const std::string& path, std::vector<std::string>* names,
             std::string* error) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    *error = "opendir " + path + ": " + std::strerror(errno);
    return false;
  }
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names->push_back(name);
  }
  ::closedir(dir);
  std::sort(names->begin(), names->end());
  return true;
}

}  // namespace

// ---- record encode / decode ----

// Versions and fingerprints are uint64 and a JSON number is a double
// (53-bit mantissa), so they travel as decimal strings.
std::string EncodeWalRecord(const WalRecord& record) {
  Reply out(96 + record.kb.size() + record.text.size());
  auto strings = [&out](const std::vector<std::string>& items) {
    out << '[';
    for (size_t i = 0; i < items.size(); ++i) {
      out << (i > 0 ? ",\"" : "\"") << Escaped{items[i]} << '"';
    }
    out << ']';
  };
  auto symbols = [&out](const std::vector<std::pair<std::string, int>>& items) {
    out << '[';
    for (size_t i = 0; i < items.size(); ++i) {
      out << (i > 0 ? ",[\"" : "[\"") << Escaped{items[i].first} << "\","
          << items[i].second << ']';
    }
    out << ']';
  };
  out << "{\"op\":\"" << OpName(record.op) << "\",\"kb\":\""
      << Escaped{record.kb} << '"';
  if (record.op != WalRecord::Op::kDrop) {
    out << ",\"version\":\"" << record.version << '"';
  }
  switch (record.op) {
    case WalRecord::Op::kLoad:
      out << ",\"text\":\"" << Escaped{record.text} << '"';
      if (!record.declare.empty()) {
        out << ",\"declare\":";
        strings(record.declare);
      }
      break;
    case WalRecord::Op::kAssert:
    case WalRecord::Op::kRetract:
      out << ",\"text\":\"" << Escaped{record.text} << '"';
      break;
    case WalRecord::Op::kSnapshot:
      out << ",\"fingerprint\":\"" << record.fingerprint
          << "\",\"predicates\":";
      symbols(record.predicates);
      out << ",\"functions\":";
      symbols(record.functions);
      out << ",\"conjuncts\":";
      strings(record.conjuncts);
      break;
    case WalRecord::Op::kDrop:
      break;
  }
  out << '}';
  return out.Take();
}

bool DecodeWalRecord(const std::string& line, WalRecord* out,
                     std::string* error) {
  Json json;
  if (!ParseJson(line, &json, error)) return false;
  if (json.type != Json::Type::kObject) {
    *error = "record must be a JSON object";
    return false;
  }
  const Json* op = json.Find("op");
  if (op == nullptr || op->type != Json::Type::kString) {
    *error = "record missing 'op'";
    return false;
  }
  if (op->string == "LOAD") out->op = WalRecord::Op::kLoad;
  else if (op->string == "ASSERT") out->op = WalRecord::Op::kAssert;
  else if (op->string == "RETRACT") out->op = WalRecord::Op::kRetract;
  else if (op->string == "SNAPSHOT") out->op = WalRecord::Op::kSnapshot;
  else if (op->string == "DROP") out->op = WalRecord::Op::kDrop;
  else {
    *error = "unknown record op '" + op->string + "'";
    return false;
  }
  const Json* kb = json.Find("kb");
  if (kb == nullptr || kb->type != Json::Type::kString) {
    *error = "record missing 'kb'";
    return false;
  }
  out->kb = kb->string;
  if (out->op != WalRecord::Op::kDrop &&
      !ParseU64(json.Find("version"), &out->version)) {
    *error = "record missing 'version'";
    return false;
  }
  const Json* text = json.Find("text");
  if (text != nullptr && text->type == Json::Type::kString) {
    out->text = text->string;
  } else if (out->op == WalRecord::Op::kLoad ||
             out->op == WalRecord::Op::kAssert ||
             out->op == WalRecord::Op::kRetract) {
    *error = "record missing 'text'";
    return false;
  }
  const Json* declare = json.Find("declare");
  if (declare != nullptr && declare->type == Json::Type::kArray) {
    for (const Json& item : declare->items) {
      if (item.type != Json::Type::kString) {
        *error = "'declare' must be an array of strings";
        return false;
      }
      out->declare.push_back(item.string);
    }
  }
  if (out->op == WalRecord::Op::kSnapshot) {
    if (!ParseU64(json.Find("fingerprint"), &out->fingerprint)) {
      *error = "snapshot missing 'fingerprint'";
      return false;
    }
    if (!ParseSymbolArray(json.Find("predicates"), &out->predicates, error) ||
        !ParseSymbolArray(json.Find("functions"), &out->functions, error)) {
      return false;
    }
    const Json* conjuncts = json.Find("conjuncts");
    if (conjuncts != nullptr) {
      if (conjuncts->type != Json::Type::kArray) {
        *error = "'conjuncts' must be an array of strings";
        return false;
      }
      for (const Json& item : conjuncts->items) {
        if (item.type != Json::Type::kString) {
          *error = "'conjuncts' must be an array of strings";
          return false;
        }
        out->conjuncts.push_back(item.string);
      }
    }
  }
  return true;
}

WalRecord MakeSnapshotRecord(const std::string& kb_name, uint64_t version,
                             const KnowledgeBase& kb) {
  WalRecord record;
  record.op = WalRecord::Op::kSnapshot;
  record.kb = kb_name;
  record.version = version;
  record.fingerprint = kb.vocabulary().Fingerprint();
  for (const auto& predicate : kb.vocabulary().predicates()) {
    record.predicates.emplace_back(predicate.name, predicate.arity);
  }
  for (const auto& function : kb.vocabulary().functions()) {
    record.functions.emplace_back(function.name, function.arity);
  }
  record.conjuncts.reserve(kb.conjuncts().size());
  for (size_t i = 0; i < kb.conjuncts().size(); ++i) {
    record.conjuncts.push_back(logic::ToString(kb.conjuncts()[i]));
  }
  return record;
}

bool KbFromSnapshot(const WalRecord& record, KnowledgeBase* out,
                    std::string* error) {
  KnowledgeBase kb;
  // Symbols first, in recorded (registration) order: ids — and therefore
  // the fingerprint, compiled programs and world tables — come out
  // identical to the snapshotted vocabulary's.  A clashing symbol list
  // comes from a corrupt or hostile record: an error, not an abort.
  for (const auto& [name, arity] : record.predicates) {
    if (kb.mutable_vocabulary().AddPredicate(name, arity, error) < 0) {
      return false;
    }
  }
  for (const auto& [name, arity] : record.functions) {
    if (kb.mutable_vocabulary().AddFunction(name, arity, error) < 0) {
      return false;
    }
  }
  for (const std::string& conjunct : record.conjuncts) {
    if (!kb.AddParsed(conjunct, error)) {
      *error = "snapshot conjunct '" + conjunct + "': " + *error;
      return false;
    }
  }
  if (kb.vocabulary().Fingerprint() != record.fingerprint) {
    *error = "snapshot vocabulary fingerprint mismatch (corrupt snapshot?)";
    return false;
  }
  *out = std::move(kb);
  return true;
}

bool ApplyRecordToState(const WalRecord& record,
                        std::unique_ptr<KnowledgeBase>* state,
                        std::string* error) {
  switch (record.op) {
    case WalRecord::Op::kLoad: {
      auto kb = std::make_unique<KnowledgeBase>();
      if (!kb->AddParsed(record.text, error)) return false;
      for (const std::string& constant : record.declare) {
        if (constant.empty()) {
          *error = "empty constant declaration";
          return false;
        }
        if (kb->mutable_vocabulary().AddFunction(constant, 0, error) < 0) {
          return false;
        }
      }
      *state = std::move(kb);
      return true;
    }
    case WalRecord::Op::kSnapshot: {
      auto kb = std::make_unique<KnowledgeBase>();
      if (!KbFromSnapshot(record, kb.get(), error)) return false;
      *state = std::move(kb);
      return true;
    }
    case WalRecord::Op::kAssert:
      if (*state == nullptr) {
        *error = "ASSERT before any LOAD/SNAPSHOT";
        return false;
      }
      return (*state)->AddParsed(record.text, error);
    case WalRecord::Op::kRetract: {
      if (*state == nullptr) {
        *error = "RETRACT before any LOAD/SNAPSHOT";
        return false;
      }
      logic::ParseResult parsed = logic::ParseFormula(record.text);
      if (!parsed.ok()) {
        *error = "retract parse error: " + parsed.error;
        return false;
      }
      size_t removed = RetractConjuncts(
          state->get(), [&](size_t, const logic::FormulaPtr& conjunct) {
            return conjunct == parsed.formula;
          });
      if (removed == 0) {
        *error = "no conjunct matches '" + record.text + "'";
        return false;
      }
      return true;
    }
    case WalRecord::Op::kDrop:
      state->reset();
      return true;
  }
  *error = "unreachable";
  return false;
}

bool ApplyWalRecord(KbCatalog* catalog, const WalRecord& record,
                    uint64_t* local_version, std::string* error) {
  *local_version = 0;
  switch (record.op) {
    case WalRecord::Op::kLoad:
    case WalRecord::Op::kSnapshot: {
      std::unique_ptr<KnowledgeBase> state;
      if (!ApplyRecordToState(record, &state, error)) return false;
      std::shared_ptr<const KbSnapshot> snapshot =
          catalog->Load(record.kb, std::move(*state));
      *local_version = snapshot->version;
      return true;
    }
    case WalRecord::Op::kAssert:
    case WalRecord::Op::kRetract: {
      MutationTicket ticket =
          catalog->Mutate(record.kb, [&](KnowledgeBase* kb,
                                         std::string* edit_error) {
            // Route through the state-apply helper so replica, recovery
            // and live semantics cannot drift.
            auto holder = std::make_unique<KnowledgeBase>(std::move(*kb));
            std::unique_ptr<KnowledgeBase> state = std::move(holder);
            if (!ApplyRecordToState(record, &state, edit_error)) return false;
            *kb = std::move(*state);
            return true;
          });
      if (!ticket.ok) {
        *error = ticket.error;
        return false;
      }
      *local_version = ticket.version;
      return true;
    }
    case WalRecord::Op::kDrop:
      catalog->Drop(record.kb);
      return true;
  }
  *error = "unreachable";
  return false;
}

// ---- KbWal ----

KbWal::KbWal(const WalOptions& options) : options_(options) {
  fsync_samples_.reserve(kMaxFsyncSamples);
  ok_ = EnsureDir(options_.dir, &init_error_);
}

KbWal::~KbWal() {
  // Close every open segment through the one close path, so buffered
  // records land and the preallocated padding is cut on a clean shutdown.
  std::map<std::string, std::shared_ptr<Writer>> writers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    writers = writers_;
  }
  for (auto& [name, writer] : writers) {
    std::unique_lock<std::mutex> lock(writer->mutex);
    CloseSegmentLocked(writer.get(), lock);
  }
}

std::shared_ptr<KbWal::Writer> KbWal::FindWriter(const std::string& kb) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = writers_.find(kb);
  return it != writers_.end() ? it->second : nullptr;
}

std::shared_ptr<KbWal::Writer> KbWal::GetWriter(const std::string& kb) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = writers_.find(kb);
  if (it != writers_.end()) return it->second;
  auto writer = std::make_shared<Writer>();
  writer->dir = options_.dir + "/" + EscapeKbName(kb);
  std::string dir_error;
  if (!EnsureDir(writer->dir, &dir_error)) return nullptr;
  // Segments already on disk predate this writer: recovery loaded them
  // and put every new version above theirs, so any snapshot covers them.
  // New segments resume after the highest, never appending to old ones.
  std::vector<std::string> names;
  std::string list_error;
  if (ListDir(writer->dir, &names, &list_error)) {
    for (const std::string& name : names) {
      uint64_t index = 0;
      if (ParseIndexedName(name, "wal-", &index)) {
        writer->closed_segments[index] = 0;
        writer->segment_index = std::max(writer->segment_index, index);
      }
    }
  }
  writers_.emplace(kb, writer);
  return writer;
}

bool KbWal::OpenSegment(Writer* writer, std::string* error) {
  if (writer->fd >= 0) return true;
  ++writer->segment_index;
  std::string path = writer->dir + "/" + SegmentName(writer->segment_index);
  writer->fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0666);
  if (writer->fd < 0) {
    *error = "open " + path + ": " + std::strerror(errno);
    return false;
  }
  writer->segment_bytes = 0;
  // Preallocate the whole segment with REAL zero blocks (not fallocate's
  // unwritten extents) so steady-state appends rewrite already-written
  // blocks in place: fdatasync then has no metadata to commit — no i_size
  // update, no unwritten-extent conversion — and issues a pure data flush
  // that never waits on a jbd2 journal commit.  On ext4 that is the
  // difference between a multi-millisecond and a sub-millisecond ack-path
  // fsync tail.  The one-time cost lands here, off the per-ack path, once
  // per segment.  The close path truncates back to the bytes actually
  // written; after a crash the NUL padding sits behind the last record
  // and recovery skips it.  A failed write is fine: appends past the
  // preallocated region fall back to extending writes, just with a
  // slower tail.
  const std::string zeros(std::min<size_t>(options_.segment_bytes, 1 << 20),
                          '\0');
  for (size_t filled = 0; filled < options_.segment_bytes;) {
    const std::string_view chunk = std::string_view(zeros).substr(
        0, options_.segment_bytes - filled);
    if (!WriteAll(writer->fd, filled, chunk)) break;
    filled += chunk.size();
  }
  ::fsync(writer->fd);  // flush the padding now, not under the first ack
  FsyncDir(writer->dir);  // make the new segment's name durable
  return true;
}

uint64_t KbWal::Append(const std::string& kb, uint64_t version,
                       const std::string& line) {
  std::shared_ptr<Writer> writer = GetWriter(kb);
  if (writer == nullptr) return 0;
  std::lock_guard<std::mutex> lock(writer->mutex);
  uint64_t seq = writer->next_seq++;
  writer->pending += line;
  writer->pending += '\n';
  writer->pending_seq = seq;
  writer->pending_version = version;
  ++writer->appends_since_snapshot;
  appends_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

bool KbWal::FlushLocked(Writer* writer, std::unique_lock<std::mutex>& lock,
                        bool close) {
  std::string batch;
  batch.swap(writer->pending);
  const uint64_t batch_seq = writer->pending_seq;
  const uint64_t batch_version = writer->pending_version;
  const int fd = writer->fd;
  const size_t offset = writer->segment_bytes;
  writer->syncing = true;
  lock.unlock();

  // Every write lands at the segment's logical end, so a failed batch
  // leaves no hole: the next batch overwrites it, or the close cuts it.
  const bool written = WriteAll(fd, offset, batch);
  const size_t end = written ? offset + batch.size() : offset;
  if (close) (void)!::ftruncate(fd, static_cast<off_t>(end));
  const Clock::time_point fsync_start = Clock::now();
  const bool ok = ::fdatasync(fd) == 0 && written;
  const int saved_errno = errno;
  if (close) {
    ::close(fd);
  } else {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    RecordFsync(std::chrono::duration<double, std::micro>(Clock::now() -
                                                          fsync_start)
                    .count());
  }

  lock.lock();
  writer->syncing = false;
  writer->segment_bytes = end;
  if (ok) {
    writer->durable_seq = std::max(writer->durable_seq, batch_seq);
  } else {
    writer->failed_seq = std::max(writer->failed_seq, batch_seq);
    writer->failed_errno = saved_errno;
  }
  if (close) {
    writer->fd = -1;
    writer->closed_segments[writer->segment_index] = batch_version;
  }
  writer->cv.notify_all();
  return ok;
}

void KbWal::CloseSegmentLocked(Writer* writer,
                               std::unique_lock<std::mutex>& lock) {
  writer->cv.wait(lock, [writer] { return !writer->syncing; });
  if (writer->fd >= 0) FlushLocked(writer, lock, /*close=*/true);
}

bool KbWal::Sync(const std::string& kb, uint64_t seq, std::string* error) {
  std::shared_ptr<Writer> writer = FindWriter(kb);
  if (writer == nullptr) {
    *error = "no WAL writer for '" + kb + "'";
    return false;
  }
  std::unique_lock<std::mutex> lock(writer->mutex);
  for (;;) {
    if (seq <= writer->failed_seq) {
      *error = std::string("WAL write/fsync failed: ") +
               std::strerror(writer->failed_errno);
      return false;
    }
    if (writer->durable_seq >= seq) return true;
    if (writer->syncing) {
      writer->cv.wait(lock);
      continue;
    }
    // Become the group-commit leader: take the whole pending buffer (ours
    // and every record buffered behind us) through one write + fsync, and
    // rotate once the segment exceeds the cap (the next leader opens the
    // successor lazily).
    if (!OpenSegment(writer.get(), error)) return false;
    if (!FlushLocked(writer.get(), lock, /*close=*/false)) continue;
    if (writer->segment_bytes >= options_.segment_bytes) {
      CloseSegmentLocked(writer.get(), lock);
    }
    return true;
  }
}

bool KbWal::SnapshotDue(const std::string& kb) const {
  if (options_.snapshot_every <= 0) return false;
  std::shared_ptr<Writer> writer = FindWriter(kb);
  if (writer == nullptr) return false;
  std::lock_guard<std::mutex> lock(writer->mutex);
  return writer->appends_since_snapshot >=
         static_cast<uint64_t>(options_.snapshot_every);
}

bool KbWal::WriteSnapshot(const std::string& kb, uint64_t version,
                          const KnowledgeBase& state, std::string* error) {
  std::shared_ptr<Writer> writer = GetWriter(kb);
  if (writer == nullptr) {
    *error = "cannot create WAL directory for '" + kb + "'";
    return false;
  }
  // One snapshot at a time per KB (the service's snapshot worker is
  // single-threaded; recovery runs before it starts — this is a guard).
  std::lock_guard<std::mutex> snapshot_lock(writer->snapshot_mutex);
  {
    // Close the open segment so it can be truncated once it is covered.
    std::unique_lock<std::mutex> lock(writer->mutex);
    CloseSegmentLocked(writer.get(), lock);
    writer->appends_since_snapshot = 0;
  }

  // Serialize + write to a temp file, fsync, atomic rename.
  const std::string payload =
      EncodeWalRecord(MakeSnapshotRecord(kb, version, state)) + "\n";
  const std::string tmp_path = writer->dir + "/snap-tmp";
  const std::string final_path = writer->dir + "/" + SnapshotName(version);
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0666);
  if (fd < 0) {
    *error = "open " + tmp_path + ": " + std::strerror(errno);
    return false;
  }
  const bool ok = WriteAll(fd, 0, payload) && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    *error = "snapshot write failed: " + std::string(std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return false;
  }
  FsyncDir(writer->dir);

  // Truncate: the closed segments the snapshot covers, and older
  // snapshots, are now redundant.
  std::vector<uint64_t> covered;
  {
    std::lock_guard<std::mutex> lock(writer->mutex);
    auto& closed = writer->closed_segments;
    for (auto it = closed.begin(); it != closed.end();) {
      if (it->second <= version) {
        covered.push_back(it->first);
        it = closed.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (uint64_t index : covered) {
    if (::unlink((writer->dir + "/" + SegmentName(index)).c_str()) == 0) {
      segments_deleted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::vector<std::string> names;
  std::string list_error;
  if (ListDir(writer->dir, &names, &list_error)) {
    for (const std::string& name : names) {
      uint64_t index = 0;
      if (ParseIndexedName(name, "snap-", &index) && index < version) {
        ::unlink((writer->dir + "/" + name).c_str());
      }
    }
  }
  FsyncDir(writer->dir);
  // Counted after the truncation, with release: a stats() reader that sees
  // this snapshot also sees the segments it deleted.
  snapshots_.fetch_add(1, std::memory_order_release);
  return true;
}

void KbWal::Remove(const std::string& kb) {
  std::shared_ptr<Writer> writer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = writers_.find(kb);
    if (it != writers_.end()) {
      writer = it->second;
      writers_.erase(it);
    }
  }
  std::string dir = options_.dir + "/" + EscapeKbName(kb);
  if (writer != nullptr) {
    std::unique_lock<std::mutex> lock(writer->mutex);
    CloseSegmentLocked(writer.get(), lock);
  }
  std::vector<std::string> names;
  std::string list_error;
  if (ListDir(dir, &names, &list_error)) {
    for (const std::string& name : names) {
      ::unlink((dir + "/" + name).c_str());
    }
    ::rmdir(dir.c_str());
    FsyncDir(options_.dir);
  }
}

void KbWal::RecordFsync(double micros) {
  std::lock_guard<std::mutex> lock(fsync_stats_mutex_);
  if (fsync_samples_.size() < kMaxFsyncSamples) {
    fsync_samples_.push_back(micros);
  } else {
    fsync_samples_[fsync_sample_next_] = micros;
    fsync_sample_next_ = (fsync_sample_next_ + 1) % kMaxFsyncSamples;
  }
}

WalStats KbWal::stats() const {
  WalStats stats;
  stats.appends = appends_.load(std::memory_order_relaxed);
  stats.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_acquire);
  stats.segments_deleted = segments_deleted_.load(std::memory_order_relaxed);
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(fsync_stats_mutex_);
    samples = fsync_samples_;
  }
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    auto at = [&](double q) {
      size_t index = static_cast<size_t>(q * (samples.size() - 1));
      return samples[index];
    };
    stats.fsync_p50_us = at(0.50);
    stats.fsync_p99_us = at(0.99);
    stats.fsync_max_us = samples.back();
  }
  return stats;
}

// ---- recovery ----

bool KbWal::Recover(const std::string& dir, std::vector<RecoveredKb>* out,
                    uint64_t* max_version,
                    std::vector<std::string>* warnings, std::string* error) {
  *max_version = 0;
  std::vector<std::string> kb_dirs;
  {
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0) return true;  // nothing to recover
    if (!ListDir(dir, &kb_dirs, error)) return false;
  }
  for (const std::string& kb_dir_name : kb_dirs) {
    const std::string kb_dir = dir + "/" + kb_dir_name;
    struct stat st;
    if (::stat(kb_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) continue;
    std::vector<std::string> names;
    std::string list_error;
    if (!ListDir(kb_dir, &names, &list_error)) {
      if (warnings) warnings->push_back(list_error);
      continue;
    }

    // Newest readable snapshot.
    std::unique_ptr<KnowledgeBase> state;
    std::string kb_name;
    uint64_t base_version = 0;
    std::vector<uint64_t> snapshot_versions;
    for (const std::string& name : names) {
      uint64_t version = 0;
      if (ParseIndexedName(name, "snap-", &version)) {
        snapshot_versions.push_back(version);
      }
    }
    std::sort(snapshot_versions.rbegin(), snapshot_versions.rend());
    for (uint64_t version : snapshot_versions) {
      std::ifstream in(kb_dir + "/" + SnapshotName(version));
      std::string line;
      WalRecord record;
      std::string parse_error;
      if (in && std::getline(in, line) &&
          DecodeWalRecord(line, &record, &parse_error) &&
          record.op == WalRecord::Op::kSnapshot) {
        std::unique_ptr<KnowledgeBase> snap_state;
        if (ApplyRecordToState(record, &snap_state, &parse_error)) {
          state = std::move(snap_state);
          kb_name = record.kb;
          base_version = record.version;
          break;
        }
      }
      if (warnings) {
        warnings->push_back(kb_dir + "/" + SnapshotName(version) + ": " +
                            (parse_error.empty() ? "unreadable"
                                                 : parse_error));
      }
    }

    // All segment records, version-sorted.  A torn final record — a crash
    // mid-append — is the last line of the last segment; it was never
    // acked, so it is dropped silently.
    std::vector<uint64_t> segment_indices;
    for (const std::string& name : names) {
      uint64_t index = 0;
      if (ParseIndexedName(name, "wal-", &index)) {
        segment_indices.push_back(index);
      }
    }
    std::sort(segment_indices.begin(), segment_indices.end());
    std::vector<WalRecord> records;
    bool truncated = false;  // stop collecting after a corrupt mid-log line
    for (size_t si = 0; si < segment_indices.size() && !truncated; ++si) {
      const bool last_segment = si + 1 == segment_indices.size();
      std::ifstream in(kb_dir + "/" + SegmentName(segment_indices[si]));
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        WalRecord record;
        std::string parse_error;
        if (!DecodeWalRecord(line, &record, &parse_error)) {
          // Segments are preallocated; after a crash the last one may end
          // in a NUL-padded tail.  An all-NUL "line" is unambiguously that
          // padding, never a damaged record — skip it silently.
          if (line.find_first_not_of('\0') == std::string::npos) continue;
          const bool at_eof = in.peek() == EOF;
          if (last_segment && at_eof) break;  // torn final record
          if (warnings) {
            warnings->push_back(kb_dir + "/" +
                                SegmentName(segment_indices[si]) +
                                ": corrupt record (" + parse_error +
                                "); replay stops at the last good prefix");
          }
          truncated = true;
          break;
        }
        records.push_back(std::move(record));
      }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const WalRecord& a, const WalRecord& b) {
                       return a.version < b.version;
                     });

    uint64_t version = base_version;
    size_t replayed = 0;
    for (const WalRecord& record : records) {
      *max_version = std::max(*max_version, record.version);
      if (record.version <= base_version) continue;  // covered by snapshot
      std::string apply_error;
      if (!ApplyRecordToState(record, &state, &apply_error)) {
        if (warnings) {
          warnings->push_back(kb_dir + ": replaying v" +
                              std::to_string(record.version) + ": " +
                              apply_error);
        }
        continue;
      }
      if (kb_name.empty()) kb_name = record.kb;
      version = record.version;
      ++replayed;
    }
    *max_version = std::max(*max_version, version);
    if (state == nullptr || kb_name.empty()) {
      if (warnings && (!records.empty() || !snapshot_versions.empty())) {
        warnings->push_back(kb_dir + ": no recoverable state");
      }
      continue;
    }
    RecoveredKb recovered;
    recovered.name = kb_name;
    recovered.kb = std::move(*state);
    recovered.version = version;
    recovered.replayed_records = replayed;
    out->push_back(std::move(recovered));
  }
  return true;
}

}  // namespace rwl::service
