#include "core/id_table.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <future>
#include <unordered_set>

#include "common/cancel.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "sparql/expr_eval.h"

namespace lusail::core {

namespace {

/// FNV-style hash of an id row (ProjectIds' DISTINCT set).
struct IdRowHash {
  size_t operator()(const std::vector<rdf::TermId>& row) const {
    size_t h = 1469598103934665603ULL;
    for (rdf::TermId id : row) {
      h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

const std::vector<rdf::TermId>& EmptyColumn() {
  static const std::vector<rdf::TermId> empty;
  return empty;
}

}  // namespace

int IdTable::VarIndex(const std::string& var) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> IdTable::SharedVars(const IdTable& a,
                                             const IdTable& b) {
  std::vector<std::string> shared;
  for (const std::string& v : a.vars) {
    if (b.VarIndex(v) >= 0) shared.push_back(v);
  }
  return shared;
}

void IdTable::SyncColumns() {
  while (cols_.size() < vars.size()) {
    cols_.emplace_back(num_rows_, rdf::kInvalidTermId);
  }
}

void IdTable::Set(size_t row, size_t col, rdf::TermId id) {
  SyncColumns();
  cols_[col][row] = id;
}

void IdTable::AppendRow(const std::vector<rdf::TermId>& row) {
  SyncColumns();
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(c < row.size() ? row[c] : rdf::kInvalidTermId);
  }
  ++num_rows_;
}

void IdTable::AddEmptyRows(size_t n) {
  SyncColumns();
  for (auto& col : cols_) col.resize(num_rows_ + n, rdf::kInvalidTermId);
  num_rows_ += n;
}

std::vector<rdf::TermId> IdTable::Row(size_t row) const {
  std::vector<rdf::TermId> out(vars.size(), rdf::kInvalidTermId);
  for (size_t c = 0; c < cols_.size() && c < out.size(); ++c) {
    out[c] = cols_[c][row];
  }
  return out;
}

const std::vector<rdf::TermId>& IdTable::Column(size_t col) const {
  return col < cols_.size() ? cols_[col] : EmptyColumn();
}

std::vector<rdf::TermId>* IdTable::MutableColumn(size_t col) {
  SyncColumns();
  return &cols_[col];
}

void IdTable::Reserve(size_t rows) {
  SyncColumns();
  for (auto& col : cols_) col.reserve(rows);
}

void IdTable::Clear() {
  for (auto& col : cols_) col.clear();
  num_rows_ = 0;
}

IdTable IdTable::SelectRows(const std::vector<uint32_t>& rows) const {
  std::vector<std::vector<rdf::TermId>> cols(vars.size());
  for (size_t c = 0; c < vars.size(); ++c) {
    if (c >= cols_.size()) continue;  // Missing column: all-unbound.
    const std::vector<rdf::TermId>& src = cols_[c];
    std::vector<rdf::TermId>& dst = cols[c];
    dst.resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) dst[k] = src[rows[k]];
  }
  return FromColumns(vars, std::move(cols), rows.size());
}

IdTable IdTable::Slice(size_t begin, size_t end) const {
  begin = std::min(begin, num_rows_);
  end = std::min(std::max(end, begin), num_rows_);
  std::vector<std::vector<rdf::TermId>> cols(vars.size());
  for (size_t c = 0; c < vars.size(); ++c) {
    if (c >= cols_.size()) continue;
    cols[c].assign(cols_[c].begin() + begin, cols_[c].begin() + end);
  }
  return FromColumns(vars, std::move(cols), end - begin);
}

IdTable IdTable::FromColumns(std::vector<std::string> names,
                             std::vector<std::vector<rdf::TermId>> cols,
                             size_t num_rows) {
  IdTable out(std::move(names));
  cols.resize(out.vars.size());
  for (auto& col : cols) {
    if (col.empty() && num_rows > 0) col.assign(num_rows, rdf::kInvalidTermId);
  }
  out.cols_ = std::move(cols);
  out.num_rows_ = num_rows;
  return out;
}

namespace {

/// Units of work (left rows probed, right rows examined, cells written)
/// between two polls of a join's cancel token.
constexpr size_t kPollEvery = 1024;

/// Output cells allocated between two polls of a join's cancel token.
constexpr size_t kFillStep = size_t{1} << 16;

bool Fired(const CancelToken* cancel) {
  return cancel != nullptr && cancel->Cancelled();
}

/// Counts units of work and polls the token once per kPollEvery of them.
class Poller {
 public:
  explicit Poller(const CancelToken* cancel) : cancel_(cancel) {}

  /// Adds `units`; true once the token has fired.
  bool Tick(size_t units = 1) {
    work_ += units;
    if (work_ < kPollEvery) return false;
    work_ = 0;
    return Fired(cancel_);
  }

 private:
  const CancelToken* cancel_;
  size_t work_ = 0;
};

/// Range `i` of `n` contiguous, near-equal ranges of [0, rows).
std::pair<size_t, size_t> RangeOf(size_t i, size_t n, size_t rows) {
  return {rows * i / n, rows * (i + 1) / n};
}

/// Runs fn(0) .. fn(n - 1) and returns when all have: fn(0) on the
/// calling thread and the rest on `pool`, or all inline without one.
template <typename Fn>
void RunTasks(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> rest;
  for (size_t i = 1; i < n; ++i) {
    rest.push_back(pool->Submit([&fn, i] { fn(i); }));
  }
  if (n > 0) fn(0);
  for (auto& f : rest) f.get();
}

/// Fills `col` with `n` unbound cells, kFillStep at a time, so a fired
/// token is seen while a large output is allocated.
void FillUnbound(size_t n, const CancelToken* cancel,
                 std::vector<rdf::TermId>* col) {
  col->reserve(n);
  while (col->size() < n && !Fired(cancel)) {
    col->resize(std::min(n, col->size() + kFillStep), rdf::kInvalidTermId);
  }
}

/// A join side's key cells: one pointer per shared variable's column,
/// nullptr for a column with no storage (all unbound).
using KeyColumns = std::vector<const rdf::TermId*>;

KeyColumns KeysOf(const IdTable& table, const std::vector<int>& idx) {
  KeyColumns keys;
  for (int c : idx) {
    const std::vector<rdf::TermId>& col = table.Column(c);
    keys.push_back(col.empty() ? nullptr : col.data());
  }
  return keys;
}

bool KeyBound(const KeyColumns& keys, size_t row) {
  for (const rdf::TermId* col : keys) {
    if (col == nullptr || col[row] == rdf::kInvalidTermId) return false;
  }
  return true;
}

uint64_t KeyHash(const KeyColumns& keys, size_t row) {
  uint64_t h = 0;
  for (const rdf::TermId* col : keys) {
    h = (h ^ col[row]) * 0x9e3779b97f4a7c15ULL;
  }
  return h;
}

/// One range of left rows' matches: the compatible (left, right) row
/// pairs in left-row order, and the left rows with none.
struct Matches {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<uint32_t> unmatched;
};

/// The match pass JoinIds and SemiJoinIds share. Construction indexes the
/// right side: its rows with every key cell bound are counting-sorted by
/// key hash into power-of-two buckets (one u32 per row and one per
/// bucket, no per-key allocation), the rest go on a wildcard list, both in
/// ascending row order. Match() reads the index only, so disjoint ranges
/// of left rows can be probed concurrently.
class Matcher {
 public:
  Matcher(const IdTable& left, const IdTable& right,
          const std::vector<int>& shared_left,
          const std::vector<int>& shared_right)
      : left_keys_(KeysOf(left, shared_left)),
        right_keys_(KeysOf(right, shared_right)),
        right_rows_(right.NumRows()) {
    const size_t buckets = std::bit_ceil(std::max<size_t>(2, right_rows_));
    shift_ = 64 - std::countr_zero(buckets);
    // Count each bucket's rows, turn the counts into bucket ends, then
    // place the rows back to front, leaving start_[b] at bucket b's
    // first row and each bucket in ascending row order.
    start_.assign(buckets + 1, 0);
    for (size_t r = 0; r < right_rows_; ++r) {
      if (KeyBound(right_keys_, r)) {
        ++start_[Bucket(right_keys_, r)];
      } else {
        wildcards_.push_back(static_cast<uint32_t>(r));
      }
    }
    uint32_t end = 0;
    for (uint32_t& s : start_) s = end += s;
    rows_.resize(end);
    for (size_t r = right_rows_; r-- > 0;) {
      if (KeyBound(right_keys_, r)) {
        rows_[--start_[Bucket(right_keys_, r)]] = static_cast<uint32_t>(r);
      }
    }
  }

  /// Appends the matches of left rows [begin, end) to `out`. A row with
  /// every key cell bound meets its bucket's equal keys, then the
  /// compatible wildcards; a row with an unbound key cell scans every
  /// right row. With `want_unmatched` the rows with no match are listed;
  /// with `first_only` each row stops at its first match. Polls `cancel`
  /// per kPollEvery rows probed and examined, and stops, with `out`
  /// incomplete, once it has fired.
  void Match(size_t begin, size_t end, bool first_only, bool want_unmatched,
             const CancelToken* cancel, Matches* out) const {
    Poller poll(cancel);
    out->pairs.reserve(end - begin);
    for (size_t l = begin; l < end; ++l) {
      if (poll.Tick()) return;
      bool matched = false;
      bool fired = false;
      // Examines right row r; false when row l is done or the token fired.
      auto visit = [&](size_t r) {
        if (poll.Tick()) {
          fired = true;
          return false;
        }
        if (Compatible(l, r)) {
          out->pairs.emplace_back(static_cast<uint32_t>(l),
                                  static_cast<uint32_t>(r));
          matched = true;
        }
        return !(matched && first_only);
      };
      if (KeyBound(left_keys_, l)) {
        const size_t b = Bucket(left_keys_, l);
        bool more = true;
        for (uint32_t i = start_[b]; more && i < start_[b + 1]; ++i) {
          more = visit(rows_[i]);
        }
        for (size_t i = 0; more && i < wildcards_.size(); ++i) {
          more = visit(wildcards_[i]);
        }
      } else {
        for (size_t r = 0; r < right_rows_ && visit(r); ++r) {
        }
      }
      if (fired) return;
      if (want_unmatched && !matched) {
        out->unmatched.push_back(static_cast<uint32_t>(l));
      }
    }
  }

 private:
  size_t Bucket(const KeyColumns& keys, size_t row) const {
    return KeyHash(keys, row) >> shift_;
  }

  bool Compatible(size_t l, size_t r) const {
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      rdf::TermId a = left_keys_[i] ? left_keys_[i][l] : rdf::kInvalidTermId;
      rdf::TermId b = right_keys_[i] ? right_keys_[i][r] : rdf::kInvalidTermId;
      if (a != rdf::kInvalidTermId && b != rdf::kInvalidTermId && a != b) {
        return false;
      }
    }
    return true;
  }

  KeyColumns left_keys_;
  KeyColumns right_keys_;
  size_t right_rows_;
  int shift_;
  // Bucket b holds rows_[start_[b], start_[b + 1]).
  std::vector<uint32_t> start_;
  std::vector<uint32_t> rows_;
  std::vector<uint32_t> wildcards_;
};

}  // namespace

IdTable JoinIds(const IdTable& left, const IdTable& right, bool left_outer,
                ThreadPool* pool, size_t partitions,
                const CancelToken* cancel) {
  std::vector<std::string> shared = IdTable::SharedVars(left, right);
  std::vector<int> shared_left, shared_right, right_only;
  std::vector<std::string> out_vars = left.vars;
  for (const std::string& v : shared) {
    shared_left.push_back(left.VarIndex(v));
    shared_right.push_back(right.VarIndex(v));
  }
  for (size_t i = 0; i < right.vars.size(); ++i) {
    if (std::find(shared.begin(), shared.end(), right.vars[i]) ==
        shared.end()) {
      right_only.push_back(static_cast<int>(i));
      out_vars.push_back(right.vars[i]);
    }
  }
  // Which right shared column backfills left column `c` when the left
  // cell is unbound (compatibility-join output prefers the bound side).
  std::vector<int> backfill(left.NumVars(), -1);
  for (size_t i = 0; i < shared_left.size(); ++i) {
    backfill[shared_left[i]] = shared_right[i];
  }

  const size_t ln = left.NumRows();
  const size_t rn = right.NumRows();
  if (ln == 0 || (rn == 0 && !left_outer) || Fired(cancel)) {
    return IdTable(std::move(out_vars));
  }
  // With no shared variable every left row meets every right row, in
  // order: the product is written by repeat and tile, with no match pass,
  // and its work measure is its output rows.
  const bool cross = shared.empty() && rn > 0;
  const size_t work = cross ? ln * rn : ln;
  const size_t ranges = (pool == nullptr || partitions <= 1 ||
                         work < kJoinParallelWork)
                            ? 1
                            : std::min(partitions, ln);

  // Pass 1: each range's match pairs and unmatched left rows. Only key
  // columns are read.
  std::vector<Matches> parts(ranges);
  if (!cross) {
    Matcher matcher(left, right, shared_left, shared_right);
    RunTasks(pool, ranges, [&](size_t i) {
      auto [begin, end] = RangeOf(i, ranges, ln);
      Matches local;  // Not parts[i]: neighbouring parts share cache lines.
      matcher.Match(begin, end, /*first_only=*/false, left_outer, cancel,
                    &local);
      parts[i] = std::move(local);
    });
    if (Fired(cancel)) return IdTable(std::move(out_vars));
  }

  // Output row offsets: every range's matched rows in range order, then
  // (for OPTIONAL) every range's unmatched lefts padded unbound — the
  // serial order, whatever the number of ranges.
  std::vector<size_t> matched_at(ranges + 1, 0);
  std::vector<size_t> unmatched_at(ranges + 1, 0);
  for (size_t i = 0; i < ranges; ++i) {
    auto [begin, end] = RangeOf(i, ranges, ln);
    matched_at[i + 1] =
        matched_at[i] + (cross ? (end - begin) * rn : parts[i].pairs.size());
  }
  unmatched_at[0] = matched_at[ranges];
  for (size_t i = 0; i < ranges; ++i) {
    unmatched_at[i + 1] = unmatched_at[i] + parts[i].unmatched.size();
  }
  const size_t total = unmatched_at[ranges];
  // First-touching a large output is much of its cost, so a split join
  // allocates each column on its own task.
  std::vector<std::vector<rdf::TermId>> cols(out_vars.size());
  RunTasks(ranges > 1 ? pool : nullptr, cols.size(),
           [&](size_t c) { FillUnbound(total, cancel, &cols[c]); });
  if (Fired(cancel)) return IdTable(std::move(out_vars));

  // Pass 2: each range writes its own rows of every output column.
  RunTasks(pool, ranges, [&](size_t i) {
    auto [begin, end] = RangeOf(i, ranges, ln);
    const Matches& m = parts[i];
    Poller poll(cancel);
    for (size_t c = 0; c < left.NumVars(); ++c) {
      const std::vector<rdf::TermId>& lc = left.Column(c);
      const std::vector<rdf::TermId>& rc =
          backfill[c] >= 0 ? right.Column(backfill[c]) : EmptyColumn();
      if (lc.empty() && rc.empty()) continue;  // Unbound, as filled.
      rdf::TermId* dst = cols[c].data() + matched_at[i];
      if (cross) {
        for (size_t l = begin; l < end; ++l, dst += rn) {
          if (poll.Tick(rn)) return;
          std::fill_n(dst, rn, lc[l]);
        }
        continue;
      }
      for (const auto& [l, r] : m.pairs) {
        if (poll.Tick()) return;
        rdf::TermId v = lc.empty() ? rdf::kInvalidTermId : lc[l];
        *dst++ = v == rdf::kInvalidTermId && !rc.empty() ? rc[r] : v;
      }
      if (lc.empty()) continue;
      dst = cols[c].data() + unmatched_at[i];
      for (uint32_t l : m.unmatched) *dst++ = lc[l];
    }
    for (size_t j = 0; j < right_only.size(); ++j) {
      const std::vector<rdf::TermId>& rc = right.Column(right_only[j]);
      if (rc.empty()) continue;
      rdf::TermId* dst = cols[left.NumVars() + j].data() + matched_at[i];
      if (cross) {
        for (size_t l = begin; l < end; ++l, dst += rn) {
          if (poll.Tick(rn)) return;
          std::copy(rc.begin(), rc.end(), dst);
        }
        continue;
      }
      for (const auto& pair : m.pairs) {
        if (poll.Tick()) return;
        *dst++ = rc[pair.second];
      }
    }
  });
  if (Fired(cancel)) return IdTable(std::move(out_vars));
  return IdTable::FromColumns(std::move(out_vars), std::move(cols), total);
}

IdTable SemiJoinIds(const IdTable& left, const IdTable& right,
                    bool negated) {
  std::vector<int> shared_left, shared_right;
  for (const std::string& v : IdTable::SharedVars(left, right)) {
    shared_left.push_back(left.VarIndex(v));
    shared_right.push_back(right.VarIndex(v));
  }
  Matches m;
  Matcher(left, right, shared_left, shared_right)
      .Match(0, left.NumRows(), /*first_only=*/true, /*want_unmatched=*/true,
             /*cancel=*/nullptr, &m);
  if (negated) return left.SelectRows(m.unmatched);
  std::vector<uint32_t> kept;
  kept.reserve(m.pairs.size());
  for (const auto& pair : m.pairs) kept.push_back(pair.first);
  return left.SelectRows(kept);
}

void AppendUnionIds(IdTable* dst, const IdTable& src) {
  if (dst->NumVars() == 0 && dst->NumRows() == 0) {
    *dst = src;
    return;
  }
  const size_t old_rows = dst->NumRows();
  dst->AddEmptyRows(src.NumRows());
  for (size_t i = 0; i < src.NumVars(); ++i) {
    int idx = dst->VarIndex(src.vars[i]);
    if (idx < 0) {
      idx = static_cast<int>(dst->vars.size());
      dst->vars.push_back(src.vars[i]);
    }
    const std::vector<rdf::TermId>& sc = src.Column(i);
    if (sc.empty()) continue;  // All-unbound: the padding already says so.
    std::vector<rdf::TermId>* dc = dst->MutableColumn(idx);
    std::copy(sc.begin(), sc.end(), dc->begin() + old_rows);
  }
}

IdTable ProjectIds(const IdTable& table, const std::vector<std::string>& vars,
                   bool distinct) {
  std::vector<int> idx;
  idx.reserve(vars.size());
  for (const std::string& v : vars) idx.push_back(table.VarIndex(v));
  const size_t n = table.NumRows();
  if (!distinct) {
    std::vector<std::vector<rdf::TermId>> cols(vars.size());
    for (size_t c = 0; c < idx.size(); ++c) {
      if (idx[c] < 0) continue;
      const std::vector<rdf::TermId>& src = table.Column(idx[c]);
      if (!src.empty()) cols[c] = src;
    }
    return IdTable::FromColumns(vars, std::move(cols), n);
  }
  std::unordered_set<std::vector<rdf::TermId>, IdRowHash> seen;
  std::vector<uint32_t> kept;
  std::vector<rdf::TermId> key(vars.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < idx.size(); ++c) {
      key[c] = idx[c] >= 0 ? table.At(r, idx[c]) : rdf::kInvalidTermId;
    }
    if (seen.insert(key).second) kept.push_back(static_cast<uint32_t>(r));
  }
  std::vector<std::vector<rdf::TermId>> cols(vars.size());
  for (size_t c = 0; c < idx.size(); ++c) {
    if (idx[c] < 0) continue;
    const std::vector<rdf::TermId>& src = table.Column(idx[c]);
    if (src.empty()) continue;
    cols[c].resize(kept.size());
    for (size_t k = 0; k < kept.size(); ++k) cols[c][k] = src[kept[k]];
  }
  return IdTable::FromColumns(vars, std::move(cols), kept.size());
}

void FilterIds(IdTable* table, const sparql::Expr& filter,
               const TermDictionary& dict) {
  std::vector<uint32_t> kept;
  kept.reserve(table->NumRows());
  for (size_t r = 0; r < table->NumRows(); ++r) {
    // Dictionary references are stable, so the lookup hands out the
    // interned term directly — no per-row decode copies.
    auto lookup = [&](const std::string& name) -> const rdf::Term* {
      int idx = table->VarIndex(name);
      if (idx < 0) return nullptr;
      rdf::TermId id = table->At(r, idx);
      if (id == rdf::kInvalidTermId) return nullptr;
      return &dict.term(id);
    };
    if (sparql::EvalFilter(filter, lookup)) {
      kept.push_back(static_cast<uint32_t>(r));
    }
  }
  if (kept.size() != table->NumRows()) *table = table->SelectRows(kept);
}

IdTable EncodeResultTable(const sparql::ResultTable& table,
                          TermDictionary* dict) {
  Stopwatch timer;
  const size_t n = table.rows.size();
  std::vector<std::vector<rdf::TermId>> cols(
      table.vars.size(), std::vector<rdf::TermId>(n, rdf::kInvalidTermId));
  for (size_t r = 0; r < n; ++r) {
    const auto& row = table.rows[r];
    for (size_t c = 0; c < cols.size() && c < row.size(); ++c) {
      if (row[c].has_value()) cols[c][r] = dict->Intern(*row[c]);
    }
  }
  dict->AddEncodeBatch(timer.ElapsedMillis() / 1e3,
                       static_cast<uint64_t>(n * table.vars.size()));
  return IdTable::FromColumns(table.vars, std::move(cols), n);
}

sparql::ResultTable DecodeIdTable(const IdTable& table,
                                  const TermDictionary& dict) {
  Stopwatch timer;
  sparql::ResultTable out;
  out.vars = table.vars;
  out.rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::vector<std::optional<rdf::Term>> cells;
    cells.reserve(table.NumVars());
    for (size_t c = 0; c < table.NumVars(); ++c) {
      rdf::TermId id = table.At(r, c);
      if (id == rdf::kInvalidTermId) {
        cells.push_back(std::nullopt);
      } else {
        cells.push_back(dict.term(id));
      }
    }
    out.rows.push_back(std::move(cells));
  }
  dict.AddDecodeBatch(
      timer.ElapsedMillis() / 1e3,
      static_cast<uint64_t>(table.NumRows() * table.NumVars()));
  return out;
}

std::string FingerprintIdBindings(const std::string& var,
                                  const TermDictionary& dict,
                                  const rdf::TermId* ids, size_t count) {
  // 128 bits of FNV-1a (two independent offset bases): collisions would
  // silently serve wrong cached rows, so 64 bits is not enough.
  uint64_t h1 = 14695981039346656037ull;
  uint64_t h2 = 10650232656628343401ull;
  auto mix = [&](const unsigned char* bytes, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      h1 = (h1 ^ bytes[i]) * 1099511628211ull;
      h2 = (h2 ^ bytes[i]) * 1099511628211ull;
    }
  };
  mix(reinterpret_cast<const unsigned char*>(var.data()), var.size());
  for (size_t i = 0; i < count; ++i) {
    uint64_t content = dict.content_hash(ids[i]);
    mix(reinterpret_cast<const unsigned char*>(&content), sizeof(content));
  }
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return std::string(buf);
}

}  // namespace lusail::core
