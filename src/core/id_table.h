#ifndef LUSAIL_CORE_ID_TABLE_H_
#define LUSAIL_CORE_ID_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dictionary.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"

namespace lusail {
class CancelToken;
class ThreadPool;
}  // namespace lusail

namespace lusail::core {

/// Columnar binding table: one contiguous std::vector<TermId> per
/// variable, kInvalidTermId marking an unbound cell. This is the internal
/// currency of federated execution — endpoint responses are encoded into
/// an IdTable at the boundary, every join/union/dedup runs on these
/// fixed-width columns, and only the final projected window is decoded
/// back to the row-major string ResultTable (the wire/compat format).
///
/// The column layout is what makes the join hot path fast: a hash join
/// touches only its key columns while probing (cache-dense sequential
/// u64 reads) and materializes output with per-column gathers instead of
/// per-row vector allocations.
///
/// `vars` is a public member on purpose — construction sites assign or
/// push variable names directly, exactly like the old row-major table.
/// Column storage follows lazily: the next mutating call (AppendRow,
/// Set, AddEmptyRows, ...) grows the column array to match, padding new
/// columns with unbound cells for existing rows. Const accessors treat a
/// var with no column yet as an all-unbound column (At returns
/// kInvalidTermId; Column returns an empty span), so reads between a
/// vars.push_back and the next mutation are safe, if trivial.
class IdTable {
 public:
  std::vector<std::string> vars;

  IdTable() = default;
  explicit IdTable(std::vector<std::string> names) : vars(std::move(names)) {}

  size_t NumRows() const { return num_rows_; }
  size_t NumVars() const { return vars.size(); }

  /// Index of `var` in vars, or -1.
  int VarIndex(const std::string& var) const;

  /// Variables present in both tables, in `a`'s order.
  static std::vector<std::string> SharedVars(const IdTable& a,
                                             const IdTable& b);

  /// Cell accessors. At() on a var whose column does not exist yet (vars
  /// grown since the last mutation) reads as unbound.
  rdf::TermId At(size_t row, size_t col) const {
    return col < cols_.size() ? cols_[col][row] : rdf::kInvalidTermId;
  }
  void Set(size_t row, size_t col, rdf::TermId id);

  /// Appends one row given in vars order; cells beyond row.size() are
  /// unbound. (A zero-length row appends an all-unbound row — ASK tables
  /// with zero vars still count rows.)
  void AppendRow(const std::vector<rdf::TermId>& row);

  /// Appends `n` all-unbound rows.
  void AddEmptyRows(size_t n);

  /// Materializes one row (slow path: per-row vector allocation).
  std::vector<rdf::TermId> Row(size_t row) const;

  /// Column storage. Column() of a var with no column yet returns an
  /// empty vector (see class comment); MutableColumn materializes it.
  const std::vector<rdf::TermId>& Column(size_t col) const;
  std::vector<rdf::TermId>* MutableColumn(size_t col);

  void Reserve(size_t rows);
  void Clear();

  /// New table with the same vars holding the given rows, in order.
  IdTable SelectRows(const std::vector<uint32_t>& rows) const;

  /// Rows [begin, end) as a new table (LIMIT/OFFSET windowing).
  IdTable Slice(size_t begin, size_t end) const;

  /// Bulk constructor for operators that materialize whole columns: each
  /// column must hold `num_rows` cells, or be empty to mean all-unbound.
  static IdTable FromColumns(std::vector<std::string> names,
                             std::vector<std::vector<rdf::TermId>> cols,
                             size_t num_rows);

 private:
  /// Grows cols_ to vars.size(), padding new columns with unbound cells.
  void SyncColumns();

  std::vector<std::vector<rdf::TermId>> cols_;
  size_t num_rows_ = 0;
};

/// Work at or above which JoinIds splits its left rows into ranges on a
/// pool: probe rows for a keyed join, output rows for a cartesian
/// product. Measured with bench_micro on a 4-vCPU Xeon host (8-thread
/// pool, 8 ranges, median of 5), serial against a split forced at every
/// size:
///
///   keyed 1:1 join, ms         cartesian product, us
///   probe rows  serial  split  output rows  serial  split
///        1000    0.032  0.105         1024     2.7     49
///        4096    0.196  0.156         4096     8.3     52
///       10000    0.310  0.261        16384    41       70
///       16384    0.711  0.478        65536   126      138
///       32768    1.56   1.01        262144   586      508
///       65536    3.88   2.03       1048576  2238     1467
///      100000    6.26   3.23
///
/// A split costs ~40 us of dispatch. Keyed joins cross over near 10k
/// probe rows; a product, whose cost is mostly allocating its output,
/// near 100k output rows. The constant sits between the two: a keyed
/// join just below it forgoes up to ~0.5 ms, a product just above it
/// loses up to ~30 us.
inline constexpr size_t kJoinParallelWork = 32768;

/// The join kernel: natural inner (or left-outer) join on all shared
/// variables, SPARQL compatibility semantics: an unbound shared cell is
/// compatible with any value; shared output columns prefer the bound
/// side. Output layout is deterministic: left.vars then right-only vars.
/// Rows come in left-row order (each left row's matches in the order the
/// right side's index yields them), then, with `left_outer`, the
/// unmatched left rows padded unbound. With no shared variables this is
/// the cartesian product.
///
/// Given a `pool`, `partitions` > 1 and enough work, the left rows are
/// probed and gathered in up to `partitions` contiguous ranges on the
/// pool; the output is row-for-row the serial one. When `cancel` is
/// non-null the join polls it every ~1k rows probed, pairs examined or
/// cells written, and once it fires returns an incomplete table the
/// caller must discard after its own cancel check — the join itself
/// cannot fail, so cancellation surfaces as a Status one level up.
IdTable JoinIds(const IdTable& left, const IdTable& right, bool left_outer,
                ThreadPool* pool = nullptr, size_t partitions = 1,
                const CancelToken* cancel = nullptr);

/// FILTER EXISTS as a semi-join: the rows of `left` compatible with at
/// least one row of `right` on the shared variables (an unbound cell on
/// either side matches any value), in order. With `negated` (FILTER NOT
/// EXISTS), the rows compatible with none. With no shared variables every
/// left row matches exactly when `right` has a row. Runs JoinIds's match
/// pass serially, stopping at each left row's first match.
IdTable SemiJoinIds(const IdTable& left, const IdTable& right, bool negated);

/// Appends src's rows to dst, aligning columns by name; variables missing
/// from src become unbound (UNION at the federator).
void AppendUnionIds(IdTable* dst, const IdTable& src);

/// Projects onto `vars` (missing variables become unbound columns);
/// optionally deduplicates rows.
IdTable ProjectIds(const IdTable& table, const std::vector<std::string>& vars,
                   bool distinct);

/// Keeps the rows satisfying `filter`, decoding cells through `dict`.
void FilterIds(IdTable* table, const sparql::Expr& filter,
               const TermDictionary& dict);

/// Encodes a wire ResultTable into ids (boundary encoder; batch-timed
/// into the dictionary's encode counters).
IdTable EncodeResultTable(const sparql::ResultTable& table,
                          TermDictionary* dict);

/// Decodes back to the wire format (late materialization; batch-timed
/// into the dictionary's decode counters).
sparql::ResultTable DecodeIdTable(const IdTable& table,
                                  const TermDictionary& dict);

/// 128 bits of FNV-1a over a VALUES binding block in id space — the
/// bind variable plus each binding's dictionary content hash — rendered
/// as hex. Keys bound-join fetches in the shared result cache: mixing a
/// precomputed 8-byte hash per binding replaces serializing and
/// re-hashing the block's N-Triples text. Content hashes (not raw ids)
/// make the key stable across dictionary instances, so a warm engine
/// with a fresh dictionary still hits entries a previous engine stored.
std::string FingerprintIdBindings(const std::string& var,
                                  const TermDictionary& dict,
                                  const rdf::TermId* ids, size_t count);

}  // namespace lusail::core

#endif  // LUSAIL_CORE_ID_TABLE_H_
