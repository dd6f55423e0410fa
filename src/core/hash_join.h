#ifndef LUSAIL_CORE_HASH_JOIN_H_
#define LUSAIL_CORE_HASH_JOIN_H_

#include "core/id_table.h"

namespace lusail::core {

/// The old name of the partitioned inner join, now a forward to the one
/// join kernel, core::JoinIds. It stays only because the benchmark driver
/// (perfbench/main.cc) calls it by this name; new code calls JoinIds.
inline IdTable ParallelHashJoin(const IdTable& left, const IdTable& right,
                                ThreadPool* pool, size_t partitions,
                                const CancelToken* cancel = nullptr) {
  return JoinIds(left, right, /*left_outer=*/false, pool, partitions, cancel);
}

}  // namespace lusail::core

#endif  // LUSAIL_CORE_HASH_JOIN_H_
