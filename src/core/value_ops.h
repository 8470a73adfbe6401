// ValueOps<V>: the one place where a run of stored values is added into a
// value. The descents' strided scans, TotalSum, CheckRec and the replica's
// decoded value strips add through AddStrided: in place, in index order, so
// answers match adding the values one by one, bit for bit. DESIGN §11 says
// why the add is in place.

#ifndef BOXAGG_CORE_VALUE_OPS_H_
#define BOXAGG_CORE_VALUE_OPS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace boxagg {

template <class V>
struct ValueOps {
  static_assert(std::is_trivially_copyable_v<V>);

  /// *acc += the n values stored at src, src + stride, ..., in that order.
  static void AddStrided(V* acc, const uint8_t* src, size_t n,
                         size_t stride) {
    for (size_t i = 0; i < n; ++i) {
      V v;
      std::memcpy(&v, src + i * stride, sizeof(V));
      *acc += v;
    }
  }
};

}  // namespace boxagg

#endif  // BOXAGG_CORE_VALUE_OPS_H_
