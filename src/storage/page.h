// Page: a fixed-size block of bytes, the unit of disk transfer and buffering.
//
// All indexes in this library serialize their nodes into pages. A page is raw
// storage plus typed accessors; interpretation of the payload belongs to the
// index that owns the page.

#ifndef BOXAGG_STORAGE_PAGE_H_
#define BOXAGG_STORAGE_PAGE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace boxagg {

/// Identifier of a page within a PageFile. Page 0 is valid; kInvalidPageId
/// marks "no page" (e.g. a missing child pointer or an unspilled border).
using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = ~PageId{0};

/// Default page size used throughout, matching the paper's setup (Sec. 6).
inline constexpr uint32_t kDefaultPageSize = 8192;

/// \brief A fixed-size buffer with typed, bounds-checked (in debug builds)
/// read/write helpers.
///
/// The buffer is cache-line (64-byte) aligned, so the SoA key strips the
/// trees lay out at fixed in-page offsets start on predictable cache-line
/// boundaries and vector loads never straddle a line unnecessarily.
///
/// A Page either owns its buffer or, for a BufferPool frame, borrows a slot
/// of the pool's frame arena. Either way its buffer never changes: a copy
/// is always a new owning Page, and a moved-from Page keeps its bytes (a
/// move is a copy), so a pool frame can be neither emptied nor aliased.
/// Index code receives pool pages through PageGuard handles and must not
/// retain the pointer past unpin.
class Page {
 public:
  static constexpr size_t kAlign = 64;

  explicit Page(uint32_t size) : size_(size), data_(Alloc(size)) {
    std::memset(data_, 0, size_);
  }

  Page(const Page& o) : size_(o.size_), data_(Alloc(o.size_)) {
    std::memcpy(data_, o.data_, size_);
  }

  Page& operator=(const Page&) = delete;

  ~Page() {
    if (owned_) ::operator delete(data_, std::align_val_t{kAlign});
  }

  [[nodiscard]] uint32_t size() const { return size_; }
  uint8_t* data() { return data_; }
  [[nodiscard]] const uint8_t* data() const { return data_; }

  /// Copies a trivially-copyable value out of the page at byte offset `off`.
  template <typename T>
  [[nodiscard]] T ReadAt(uint32_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(off + sizeof(T) <= size_);
    T v;
    std::memcpy(&v, data_ + off, sizeof(T));
    return v;
  }

  /// Copies a trivially-copyable value into the page at byte offset `off`.
  template <typename T>
  void WriteAt(uint32_t off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(off + sizeof(T) <= size_);
    std::memcpy(data_ + off, &v, sizeof(T));
  }

  void ReadBytes(uint32_t off, void* out, uint32_t n) const {
    assert(off + n <= size_);
    std::memcpy(out, data_ + off, n);
  }

  void WriteBytes(uint32_t off, const void* in, uint32_t n) {
    assert(off + n <= size_);
    std::memcpy(data_ + off, in, n);
  }

  void Zero() { std::memset(data_, 0, size_); }

 private:
  friend class BufferPool;

  // Borrowed storage: `size` bytes at `data` that outlive the Page and are
  // not freed by it. Only BufferPool builds these, over its frame arena.
  Page(uint8_t* data, uint32_t size) : size_(size), owned_(false), data_(data) {
    assert(reinterpret_cast<uintptr_t>(data) % kAlign == 0);
  }

  static uint8_t* Alloc(uint32_t n) {
    return static_cast<uint8_t*>(::operator new(n, std::align_val_t{kAlign}));
  }

  uint32_t size_;
  bool owned_ = true;
  uint8_t* data_;
};

}  // namespace boxagg

#endif  // BOXAGG_STORAGE_PAGE_H_
