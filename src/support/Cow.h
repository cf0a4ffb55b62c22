//===- Cow.h - Copy-on-write value handle ----------------------*- C++ -*-===//
//
// Part of hglift, a reproduction of "Formally Verified Lifting of C-Compiled
// x86-64 Binaries" (PLDI 2022).
//
// Cow<T> holds a T by value semantics but shares one reference-counted
// buffer between copies. Algorithm 1 copies symbolic states far more often
// than it changes them (every successor, every worklist entry, every vertex
// store and every leq-memo entry starts as a copy), so the clause vectors of
// a predicate and the forest of a memory model live behind this handle: a
// copy costs one reference-count increment, and the first mutation through
// a shared handle clones the buffer, leaving every other holder untouched.
//
// Reads go through operator* / operator-> (plus begin/end/size/empty/[]
// for container T, so range-for and index reads look like the plain
// container); writes go through mut(). A default-constructed handle owns
// no buffer and reads as an empty T. operator== short-circuits when both
// handles share one buffer and otherwise compares contents, so equality
// never depends on how a value was reached.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SUPPORT_COW_H
#define HGLIFT_SUPPORT_COW_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace hglift {

template <class T> class Cow {
public:
  Cow() noexcept = default;
  Cow(T V) : B(new Buf(std::move(V))) {}
  Cow(const Cow &O) noexcept : B(O.B) {
    if (B)
      B->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  Cow(Cow &&O) noexcept : B(std::exchange(O.B, nullptr)) {}
  Cow &operator=(Cow O) noexcept {
    std::swap(B, O.B);
    return *this;
  }
  ~Cow() { release(B); }

  const T &operator*() const { return B ? B->Val : emptyValue(); }
  const T *operator->() const { return &**this; }

  /// The value, for writing: clones the buffer first when another handle
  /// shares it. Do not keep the reference across a copy of this handle:
  /// writes through it would reach the copy too.
  T &mut() {
    if (!B) {
      B = new Buf(T());
    } else if (B->Refs.load(std::memory_order_acquire) != 1) {
      // The clone check. Shared buffers never cross a function's lifting
      // arena or thread: a state, its successors, its worklist entries and
      // the leq-memo entries made from it all belong to one function's
      // lift (or one function's Step-2 check), which runs on one thread at
      // a time. The count is atomic anyway, so that copying a const state
      // is safe from any thread, as copying a const std::vector is; and a
      // count of 1 read here (acquire) means every other holder's release
      // has happened: nobody can still be reading the buffer.
      Buf *N = new Buf(B->Val);
      release(B);
      B = N;
    }
    return B->Val;
  }

  /// Do both handles share one buffer? (Two empty handles do.)
  bool sharesWith(const Cow &O) const { return B == O.B; }

  bool operator==(const Cow &O) const { return B == O.B || **this == *O; }

  // Read-only container view for container T.
  auto begin() const { return (**this).begin(); }
  auto end() const { return (**this).end(); }
  std::size_t size() const { return (**this).size(); }
  bool empty() const { return (**this).empty(); }
  decltype(auto) operator[](std::size_t I) const { return (**this)[I]; }

private:
  struct Buf {
    explicit Buf(T V) : Val(std::move(V)) {}
    std::atomic<uint32_t> Refs{1};
    T Val;
  };

  static void release(Buf *P) {
    if (P && P->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete P;
  }

  static const T &emptyValue() {
    static const T E{};
    return E;
  }

  Buf *B = nullptr;
};

} // namespace hglift

#endif // HGLIFT_SUPPORT_COW_H
