#pragma once

/// \file digest.hpp
/// The one hasher behind the absolute bit locks (test_round_golden,
/// test_fault_golden, test_system_golden): 64-bit FNV-1a over raw bytes.
/// The recorded digests depend on the exact fold order, so `values`
/// always folds the element count before the elements.

#include <cstddef>
#include <cstdint>
#include <span>

namespace frlfi::golden {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  /// The span's size_t length, then its elements' bytes.
  template <class T>
  void values(std::span<const T> v) {
    value(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace frlfi::golden
