// aie -- functional emulation of the AIE vector register types.
//
// Substitutes AMD's x86 emulation library (paper Section 3.9): kernels
// written against the AIE vector API compile and execute on the host with
// identical arithmetic results. Each operation records its VLIW issue-slot
// class so the cycle-approximate simulator can reconstruct timing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>

#include "cycle_model.hpp"
#include "simd.hpp"

namespace aie {

/// Storage-only brain-float16 lane type (the AIE-ML ML datatype). A bf16
/// pattern is the high half of an IEEE f32 pattern; arithmetic happens in
/// float vectors/accumulators after an explicit widen (aie::to_float /
/// aie::to_bf16), mirroring how AIE-ML kernels stage bf16 data through
/// fp32 compute.
struct bf16 {
  std::uint16_t bits = 0;
  constexpr bool operator==(const bf16&) const = default;
};

/// Scalar bf16 -> f32 widen (lane-level building block; the vector form
/// aie::to_float records instrumentation, this does not).
[[nodiscard]] constexpr float bf16_to_float(bf16 v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v.bits) << 16);
}

/// Scalar f32 -> bf16 narrow, round-to-nearest-even, NaNs quieted -- the
/// same formula as the backends' vector op (simd.hpp f32_to_bf16).
[[nodiscard]] constexpr bf16 float_to_bf16(float f) {
  const auto u = std::bit_cast<std::uint32_t>(f);
  const bool nan = (u & 0x7fffffffu) > 0x7f800000u;
  const std::uint32_t rne = (u + 0x7fffu + ((u >> 16) & 1u)) >> 16;
  const std::uint32_t quiet = (u >> 16) | 0x0040u;
  return bf16{static_cast<std::uint16_t>(nan ? quiet : rne)};
}

/// A fixed-width SIMD register of N lanes of element type T.
/// Mirrors aie::vector<T, Elems> from the AIE API (UG1079).
///
/// Lane storage is always value-initialized: a default-constructed vector
/// is all-zero, and an initializer list shorter than N leaves the trailing
/// lanes zero. Functional results therefore never depend on stack garbage
/// (and are identical across the SIMD and scalar execution backends).
template <class T, unsigned N>
class vector {
  static_assert(N > 0 && (N & (N - 1)) == 0, "lane count must be a power of two");

 public:
  using value_type = T;
  static constexpr unsigned size_v = N;

  constexpr vector() = default;
  constexpr vector(std::initializer_list<T> init) {
    unsigned i = 0;
    for (T v : init) {
      if (i == N) break;
      lanes_[i++] = v;
    }
  }

  [[nodiscard]] static constexpr unsigned size() { return N; }

  [[nodiscard]] constexpr T get(unsigned i) const { return lanes_[i]; }
  constexpr void set(unsigned i, T v) { lanes_[i] = v; }
  [[nodiscard]] constexpr T operator[](unsigned i) const { return lanes_[i]; }

  [[nodiscard]] constexpr const std::array<T, N>& data() const {
    return lanes_;
  }
  [[nodiscard]] constexpr std::array<T, N>& data() { return lanes_; }

  /// Extracts sub-vector `part` of `N / Parts` lanes (AIE `extract`).
  /// A contiguous lane slice: one block copy regardless of backend.
  template <unsigned Parts>
  [[nodiscard]] CGSIM_SIMD_INLINE vector<T, N / Parts> extract(unsigned part) const {
    static_assert(Parts > 0 && N % Parts == 0);
    record(OpClass::shuffle);
    vector<T, N / Parts> r;
    std::memcpy(r.data().data(), lanes_.data() + part * (N / Parts),
                (N / Parts) * sizeof(T));
    return r;
  }

  /// Inserts `sub` as part `part` (AIE `insert`).
  template <unsigned M>
  CGSIM_SIMD_INLINE vector& insert(unsigned part, const vector<T, M>& sub) {
    static_assert(M <= N && N % M == 0);
    record(OpClass::shuffle);
    std::memcpy(lanes_.data() + part * M, sub.data().data(), M * sizeof(T));
    return *this;
  }

  /// Widens into the lower half of a 2N vector (upper lanes zero).
  [[nodiscard]] CGSIM_SIMD_INLINE vector<T, 2 * N> grow() const {
    record(OpClass::shuffle);
    vector<T, 2 * N> r;  // value-initialized: upper lanes stay zero
    std::memcpy(r.data().data(), lanes_.data(), N * sizeof(T));
    return r;
  }

  [[nodiscard]] constexpr bool operator==(const vector&) const = default;

 private:
  std::array<T, N> lanes_{};
};

// Common AIE register shorthands.
using v4int32 = vector<std::int32_t, 4>;
using v8int32 = vector<std::int32_t, 8>;
using v16int32 = vector<std::int32_t, 16>;
using v8int16 = vector<std::int16_t, 8>;
using v16int16 = vector<std::int16_t, 16>;
using v32int16 = vector<std::int16_t, 32>;
using v16int8 = vector<std::int8_t, 16>;
using v32int8 = vector<std::int8_t, 32>;
using v4float = vector<float, 4>;
using v8float = vector<float, 8>;
using v16float = vector<float, 16>;
using v16bfloat16 = vector<bf16, 16>;
using v64int8 = vector<std::int8_t, 64>;

/// Loads N lanes from (aligned) memory -- AIE `aie::load_v<N>(ptr)`.
template <unsigned N, class T>
[[nodiscard]] CGSIM_SIMD_INLINE vector<T, N> load_v(const T* ptr) {
  record(OpClass::load, (N * sizeof(T) + 31) / 32);  // 256-bit loads
  vector<T, N> r;
  std::memcpy(r.data().data(), ptr, N * sizeof(T));
  return r;
}

/// Stores all lanes to memory -- AIE `aie::store_v(ptr, v)`.
template <class T, unsigned N>
CGSIM_SIMD_INLINE void store_v(T* ptr, const vector<T, N>& v) {
  record(OpClass::store, (N * sizeof(T) + 31) / 32);
  std::memcpy(ptr, v.data().data(), N * sizeof(T));
}

/// All-zero vector -- AIE `aie::zeros<T, N>()`.
template <class T, unsigned N>
[[nodiscard]] CGSIM_SIMD_INLINE vector<T, N> zeros() {
  record(OpClass::vector_alu);
  return vector<T, N>{};
}

/// Splats `v` across all lanes -- AIE `aie::broadcast<T, N>(v)`.
template <class T, unsigned N, class B = simd::backend>
[[nodiscard]] CGSIM_SIMD_INLINE vector<T, N> broadcast(T v) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template broadcast<T, N>(r.data().data(), v);
  return r;
}

/// Lane iota {0, 1, ...} scaled by `step` -- AIE `aie::iota`.
template <class T, unsigned N, class B = simd::backend>
[[nodiscard]] CGSIM_SIMD_INLINE vector<T, N> iota(T start = T{0}, T step = T{1}) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template iota<T, N>(r.data().data(), start, step);
  return r;
}

/// Per-lane boolean mask -- mirrors aie::mask<N>. Stored as lane bits, the
/// layout of an AIE mask register: lane i is bit i % 64 of word i / 64
/// (unused high bits stay zero). Backends consume the words directly, and
/// a constexpr mask lets the compiler fold a select into a fixed blend.
template <unsigned N>
class mask {
 public:
  using words_type = std::array<std::uint64_t, simd::detail::mask_words(N)>;

  constexpr mask() = default;

  /// Mask whose lane i is bit i of `bits` (N <= 64; higher bits ignored).
  [[nodiscard]] static constexpr mask from_uint64(std::uint64_t bits) {
    static_assert(N <= 64, "from_uint64 covers masks of up to 64 lanes");
    mask m;
    m.words_[0] = N == 64 ? bits : bits & ((std::uint64_t{1} << N) - 1);
    return m;
  }

  [[nodiscard]] constexpr bool get(unsigned i) const {
    return ((words_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  constexpr void set(unsigned i, bool v) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    words_[i / 64] = v ? (words_[i / 64] | bit) : (words_[i / 64] & ~bit);
  }

  [[nodiscard]] constexpr const words_type& words() const { return words_; }
  [[nodiscard]] constexpr words_type& words() { return words_; }
  [[nodiscard]] constexpr unsigned count() const {
    unsigned c = 0;
    for (std::uint64_t w : words_) c += static_cast<unsigned>(std::popcount(w));
    return c;
  }
  [[nodiscard]] constexpr bool operator==(const mask&) const = default;

 private:
  words_type words_{};
};

}  // namespace aie
