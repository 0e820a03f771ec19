// aie -- functional emulation of the AIE accumulator register types.
//
// AIE fixed-point MACs accumulate into wide (48/80-bit) registers that are
// moved back to vectors with an explicit shift-round-saturate (srs) and
// widened from vectors with an upshift (ups). Emulated here on int64 /
// float lanes with the same rounding and saturation semantics the AIE uses
// by default (round-to-nearest-even is configurable on hardware; we
// implement round-half-up, aiecompiler's default for srs).
//
// The lane arithmetic executes on the selected SIMD backend (simd.hpp);
// every operation optionally takes an explicit backend template parameter
// for the equivalence tests and ablation benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "cycle_model.hpp"
#include "simd.hpp"
#include "vector.hpp"

namespace aie {

struct acc48_tag {};   ///< 48-bit fixed-point accumulator lanes
struct acc80_tag {};   ///< 80-bit fixed-point accumulator lanes
struct acc32_tag {};   ///< 32-bit fixed-point accumulator lanes (AIE-ML MACs)
struct accfloat_tag {};///< single-precision float accumulator lanes

namespace detail {
template <class Tag>
struct acc_storage {
  using type = std::int64_t;
};
template <>
struct acc_storage<acc32_tag> {
  using type = std::int32_t;
};
template <>
struct acc_storage<accfloat_tag> {
  using type = float;
};
}  // namespace detail

/// An accumulator register of N lanes; Tag selects the lane format.
/// Mirrors aie::accum<acc48, Elems> from the AIE API. Lane storage is
/// always value-initialized (see aie::vector).
template <class Tag, unsigned N>
class accum {
 public:
  using storage = typename detail::acc_storage<Tag>::type;
  static constexpr unsigned size_v = N;

  constexpr accum() = default;

  [[nodiscard]] static constexpr unsigned size() { return N; }
  [[nodiscard]] constexpr storage get(unsigned i) const { return lanes_[i]; }
  constexpr void set(unsigned i, storage v) { lanes_[i] = v; }

  [[nodiscard]] constexpr const std::array<storage, N>& data() const {
    return lanes_;
  }
  [[nodiscard]] constexpr std::array<storage, N>& data() { return lanes_; }

  [[nodiscard]] constexpr bool operator==(const accum&) const = default;

 private:
  std::array<storage, N> lanes_{};
};

template <unsigned N>
using acc48 = accum<acc48_tag, N>;
template <unsigned N>
using acc80 = accum<acc80_tag, N>;
template <unsigned N>
using acc32 = accum<acc32_tag, N>;
template <unsigned N>
using accfloat = accum<accfloat_tag, N>;

namespace detail {

// Canonical srs helpers, shared with the SIMD backends (simd.hpp).
using simd::detail::saturate_i64;
using simd::detail::shift_round;

}  // namespace detail

/// Shift-round-saturate an accumulator back to a vector (AIE `srs`).
template <class T, class B = simd::backend, class Tag, unsigned N>
[[nodiscard]] CGSIM_SIMD_INLINE vector<T, N> srs(const accum<Tag, N>& a, int shift) {
  record(OpClass::vector_shift);
  vector<T, N> r;
  if constexpr (std::is_same_v<Tag, accfloat_tag>) {
    B::template convert<T, float, N>(r.data().data(), a.data().data());
    (void)shift;
  } else if constexpr (std::is_same_v<Tag, acc32_tag>) {
    B::template srs32<T, N>(r.data().data(), a.data().data(), shift);
  } else {
    B::template srs<T, N>(r.data().data(), a.data().data(), shift);
  }
  return r;
}

/// Upshift a vector into an accumulator (AIE `ups`).
template <class Tag = acc48_tag, class B = simd::backend, class T, unsigned N>
[[nodiscard]] CGSIM_SIMD_INLINE accum<Tag, N> ups(const vector<T, N>& v, int shift) {
  record(OpClass::vector_shift);
  accum<Tag, N> a;
  if constexpr (std::is_same_v<Tag, accfloat_tag>) {
    B::template convert<float, T, N>(a.data().data(), v.data().data());
    (void)shift;
  } else if constexpr (std::is_same_v<Tag, acc32_tag>) {
    B::template ups32<T, N>(a.data().data(), v.data().data(), shift);
  } else {
    B::template ups<T, N>(a.data().data(), v.data().data(), shift);
  }
  return a;
}

/// Converts a float vector to a float accumulator (identity lanes).
template <class B = simd::backend, unsigned N>
[[nodiscard]] CGSIM_SIMD_INLINE accfloat<N> to_accum(const vector<float, N>& v) {
  record(OpClass::vector_alu);
  accfloat<N> a;
  B::template convert<float, float, N>(a.data().data(), v.data().data());
  return a;
}

/// Extracts the lanes of a float accumulator as a vector.
template <class B = simd::backend, unsigned N>
[[nodiscard]] CGSIM_SIMD_INLINE vector<float, N> to_vector(const accfloat<N>& a) {
  record(OpClass::vector_alu);
  vector<float, N> v;
  B::template convert<float, float, N>(v.data().data(), a.data().data());
  return v;
}

}  // namespace aie
