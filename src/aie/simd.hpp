// aie -- portable SIMD execution backends for the AIE emulation layer.
//
// The functional emulation in api.hpp/accum.hpp used to evaluate every
// operation as an N-iteration per-lane loop. This header factors the lane
// arithmetic into two interchangeable *backends* so the emulated intrinsics
// execute as a handful of host vector instructions instead:
//
//   * `scalar_backend` -- the canonical per-lane loops. This is the
//     bit-exact reference semantics of every operation, kept deliberately
//     scalar (vectorization is disabled per-function on GCC) so the
//     scalar-vs-SIMD ablation in bench_ablation_simd measures per-lane
//     execution, not the autovectorizer.
//   * `native_backend` -- the same operations on GCC/Clang vector
//     extensions (`__attribute__((vector_size(...)))`): one emulated AIE
//     vector op maps onto one or two host SIMD instructions. On compilers
//     without vector extensions it degrades to `scalar_backend`.
//
// Both backends are always compiled, so equivalence tests and ablation
// benches can compare them within one binary. The *default* backend used
// by the aie:: API (`aie::simd::backend`) is selected at configure time
// with the CGSIM_SIMD CMake option (native | scalar); `scalar` defines
// CGSIM_SIMD_FORCE_SCALAR.
//
// Backends are pure lane arithmetic: they never touch instrumentation.
// OpCounts recording stays in the api layer and is therefore byte-identical
// across backends by construction (asserted by tests/aie/test_simd_backend).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

namespace aie::simd {

#if defined(__GNUC__) || defined(__clang__)
#define CGSIM_SIMD_HAVE_NATIVE 1
#else
#define CGSIM_SIMD_HAVE_NATIVE 0
#endif

// Forces an emulated op into its caller. The native backend's ops and the
// aie:: API wrappers around them are a few vector instructions each; a
// chain of them only stays in host registers when every link is inlined,
// and in a large translation unit GCC's inline budget can leave a wrapper
// out of line (its operands then round-trip through memory per op).
#if defined(__GNUC__) || defined(__clang__)
#define CGSIM_SIMD_ALWAYS_INLINE __attribute__((always_inline))
#else
#define CGSIM_SIMD_ALWAYS_INLINE
#endif
#define CGSIM_SIMD_INLINE CGSIM_SIMD_ALWAYS_INLINE inline

// Pins the scalar backend's loops to per-lane code on GCC so that a
// "scalar" measurement means scalar execution (see header comment). This
// does not change results, only codegen.
#if defined(__GNUC__) && !defined(__clang__)
#define CGSIM_SIMD_SCALAR_LOOP \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define CGSIM_SIMD_SCALAR_LOOP
#endif

namespace detail {

/// Signed integer type with the same width as a vector lane of sizeof
/// `Bytes` -- the element type vector comparisons and shuffle masks use.
template <unsigned Bytes>
struct int_of;
template <>
struct int_of<1> {
  using type = std::int8_t;
};
template <>
struct int_of<2> {
  using type = std::int16_t;
};
template <>
struct int_of<4> {
  using type = std::int32_t;
};
template <>
struct int_of<8> {
  using type = std::int64_t;
};
template <unsigned Bytes>
using int_of_t = typename int_of<Bytes>::type;

/// Saturates an int64 accumulator lane into T's range (AIE srs clamp).
template <class T>
[[nodiscard]] constexpr T saturate_i64(std::int64_t v) {
  constexpr auto lo = static_cast<std::int64_t>(std::numeric_limits<T>::min());
  constexpr auto hi = static_cast<std::int64_t>(std::numeric_limits<T>::max());
  return static_cast<T>(std::clamp(v, lo, hi));
}

/// Arithmetic shift right with round-half-up, as AIE srs does by default.
[[nodiscard]] constexpr std::int64_t shift_round(std::int64_t v, int shift) {
  if (shift <= 0) return v << -shift;
  const std::int64_t bias = std::int64_t{1} << (shift - 1);
  return (v + bias) >> shift;
}

// Cubic coefficients of the Q15 2^y approximation on y in (0, 1]:
// 2^y ~= 1 + y*(c1 + y*(c2 + y*c3)), max relative error ~2e-4. Every
// intermediate product below stays under 2^31, so the evaluation is exact
// int32 arithmetic (identical on both backends by construction).
inline constexpr std::int32_t kExp2C1 = 22803;  // round(0.695802 * 2^15)
inline constexpr std::int32_t kExp2C2 = 7354;   // round(0.224426 * 2^15)
inline constexpr std::int32_t kExp2C3 = 2603;   // round(0.0794415 * 2^15)

/// One lane of the fixed-point negative exponential: 2^(-u / 2^15) in Q15.
/// Negative inputs clamp to 0 (result 32768 == 1.0); u >= 32 * 2^15
/// underflows to 0. The canonical formula both backends follow.
[[nodiscard]] constexpr std::int32_t exp2_neg_q15_lane(std::int32_t u) {
  u = u < 0 ? 0 : u;
  const std::int32_t n = u >> 15;
  const std::int32_t f = u & 32767;
  // 2^(-(n + f/2^15)) == 2^(1 - f/2^15) >> (n + 1); the f == 0 split keeps
  // the poly argument in (0, 32768] and the result exact at integers.
  const std::int32_t x = 32768 - f;
  std::int32_t t = kExp2C3;
  t = kExp2C2 + ((t * x) >> 15);
  t = kExp2C1 + ((t * x) >> 15);
  const std::int32_t p = 32768 + ((t * x) >> 15);
  const std::int32_t sh0 = n > 31 ? 31 : n;          // shift counts clamp to
  const std::int32_t sh1 = n > 30 ? 31 : n + 1;      // 31 (defined behaviour)
  return f == 0 ? (32768 >> sh0) : (p >> sh1);
}

/// 64-bit words of an N-lane mask (one bit per lane).
[[nodiscard]] constexpr unsigned mask_words(unsigned n) { return (n + 63) / 64; }

/// Wrapping lane arithmetic: signed overflow is UB, so integral lanes
/// compute in unsigned (defined modular wrap) and cast back; the result is
/// the two's-complement bit pattern both backends agree on. Float lanes
/// pass through untouched.
template <class T>
[[nodiscard]] constexpr T lane_add(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(
        static_cast<U>(static_cast<U>(a) + static_cast<U>(b)));
  } else {
    return a + b;
  }
}

template <class T>
[[nodiscard]] constexpr T lane_sub(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(
        static_cast<U>(static_cast<U>(a) - static_cast<U>(b)));
  } else {
    return a - b;
  }
}

template <class T>
[[nodiscard]] constexpr T lane_neg(T a) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(U{} - static_cast<U>(a)));
  } else {
    return -a;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// scalar_backend: canonical per-lane loops (the reference semantics).
// ---------------------------------------------------------------------------

struct scalar_backend {
  static constexpr const char* name = "scalar";
  static constexpr bool vectorized = false;

  // ---- element-wise arithmetic ----

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void add(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::lane_add(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void sub(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::lane_sub(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void neg(T* r, const T* a) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::lane_neg(a[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void abs_(T* r, const T* a) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = a[i] < T{} ? detail::lane_neg(a[i]) : a[i];
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void min_(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = std::min(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void max_(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = std::max(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void clamp(T* r, const T* a, T lo, T hi) {
    for (unsigned i = 0; i < N; ++i) r[i] = std::clamp(a[i], lo, hi);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void broadcast(T* r, T v) {
    for (unsigned i = 0; i < N; ++i) r[i] = v;
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void iota(T* r, T start, T step) {
    T v = start;
    for (unsigned i = 0; i < N; ++i, v = static_cast<T>(v + step)) r[i] = v;
  }

  // ---- multiply / multiply-accumulate into A-typed accumulator lanes ----

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mul(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<A>(a[i]) * static_cast<A>(b[i]);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] + static_cast<A>(a[i]) * static_cast<A>(b[i]);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void msc(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] - static_cast<A>(a[i]) * static_cast<A>(b[i]);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mul_s(A* acc, const T* a, T s) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<A>(a[i]) * static_cast<A>(s);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_s(A* acc, const T* a, T s) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] + static_cast<A>(a[i]) * static_cast<A>(s);
    }
  }

  /// acc[l] += c * data[l] over `N` contiguous data lanes (the broadcast
  /// MAC into 32-bit accumulator lanes).
  template <class A, class D, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_bcast(A* acc, const D* data, A c) {
    static_assert(sizeof(A) == 4, "mac_bcast is the acc32 broadcast MAC");
    for (unsigned i = 0; i < N; ++i) acc[i] = acc[i] + c * static_cast<A>(data[i]);
  }

  /// The contiguous sliding multiply, all `P` taps in one call:
  /// acc[l] += c[p] * data[dstart + l + p * Step] for p = 0, 1, ..., P-1 in
  /// that order (the order matters for float lanes). `data` is the whole
  /// ND-lane data vector and every access is in bounds (the caller
  /// checks); the c[p] are values of the coefficient lane type C.
  template <class A, class C, class D, unsigned N, unsigned ND, unsigned P,
            int Step>
  CGSIM_SIMD_SCALAR_LOOP static void sliding_mac(A* acc, const A* c,
                                                 const D* data, int dstart) {
    for (unsigned p = 0; p < P; ++p) {
      const A cp = c[p];
      const D* x = data + dstart + static_cast<int>(p) * Step;
      for (unsigned i = 0; i < N; ++i) {
        acc[i] = acc[i] + cp * static_cast<A>(x[i]);
      }
    }
  }

  /// acc[l] += c * (d1[l] + d2[l]) -- the pre-add step of the symmetric
  /// sliding multiply (both data windows contiguous).
  template <class A, class D, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_bcast_pair(A* acc, const D* d1,
                                                    const D* d2, A c) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] + c * (static_cast<A>(d1[i]) + static_cast<A>(d2[i]));
    }
  }

  // ---- accumulator <-> vector moves (srs / ups) ----

  /// Shift-round-saturate int64 accumulator lanes down to T.
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void srs(T* r, const std::int64_t* acc,
                                         int shift) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = detail::saturate_i64<T>(detail::shift_round(acc[i], shift));
    }
  }

  /// Upshift T lanes into int64 accumulator lanes.
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void ups(std::int64_t* acc, const T* v,
                                         int shift) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<std::int64_t>(v[i]) << shift;
    }
  }

  /// Lane-wise static_cast between accumulator and vector element types
  /// (the float accfloat<->vector moves and srs on float accumulators).
  template <class Dst, class Src, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void convert(Dst* r, const Src* a) {
    for (unsigned i = 0; i < N; ++i) r[i] = static_cast<Dst>(a[i]);
  }

  // ---- ML extensions: dot-product MAC, 32-bit accumulators, converts ----

  /// acc[l] += sum_{j<4} a[4l+j] * b[4l+j] -- the AIE-ML 8-bit MAC shape
  /// (4-deep multiply groups reduced into one accumulator lane). The sum
  /// evaluates exactly in int64 and truncates modulo the accumulator width
  /// (well-defined in C++20), so int16 inputs whose 4-product sum exceeds
  /// the int32 lane wrap instead of hitting signed-overflow UB; the native
  /// backend's pair-sum reduction lands on the same modular value.
  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_dot4(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      const std::int64_t p0 = static_cast<std::int64_t>(a[4 * i + 0]) * b[4 * i + 0];
      const std::int64_t p1 = static_cast<std::int64_t>(a[4 * i + 1]) * b[4 * i + 1];
      const std::int64_t p2 = static_cast<std::int64_t>(a[4 * i + 2]) * b[4 * i + 2];
      const std::int64_t p3 = static_cast<std::int64_t>(a[4 * i + 3]) * b[4 * i + 3];
      acc[i] = static_cast<A>(acc[i] + ((p0 + p1) + (p2 + p3)));
    }
  }

  /// srs from int32 accumulator lanes (acc32). Evaluated in int64 so the
  /// rounding bias cannot overflow the lane, then the shared clamp.
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void srs32(T* r, const std::int32_t* acc,
                                           int shift) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = detail::saturate_i64<T>(detail::shift_round(acc[i], shift));
    }
  }

  /// Upshift T lanes into int32 accumulator lanes (acc32 ups).
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void ups32(std::int32_t* acc, const T* v,
                                           int shift) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<std::int32_t>(v[i]) << shift;
    }
  }

  /// Narrowing lane convert with saturation (AIE pack-with-saturate).
  template <class Dst, class Src, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void convert_sat(Dst* r, const Src* a) {
    static_assert(std::is_integral_v<Dst> && std::is_integral_v<Src> &&
                  sizeof(Dst) < sizeof(Src));
    constexpr auto lo = static_cast<Src>(std::numeric_limits<Dst>::min());
    constexpr auto hi = static_cast<Src>(std::numeric_limits<Dst>::max());
    for (unsigned i = 0; i < N; ++i) {
      r[i] = static_cast<Dst>(std::clamp(a[i], lo, hi));
    }
  }

  /// bf16 -> f32 widen: a bf16 pattern is the high half of the f32 bits.
  template <unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void bf16_to_f32(float* r,
                                                 const std::uint16_t* a) {
    for (unsigned i = 0; i < N; ++i) {
      const std::uint32_t u = static_cast<std::uint32_t>(a[i]) << 16;
      std::memcpy(&r[i], &u, sizeof(float));
    }
  }

  /// f32 -> bf16 narrow with round-to-nearest-even; NaNs quiet to a
  /// canonical payload. Branchless select so every input (including NaN
  /// payload bits) follows the identical formula on both backends.
  template <unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void f32_to_bf16(std::uint16_t* r,
                                                 const float* a) {
    for (unsigned i = 0; i < N; ++i) {
      std::uint32_t u;
      std::memcpy(&u, &a[i], sizeof(float));
      const bool nan = (u & 0x7fffffffu) > 0x7f800000u;
      const std::uint32_t rne = (u + 0x7fffu + ((u >> 16) & 1u)) >> 16;
      const std::uint32_t quiet = (u >> 16) | 0x0040u;
      r[i] = static_cast<std::uint16_t>(nan ? quiet : rne);
    }
  }

  /// Fixed-point negative exponential r[i] = 2^(-u[i]/2^15) in Q15 (the
  /// softmax kernel's exp). All-int32 arithmetic; see detail::exp2_neg_q15_lane.
  template <unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void exp2_neg_q15(std::int32_t* r,
                                                  const std::int32_t* u) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::exp2_neg_q15_lane(u[i]);
  }

  // ---- compares and select ----
  // Masks are lane bits (detail::mask_words): lane i is bit i % 64 of word
  // i / 64, the layout of an AIE mask register.

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void lt(std::uint64_t* m, const T* a,
                                        const T* b) {
    std::fill_n(m, detail::mask_words(N), std::uint64_t{0});
    for (unsigned i = 0; i < N; ++i) {
      m[i / 64] |= std::uint64_t{a[i] < b[i]} << (i % 64);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void ge(std::uint64_t* m, const T* a,
                                        const T* b) {
    std::fill_n(m, detail::mask_words(N), std::uint64_t{0});
    for (unsigned i = 0; i < N; ++i) {
      m[i / 64] |= std::uint64_t{a[i] >= b[i]} << (i % 64);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void select(T* r, const T* a, const T* b,
                                            const std::uint64_t* m) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = ((m[i / 64] >> (i % 64)) & 1u) != 0 ? a[i] : b[i];
    }
  }

  // ---- lane permutations ----

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void shuffle_down(T* r, const T* a,
                                                  unsigned n) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[(i + n) % N];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void shuffle_up(T* r, const T* a, unsigned n) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[(i + N - (n % N)) % N];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void reverse(T* r, const T* a) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[N - 1 - i];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void butterfly(T* r, const T* a,
                                               unsigned stride) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[(i ^ stride) % N];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void permute(T* r, const T* a,
                                             const std::int32_t* idx) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = a[static_cast<unsigned>(idx[i]) % N];
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void interleave_zip(T* lo, T* hi, const T* a,
                                                    const T* b) {
    for (unsigned i = 0; i < N / 2; ++i) {
      lo[2 * i] = a[i];
      lo[2 * i + 1] = b[i];
      hi[2 * i] = a[N / 2 + i];
      hi[2 * i + 1] = b[N / 2 + i];
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void interleave_unzip(T* even, T* odd,
                                                      const T* a, const T* b) {
    for (unsigned i = 0; i < N / 2; ++i) {
      even[i] = a[2 * i];
      odd[i] = a[2 * i + 1];
      even[N / 2 + i] = b[2 * i];
      odd[N / 2 + i] = b[2 * i + 1];
    }
  }

  /// r (N/2 lanes) <- even-indexed lanes of a (N lanes).
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void filter_even(T* r, const T* a) {
    for (unsigned i = 0; i < N / 2; ++i) r[i] = a[2 * i];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void filter_odd(T* r, const T* a) {
    for (unsigned i = 0; i < N / 2; ++i) r[i] = a[2 * i + 1];
  }

  // ---- reductions ----
  // Sequential on both backends: float reductions are order-sensitive, and
  // keeping one evaluation order is what makes the backends bit-exact.

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static T reduce_add(const T* a) {
    T s{};
    for (unsigned i = 0; i < N; ++i) s = static_cast<T>(s + a[i]);
    return s;
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static T reduce_min(const T* a) {
    T s = a[0];
    for (unsigned i = 1; i < N; ++i) s = std::min(s, a[i]);
    return s;
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static T reduce_max(const T* a) {
    T s = a[0];
    for (unsigned i = 1; i < N; ++i) s = std::max(s, a[i]);
    return s;
  }
};

// ---------------------------------------------------------------------------
// native_backend: the same operations on compiler vector extensions.
// ---------------------------------------------------------------------------

#if CGSIM_SIMD_HAVE_NATIVE

struct native_backend {
  static constexpr const char* name = "native";
  static constexpr bool vectorized = true;

 private:
  template <class T, unsigned N>
  struct vt {
    typedef T type __attribute__((vector_size(sizeof(T) * N)));
  };
  /// Host vector register of N T lanes.
  template <class T, unsigned N>
  using v = typename vt<T, N>::type;
  /// Same-shape signed integer vector (comparison results, shuffle masks).
  template <class T, unsigned N>
  using m = typename vt<detail::int_of_t<sizeof(T)>, N>::type;

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static v<T, N> ld(const T* p) {
    v<T, N> r;
    std::memcpy(&r, p, sizeof r);
    return r;
  }
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void st(T* p, const v<T, N>& r) {
    std::memcpy(p, &r, sizeof r);
  }

  /// Lane-type conversion. GCC lowers a direct `__builtin_convertvector`
  /// between integer lanes whose widths differ by more than 2x to per-lane
  /// scalar code (byte extracts + shifts); stepping through the
  /// intermediate widths keeps every hop a packed convert. Value-identical
  /// to the one-step convert: sign/zero extension composes hop by hop
  /// (intermediate signedness follows the source), and integer narrowing
  /// truncates modulo the destination width either way.
  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static v<A, N> cvt(const v<T, N>& x) {
    if constexpr (std::is_same_v<A, T>) {
      return x;
    } else if constexpr (std::is_integral_v<A> && std::is_integral_v<T> &&
                         sizeof(A) > 2 * sizeof(T)) {
      using MidS = detail::int_of_t<2 * sizeof(T)>;
      using Mid = std::conditional_t<std::is_signed_v<T>, MidS,
                                     std::make_unsigned_t<MidS>>;
      return cvt<A, Mid, N>(__builtin_convertvector(x, v<Mid, N>));
    } else if constexpr (std::is_integral_v<A> && std::is_integral_v<T> &&
                         sizeof(T) > 2 * sizeof(A)) {
      using MidS = detail::int_of_t<sizeof(T) / 2>;
      using Mid = std::conditional_t<std::is_signed_v<A>, MidS,
                                     std::make_unsigned_t<MidS>>;
      return cvt<A, Mid, N>(__builtin_convertvector(x, v<Mid, N>));
    } else {
      return __builtin_convertvector(x, v<A, N>);
    }
  }

  /// {0, 1, ..., N-1} as a shuffle-mask vector for T-sized lanes.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static m<T, N> lane_iota() {
    m<T, N> r{};
    for (unsigned i = 0; i < N; ++i) {
      r[i] = static_cast<detail::int_of_t<sizeof(T)>>(i);
    }
    return r;  // constant-folded at -O2
  }

  /// All lanes `x`. Written as `vector | scalar` on the lane bits, which
  /// GCC/Clang lower to one broadcast; an element-wise fill loop can lower
  /// to a chain of lane inserts once `x` is not a constant.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static v<T, N> splat(T x) {
    using U = std::make_unsigned_t<detail::int_of_t<sizeof(T)>>;
    U bits;
    std::memcpy(&bits, &x, sizeof bits);
    const v<U, N> u = v<U, N>{} | bits;
    v<T, N> r;
    std::memcpy(&r, &u, sizeof r);
    return r;
  }

  /// Calls f(p) for p = 0, 1, ..., P-1 with p a constant (fully unrolled).
  template <unsigned P, class F>
  CGSIM_SIMD_INLINE static void unrolled(F&& f) {
    [&]<unsigned... p>(std::integer_sequence<unsigned, p...>)
        CGSIM_SIMD_ALWAYS_INLINE { (f(p), ...); }(
            std::make_integer_sequence<unsigned, P>{});
  }

  // `__builtin_shuffle` (runtime mask) is a GCC extension; Clang only has
  // the constant-index `__builtin_shufflevector`. Lane permutations fall
  // back to plain loops on non-GCC compilers.
#if defined(__GNUC__) && !defined(__clang__)
  static constexpr bool kHaveDynShuffle = true;
#else
  static constexpr bool kHaveDynShuffle = false;
#endif

 public:
  // ---- element-wise arithmetic ----

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void add(T* r, const T* a, const T* b) {
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, wrap_add<T, N>(ld<T, N>(a), ld<T, N>(b)));
    } else {
      st<T, N>(r, ld<T, N>(a) + ld<T, N>(b));
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void sub(T* r, const T* a, const T* b) {
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, wrap_sub<T, N>(ld<T, N>(a), ld<T, N>(b)));
    } else {
      st<T, N>(r, ld<T, N>(a) - ld<T, N>(b));
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void neg(T* r, const T* a) {
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, wrap_neg<T, N>(ld<T, N>(a)));
    } else {
      st<T, N>(r, -ld<T, N>(a));
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void abs_(T* r, const T* a) {
    const auto va = ld<T, N>(a);
    // Mirrors the scalar `a < 0 ? -a : a` lane-wise (keeps -0.0f and NaN
    // behaviour identical to the scalar backend); the integral negate wraps
    // (abs(INT_MIN) == INT_MIN on both backends, not UB).
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, (va < splat<T, N>(T{})) ? wrap_neg<T, N>(va) : va);
    } else {
      st<T, N>(r, (va < splat<T, N>(T{})) ? -va : va);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void min_(T* r, const T* a, const T* b) {
    const auto va = ld<T, N>(a);
    const auto vb = ld<T, N>(b);
    st<T, N>(r, (vb < va) ? vb : va);  // == std::min per lane
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void max_(T* r, const T* a, const T* b) {
    const auto va = ld<T, N>(a);
    const auto vb = ld<T, N>(b);
    st<T, N>(r, (va < vb) ? vb : va);  // == std::max per lane
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void clamp(T* r, const T* a, T lo, T hi) {
    const auto va = ld<T, N>(a);
    const auto vlo = splat<T, N>(lo);
    const auto vhi = splat<T, N>(hi);
    // Two canonical min/max ternaries, not one nested select: GCC folds
    // each into MIN_EXPR/MAX_EXPR (packed at any vector width), while the
    // nested form lowers to a lane select that scalarizes past ~2 registers.
    const auto vmin = (vhi < va) ? vhi : va;
    st<T, N>(r, (vmin < vlo) ? vlo : vmin);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void broadcast(T* r, T x) {
    st<T, N>(r, splat<T, N>(x));
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void iota(T* r, T start, T step) {
    // Sequential adds, matching the scalar backend's float rounding.
    scalar_backend::iota<T, N>(r, start, step);
  }

  // ---- multiply / multiply-accumulate ----

 private:
  /// Loads N T lanes widened to the accumulator element type A.
  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static v<A, N> ldw(const T* p) {
    return cvt<A, T, N>(ld<T, N>(p));
  }

  /// True when T x T products provably fit in int32 lanes: then the
  /// int64-accumulator multiply can run as a packed 32-bit multiply (the
  /// host has no packed 64-bit multiply below AVX-512) and widen after.
  /// Exact either way, so bit-identical to the full-width form.
  template <class A, class T>
  static constexpr bool kNarrowMul = std::is_integral_v<A> &&
                                     std::is_integral_v<T> && sizeof(A) == 8 &&
                                     sizeof(T) <= 2;

  /// a[i] * b[i] widened into A lanes, via int32 lanes when exact.
  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static v<A, N> wmul(const T* a, const T* b) {
    if constexpr (kNarrowMul<A, T>) {
      return __builtin_convertvector(
          ldw<std::int32_t, T, N>(a) * ldw<std::int32_t, T, N>(b), v<A, N>);
    } else {
      return ldw<A, T, N>(a) * ldw<A, T, N>(b);
    }
  }

 public:
  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static void mul(A* acc, const T* a, const T* b) {
    st<A, N>(acc, wmul<A, T, N>(a, b));
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static void mac(A* acc, const T* a, const T* b) {
    st<A, N>(acc, ld<A, N>(acc) + wmul<A, T, N>(a, b));
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static void msc(A* acc, const T* a, const T* b) {
    st<A, N>(acc, ld<A, N>(acc) - wmul<A, T, N>(a, b));
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static void mul_s(A* acc, const T* a, T s) {
    st<A, N>(acc, ldw<A, T, N>(a) * splat<A, N>(static_cast<A>(s)));
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static void mac_s(A* acc, const T* a, T s) {
    st<A, N>(acc,
             ld<A, N>(acc) + ldw<A, T, N>(a) * splat<A, N>(static_cast<A>(s)));
  }

  template <class A, class D, unsigned N>
  CGSIM_SIMD_INLINE static void mac_bcast(A* acc, const D* data, A c) {
    static_assert(sizeof(A) == 4, "mac_bcast is the acc32 broadcast MAC");
    st<A, N>(acc, ld<A, N>(acc) + splat<A, N>(c) * ldw<A, D, N>(data));
  }

 private:
  /// Lanes [off, off + N) of the M-lane register `x` (off + N <= M): a
  /// lane rotate in registers, which folds to one fixed permute when `off`
  /// is a compile-time constant.
  template <class T, unsigned N, unsigned M>
  CGSIM_SIMD_INLINE static v<T, N> window(const v<T, M>& x, int off) {
    if constexpr (N == M) {
      return (void)off, x;  // in bounds only at off == 0
    } else {
      using I = detail::int_of_t<sizeof(T)>;
      const auto idx = lane_iota<T, M>() + splat<I, M>(static_cast<I>(off));
      v<T, M> rot;
#if defined(__GNUC__) && !defined(__clang__)
      rot = __builtin_shuffle(x, idx);
#else
      for (unsigned i = 0; i < M; ++i) rot[i] = x[idx[i] % M];
#endif
      v<T, N> r;
      std::memcpy(&r, &rot, sizeof r);
      return r;
    }
  }

  /// Product range of C x D lanes, when both are integers of at most 32
  /// bits (the int64 products below cannot overflow then).
  template <class C, class D>
  static constexpr bool kBoundedProducts =
      std::is_integral_v<C> && std::is_integral_v<D> && sizeof(C) <= 4 &&
      sizeof(D) <= 4;
  template <class C, class D>
  static constexpr std::array<std::int64_t, 2> product_range() {
    const std::int64_t c[2] = {std::numeric_limits<C>::min(),
                               std::numeric_limits<C>::max()};
    const std::int64_t d[2] = {std::numeric_limits<D>::min(),
                               std::numeric_limits<D>::max()};
    std::int64_t lo = c[0] * d[0], hi = lo;
    for (std::int64_t x : c) {
      for (std::int64_t y : d) {
        lo = std::min(lo, x * y);
        hi = std::max(hi, x * y);
      }
    }
    return {lo, hi};
  }

 public:
  /// All P taps accumulate in registers: the data vector is read once,
  /// each tap's lane window is a register rotate of it, and the
  /// accumulator is read and written once per call.
  ///
  /// Integer taps whose C x D products fit int32 (int16 x int16, int8 x
  /// int16, ...) multiply in packed 32-bit lanes. Their sums stay exact
  /// without any run-time check: a group of K products lies in
  /// [K * pmin, K * pmax], and while that window is narrower than 2^32 the
  /// group's wrapping 32-bit sum, taken relative to K * pmin, is the exact
  /// offset. So each group sums in 32-bit lanes and widens once (K = 2 for
  /// int16 x int16, where two -32768 * -32768 products already overflow
  /// int32; all P taps for int8 data). Integer sums are exact, so this is
  /// bit-identical to the scalar backend's tap-by-tap order. Float taps,
  /// and integer taps with wider products, accumulate tap by tap in A.
  template <class A, class C, class D, unsigned N, unsigned ND, unsigned P,
            int Step>
  CGSIM_SIMD_INLINE static void sliding_mac(A* acc, const A* c, const D* data, int dstart) {
    const v<D, ND> vd = ld<D, ND>(data);
    const auto off = [&](unsigned p) CGSIM_SIMD_ALWAYS_INLINE {
      return dstart + static_cast<int>(p) * Step;
    };
    v<A, N> va = ld<A, N>(acc);
    if constexpr (std::is_integral_v<A> && sizeof(A) == 8 &&
                  kBoundedProducts<C, D>) {
      constexpr auto range = product_range<C, D>();
      if constexpr (range[0] >= std::numeric_limits<std::int32_t>::min() &&
                    range[1] <= std::numeric_limits<std::int32_t>::max()) {
        constexpr auto width = static_cast<std::uint64_t>(range[1] - range[0]);
        constexpr unsigned K = static_cast<unsigned>(
            std::min<std::uint64_t>(P, width == 0 ? P : 0xffffffffu / width));
        using U = v<std::uint32_t, N>;
        // Widen the data once; each tap's window is a rotate of it.
        const v<std::int32_t, ND> wide = cvt<std::int32_t, D, ND>(vd);
        U sum{};
        std::int64_t base = 0;  // sum of the flushed groups' K * pmin
        unrolled<P>([&](unsigned p) CGSIM_SIMD_ALWAYS_INLINE {
          const v<std::int32_t, N> prod =
              splat<std::int32_t, N>(static_cast<std::int32_t>(c[p])) *
              window<std::int32_t, N, ND>(wide, off(p));
          U u;
          std::memcpy(&u, &prod, sizeof u);
          sum += u;  // unsigned lanes: a defined wrap
          const unsigned in_group = p % K + 1;
          if (in_group == K || p + 1 == P) {
            const std::int64_t lo = in_group * range[0];
            sum -= splat<std::uint32_t, N>(static_cast<std::uint32_t>(lo));
            va += cvt<A, std::uint32_t, N>(sum);  // zero-extend the offset
            base += lo;
            sum = U{};
          }
        });
        st<A, N>(acc, va + splat<A, N>(static_cast<A>(base)));
        return;
      }
    }
    unrolled<P>([&](unsigned p) CGSIM_SIMD_ALWAYS_INLINE {
      va = va + splat<A, N>(c[p]) * cvt<A, D, N>(window<D, N, ND>(vd, off(p)));
    });
    st<A, N>(acc, va);
  }

  template <class A, class D, unsigned N>
  CGSIM_SIMD_INLINE static void mac_bcast_pair(A* acc, const D* d1, const D* d2, A c) {
    if constexpr (kNarrowMul<A, D>) {
      if (c >= -32768 && c <= 32767) {
        // c*(d1+d2) == c*d1 + c*d2 exactly in int64; each product fits in
        // an int32 lane, so two packed 32-bit multiplies replace the
        // scalarized 64-bit one.
        const auto vc = splat<std::int32_t, N>(static_cast<std::int32_t>(c));
        const auto p1 = vc * ldw<std::int32_t, D, N>(d1);
        const auto p2 = vc * ldw<std::int32_t, D, N>(d2);
        st<A, N>(acc, ld<A, N>(acc) + __builtin_convertvector(p1, v<A, N>) +
                          __builtin_convertvector(p2, v<A, N>));
        return;
      }
    }
    st<A, N>(acc, ld<A, N>(acc) +
                      splat<A, N>(c) * (ldw<A, D, N>(d1) + ldw<A, D, N>(d2)));
  }

  // ---- accumulator <-> vector moves (srs / ups) ----

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void srs(T* r, const std::int64_t* acc, int shift) {
    auto va = ld<std::int64_t, N>(acc);
    if (shift <= 0) {
      va <<= -shift;
    } else {
      va = (va + splat<std::int64_t, N>(std::int64_t{1} << (shift - 1))) >>
           shift;
    }
    const auto vlo =
        splat<std::int64_t, N>(std::numeric_limits<T>::min());
    const auto vhi =
        splat<std::int64_t, N>(std::numeric_limits<T>::max());
    // Saturate with two canonical min/max ternaries: GCC folds each into a
    // packed MIN_EXPR/MAX_EXPR at any width, where the equivalent nested
    // select scalarizes to per-lane cmovs once the vector spans more than
    // a couple of registers.
    va = (va > vhi) ? vhi : va;
    va = (va < vlo) ? vlo : va;
    st<T, N>(r, cvt<T, std::int64_t, N>(va));
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void ups(std::int64_t* acc, const T* p, int shift) {
    st<std::int64_t, N>(acc, ldw<std::int64_t, T, N>(p) << shift);
  }

  template <class Dst, class Src, unsigned N>
  CGSIM_SIMD_INLINE static void convert(Dst* r, const Src* a) {
    if constexpr (std::is_same_v<Dst, Src>) {
      std::memcpy(r, a, N * sizeof(Dst));
    } else {
      st<Dst, N>(r, cvt<Dst, Src, N>(ld<Src, N>(a)));
    }
  }

  // ---- ML extensions: dot-product MAC, 32-bit accumulators, converts ----

 private:
  /// Lane-wise wrapping add. Signed lane overflow is UB even in vector
  /// extensions, so the add runs in unsigned lanes (defined wrap); the bit
  /// pattern is what two's-complement wrapping produces.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static v<T, N> wrap_add(const v<T, N>& x, const v<T, N>& y) {
    using U = std::make_unsigned_t<T>;
    v<U, N> ux, uy;
    std::memcpy(&ux, &x, sizeof(ux));
    std::memcpy(&uy, &y, sizeof(uy));
    ux += uy;
    v<T, N> r;
    std::memcpy(&r, &ux, sizeof(r));
    return r;
  }

  /// Lane-wise wrapping subtract (same unsigned detour as wrap_add).
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static v<T, N> wrap_sub(const v<T, N>& x, const v<T, N>& y) {
    using U = std::make_unsigned_t<T>;
    v<U, N> ux, uy;
    std::memcpy(&ux, &x, sizeof(ux));
    std::memcpy(&uy, &y, sizeof(uy));
    ux -= uy;
    v<T, N> r;
    std::memcpy(&r, &ux, sizeof(r));
    return r;
  }

  /// Lane-wise wrapping negate: -INT_MIN wraps to itself instead of UB.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static v<T, N> wrap_neg(const v<T, N>& x) {
    using U = std::make_unsigned_t<T>;
    v<U, N> ux;
    std::memcpy(&ux, &x, sizeof(ux));
    ux = v<U, N>{} - ux;
    v<T, N> r;
    std::memcpy(&r, &ux, sizeof(r));
    return r;
  }

  /// Splits a 2N-lane vector into its even and odd lanes, each widened to
  /// a double-width lane (sign-extended for signed T, zero-extended for
  /// unsigned): reinterpret each pair as one wide lane (little-endian:
  /// even lane = low half) and recover the halves with shifts. Every step
  /// is lane-local, which matters because GCC lowers cross-lane shuffles
  /// at these vector widths to scalar code.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static auto lane_split(const v<T, 2 * N>& x) {
    using WS = detail::int_of_t<2 * sizeof(T)>;
    using W = std::conditional_t<std::is_signed_v<T>, WS,
                                 std::make_unsigned_t<WS>>;
    using U = std::make_unsigned_t<WS>;
    constexpr int half = 8 * sizeof(T);
    v<U, N> u;
    std::memcpy(&u, &x, sizeof(u));
    const v<U, N> ulo = u << half;  // unsigned: left shift cannot be UB
    v<W, N> lo, hi;
    std::memcpy(&lo, &ulo, sizeof(lo));
    std::memcpy(&hi, &u, sizeof(hi));
    // For unsigned W, >> is logical: the even lanes zero-extend as needed.
    return std::pair<v<W, N>, v<W, N>>{lo >> half, hi >> half};
  }

  /// Sums adjacent lane pairs of a 2N-lane vector into N double-width
  /// lanes. Exact: the sum of two extended T values always fits W.
  template <class W, class T, unsigned N>
  CGSIM_SIMD_INLINE static v<W, N> pair_sum_wide(const v<T, 2 * N>& x) {
    const auto [even, odd] = lane_split<T, N>(x);
    static_assert(std::is_same_v<decltype(even), const v<W, N>>);
    return even + odd;
  }

  /// Sums adjacent lane pairs modulo 2^|T|: reinterpret as unsigned
  /// double-width lanes, fold the high half onto the low half, truncate
  /// back. Lane-local like pair_sum_wide, and congruent to the exact pair
  /// sum modulo the lane width.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static v<T, N> pair_sum_mod(const v<T, 2 * N>& x) {
    using U = std::make_unsigned_t<detail::int_of_t<2 * sizeof(T)>>;
    v<U, N> u;
    std::memcpy(&u, &x, sizeof(u));
    u += u >> (8 * sizeof(T));
    return cvt<T, U, N>(u);
  }

 public:
  /// acc[l] += dot of the l-th 4-deep product group. Products are exact in
  /// double-width lanes; the 4-group reduction folds adjacent pairs with
  /// the lane-local reinterpret idiom above instead of cross-lane shuffles
  /// (which GCC scalarizes at these widths). Each narrowing step truncates
  /// modulo the accumulator width, so the result is congruent -- hence
  /// bit-identical -- to the scalar backend's exact int64 sum truncated
  /// once at the end.
  template <class A, class T, unsigned N>
  CGSIM_SIMD_INLINE static void mac_dot4(A* acc, const T* a, const T* b) {
    using P = detail::int_of_t<2 * sizeof(T)>;  // exact product lane type
    if constexpr (std::endian::native != std::endian::little ||
                  (sizeof(P) > sizeof(A))) {
      scalar_backend::mac_dot4<A, T, N>(acc, a, b);
    } else {
      const v<P, 4 * N> p = cvt<P, T, 4 * N>(ld<T, 4 * N>(a)) *
                            cvt<P, T, 4 * N>(ld<T, 4 * N>(b));
      v<A, 2 * N> s2;
      if constexpr (sizeof(P) < sizeof(A)) {
        // Pair sums can exceed the product lane type: widen exactly.
        s2 = pair_sum_wide<A, P, 2 * N>(p);
      } else {
        // Product lanes already match the accumulator width: fold mod 2^|A|.
        s2 = pair_sum_mod<A, 2 * N>(p);
      }
      st<A, N>(acc, wrap_add<A, N>(ld<A, N>(acc), pair_sum_mod<A, N>(s2)));
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void srs32(T* r, const std::int32_t* acc, int shift) {
    // Widen to int64 lanes so the rounding bias cannot overflow, then the
    // int64 srs path (bit-identical to the scalar formula).
    alignas(32) std::int64_t wide[N];
    st<std::int64_t, N>(wide, __builtin_convertvector(
                                  ld<std::int32_t, N>(acc), v<std::int64_t, N>));
    srs<T, N>(r, wide, shift);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void ups32(std::int32_t* acc, const T* p, int shift) {
    st<std::int32_t, N>(acc, ldw<std::int32_t, T, N>(p) << shift);
  }

  template <class Dst, class Src, unsigned N>
  CGSIM_SIMD_INLINE static void convert_sat(Dst* r, const Src* a) {
    static_assert(std::is_integral_v<Dst> && std::is_integral_v<Src> &&
                  sizeof(Dst) < sizeof(Src));
    const auto va = ld<Src, N>(a);
    const auto vlo = splat<Src, N>(
        static_cast<Src>(std::numeric_limits<Dst>::min()));
    const auto vhi = splat<Src, N>(
        static_cast<Src>(std::numeric_limits<Dst>::max()));
    const auto cmin = (va > vhi) ? vhi : va;       // canonical min/max pair:
    const auto c = (cmin < vlo) ? vlo : cmin;      // stays packed at any width
    st<Dst, N>(r, cvt<Dst, Src, N>(c));
  }

  template <unsigned N>
  CGSIM_SIMD_INLINE static void bf16_to_f32(float* r, const std::uint16_t* a) {
    const auto wide = __builtin_convertvector(ld<std::uint16_t, N>(a),
                                              v<std::uint32_t, N>)
                      << 16;
    v<float, N> f;
    std::memcpy(&f, &wide, sizeof f);
    st<float, N>(r, f);
  }

  template <unsigned N>
  CGSIM_SIMD_INLINE static void f32_to_bf16(std::uint16_t* r, const float* a) {
    const auto vf = ld<float, N>(a);
    v<std::uint32_t, N> u;
    std::memcpy(&u, &vf, sizeof u);
    // Same branchless RNE + NaN-quieting formula as the scalar backend.
    const auto nan = (u & splat<std::uint32_t, N>(0x7fffffffu)) >
                     splat<std::uint32_t, N>(0x7f800000u);
    const auto rne =
        (u + splat<std::uint32_t, N>(0x7fffu) +
         ((u >> 16) & splat<std::uint32_t, N>(1u))) >> 16;
    const auto quiet = (u >> 16) | splat<std::uint32_t, N>(0x0040u);
    st<std::uint16_t, N>(r, __builtin_convertvector(nan ? quiet : rne,
                                                    v<std::uint16_t, N>));
  }

  template <unsigned N>
  CGSIM_SIMD_INLINE static void exp2_neg_q15(std::int32_t* r, const std::int32_t* up) {
    // Slice to one-register-wide steps: the shift clamps and the f==0 blend
    // only stay packed when the lane selects sit in a real machine vector
    // mode; on wider generic vectors GCC scalarizes them per lane once the
    // operands are register-resident (composed with surrounding vector code).
    if constexpr (N > 16 && N % 16 == 0) {
      for (unsigned i = 0; i < N; i += 16) exp2_neg_q15<16>(r + i, up + i);
      return;
    }
    using V = v<std::int32_t, N>;
    const auto sp = [](std::int32_t x) { return splat<std::int32_t, N>(x); };
    V u = ld<std::int32_t, N>(up);
    const V zero{};
    u = (u < zero) ? zero : u;
    const V n = u >> 15;
    const V f = u & sp(32767);
    const V x = sp(32768) - f;
    V t = sp(detail::kExp2C3);
    t = sp(detail::kExp2C2) + ((t * x) >> 15);
    t = sp(detail::kExp2C1) + ((t * x) >> 15);
    const V p = sp(32768) + ((t * x) >> 15);
    // Canonical min ternaries and a bitwise mask blend: both stay packed at
    // any vector width, where non-min/max lane selects scalarize once the
    // operands live in registers across more than a couple of zmms.
    const V sh0 = (n > sp(31)) ? sp(31) : n;
    const V n1 = n + sp(1);
    const V sh1 = (n1 > sp(31)) ? sp(31) : n1;
    const V r0 = sp(32768) >> sh0;
    const V r1 = p >> sh1;
    const V m = f == zero;  // -1/0 lanes
    st<std::int32_t, N>(r, (r0 & m) | (r1 & ~m));
  }

  // ---- compares and select ----

 private:
  /// Packs a lane-wise comparison result (0 / -1 lanes) into mask words:
  /// the lanes narrow to 0/1 bytes, and each 8 bytes fold into one byte of
  /// lane bits with a multiply (on a little-endian host byte k lands on
  /// bit 56 + k).
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void st_mask(std::uint64_t* mp, const m<T, N>& cmp) {
    constexpr unsigned kW = detail::mask_words(N);
    if constexpr (std::endian::native != std::endian::little) {
      for (unsigned w = 0; w < kW; ++w) mp[w] = 0;
      for (unsigned i = 0; i < N; ++i) {
        mp[i / 64] |= static_cast<std::uint64_t>(cmp[i] != 0) << (i % 64);
      }
      return;
    }
    const v<std::int8_t, N> narrow =
        cvt<std::int8_t, detail::int_of_t<sizeof(T)>, N>(cmp) &
        splat<std::int8_t, N>(1);
    unsigned char bytes[64 * kW] = {};
    std::memcpy(bytes, &narrow, N);
    for (unsigned w = 0; w < kW; ++w) {
      std::uint64_t word = 0;
      for (unsigned g = 0; g < 8 && 64 * w + 8 * g < N; ++g) {
        std::uint64_t x;
        std::memcpy(&x, bytes + 64 * w + 8 * g, 8);
        word |= ((x * 0x0102040810204080ull) >> 56) << (8 * g);
      }
      mp[w] = word;
    }
  }

  /// Expands mask words into a T-lane select mask (nonzero where the lane
  /// bit is set): lane i takes the (i / W)-th W-bit chunk of the words and
  /// tests bit i % W, W being T's lane width. Both index vectors are
  /// constants, so this is a broadcast or a fixed permute, an and, and a
  /// compare -- and a constant mask folds away entirely.
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static m<T, N> ld_mask(const std::uint64_t* mp) {
    using I = detail::int_of_t<sizeof(T)>;
    using U = std::make_unsigned_t<I>;
    if constexpr (std::endian::native != std::endian::little) {
      m<T, N> r{};
      for (unsigned i = 0; i < N; ++i) {
        r[i] = static_cast<I>(-static_cast<I>((mp[i / 64] >> (i % 64)) & 1u));
      }
      return r;
    }
    constexpr unsigned kBits = 8 * sizeof(T);
    v<U, N> chunks{};
    std::memcpy(&chunks, mp,
                std::min<std::size_t>(sizeof chunks,
                                      8 * detail::mask_words(N)));
    v<U, N> bit{};
    m<T, N> sel{};
    for (unsigned i = 0; i < N; ++i) {
      bit[i] = static_cast<U>(U{1} << (i % kBits));
      sel[i] = static_cast<I>(i / kBits);
    }  // constant-folded
#if defined(__GNUC__) && !defined(__clang__)
    if constexpr (N > kBits) chunks = __builtin_shuffle(chunks, sel);
#else
    if constexpr (N > kBits) {
      const v<U, N> in = chunks;
      for (unsigned i = 0; i < N; ++i) chunks[i] = in[sel[i]];
    }
#endif
    if constexpr (N <= kBits) chunks = splat<U, N>(chunks[0]);
    return (chunks & bit) != v<U, N>{};
  }

 public:
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void lt(std::uint64_t* mp, const T* a, const T* b) {
    st_mask<T, N>(mp, ld<T, N>(a) < ld<T, N>(b));
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void ge(std::uint64_t* mp, const T* a, const T* b) {
    st_mask<T, N>(mp, ld<T, N>(a) >= ld<T, N>(b));
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void select(T* r, const T* a, const T* b, const std::uint64_t* mp) {
    st<T, N>(r, ld_mask<T, N>(mp) ? ld<T, N>(a) : ld<T, N>(b));
  }

  // ---- lane permutations ----
  // GCC's __builtin_shuffle reads mask lanes modulo N, matching the scalar
  // backend's explicit `% N` for power-of-two N.

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void shuffle_down(T* r, const T* a, unsigned n) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      const auto idx = lane_iota<T, N>() +
                       splat<detail::int_of_t<sizeof(T)>, N>(
                           static_cast<detail::int_of_t<sizeof(T)>>(n % N));
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), idx));
#endif
    } else {
      scalar_backend::shuffle_down<T, N>(r, a, n);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void shuffle_up(T* r, const T* a, unsigned n) {
    shuffle_down<T, N>(r, a, N - (n % N));
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void reverse(T* r, const T* a) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      const auto idx =
          splat<detail::int_of_t<sizeof(T)>, N>(
              static_cast<detail::int_of_t<sizeof(T)>>(N - 1)) -
          lane_iota<T, N>();
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), idx));
#endif
    } else {
      scalar_backend::reverse<T, N>(r, a);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void butterfly(T* r, const T* a, unsigned stride) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      const auto idx = lane_iota<T, N>() ^
                       splat<detail::int_of_t<sizeof(T)>, N>(
                           static_cast<detail::int_of_t<sizeof(T)>>(stride));
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), idx));
#endif
    } else {
      scalar_backend::butterfly<T, N>(r, a, stride);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void permute(T* r, const T* a, const std::int32_t* idx) {
    if constexpr (kHaveDynShuffle && N <= 65536) {
#if defined(__GNUC__) && !defined(__clang__)
      // Truncating/extending int32 indices to lane-sized ones preserves the
      // value modulo N for power-of-two N <= 2^16 -- same lane selection as
      // the scalar `static_cast<unsigned>(idx) % N`.
      const auto mi = cvt<detail::int_of_t<sizeof(T)>, std::int32_t, N>(
          ld<std::int32_t, N>(idx));
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), mi));
#endif
    } else {
      scalar_backend::permute<T, N>(r, a, idx);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void interleave_zip(T* lo, T* hi, const T* a, const T* b) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      using I = detail::int_of_t<sizeof(T)>;
      m<T, N> zlo{}, zhi{};
      for (unsigned i = 0; i < N / 2; ++i) {
        zlo[2 * i] = static_cast<I>(i);
        zlo[2 * i + 1] = static_cast<I>(N + i);
        zhi[2 * i] = static_cast<I>(N / 2 + i);
        zhi[2 * i + 1] = static_cast<I>(N + N / 2 + i);
      }  // constant-folded
      const auto va = ld<T, N>(a);
      const auto vb = ld<T, N>(b);
      st<T, N>(lo, __builtin_shuffle(va, vb, zlo));
      st<T, N>(hi, __builtin_shuffle(va, vb, zhi));
#endif
    } else {
      scalar_backend::interleave_zip<T, N>(lo, hi, a, b);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void interleave_unzip(T* even, T* odd, const T* a, const T* b) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      using I = detail::int_of_t<sizeof(T)>;
      m<T, N> ze{}, zo{};
      for (unsigned i = 0; i < N; ++i) {
        ze[i] = static_cast<I>(2 * i);
        zo[i] = static_cast<I>(2 * i + 1);
      }  // constant-folded
      const auto va = ld<T, N>(a);
      const auto vb = ld<T, N>(b);
      st<T, N>(even, __builtin_shuffle(va, vb, ze));
      st<T, N>(odd, __builtin_shuffle(va, vb, zo));
#endif
    } else {
      scalar_backend::interleave_unzip<T, N>(even, odd, a, b);
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void filter_even(T* r, const T* a) {
    scalar_backend::filter_even<T, N>(r, a);  // N/2-lane strided copy
  }

  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static void filter_odd(T* r, const T* a) {
    scalar_backend::filter_odd<T, N>(r, a);
  }

  // ---- reductions ----
  // Integer lane folds are associative (adds wrap modulo 2^|T|, min/max
  // exactly), so a pairwise tree is bit-identical to the scalar backend's
  // sequential fold and runs in log2(N) lane-local steps. FP addition is
  // not associative, so float lanes keep the scalar sequential order.

 private:
  /// Pairwise tree fold: splits even/odd lanes into double-width vectors,
  /// combines them with `op`, narrows back to T (modulo 2^|T| for adds,
  /// exact for min/max), and recurses until one lane remains.
  template <class T, unsigned N, class F>
  CGSIM_SIMD_INLINE static T fold_tree(const v<T, N>& x, F op) {
    if constexpr (N == 1) {
      return x[0];
    } else {
      using WS = detail::int_of_t<2 * sizeof(T)>;
      using W = std::conditional_t<std::is_signed_v<T>, WS,
                                   std::make_unsigned_t<WS>>;
      const auto [even, odd] = lane_split<T, N / 2>(x);
      return fold_tree<T, N / 2>(cvt<T, W, N / 2>(op(even, odd)), op);
    }
  }

  /// Tree folds need: integer lanes narrow enough to widen, a power-of-two
  /// lane count, and the little-endian pair reinterpretation.
  template <class T, unsigned N>
  static constexpr bool kTreeFold =
      std::is_integral_v<T> && sizeof(T) <= 4 && N > 1 &&
      (N & (N - 1)) == 0 && std::endian::native == std::endian::little;

 public:
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static T reduce_add(const T* a) {
    if constexpr (kTreeFold<T, N>) {
      return fold_tree<T, N>(ld<T, N>(a),
                             [](auto e, auto o) { return e + o; });
    } else {
      return scalar_backend::reduce_add<T, N>(a);
    }
  }
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static T reduce_min(const T* a) {
    if constexpr (kTreeFold<T, N>) {
      return fold_tree<T, N>(ld<T, N>(a),
                             [](auto e, auto o) { return (o < e) ? o : e; });
    } else {
      return scalar_backend::reduce_min<T, N>(a);
    }
  }
  template <class T, unsigned N>
  CGSIM_SIMD_INLINE static T reduce_max(const T* a) {
    if constexpr (kTreeFold<T, N>) {
      return fold_tree<T, N>(ld<T, N>(a),
                             [](auto e, auto o) { return (o > e) ? o : e; });
    } else {
      return scalar_backend::reduce_max<T, N>(a);
    }
  }
};

#else  // !CGSIM_SIMD_HAVE_NATIVE

using native_backend = scalar_backend;

#endif

// The default backend the aie:: API dispatches to; the CGSIM_SIMD CMake
// option (native | scalar) controls CGSIM_SIMD_FORCE_SCALAR.
#if defined(CGSIM_SIMD_FORCE_SCALAR)
using backend = scalar_backend;
#else
using backend = native_backend;
#endif

}  // namespace aie::simd
