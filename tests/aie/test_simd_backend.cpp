// Property / fuzz tests for the SIMD execution backends (src/aie/simd.hpp):
// every emulated intrinsic must produce bit-identical results on the
// scalar_backend (per-lane reference loops) and the native_backend (vector
// extensions), including the saturation / rounding / overflow corners and
// the permutation index edge cases. Also pins down the instrumentation
// invariants: OpCounts are byte-identical across backends, and the batched
// recording paths (ScopedCounterBatch, the IIR per-window scalar batch)
// count exactly what the per-element form counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <typeinfo>
#include <utility>

#include "aie/aie.hpp"
#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/iir.hpp"

namespace {

using Scalar = aie::simd::scalar_backend;
using Native = aie::simd::native_backend;

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

template <class T>
T random_lane(std::mt19937& rng, bool full_range) {
  if constexpr (std::is_floating_point_v<T>) {
    if (!full_range) {
      // Finite-only: NaNs *generated* by float arithmetic (inf - inf,
      // 0 * inf) carry payload/sign bits that depend on how the compiler
      // schedules the operands, so the MAC-family fuzz sticks to numbers.
      // NaN *propagation* through min/max/select is covered by the
      // full-range element-wise fuzz, where it is well-defined.
      std::uniform_real_distribution<T> dist(T(-1e6), T(1e6));
      return dist(rng);
    }
    // Mostly finite values, with the order-sensitive specials mixed in.
    switch (rng() % 16) {
      case 0: return T(0.0);
      case 1: return T(-0.0);
      case 2: return std::numeric_limits<T>::quiet_NaN();
      case 3: return std::numeric_limits<T>::infinity();
      case 4: return -std::numeric_limits<T>::infinity();
      case 5: return std::numeric_limits<T>::denorm_min();
      default: {
        std::uniform_real_distribution<T> dist(T(-1e6), T(1e6));
        return dist(rng);
      }
    }
  } else {
    const auto raw = static_cast<std::int64_t>(rng()) -
                     static_cast<std::int64_t>(1u << 31);
    if (full_range) return static_cast<T>(raw);
    // MAC-safe range: keeps int64 accumulation far from overflow even for
    // 32-bit lanes (products stay below 2^40).
    return static_cast<T>(raw % (std::int64_t{1} << 20));
  }
}

template <class T, unsigned N>
aie::vector<T, N> random_vector(std::mt19937& rng, bool full_range = true) {
  aie::vector<T, N> v;
  for (unsigned i = 0; i < N; ++i) v.set(i, random_lane<T>(rng, full_range));
  return v;
}

/// Bit-exact comparison (NaN payloads and -0.0 included).
template <class T, unsigned N>
::testing::AssertionResult bits_eq(const aie::vector<T, N>& a,
                                   const aie::vector<T, N>& b) {
  if (std::memcmp(a.data().data(), b.data().data(), sizeof(T) * N) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto r = ::testing::AssertionFailure() << "vectors differ:";
  for (unsigned i = 0; i < N; ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(T)) != 0) {
      r << " lane " << i << " (" << +a.get(i) << " vs " << +b.get(i) << ")";
    }
  }
  return r;
}

template <class Tag, unsigned N>
::testing::AssertionResult bits_eq(const aie::accum<Tag, N>& a,
                                   const aie::accum<Tag, N>& b) {
  using S = typename aie::accum<Tag, N>::storage;
  if (std::memcmp(a.data().data(), b.data().data(), sizeof(S) * N) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto r = ::testing::AssertionFailure() << "accumulators differ:";
  for (unsigned i = 0; i < N; ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(S)) != 0) {
      r << " lane " << i << " (" << +a.get(i) << " vs " << +b.get(i) << ")";
    }
  }
  return r;
}

constexpr unsigned kFuzzRounds = 50;

// ---------------------------------------------------------------------------
// element-wise / compare / shuffle equivalence over the full type matrix
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_elementwise(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng);
    const auto b = random_vector<T, N>(rng);

    EXPECT_TRUE(bits_eq(aie::add<Scalar>(a, b), aie::add<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::sub<Scalar>(a, b), aie::sub<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::neg<Scalar>(a), aie::neg<Native>(a)));
    EXPECT_TRUE(bits_eq(aie::abs<Scalar>(a), aie::abs<Native>(a)));
    EXPECT_TRUE(bits_eq(aie::min<Scalar>(a, b), aie::min<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::max<Scalar>(a, b), aie::max<Native>(a, b)));

    T lo = random_lane<T>(rng, true);
    T hi = random_lane<T>(rng, true);
    if constexpr (std::is_floating_point_v<T>) {
      // std::clamp requires an ordered (non-NaN) range.
      if (std::isnan(lo)) lo = T(-1);
      if (std::isnan(hi)) hi = T(1);
    }
    if (hi < lo) std::swap(lo, hi);
    EXPECT_TRUE(
        bits_eq(aie::clamp<Scalar>(a, lo, hi), aie::clamp<Native>(a, lo, hi)));

    const T s = random_lane<T>(rng, true);
    EXPECT_TRUE(bits_eq(aie::broadcast<T, N, Scalar>(s),
                        aie::broadcast<T, N, Native>(s)));
    EXPECT_TRUE(bits_eq((aie::iota<T, N, Scalar>(s, T{3})),
                        (aie::iota<T, N, Native>(s, T{3}))));

    // Compares and select must agree on every lane pattern they produce.
    const auto mlt_s = aie::lt<Scalar>(a, b);
    const auto mlt_n = aie::lt<Native>(a, b);
    EXPECT_EQ(mlt_s, mlt_n);
    const auto mge_s = aie::ge<Scalar>(a, b);
    EXPECT_EQ(mge_s, aie::ge<Native>(a, b));
    EXPECT_TRUE(bits_eq(aie::select<Scalar>(a, b, mlt_s),
                        aie::select<Native>(a, b, mlt_n)));

    // Lane permutations, including rotations beyond N (wrap semantics).
    for (unsigned n : {0u, 1u, N / 2, N - 1, N, N + 3, 7 * N + 5}) {
      EXPECT_TRUE(bits_eq(aie::shuffle_down<Scalar>(a, n),
                          aie::shuffle_down<Native>(a, n)));
      EXPECT_TRUE(bits_eq(aie::shuffle_up<Scalar>(a, n),
                          aie::shuffle_up<Native>(a, n)));
    }
    EXPECT_TRUE(bits_eq(aie::reverse<Scalar>(a), aie::reverse<Native>(a)));
    for (unsigned stride : {1u, 2u, N / 2, N - 1, N + 1}) {
      EXPECT_TRUE(bits_eq(aie::butterfly<Scalar>(a, stride),
                          aie::butterfly<Native>(a, stride)));
    }

    // Arbitrary gather with hostile indices: negative and far out of range
    // (both reduce modulo N).
    aie::vector<std::int32_t, N> idx;
    for (unsigned i = 0; i < N; ++i) {
      const std::int32_t raw = static_cast<std::int32_t>(rng());
      idx.set(i, raw % 5 == 0 ? -static_cast<std::int32_t>(i + 1)
                              : raw % (3 * static_cast<std::int32_t>(N) + 7));
    }
    EXPECT_TRUE(
        bits_eq(aie::permute<Scalar>(a, idx), aie::permute<Native>(a, idx)));

    const auto zip_s = aie::interleave_zip<Scalar>(a, b);
    const auto zip_n = aie::interleave_zip<Native>(a, b);
    EXPECT_TRUE(bits_eq(zip_s.first, zip_n.first));
    EXPECT_TRUE(bits_eq(zip_s.second, zip_n.second));
    const auto unzip_s = aie::interleave_unzip<Scalar>(a, b);
    const auto unzip_n = aie::interleave_unzip<Native>(a, b);
    EXPECT_TRUE(bits_eq(unzip_s.first, unzip_n.first));
    EXPECT_TRUE(bits_eq(unzip_s.second, unzip_n.second));
    EXPECT_TRUE(
        bits_eq(aie::filter_even<Scalar>(a), aie::filter_even<Native>(a)));
    EXPECT_TRUE(
        bits_eq(aie::filter_odd<Scalar>(a), aie::filter_odd<Native>(a)));
  }
}

TEST(SimdBackend, ElementwiseEquivalenceAllTypes) {
  check_elementwise<std::int8_t, 8>(11);
  check_elementwise<std::int8_t, 16>(12);
  check_elementwise<std::int8_t, 32>(13);
  check_elementwise<std::int16_t, 8>(21);
  check_elementwise<std::int16_t, 16>(22);
  check_elementwise<std::int16_t, 32>(23);
  check_elementwise<std::int32_t, 8>(31);
  check_elementwise<std::int32_t, 16>(32);
  check_elementwise<std::int32_t, 32>(33);
  check_elementwise<float, 8>(41);
  check_elementwise<float, 16>(42);
  check_elementwise<float, 32>(43);
}

// ---------------------------------------------------------------------------
// reductions (sequential order must match exactly, floats included)
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_reductions(unsigned seed) {
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng, /*full_range=*/false);
    const T add_s = aie::reduce_add<Scalar>(a);
    const T add_n = aie::reduce_add<Native>(a);
    EXPECT_EQ(0, std::memcmp(&add_s, &add_n, sizeof(T)));
    EXPECT_EQ(aie::reduce_min<Scalar>(a), aie::reduce_min<Native>(a));
    EXPECT_EQ(aie::reduce_max<Scalar>(a), aie::reduce_max<Native>(a));
  }
}

TEST(SimdBackend, ReductionEquivalence) {
  check_reductions<std::int16_t, 16>(51);
  check_reductions<std::int32_t, 8>(52);
  check_reductions<float, 8>(53);
  check_reductions<float, 32>(54);
}

// ---------------------------------------------------------------------------
// MAC family: widening accumulation, scalar broadcasts, float accumulators
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_mul_mac(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng, /*full_range=*/false);
    const auto b = random_vector<T, N>(rng, /*full_range=*/false);
    const auto c = random_vector<T, N>(rng, /*full_range=*/false);

    const auto acc_s = aie::mul<Scalar>(a, b);
    const auto acc_n = aie::mul<Native>(a, b);
    EXPECT_TRUE(bits_eq(acc_s, acc_n));
    EXPECT_TRUE(bits_eq(aie::mac<Scalar>(acc_s, b, c),
                        aie::mac<Native>(acc_n, b, c)));
    EXPECT_TRUE(bits_eq(aie::msc<Scalar>(acc_s, b, c),
                        aie::msc<Native>(acc_n, b, c)));

    const T s = random_lane<T>(rng, false);
    EXPECT_TRUE(bits_eq(aie::mul<Scalar>(a, s), aie::mul<Native>(a, s)));
    EXPECT_TRUE(
        bits_eq(aie::mac<Scalar>(acc_s, a, s), aie::mac<Native>(acc_n, a, s)));
  }
}

TEST(SimdBackend, MulMacEquivalence) {
  check_mul_mac<std::int8_t, 16>(61);
  check_mul_mac<std::int16_t, 8>(62);
  check_mul_mac<std::int16_t, 16>(63);
  check_mul_mac<std::int32_t, 8>(64);
  check_mul_mac<float, 8>(65);
  check_mul_mac<float, 16>(66);
}

// The narrow-product fast path: int16 extremes whose products overflow
// int16 (and whose running sum overflows int32) must still accumulate
// exactly in the wide lanes on both backends.
TEST(SimdBackend, MacSignedOverflowWideAccumulation) {
  constexpr unsigned N = 16;
  aie::vector<std::int16_t, N> lo, hi;
  for (unsigned i = 0; i < N; ++i) {
    lo.set(i, std::numeric_limits<std::int16_t>::min());  // -32768
    hi.set(i, i % 2 ? std::numeric_limits<std::int16_t>::max()
                    : std::numeric_limits<std::int16_t>::min());
  }
  auto acc_s = aie::mul<Scalar>(lo, hi);
  auto acc_n = aie::mul<Native>(lo, hi);
  EXPECT_TRUE(bits_eq(acc_s, acc_n));
  // (-32768)^2 accumulated 8 times exceeds int32 range: the packed 32-bit
  // product shortcut must widen *before* the accumulation.
  for (unsigned k = 0; k < 8; ++k) {
    acc_s = aie::mac<Scalar>(acc_s, lo, hi);
    acc_n = aie::mac<Native>(acc_n, lo, hi);
    EXPECT_TRUE(bits_eq(acc_s, acc_n));
  }
  EXPECT_EQ(acc_s.get(0),
            std::int64_t{9} * 32768 * 32768);  // 9 exact products summed
}

// ---------------------------------------------------------------------------
// srs / ups: saturation boundaries and round-half-up edges
// ---------------------------------------------------------------------------

template <class T>
void check_srs_boundaries() {
  SCOPED_TRACE(typeid(T).name());
  constexpr unsigned N = 8;
  const std::int64_t kMin = std::numeric_limits<T>::min();
  const std::int64_t kMax = std::numeric_limits<T>::max();
  const std::array<std::int64_t, N> lanes = {
      std::int64_t{1} << 47,     // saturates high through any small shift
      -(std::int64_t{1} << 47),  // saturates low
      kMax,                      // representable boundary
      kMin,
      2 * kMax + 1,  // (v+1)>>1 == kMax+1: saturates after rounding
      -1,            // round-half-up: (-1+1)>>1 == 0
      1,             // (1+1)>>1 == 1
      3,             // shift 2: (3+2)>>2 == 1
  };
  aie::acc48<N> acc;
  for (unsigned i = 0; i < N; ++i) acc.set(i, lanes[i]);

  for (int shift : {0, 1, 2, 14, 40}) {
    const auto s = aie::srs<T, Scalar>(acc, shift);
    const auto n = aie::srs<T, Native>(acc, shift);
    EXPECT_TRUE(bits_eq(s, n)) << "shift=" << shift;
    // Cross-check against the canonical scalar semantics.
    for (unsigned i = 0; i < N; ++i) {
      const auto want = aie::simd::detail::saturate_i64<T>(
          aie::simd::detail::shift_round(acc.get(i), shift));
      EXPECT_EQ(want, s.get(i)) << "shift=" << shift << " lane=" << i;
    }
  }

  // Negative shift is a plain left shift (no rounding, then saturate).
  aie::acc48<N> small;
  for (unsigned i = 0; i < N; ++i) small.set(i, static_cast<int>(i) - 4);
  const auto ls = aie::srs<T, Scalar>(small, -2);
  const auto ln = aie::srs<T, Native>(small, -2);
  EXPECT_TRUE(bits_eq(ls, ln));
  EXPECT_EQ(ls.get(0), static_cast<T>(-16));

  // Explicit saturation values survive the clamp on both backends.
  const auto sat0 = aie::srs<T, Scalar>(acc, 0);
  EXPECT_EQ(sat0.get(0), std::numeric_limits<T>::max());
  EXPECT_EQ(sat0.get(1), std::numeric_limits<T>::min());
}

TEST(SimdBackend, SrsSaturationBoundaries) {
  check_srs_boundaries<std::int8_t>();
  check_srs_boundaries<std::int16_t>();
  check_srs_boundaries<std::int32_t>();
}

TEST(SimdBackend, UpsAndFloatAccumMoves) {
  std::mt19937 rng(71);
  constexpr unsigned N = 16;
  const auto v16 = random_vector<std::int16_t, N>(rng);
  for (int shift : {0, 1, 14}) {
    EXPECT_TRUE(bits_eq(aie::ups<aie::acc48_tag, Scalar>(v16, shift),
                        aie::ups<aie::acc48_tag, Native>(v16, shift)));
  }
  const auto vf = random_vector<float, 8>(rng);
  EXPECT_TRUE(bits_eq(aie::to_accum<Scalar>(vf), aie::to_accum<Native>(vf)));
  const auto af = aie::to_accum<Scalar>(vf);
  EXPECT_TRUE(bits_eq(aie::to_vector<Scalar>(af), aie::to_vector<Native>(af)));
  EXPECT_TRUE(bits_eq(aie::srs<float, Scalar>(af, 0),
                      aie::srs<float, Native>(af, 0)));
}

// ---------------------------------------------------------------------------
// sliding multiplies: fast contiguous path vs generic wrap path
// ---------------------------------------------------------------------------

/// Reference semantics straight from the sliding_mul_ops doc comment.
template <unsigned Lanes, unsigned Points, int CoeffStep, int DataStepX,
          int DataStepY, class C, unsigned NC, class D, unsigned ND>
aie::acc48<Lanes> sliding_ref(const aie::vector<C, NC>& coeff, unsigned cstart,
                              const aie::vector<D, ND>& data, unsigned dstart) {
  aie::acc48<Lanes> acc;
  for (unsigned lane = 0; lane < Lanes; ++lane) {
    std::int64_t sum = 0;
    for (unsigned p = 0; p < Points; ++p) {
      const auto ci = static_cast<unsigned>(static_cast<int>(cstart) +
                                            static_cast<int>(p) * CoeffStep) %
                      NC;
      const auto di = static_cast<unsigned>(static_cast<int>(dstart) +
                                            static_cast<int>(lane) * DataStepY +
                                            static_cast<int>(p) * DataStepX) %
                      ND;
      sum += static_cast<std::int64_t>(coeff.get(ci)) *
             static_cast<std::int64_t>(data.get(di));
    }
    acc.set(lane, sum);
  }
  return acc;
}

TEST(SimdBackend, SlidingMulFastAndGenericPaths) {
  std::mt19937 rng(81);
  const auto coeff = random_vector<std::int16_t, 8>(rng);
  const auto data = random_vector<std::int16_t, 16>(rng);
  // dstart 0/1: contiguous fast path; dstart 12: lane+point indices wrap
  // past ND=16, forcing the generic modulo path.
  for (unsigned dstart : {0u, 1u, 12u}) {
    const auto want =
        sliding_ref<8, 8, 1, 1, 1>(coeff, 0u, data, dstart);
    const auto got_s =
        aie::sliding_mul_ops<8, 8, 1, 1, 1, Scalar>::mul(coeff, 0u, data,
                                                         dstart);
    const auto got_n =
        aie::sliding_mul_ops<8, 8, 1, 1, 1, Native>::mul(coeff, 0u, data,
                                                         dstart);
    EXPECT_TRUE(bits_eq(want, got_s)) << "dstart=" << dstart;
    EXPECT_TRUE(bits_eq(got_s, got_n)) << "dstart=" << dstart;
  }
  // Strided coefficient / data steps fall back to the generic path too.
  const auto want2 = sliding_ref<4, 4, 2, 2, 1>(coeff, 1u, data, 2u);
  const auto got2_s =
      aie::sliding_mul_ops<4, 4, 2, 2, 1, Scalar>::mul(coeff, 1u, data, 2u);
  const auto got2_n =
      aie::sliding_mul_ops<4, 4, 2, 2, 1, Native>::mul(coeff, 1u, data, 2u);
  EXPECT_TRUE(bits_eq(want2, got2_s));
  EXPECT_TRUE(bits_eq(got2_s, got2_n));

  // mac continues an existing accumulator identically on both paths.
  const auto acc0 = aie::sliding_mul_ops<8, 8, 1, 1, 1, Scalar>::mul(
      coeff, 0u, data, 0u);
  EXPECT_TRUE(bits_eq(
      aie::sliding_mul_ops<8, 8, 1, 1, 1, Scalar>::mac(acc0, coeff, 2u, data,
                                                       1u),
      aie::sliding_mul_ops<8, 8, 1, 1, 1, Native>::mac(acc0, coeff, 2u, data,
                                                       1u)));
}

// Coefficients wider than int16 must bypass the packed-32-bit broadcast-MAC
// shortcut (the runtime magnitude check) and still match the reference.
TEST(SimdBackend, SlidingMulWideCoefficients) {
  std::mt19937 rng(82);
  aie::vector<std::int32_t, 8> coeff;
  for (unsigned i = 0; i < 8; ++i) {
    coeff.set(i, (i % 2 ? 1 : -1) * (100000 + static_cast<int>(i)));
  }
  const auto data = random_vector<std::int16_t, 16>(rng);
  const auto want = sliding_ref<8, 4, 1, 1, 1>(coeff, 0u, data, 0u);
  const auto got_s =
      aie::sliding_mul_ops<8, 4, 1, 1, 1, Scalar>::mul(coeff, 0u, data, 0u);
  const auto got_n =
      aie::sliding_mul_ops<8, 4, 1, 1, 1, Native>::mul(coeff, 0u, data, 0u);
  EXPECT_TRUE(bits_eq(want, got_s));
  EXPECT_TRUE(bits_eq(got_s, got_n));
}

TEST(SimdBackend, SlidingMulSymEquivalence) {
  std::mt19937 rng(83);
  const auto coeff = random_vector<std::int16_t, 8>(rng);
  const auto data = random_vector<std::int16_t, 16>(rng);
  for (unsigned dstart : {0u, 1u, 12u}) {  // 12: generic wrap path
    aie::acc48<8> want;
    for (unsigned lane = 0; lane < 8; ++lane) {
      std::int64_t sum = 0;
      for (unsigned p = 0; p < 4; ++p) {
        const std::int64_t c = coeff.get(p % 8);
        const std::int64_t d1 = data.get((dstart + lane + p) % 16);
        const std::int64_t d2 = data.get((dstart + lane + 7 - p) % 16);
        sum += c * (d1 + d2);
      }
      want.set(lane, sum);
    }
    const auto got_s =
        aie::sliding_mul_sym_ops<8, 8, Scalar>::mul(coeff, 0u, data, dstart);
    const auto got_n =
        aie::sliding_mul_sym_ops<8, 8, Native>::mul(coeff, 0u, data, dstart);
    EXPECT_TRUE(bits_eq(want, got_s)) << "dstart=" << dstart;
    EXPECT_TRUE(bits_eq(got_s, got_n)) << "dstart=" << dstart;
  }
}

// ---------------------------------------------------------------------------
// register-resident sliding multiply (sliding_mac): Points 1..16
// ---------------------------------------------------------------------------

/// Coefficient regimes of the native sliding_mac: small taps sum in int32
/// lanes, int16-range taps widen each product, wider taps run full width.
enum class CoeffRegime { small, int16_full, int16_min, wide };

template <class C, unsigned NC>
aie::vector<C, NC> regime_coeffs(std::mt19937& rng, CoeffRegime r) {
  aie::vector<C, NC> c;
  for (unsigned i = 0; i < NC; ++i) {
    const auto raw = static_cast<std::int64_t>(rng() % 65536) - 32768;
    switch (r) {
      case CoeffRegime::small: c.set(i, static_cast<C>(raw % 2048)); break;
      case CoeffRegime::int16_full: c.set(i, static_cast<C>(raw)); break;
      case CoeffRegime::int16_min: c.set(i, static_cast<C>(-32768)); break;
      case CoeffRegime::wide:
        c.set(i, static_cast<C>((i % 2 ? 1 : -1) * (70000 + raw)));
        break;
    }
  }
  return c;
}

/// Reference, scalar and native sliding_mul_ops<8, Points> must agree at
/// every dstart: the low ones stay in bounds (the register path), the
/// high ones wrap past ND (the generic fallback).
template <unsigned Points, int CoeffStep, int DataStepX, class C>
void check_sliding_points(const aie::vector<C, 16>& coeff,
                          const aie::vector<std::int16_t, 32>& data,
                          unsigned cstart) {
  using Ops = aie::sliding_mul_ops<8, Points, CoeffStep, DataStepX, 1, Scalar>;
  using OpsN = aie::sliding_mul_ops<8, Points, CoeffStep, DataStepX, 1, Native>;
  for (unsigned dstart = 0; dstart < 32; ++dstart) {
    const auto want = sliding_ref<8, Points, CoeffStep, DataStepX, 1>(
        coeff, cstart, data, dstart);
    const auto got_s = Ops::mul(coeff, cstart, data, dstart);
    const auto got_n = OpsN::mul(coeff, cstart, data, dstart);
    ASSERT_TRUE(bits_eq(want, got_s))
        << "Points=" << Points << " dstart=" << dstart;
    ASSERT_TRUE(bits_eq(got_s, got_n))
        << "Points=" << Points << " dstart=" << dstart;
    // mac continues a live accumulator (here: the product itself).
    ASSERT_TRUE(bits_eq(Ops::mac(got_s, coeff, cstart, data, dstart),
                        OpsN::mac(got_s, coeff, cstart, data, dstart)))
        << "Points=" << Points << " dstart=" << dstart;
  }
}

template <class C, unsigned... P>
void check_sliding_all_points(std::mt19937& rng, CoeffRegime regime,
                              const aie::vector<std::int16_t, 32>& data,
                              std::integer_sequence<unsigned, P...>) {
  const auto coeff = regime_coeffs<C, 16>(rng, regime);
  (check_sliding_points<P + 1, 1, 1>(coeff, data, 0u), ...);
  (check_sliding_points<P + 1, 1, 1>(coeff, data, 5u), ...);
}

TEST(SimdBackend, SlidingMacPoints1To16AllRegimes) {
  std::mt19937 rng(84);
  const auto points = std::make_integer_sequence<unsigned, 16>{};
  for (unsigned round = 0; round < 4; ++round) {
    const auto data = random_vector<std::int16_t, 32>(rng);
    check_sliding_all_points<std::int16_t>(rng, CoeffRegime::small, data,
                                           points);
    check_sliding_all_points<std::int16_t>(rng, CoeffRegime::int16_full, data,
                                           points);
    check_sliding_all_points<std::int32_t>(rng, CoeffRegime::wide, data,
                                           points);
  }
}

// All lanes -32768 times a -32768 coefficient: each product is 2^30 and two
// of them already overflow int32, so every Points >= 2 must leave the
// 32-bit sum form; the int64 accumulator holds Points * 2^30 exactly.
TEST(SimdBackend, SlidingMacInt16ExtremesOverflowInt32) {
  std::mt19937 rng(85);
  aie::vector<std::int16_t, 32> data;
  for (unsigned i = 0; i < 32; ++i) data.set(i, -32768);
  check_sliding_all_points<std::int16_t>(
      rng, CoeffRegime::int16_min, data,
      std::make_integer_sequence<unsigned, 16>{});
  const auto coeff = regime_coeffs<std::int16_t, 16>(rng, CoeffRegime::int16_min);
  const auto acc = aie::sliding_mul_ops<8, 8, 1, 1, 1, Native>::mul(
      coeff, 0u, data, 0u);
  for (unsigned l = 0; l < 8; ++l) {
    EXPECT_EQ(acc.get(l), std::int64_t{8} << 30);
  }
  // Mixed signs at the extremes: +32767 * -32768 next to -32768 * -32768.
  for (unsigned i = 0; i < 32; ++i) {
    data.set(i, static_cast<std::int16_t>(i % 2 ? 32767 : -32768));
  }
  check_sliding_all_points<std::int16_t>(
      rng, CoeffRegime::int16_min, data,
      std::make_integer_sequence<unsigned, 16>{});
}

// Strided coefficients and data take the register path too (DataStepY 1).
TEST(SimdBackend, SlidingMacStridedSteps) {
  std::mt19937 rng(86);
  for (unsigned round = 0; round < 4; ++round) {
    const auto data = random_vector<std::int16_t, 32>(rng);
    const auto coeff = regime_coeffs<std::int16_t, 16>(
        rng, round % 2 ? CoeffRegime::small : CoeffRegime::int16_full);
    check_sliding_points<4, 2, 2>(coeff, data, 1u);
    check_sliding_points<6, -1, 2>(coeff, data, 15u);
    check_sliding_points<5, 3, -1>(coeff, data, 2u);
    check_sliding_points<16, 1, 1>(coeff, data, 3u);
  }
}

// Float taps accumulate in tap order on both backends (no reassociation).
TEST(SimdBackend, SlidingMacFloatTapOrder) {
  std::mt19937 rng(87);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto coeff = random_vector<float, 16>(rng, false);
    const auto data = random_vector<float, 32>(rng, false);
    for (unsigned dstart : {0u, 3u, 17u, 30u}) {
      EXPECT_TRUE(bits_eq(
          (aie::sliding_mul_ops<8, 13, 1, 1, 1, Scalar>::mul(coeff, 2u, data,
                                                             dstart)),
          (aie::sliding_mul_ops<8, 13, 1, 1, 1, Native>::mul(coeff, 2u, data,
                                                             dstart))))
          << "dstart=" << dstart;
      EXPECT_TRUE(bits_eq(
          (aie::sliding_mul_ops<16, 3, 1, 2, 1, Scalar>::mul(coeff, 0u, data,
                                                             dstart)),
          (aie::sliding_mul_ops<16, 3, 1, 2, 1, Native>::mul(coeff, 0u, data,
                                                             dstart))))
          << "dstart=" << dstart;
    }
  }
}

// ---------------------------------------------------------------------------
// masks: lane-bit representation and select across lane counts
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_mask_select(std::mt19937& rng) {
  SCOPED_TRACE(::testing::Message() << typeid(T).name() << " x " << N);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng, false);
    const auto b = random_vector<T, N>(rng, false);
    aie::mask<N> m;
    std::array<bool, N> bits{};
    for (unsigned i = 0; i < N; ++i) {
      bits[i] = (rng() & 1u) != 0;
      m.set(i, bits[i]);
    }
    unsigned want_count = 0;
    for (unsigned i = 0; i < N; ++i) {
      ASSERT_EQ(m.get(i), bits[i]) << "lane " << i;
      want_count += bits[i] ? 1u : 0u;
    }
    EXPECT_EQ(m.count(), want_count);
    // Lane i is bit i % 64 of word i / 64; bits past N stay clear.
    for (unsigned w = 0; w < m.words().size(); ++w) {
      for (unsigned bit = 0; bit < 64; ++bit) {
        const unsigned lane = 64 * w + bit;
        const bool set = ((m.words()[w] >> bit) & 1u) != 0;
        ASSERT_EQ(set, lane < N && bits[lane]) << "word " << w << " bit " << bit;
      }
    }
    const auto sel_s = aie::select<Scalar>(a, b, m);
    const auto sel_n = aie::select<Native>(a, b, m);
    for (unsigned i = 0; i < N; ++i) {
      ASSERT_EQ(sel_s.get(i), bits[i] ? a.get(i) : b.get(i)) << "lane " << i;
    }
    EXPECT_TRUE(bits_eq(sel_s, sel_n));
    // Compares write the same lane bits on both backends.
    const auto lt_s = aie::lt<Scalar>(a, b);
    EXPECT_EQ(lt_s, aie::lt<Native>(a, b));
    EXPECT_EQ(aie::ge<Scalar>(a, b), aie::ge<Native>(a, b));
    for (unsigned i = 0; i < N; ++i) {
      ASSERT_EQ(lt_s.get(i), a.get(i) < b.get(i)) << "lane " << i;
    }
    // All-set and all-clear masks pick one whole operand.
    aie::mask<N> all;
    for (unsigned i = 0; i < N; ++i) all.set(i, true);
    EXPECT_TRUE(bits_eq(aie::select<Native>(a, b, all), a));
    EXPECT_TRUE(bits_eq(aie::select<Native>(a, b, aie::mask<N>{}), b));
  }
}

TEST(SimdBackend, MaskSelectAcrossLaneCounts) {
  std::mt19937 rng(88);
  check_mask_select<std::int8_t, 4>(rng);
  check_mask_select<std::int8_t, 16>(rng);
  check_mask_select<std::int8_t, 64>(rng);
  check_mask_select<std::int8_t, 128>(rng);
  check_mask_select<std::int16_t, 8>(rng);
  check_mask_select<std::int16_t, 32>(rng);
  check_mask_select<std::int16_t, 64>(rng);
  check_mask_select<std::int32_t, 4>(rng);
  check_mask_select<std::int32_t, 16>(rng);
  check_mask_select<std::int32_t, 64>(rng);
  check_mask_select<float, 8>(rng);
  check_mask_select<float, 16>(rng);
  check_mask_select<float, 32>(rng);
  check_mask_select<std::int64_t, 8>(rng);
}

TEST(SimdBackend, MaskFromBitsIsConstexpr) {
  constexpr auto m = aie::mask<16>::from_uint64(0xFFFF0000A5A5ull);
  static_assert(m.get(0) && !m.get(1) && m.get(2) && m.get(15));
  static_assert(m.count() == 8);  // bits past lane 15 are dropped
  static_assert(m.words()[0] == 0xA5A5u);
  constexpr auto full = aie::mask<64>::from_uint64(~0ull);
  static_assert(full.count() == 64);
  EXPECT_EQ(m, aie::mask<16>::from_uint64(0xA5A5u));
}

// ---------------------------------------------------------------------------
// intrinsic spellings ride on the same backends
// ---------------------------------------------------------------------------

TEST(SimdBackend, IntrinsicsEquivalence) {
  std::mt19937 rng(91);
  const auto a = random_vector<float, 8>(rng);
  const auto b = random_vector<float, 8>(rng);
  const auto acc_s = aie::intrinsics::fpmul<Scalar>(a, b);
  const auto acc_n = aie::intrinsics::fpmul<Native>(a, b);
  EXPECT_TRUE(bits_eq(acc_s, acc_n));
  EXPECT_TRUE(bits_eq(aie::intrinsics::fpmac<Scalar>(acc_s, a, b),
                      aie::intrinsics::fpmac<Native>(acc_n, a, b)));
  EXPECT_TRUE(bits_eq(aie::intrinsics::fpmsc<Scalar>(acc_s, a, b),
                      aie::intrinsics::fpmsc<Native>(acc_n, a, b)));

  const auto i16a = random_vector<std::int16_t, 16>(rng);
  const auto i16b = random_vector<std::int16_t, 16>(rng);
  const auto m_s = aie::intrinsics::mul16<Scalar>(i16a, i16b);
  const auto m_n = aie::intrinsics::mul16<Native>(i16a, i16b);
  EXPECT_TRUE(bits_eq(m_s, m_n));
  EXPECT_TRUE(bits_eq(aie::intrinsics::mac16<Scalar>(m_s, i16a, i16b),
                      aie::intrinsics::mac16<Native>(m_n, i16a, i16b)));
}

// ---------------------------------------------------------------------------
// non-full register manipulation (block copies, backend-independent)
// ---------------------------------------------------------------------------

TEST(SimdBackend, ExtractInsertGrowRoundtrip) {
  std::mt19937 rng(101);
  const auto v = random_vector<std::int16_t, 16>(rng);
  const auto lo = v.extract<2>(0);
  const auto hi = v.extract<2>(1);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(lo.get(i), v.get(i));
    EXPECT_EQ(hi.get(i), v.get(8 + i));
  }
  aie::vector<std::int16_t, 16> back;
  back.insert(0, lo);
  back.insert(1, hi);
  EXPECT_EQ(back, v);

  const auto g = lo.grow();
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(g.get(i), lo.get(i));
  for (unsigned i = 8; i < 16; ++i) EXPECT_EQ(g.get(i), 0);  // zero upper half

  // Quarter extract (non-half split) keeps lane order.
  const auto q = v.extract<4>(2);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(q.get(i), v.get(8 + i));
}

// ---------------------------------------------------------------------------
// value initialization (satellite: lanes_ must never be stack garbage)
// ---------------------------------------------------------------------------

TEST(SimdBackend, VectorsValueInitialize) {
  const aie::vector<float, 16> dflt;
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(dflt.get(i), 0.0f);

  const aie::vector<std::int16_t, 8> partial{1, 2, 3};
  EXPECT_EQ(partial.get(0), 1);
  EXPECT_EQ(partial.get(1), 2);
  EXPECT_EQ(partial.get(2), 3);
  for (unsigned i = 3; i < 8; ++i) EXPECT_EQ(partial.get(i), 0);

  const aie::acc48<8> acc;
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(acc.get(i), 0);

  const aie::mask<8> m;
  for (unsigned i = 0; i < 8; ++i) EXPECT_FALSE(m.get(i));
}

// ---------------------------------------------------------------------------
// instrumentation invariants
// ---------------------------------------------------------------------------

/// A mixed op sequence touching every record() call shape.
template <class B>
void run_instrumented_sequence() {
  std::mt19937 rng(111);
  const auto a = random_vector<std::int16_t, 16>(rng, false);
  const auto b = random_vector<std::int16_t, 16>(rng, false);
  auto acc = aie::mul<B>(a, b);
  acc = aie::mac<B>(acc, a, b);
  const auto v = aie::srs<std::int16_t, B>(acc, 14);
  const auto m = aie::lt<B>(v, b);
  const auto sel = aie::select<B>(v, b, m);
  (void)aie::reduce_add<B>(sel);
  (void)aie::shuffle_down<B>(sel, 3);
  (void)aie::sliding_mul_ops<8, 8, 1, 1, 1, B>::mul(
      aie::vector<std::int16_t, 8>{1, 2, 3, 4}, 0u, a, 0u);
  aie::record(aie::OpClass::scalar, 5);
}

TEST(SimdBackend, OpCountsIdenticalAcrossBackends) {
  aie::OpCounter cs, cn;
  {
    aie::ScopedCounter scoped{&cs};
    run_instrumented_sequence<Scalar>();
  }
  {
    aie::ScopedCounter scoped{&cn};
    run_instrumented_sequence<Native>();
  }
  EXPECT_EQ(cs.counts, cn.counts);
  EXPECT_GT(cs.counts.total(), 0u);
}

/// Per-class counts of one call, indexed by OpClass.
using ClassCounts = std::array<std::uint64_t, aie::kNumOpClasses>;

template <class F>
ClassCounts counts_of(F&& f) {
  aie::OpCounter counter;
  {
    aie::ScopedCounter scoped{&counter};
    f();
  }
  return counter.counts.ops;
}

// The per-call OpCounts of the paper kernels are what the cycle model and
// the benchmark's exact op total read; they must not move when the
// emulation gets faster. Order: vector_mac, vector_alu, vector_shift,
// shuffle, load, store, scalar.
template <class B>
void check_paper_kernel_counts() {
  SCOPED_TRACE(B::name);
  apps::bitonic::Block v;
  for (unsigned l = 0; l < 16; ++l) v.set(l, static_cast<float>(l * 7 % 16));
  EXPECT_EQ(counts_of([&] { (void)apps::bitonic::sort16<B>(v); }),
            (ClassCounts{0, 30, 0, 10, 0, 0, 0}));

  apps::farrow::SampleBlock in;
  apps::farrow::MuBlock mu;
  for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
    in.s[i] = static_cast<std::int16_t>(i * 37);
    mu.mu[i] = static_cast<std::int16_t>(i % 16384);
  }
  apps::farrow::BranchState st{};
  apps::farrow::BranchBlock br;
  EXPECT_EQ(counts_of([&] { br = apps::farrow::branch_filters<B>(in, st); }),
            (ClassCounts{8192, 0, 1024, 0, 256, 1024, 0}));
  EXPECT_EQ(counts_of([&] { (void)apps::farrow::combine<B>(br, mu); }),
            (ClassCounts{768, 0, 1536, 0, 1280, 256, 0}));
}

TEST(SimdBackend, PaperKernelOpCountsPinned) {
  check_paper_kernel_counts<Scalar>();
  check_paper_kernel_counts<Native>();
}

TEST(SimdBackend, ScopedCounterBatchMatchesDirectCounter) {
  aie::OpCounter direct, batched;
  {
    aie::ScopedCounter scoped{&direct};
    run_instrumented_sequence<Native>();
  }
  {
    aie::ScopedCounterBatch scoped{&batched};
    run_instrumented_sequence<Native>();
  }
  EXPECT_EQ(direct.counts, batched.counts);

  // Null destination must not activate counting (functional mode): any
  // records inside the scope land nowhere, and the previously active
  // counter is restored afterwards.
  aie::OpCounter outer;
  {
    aie::ScopedCounter outer_scope{&outer};
    {
      aie::ScopedCounterBatch none{nullptr};
      aie::record(aie::OpClass::scalar, 100);
    }
    aie::record(aie::OpClass::scalar, 1);
  }
  EXPECT_EQ(outer.counts[aie::OpClass::scalar], 1u);
}

// The IIR feedback loop batches its per-sample scalar accounting into one
// record() per window; the batched total must equal the per-sample form it
// replaced (2 scalar MACs per sample).
TEST(SimdBackend, IirBatchedScalarRecordMatchesPerSample) {
  apps::iir::Block in{};
  for (unsigned i = 0; i < apps::iir::kBlockSamples; ++i) {
    in.samples[i] = static_cast<float>(i % 17) - 8.0f;
  }
  apps::iir::State st{};
  aie::OpCounter c;
  {
    aie::ScopedCounterBatch scoped{&c};
    (void)apps::iir::process_block(in, st, apps::iir::kDefaultCoeffs, 1.0f);
  }
  aie::OpCounts per_sample;
  for (unsigned i = 0; i < apps::iir::kBlockSamples; ++i) {
    per_sample.add(aie::OpClass::scalar, 2);
  }
  EXPECT_EQ(c.counts[aie::OpClass::scalar],
            per_sample[aie::OpClass::scalar]);
}

// ---------------------------------------------------------------------------
// whole-kernel equivalence: the four app inner loops, both backends
// ---------------------------------------------------------------------------

TEST(SimdBackend, AppKernelsBitExactAcrossBackends) {
  std::mt19937 rng(121);

  {  // bilinear
    apps::bilinear::Packet q;
    for (unsigned l = 0; l < apps::bilinear::kLanes; ++l) {
      std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
      std::uniform_real_distribution<float> frac(0.0f, 1.0f);
      q.p00.set(l, dist(rng));
      q.p01.set(l, dist(rng));
      q.p10.set(l, dist(rng));
      q.p11.set(l, dist(rng));
      q.fx.set(l, frac(rng));
      q.fy.set(l, frac(rng));
    }
    EXPECT_TRUE(bits_eq(apps::bilinear::interpolate<Scalar>(q),
                        apps::bilinear::interpolate<Native>(q)));
  }

  {  // bitonic: both backends, and actually sorted
    apps::bitonic::Block v;
    for (unsigned l = 0; l < 16; ++l) {
      v.set(l, static_cast<float>(static_cast<int>(rng() % 2000) - 1000));
    }
    const auto s = apps::bitonic::sort16<Scalar>(v);
    const auto n = apps::bitonic::sort16<Native>(v);
    EXPECT_TRUE(bits_eq(s, n));
    std::array<float, 16> ref{};
    for (unsigned l = 0; l < 16; ++l) ref[l] = v.get(l);
    std::sort(ref.begin(), ref.end());
    for (unsigned l = 0; l < 16; ++l) EXPECT_EQ(s.get(l), ref[l]);
  }

  {  // farrow: two chained windows so the carried state is exercised
    apps::farrow::SampleBlock in;
    apps::farrow::MuBlock mu;
    apps::farrow::BranchState st_s{}, st_n{};
    for (unsigned w = 0; w < 2; ++w) {
      for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
        in.s[i] = static_cast<std::int16_t>(rng());
        mu.mu[i] = static_cast<std::int16_t>(rng() % 16384);
      }
      const auto br_s = apps::farrow::branch_filters<Scalar>(in, st_s);
      const auto br_n = apps::farrow::branch_filters<Native>(in, st_n);
      EXPECT_EQ(br_s, br_n);
      const auto out_s = apps::farrow::combine<Scalar>(br_s, mu);
      const auto out_n = apps::farrow::combine<Native>(br_n, mu);
      EXPECT_EQ(out_s, out_n);
    }
  }

  {  // iir feed-forward
    apps::iir::Block in;
    for (unsigned i = 0; i < apps::iir::kBlockSamples; ++i) {
      std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
      in.samples[i] = dist(rng);
    }
    apps::iir::State st_s{}, st_n{};
    const auto fir_s =
        apps::iir::feed_forward<Scalar>(in, st_s, apps::iir::kDefaultCoeffs);
    const auto fir_n =
        apps::iir::feed_forward<Native>(in, st_n, apps::iir::kDefaultCoeffs);
    EXPECT_EQ(0, std::memcmp(fir_s.data(), fir_n.data(),
                             sizeof(float) * fir_s.size()));
    EXPECT_EQ(st_s.x1, st_n.x1);
    EXPECT_EQ(st_s.x2, st_n.x2);
  }
}

}  // namespace
