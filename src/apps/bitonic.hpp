// apps -- port of AMD's Vitis-Tutorials "bitonic-sorting" example
// (paper Section 5): a single-kernel graph implementing a 16-wide bitonic
// sort on 32-bit floats using the AIE vector API.
//
// The sorting network is expressed exactly the way the hand-optimized AIE
// version is: butterfly lane exchanges, vector min/max, and per-stage
// constant select masks (computed at compile time). One stream element is
// one 16-float block (64 bytes -- the Table 1 block size).
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "aie/aie.hpp"
#include "core/cgsim.hpp"

namespace apps::bitonic {

using Block = aie::vector<float, 16>;

namespace detail {

/// Select mask for stage (k, j) of an N-lane bitonic network: lane i takes
/// the min of (i, i^j) when the lane sorts ascending within its k-block and
/// is the lower partner -- or both conditions are inverted. Bit i is lane i.
template <unsigned N>
constexpr std::uint64_t stage_take_min(unsigned k, unsigned j) {
  std::uint64_t take = 0;
  for (unsigned i = 0; i < N; ++i) {
    const bool ascending = (i & k) == 0;
    const bool lower = (i & j) == 0;
    if (ascending == lower) take |= std::uint64_t{1} << i;
  }
  return take;
}

/// One compare-exchange stage: butterfly stride plus its select mask.
struct Stage {
  unsigned j;
  std::uint64_t take;
};

/// The 16-lane network's ten stages. The strides and masks depend only on
/// (k, j) -- compile-time constants in the hand-optimized kernel, and here
/// too: sort16 unrolls over this table, so every butterfly permute and
/// select blend is fixed at compile time.
inline constexpr std::array<Stage, 10> kStages16 = [] {
  std::array<Stage, 10> s{};
  unsigned n = 0;
  for (unsigned k = 2; k <= 16; k <<= 1)
    for (unsigned j = k >> 1; j >= 1; j >>= 1)
      s[n++] = Stage{j, stage_take_min<16>(k, j)};
  return s;
}();

template <class B, Stage S>
inline Block compare_exchange(const Block& v) {
  constexpr auto take = aie::mask<16>::from_uint64(S.take);
  const Block partner = aie::butterfly<B>(v, S.j);
  const Block lo = aie::min<B>(v, partner);
  const Block hi = aie::max<B>(v, partner);
  return aie::select<B>(lo, hi, take);
}

template <class B, std::size_t... I>
inline Block sort16_stages(Block v, std::index_sequence<I...>) {
  ((v = compare_exchange<B, kStages16[I]>(v)), ...);
  return v;
}

}  // namespace detail

/// Sorts the 16 lanes of `v` ascending with a bitonic network
/// (10 compare-exchange stages, each one butterfly + min + max + select).
/// Backend-templated so the SIMD ablation bench can pin the execution
/// backend; results are bit-identical across backends.
template <class B = aie::simd::backend>
inline Block sort16(Block v) {
  return detail::sort16_stages<B>(
      v, std::make_index_sequence<detail::kStages16.size()>{});
}

COMPUTE_KERNEL(aie, bitonic_sort16,
               cgsim::KernelReadPort<Block> in,
               cgsim::KernelWritePort<Block> out) {
  while (true) {
    co_await out.put(apps::bitonic::sort16(co_await in.get()));
  }
}

/// The complete single-kernel graph (stream I/O, as in the AMD original).
inline constexpr auto graph = cgsim::make_compute_graph_v<[](
    cgsim::IoConnector<Block> in) {
  in.attr("plio_name", "DataIn0");
  cgsim::IoConnector<Block> out;
  bitonic_sort16(in, out);
  out.attr("plio_name", "DataOut0");
  return std::make_tuple(out);
}>;

/// Scalar golden reference.
inline std::array<float, 16> reference_sort(std::array<float, 16> a) {
  std::sort(a.begin(), a.end());
  return a;
}

}  // namespace apps::bitonic
