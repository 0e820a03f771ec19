// apps -- port of AMD's Vitis-Tutorials "farrow_filter" example
// (paper Section 5): a fractional-delay Farrow filter [Farrow 1988] built
// from two kernels with ping-pong buffer I/O between them and
// hand-optimized fixed-point SIMD convolution.
//
//   kernel 1 (farrow_branches): four 8-tap FIR branch filters evaluated
//     with sliding vector MACs over int16 samples (Q14 coefficients).
//   kernel 2 (farrow_combine): Horner evaluation of the delay polynomial
//     y = ((b3*mu + b2)*mu + b1)*mu + b0 with a per-sample Q14 fractional
//     delay mu, using vector MAC + shift-round-saturate.
//
// One stream element is one 2048-sample window (4096 bytes -- the Table 1
// block size).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "aie/aie.hpp"
#include "core/cgsim.hpp"

namespace apps::farrow {

constexpr unsigned kBlockSamples = 2048;
constexpr unsigned kLanes = 8;
constexpr unsigned kTaps = 8;
constexpr int kQ = 14;  ///< fixed-point fraction bits

struct SampleBlock {
  std::array<std::int16_t, kBlockSamples> s{};
  bool operator==(const SampleBlock&) const = default;
};

struct MuBlock {
  std::array<std::int16_t, kBlockSamples> mu{};  // Q14 in [0, 1)
  bool operator==(const MuBlock&) const = default;
};

/// Outputs of the four polynomial branch filters for one window.
struct BranchBlock {
  std::array<std::int16_t, kBlockSamples> b0{}, b1{}, b2{}, b3{};
  bool operator==(const BranchBlock&) const = default;
};

/// Q14 branch filter coefficients of a cubic-Lagrange Farrow structure,
/// laid out as in the AMD example (branch-major).
inline constexpr std::array<std::array<std::int16_t, kTaps>, 4> kCoeffs = {{
    {0, 0, 0, 16384, 0, 0, 0, 0},             // b0: passthrough tap
    {135, -910, 3786, -1330, -2230, 780, -250, 19},   // b1
    {-64, 501, -2623, 4055, -2230, 430, -80, 11},     // b2
    {21, -169, 1542, -2767, 1618, -290, 52, -7},      // b3
}};

/// Filter state: the last kTaps-1 input samples of the previous window.
struct BranchState {
  std::array<std::int16_t, kTaps - 1> tail{};
};

/// Kernel-1 math: four 8-tap FIRs with 8-lane sliding MACs (Q14 -> Q14).
/// Backend-templated so the SIMD ablation bench can pin the execution
/// backend; results are bit-identical across backends.
template <class B = aie::simd::backend>
inline BranchBlock branch_filters(const SampleBlock& in, BranchState& st) {
  BranchBlock out;
  // History-extended sample buffer so lane n sees samples [n-7 .. n];
  // one trailing pad element keeps the 16-lane vector loads in bounds.
  std::array<std::int16_t, kBlockSamples + kTaps + kLanes> x;
  for (unsigned i = 0; i < kTaps - 1; ++i) x[i] = st.tail[i];
  std::memcpy(&x[kTaps - 1], in.s.data(), sizeof(in.s));
  for (unsigned i = kBlockSamples + kTaps - 1; i < x.size(); ++i) x[i] = 0;

  std::array<std::array<std::int16_t, kBlockSamples>*, 4> dst{
      &out.b0, &out.b1, &out.b2, &out.b3};
  // Coefficient vectors depend only on kCoeffs: compile-time constants, as
  // in the hand-optimized kernel's coefficient tables.
  static constexpr std::array<aie::vector<std::int16_t, kTaps>, 4> coeff = [] {
    std::array<aie::vector<std::int16_t, kTaps>, 4> c{};
    for (unsigned k = 0; k < 4; ++k)
      for (unsigned j = 0; j < kTaps; ++j) c[k].set(j, kCoeffs[k][j]);
    return c;
  }();

  for (unsigned i = 0; i < kBlockSamples; i += kLanes) {
    // kLanes+kTaps-1 consecutive samples cover all lanes; loaded as 2*kLanes.
    const auto data = aie::load_v<2 * kLanes>(&x[i]);
    for (unsigned k = 0; k < 4; ++k) {
      auto acc = aie::sliding_mul_ops<kLanes, kTaps, 1, 1, 1, B>::mul(
          coeff[k], 0u, data, 0u);
      aie::store_v(&(*dst[k])[i],
                   aie::srs<std::int16_t, B>(acc, kQ));
    }
  }
  for (unsigned i = 0; i < kTaps - 1; ++i) {
    st.tail[i] = in.s[kBlockSamples - (kTaps - 1) + i];
  }
  return out;
}

/// Kernel-2 math: Horner combine with per-sample Q14 fractional delay.
template <class B = aie::simd::backend>
inline SampleBlock combine(const BranchBlock& br, const MuBlock& mu) {
  SampleBlock out;
  for (unsigned i = 0; i < kBlockSamples; i += kLanes) {
    const auto m = aie::load_v<kLanes>(&mu.mu[i]);
    const auto v3 = aie::load_v<kLanes>(&br.b3[i]);
    const auto v2 = aie::load_v<kLanes>(&br.b2[i]);
    const auto v1 = aie::load_v<kLanes>(&br.b1[i]);
    const auto v0 = aie::load_v<kLanes>(&br.b0[i]);
    // h = b3*mu + b2   (Q14*Q14 -> srs -> Q14)
    auto h = aie::srs<std::int16_t, B>(
        aie::mac<B>(aie::ups<aie::acc48_tag, B>(v2, kQ), v3, m), kQ);
    h = aie::srs<std::int16_t, B>(
        aie::mac<B>(aie::ups<aie::acc48_tag, B>(v1, kQ), h, m), kQ);
    h = aie::srs<std::int16_t, B>(
        aie::mac<B>(aie::ups<aie::acc48_tag, B>(v0, kQ), h, m), kQ);
    aie::store_v(&out.s[i], h);
  }
  return out;
}

inline constexpr cgsim::PortSettings kPingPong{
    .beat_bits = 0,
    .rtp = false,
    .buffer = cgsim::BufferMode::pingpong,
    .window_size = static_cast<int>(kBlockSamples)};

COMPUTE_KERNEL(aie, farrow_branches,
               cgsim::KernelReadPort<SampleBlock> in,
               cgsim::KernelWritePort<BranchBlock,
                                      apps::farrow::kPingPong> branches) {
  apps::farrow::BranchState st{};
  // Bulk window pairs: one suspension moves both ping-pong windows. The
  // carried filter state is applied in stream order within the batch.
  constexpr std::size_t kBatch = 2;
  std::array<apps::farrow::SampleBlock, kBatch> blk{};
  std::array<apps::farrow::BranchBlock, kBatch> br{};
  while (true) {
    const std::size_t got = co_await in.get_n(
        std::span<apps::farrow::SampleBlock>{blk.data(), kBatch});
    for (std::size_t i = 0; i < got; ++i) {
      br[i] = apps::farrow::branch_filters(blk[i], st);
    }
    co_await branches.put_n(
        std::span<const apps::farrow::BranchBlock>{br.data(), got});
  }
}

COMPUTE_KERNEL(aie, farrow_combine,
               cgsim::KernelReadPort<BranchBlock,
                                     apps::farrow::kPingPong> branches,
               cgsim::KernelReadPort<MuBlock> mu,
               cgsim::KernelWritePort<SampleBlock> out) {
  // Consume branch windows and delay windows in lockstep, a ping-pong pair
  // per suspension.
  constexpr std::size_t kBatch = 2;
  std::array<apps::farrow::BranchBlock, kBatch> br{};
  std::array<apps::farrow::MuBlock, kBatch> m{};
  std::array<apps::farrow::SampleBlock, kBatch> res{};
  while (true) {
    const std::size_t got = co_await branches.get_n(
        std::span<apps::farrow::BranchBlock>{br.data(), kBatch});
    const std::size_t mgot =
        co_await mu.get_n(std::span<apps::farrow::MuBlock>{m.data(), got});
    const std::size_t pairs = got < mgot ? got : mgot;
    for (std::size_t i = 0; i < pairs; ++i) {
      res[i] = apps::farrow::combine(br[i], m[i]);
    }
    co_await out.put_n(
        std::span<const apps::farrow::SampleBlock>{res.data(), pairs});
  }
}

/// Two-kernel graph: stream I/O at the boundary, ping-pong window between
/// the branch filters and the combiner (as in the AMD original).
inline constexpr auto graph = cgsim::make_compute_graph_v<[](
    cgsim::IoConnector<SampleBlock> in, cgsim::IoConnector<MuBlock> mu) {
  in.attr("plio_name", "DataIn0");
  mu.attr("plio_name", "DelayIn0");
  cgsim::IoConnector<BranchBlock> branches;
  cgsim::IoConnector<SampleBlock> out;
  farrow_branches(in, branches);
  farrow_combine(branches, mu, out);
  out.attr("plio_name", "DataOut0");
  return std::make_tuple(out);
}>;

// ---------- scalar golden reference ----------

[[nodiscard]] inline std::int16_t sat16(std::int64_t v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return static_cast<std::int16_t>(v);
}

[[nodiscard]] inline std::int16_t q14_round(std::int64_t v) {
  return sat16((v + (std::int64_t{1} << (kQ - 1))) >> kQ);
}

/// Bit-exact scalar model of branch_filters + combine over a full stream.
inline std::vector<std::int16_t> reference(
    const std::vector<std::int16_t>& x, const std::vector<std::int16_t>& mu) {
  std::vector<std::int16_t> y(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::array<std::int16_t, 4> b{};
    for (unsigned k = 0; k < 4; ++k) {
      std::int64_t acc = 0;
      for (unsigned j = 0; j < kTaps; ++j) {
        // Matches the windowed layout: lane n reads x[n-7+j].
        const std::int64_t idx =
            static_cast<std::int64_t>(n) - (kTaps - 1) + j;
        const std::int16_t xv = idx < 0 ? std::int16_t{0}
                                        : x[static_cast<std::size_t>(idx)];
        acc += static_cast<std::int64_t>(kCoeffs[k][j]) * xv;
      }
      b[k] = q14_round(acc);
    }
    const std::int64_t m = mu[n];
    std::int64_t h = b[3];
    h = q14_round((static_cast<std::int64_t>(b[2]) << kQ) + h * m);
    h = q14_round((static_cast<std::int64_t>(b[1]) << kQ) + h * m);
    h = q14_round((static_cast<std::int64_t>(b[0]) << kQ) + h * m);
    y[n] = static_cast<std::int16_t>(h);
  }
  return y;
}

}  // namespace apps::farrow
