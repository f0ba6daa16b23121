// Parity and determinism tests for the vectorized ML kernel subsystem
// (ml/kernels.h): every optimized kernel against its naive reference on
// randomized shapes (bit for bit for the layer kernels), the GEMM and the
// GELU epilogue against scalar oracles bit for bit, the vector exact-math
// functions against their scalar definitions at every branch edge,
// bit-identical results across row and output-block splits, pool
// re-entrancy, and end-to-end incremental-vs-full generation parity.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ml/gpt.h"
#include "ml/kernels.h"
#include "util/rng.h"

namespace kern = chatfuzz::ml::kern;
using chatfuzz::Rng;
using chatfuzz::ml::Gpt;
using chatfuzz::ml::GptConfig;

namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n, float scale = 1.f) {
  std::vector<float> v(n);
  for (float& x : v) x = (static_cast<float>(rng.uniform()) - 0.5f) * scale;
  return v;
}

/// Relative-ish tolerance: the optimized kernels keep the reference
/// accumulation order, but FMA contraction differs between loop shapes.
void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float mag = std::max(1.f, std::fabs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol * mag) << "at " << i;
  }
}

struct Shape {
  int N, Cin, Cout;
};

const Shape kShapes[] = {
    {1, 16, 48},  {1, 128, 259}, {3, 64, 256},  {5, 37, 91},
    {8, 128, 512}, {17, 1, 7},   {2, 200, 1},   {64, 48, 48},
};

}  // namespace

TEST(Kernels, MatmulForwardPackedMatchesRef) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto bias = random_vec(rng, s.Cout);
    kern::PackedMat packed;
    kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);
    ASSERT_EQ(packed.cout, s.Cout);
    ASSERT_EQ(packed.cin, s.Cin);
    std::vector<float> ref(static_cast<std::size_t>(s.N) * s.Cout);
    std::vector<float> fast(ref.size());
    kern::matmul_forward_ref(ref.data(), inp.data(), w.data(), bias.data(),
                             s.N, s.Cin, s.Cout);
    kern::matmul_forward_packed(fast.data(), inp.data(), packed, bias.data(),
                                s.N);
    expect_close(fast, ref, 1e-5f);
    // nullptr bias path
    kern::matmul_forward_ref(ref.data(), inp.data(), w.data(), nullptr, s.N,
                             s.Cin, s.Cout);
    kern::matmul_forward_packed(fast.data(), inp.data(), packed, nullptr, s.N);
    expect_close(fast, ref, 1e-5f);
  }
}

TEST(Kernels, MatmulBackwardMatchesRef) {
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto dout = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cout);
    // Non-zero initial accumulators: backward kernels accumulate (+=).
    const auto seed_di = random_vec(rng, inp.size(), 0.1f);
    const auto seed_dw = random_vec(rng, w.size(), 0.1f);
    const auto seed_db = random_vec(rng, s.Cout, 0.1f);

    auto di_ref = seed_di, dw_ref = seed_dw, db_ref = seed_db;
    auto di_fast = seed_di, dw_fast = seed_dw, db_fast = seed_db;
    kern::matmul_backward_ref(di_ref.data(), dw_ref.data(), db_ref.data(),
                              dout.data(), inp.data(), w.data(), s.N, s.Cin,
                              s.Cout);
    kern::matmul_backward_dx(di_fast.data(), dout.data(), w.data(), s.N, s.Cin,
                             s.Cout);
    kern::matmul_backward_dw(dw_fast.data(), db_fast.data(), dout.data(),
                             inp.data(), s.N, s.Cin, s.Cout, 0, s.Cout);
    expect_close(di_fast, di_ref, 1e-5f);
    expect_close(dw_fast, dw_ref, 1e-5f);
    expect_close(db_fast, db_ref, 1e-5f);
  }
}

TEST(Kernels, FusedBiasGeluMatchesComposition) {
  Rng rng(13);
  const Shape s{6, 48, 96};
  const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
  const auto w = random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
  const auto bias = random_vec(rng, s.Cout);
  std::vector<float> pre_ref(static_cast<std::size_t>(s.N) * s.Cout);
  std::vector<float> post_ref(pre_ref.size());
  kern::matmul_forward_ref(pre_ref.data(), inp.data(), w.data(), bias.data(),
                           s.N, s.Cin, s.Cout);
  kern::gelu_forward_ref(post_ref.data(), pre_ref.data(),
                         static_cast<int>(pre_ref.size()));
  kern::PackedMat packed;
  kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);
  std::vector<float> pre(pre_ref.size()), post(pre_ref.size());
  kern::matmul_bias_gelu_forward(pre.data(), post.data(), inp.data(), packed,
                                 bias.data(), s.N);
  expect_close(pre, pre_ref, 1e-5f);
  expect_close(post, post_ref, 1e-5f);
}

TEST(Kernels, BackwardBlocksAndRowRangesAreBitIdentical) {
  // The model's passes split the input gradient by sequence (row ranges)
  // and the weight gradient by output block. Neither split may move a bit:
  // every element keeps its one ascending chain.
  Rng rng(15);
  const Shape s{61, 96, 224};
  const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
  const auto w = random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
  const auto dout = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cout);
  std::vector<float> di(inp.size(), 0.f), dw(w.size(), 0.f), db(s.Cout, 0.f);
  kern::matmul_backward_dx(di.data(), dout.data(), w.data(), s.N, s.Cin,
                           s.Cout);
  kern::matmul_backward_dw(dw.data(), db.data(), dout.data(), inp.data(), s.N,
                           s.Cin, s.Cout, 0, s.Cout);
  for (const int step : {1, 5, 12, 50}) {
    SCOPED_TRACE("step=" + std::to_string(step));
    std::vector<float> di2(inp.size(), 0.f), dw2(w.size(), 0.f),
        db2(s.Cout, 0.f);
    for (int n0 = 0; n0 < s.N; n0 += step) {
      const int rows = std::min(step, s.N - n0);
      kern::matmul_backward_dx(di2.data() + static_cast<std::size_t>(n0) * s.Cin,
                               dout.data() + static_cast<std::size_t>(n0) * s.Cout,
                               w.data(), rows, s.Cin, s.Cout);
    }
    for (int o0 = 0; o0 < s.Cout; o0 += step) {
      kern::matmul_backward_dw(dw2.data(), db2.data(), dout.data(), inp.data(),
                               s.N, s.Cin, s.Cout, o0,
                               std::min(o0 + step, s.Cout));
    }
    // Bit-identical, not merely close: the determinism contract.
    EXPECT_EQ(0, std::memcmp(di.data(), di2.data(), di.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(dw.data(), dw2.data(), dw.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(db.data(), db2.data(), db.size() * sizeof(float)));
  }
}

// ---- transformer layer kernels: bit-exact against the seed loops ----------
// The attention, layernorm and softmax kernels promise the *_ref bits, not
// merely close values.

namespace {

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs `body` at kernel thread counts 1..4, restoring the setting after.
template <typename Body>
void at_thread_counts(const Body& body) {
  const int saved = kern::num_threads();
  for (const int nt : {1, 2, 3, 4}) {
    kern::set_num_threads(nt);
    SCOPED_TRACE("threads=" + std::to_string(nt));
    body();
  }
  kern::set_num_threads(saved);
}

/// Ragged sequences packed back to back, as the model passes them.
struct AttnShape {
  std::vector<int> lens;
  int C, NH;
};

// Length 1; lengths that are and are not multiples of 4 and 8 in one batch;
// head sizes 4 (no whole lane group), 8, 12 (a group and a remainder), 16
// and 32 (two 16-column tiles); and the lengths of real training batches.
const AttnShape kAttnShapes[] = {
    {{1, 1}, 16, 2},         {{5}, 8, 1},          {{13, 7, 1}, 32, 4},
    {{16, 16}, 16, 2},       {{37, 20, 33}, 64, 4}, {{9, 30}, 24, 2},
    {{21, 4}, 8, 2},         {{45, 93}, 64, 2},    {{93, 92, 1, 64}, 64, 4},
};

std::vector<int> offsets(const std::vector<int>& lens) {
  std::vector<int> offs{0};
  for (const int L : lens) offs.push_back(offs.back() + L);
  return offs;
}

std::string shape_name(const AttnShape& s) {
  std::string n = "C=" + std::to_string(s.C) + " NH=" + std::to_string(s.NH) +
                  " lens=";
  for (const int L : s.lens) n += std::to_string(L) + ",";
  return n;
}

/// The reference on one sequence: rows [o, o + L) of qkv, as a [1, L] batch.
struct RefSeq {
  std::vector<float> out, pre, att;
};
RefSeq ref_forward(const std::vector<float>& qkv, int o, int L, int C, int NH) {
  RefSeq r;
  const std::size_t C3 = 3 * static_cast<std::size_t>(C);
  const std::vector<float> q(qkv.begin() + o * C3, qkv.begin() + (o + L) * C3);
  r.out.resize(static_cast<std::size_t>(L) * C);
  r.pre.resize(static_cast<std::size_t>(NH) * L * L);
  r.att.resize(r.pre.size());
  kern::attention_forward_ref(r.out.data(), r.pre.data(), r.att.data(),
                              q.data(), 1, L, C, NH);
  return r;
}

/// att's lower triangles, which attention_forward writes, equal the ref's.
bool same_att_triangles(const std::vector<float>& att,
                        const std::vector<float>& ref, int L, int NH) {
  for (std::size_t h = 0; h < static_cast<std::size_t>(NH); ++h) {
    for (std::size_t t = 0; t < static_cast<std::size_t>(L); ++t) {
      const std::size_t row = (h * L + t) * L;
      if (std::memcmp(att.data() + row, ref.data() + row,
                      (t + 1) * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

TEST(Kernels, AttentionForwardMatchesRefBits) {
  Rng rng(21);
  for (const AttnShape& s : kAttnShapes) {
    SCOPED_TRACE(shape_name(s));
    const std::vector<int> offs = offsets(s.lens);
    const int B = static_cast<int>(s.lens.size()), N = offs.back();
    const std::size_t NC = static_cast<std::size_t>(N) * s.C;
    const auto qkv = random_vec(rng, 3 * NC, 4.f);
    // Stale values in out must be overwritten, as the ref does.
    std::vector<float> out(NC, 7.f);
    for (int b = 0; b < B; ++b) {
      const int L = s.lens[b];
      const RefSeq r = ref_forward(qkv, offs[b], L, s.C, s.NH);
      std::vector<float> att(r.att.size(), 7.f);
      float* got = out.data() + static_cast<std::size_t>(offs[b]) * s.C;
      kern::attention_forward(got, att.data(),
                              qkv.data() + static_cast<std::size_t>(offs[b]) *
                                               3 * s.C,
                              L, s.C, s.NH);
      EXPECT_EQ(0,
                std::memcmp(got, r.out.data(), r.out.size() * sizeof(float)))
          << "out of sequence " << b;
      EXPECT_TRUE(same_att_triangles(att, r.att, L, s.NH))
          << "att of sequence " << b;
    }
  }
}

TEST(Kernels, AttentionBackwardMatchesRefBits) {
  Rng rng(22);
  for (const AttnShape& s : kAttnShapes) {
    SCOPED_TRACE(shape_name(s));
    const std::vector<int> offs = offsets(s.lens);
    const int B = static_cast<int>(s.lens.size()), N = offs.back();
    const std::size_t C3 = 3 * static_cast<std::size_t>(s.C);
    const auto qkv = random_vec(rng, N * C3, 4.f);
    const auto dout = random_vec(rng, static_cast<std::size_t>(N) * s.C);
    // A non-zero initial accumulator: the kernel adds into dqkv.
    const auto seed_dqkv = random_vec(rng, qkv.size(), 0.1f);
    for (int b = 0; b < B; ++b) {
      const int L = s.lens[b];
      const std::size_t o = static_cast<std::size_t>(offs[b]);
      // The reference, with the zeroed dpreatt and datt scratch the model
      // used to pass it.
      const RefSeq r = ref_forward(qkv, offs[b], L, s.C, s.NH);
      std::vector<float> q(qkv.begin() + o * C3, qkv.begin() + (o + L) * C3);
      std::vector<float> want(seed_dqkv.begin() + o * C3,
                              seed_dqkv.begin() + (o + L) * C3);
      std::vector<float> dpre(r.att.size(), 0.f), datt(r.att.size(), 0.f);
      kern::attention_backward_ref(want.data(), dpre.data(), datt.data(),
                                   dout.data() + o * s.C, q.data(),
                                   r.att.data(), 1, L, s.C, s.NH);
      std::vector<float> att(r.att.size());
      std::vector<float> out(static_cast<std::size_t>(L) * s.C);
      kern::attention_forward(out.data(), att.data(), q.data(), L, s.C, s.NH);
      std::vector<float> got(seed_dqkv.begin() + o * C3,
                             seed_dqkv.begin() + (o + L) * C3);
      kern::attention_backward(got.data(), dout.data() + o * s.C, q.data(),
                               att.data(), L, s.C, s.NH);
      EXPECT_TRUE(same_bits(got, want)) << "sequence " << b;
    }
  }
}

TEST(Kernels, LayernormMatchesRefBits) {
  Rng rng(23);
  for (const std::pair<int, int>& shape : {std::pair{1, 16}, std::pair{7, 37},
                                          std::pair{600, 64}}) {
    const int N = shape.first, C = shape.second;
    SCOPED_TRACE("N=" + std::to_string(N));
    const std::size_t NC = static_cast<std::size_t>(N) * C;
    const auto inp = random_vec(rng, NC, 3.f);
    const auto w = random_vec(rng, C, 2.f);
    const auto b = random_vec(rng, C);
    const auto dout = random_vec(rng, NC);
    const auto seed_dinp = random_vec(rng, NC, 0.1f);
    const auto seed_dw = random_vec(rng, C, 0.1f);
    const auto seed_db = random_vec(rng, C, 0.1f);
    std::vector<float> out_ref(NC), mean_ref(N), rstd_ref(N);
    kern::layernorm_forward_ref(out_ref.data(), mean_ref.data(),
                                rstd_ref.data(), inp.data(), w.data(), b.data(),
                                N, C);
    auto dinp_ref = seed_dinp, dw_ref = seed_dw, db_ref = seed_db;
    kern::layernorm_backward_ref(dinp_ref.data(), dw_ref.data(), db_ref.data(),
                                 dout.data(), inp.data(), mean_ref.data(),
                                 rstd_ref.data(), w.data(), N, C);
    std::vector<float> out(NC), mean(N), rstd(N);
    kern::layernorm_forward(out.data(), mean.data(), rstd.data(), inp.data(),
                            w.data(), b.data(), nullptr, N, C);
    EXPECT_TRUE(same_bits(out, out_ref));
    EXPECT_TRUE(same_bits(mean, mean_ref));
    EXPECT_TRUE(same_bits(rstd, rstd_ref));
    auto dinp = seed_dinp, dw = seed_dw, db = seed_db;
    kern::layernorm_backward_dx(dinp.data(), dout.data(), inp.data(),
                                mean.data(), rstd.data(), w.data(), nullptr, N,
                                C);
    kern::layernorm_backward_dw(dw.data(), db.data(), dout.data(), inp.data(),
                                mean.data(), rstd.data(), nullptr, N, C);
    EXPECT_TRUE(same_bits(dinp, dinp_ref));
    EXPECT_TRUE(same_bits(dw, dw_ref));
    EXPECT_TRUE(same_bits(db, db_ref));
  }
}

TEST(Kernels, LayernormOnGatheredRowsMatchesRefOnCopies) {
  Rng rng(24);
  const int M = 900, C = 64;
  std::vector<int> rows;
  for (int n = 0; n < M; ++n) {
    if (rng.below(3) != 0) rows.push_back(n);
  }
  const int N = static_cast<int>(rows.size());
  const auto inp = random_vec(rng, static_cast<std::size_t>(M) * C, 3.f);
  const auto w = random_vec(rng, C, 2.f);
  const auto b = random_vec(rng, C);
  const auto dout = random_vec(rng, static_cast<std::size_t>(N) * C);
  const auto seed_dinp = random_vec(rng, inp.size(), 0.1f);
  // The reference runs on packed copies of the selected rows.
  std::vector<float> g_inp, g_dinp;
  for (const int r : rows) {
    g_inp.insert(g_inp.end(), inp.begin() + r * C, inp.begin() + (r + 1) * C);
    g_dinp.insert(g_dinp.end(), seed_dinp.begin() + r * C,
                  seed_dinp.begin() + (r + 1) * C);
  }
  std::vector<float> out_ref(g_inp.size()), mean_ref(N), rstd_ref(N);
  kern::layernorm_forward_ref(out_ref.data(), mean_ref.data(), rstd_ref.data(),
                              g_inp.data(), w.data(), b.data(), N, C);
  std::vector<float> dw_ref(C, 0.f), db_ref(C, 0.f);
  kern::layernorm_backward_ref(g_dinp.data(), dw_ref.data(), db_ref.data(),
                               dout.data(), g_inp.data(), mean_ref.data(),
                               rstd_ref.data(), w.data(), N, C);
  auto dinp_ref = seed_dinp;  // scatter the packed result back
  for (int n = 0; n < N; ++n) {
    std::copy(g_dinp.begin() + n * C, g_dinp.begin() + (n + 1) * C,
              dinp_ref.begin() + rows[n] * C);
  }
  std::vector<float> out(out_ref.size()), mean(N), rstd(N);
  kern::layernorm_forward(out.data(), mean.data(), rstd.data(), inp.data(),
                          w.data(), b.data(), rows.data(), N, C);
  EXPECT_TRUE(same_bits(out, out_ref));
  EXPECT_TRUE(same_bits(mean, mean_ref));
  EXPECT_TRUE(same_bits(rstd, rstd_ref));
  auto dinp = seed_dinp;
  std::vector<float> dw(C, 0.f), db(C, 0.f);
  kern::layernorm_backward_dx(dinp.data(), dout.data(), inp.data(), mean.data(),
                              rstd.data(), w.data(), rows.data(), N, C);
  kern::layernorm_backward_dw(dw.data(), db.data(), dout.data(), inp.data(),
                              mean.data(), rstd.data(), rows.data(), N, C);
  EXPECT_TRUE(same_bits(dinp, dinp_ref));
  EXPECT_TRUE(same_bits(dw, dw_ref));
  EXPECT_TRUE(same_bits(db, db_ref));
}

TEST(Kernels, SoftmaxMatchesRefBits) {
  Rng rng(25);
  for (const std::pair<int, int>& shape : {std::pair{1, 7}, std::pair{5, 259},
                                          std::pair{64, 259}}) {
    const int N = shape.first, V = shape.second;
    const auto logits = random_vec(rng, static_cast<std::size_t>(N) * V, 20.f);
    std::vector<float> ref(logits.size());
    kern::softmax_forward_ref(ref.data(), logits.data(), N, V);
    std::vector<float> probs(logits.size());
    kern::softmax_forward(probs.data(), logits.data(), N, V);
    EXPECT_TRUE(same_bits(probs, ref));
  }
}

TEST(Kernels, GeluBackwardMatchesRefBits) {
  Rng rng(26);
  const int N = 40000;
  const auto inp = random_vec(rng, N, 8.f);
  const auto dout = random_vec(rng, N);
  const auto seed = random_vec(rng, N, 0.1f);
  auto ref = seed;
  kern::gelu_backward_ref(ref.data(), inp.data(), dout.data(), N);
  auto d = seed;
  kern::gelu_backward(d.data(), inp.data(), dout.data(), N);
  EXPECT_TRUE(same_bits(d, ref));
}

// ---- the GEMM kernel: bit-exact against a scalar multiply-add chain --------
// Every matmul output element is one multiply-add per reduction index, in
// ascending order, from its start value (bias, zero, or the accumulator).
// The oracle computes exactly that, one element at a time, fused (one
// rounding) or not as the kernels' own build reports.

namespace {

float oracle_madd(float a, float b, float c) {
  return kern::madd_is_fused() ? std::fma(a, b, c) : a * b + c;
}

/// matmul_bias_gelu_forward's activation: where the multiply-add is fused,
/// the tanh argument's x + 0.044715 x^3 rounds once.
float oracle_gelu(float x) {
  if (!kern::madd_is_fused()) return kern::gelu_scalar(x);
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  const float t = kern::exact_tanhf(kS * std::fma(0.044715f * x * x, x, x));
  return (t + 1.f) * (0.5f * x);
}

std::vector<float> oracle_gelu(const std::vector<float>& pre) {
  std::vector<float> post(pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) post[i] = oracle_gelu(pre[i]);
  return post;
}

/// out[n, o] = start + sum_i inp[n, i] * w[o, i], start = bias[o] or 0.
std::vector<float> oracle_forward(const std::vector<float>& inp,
                                  const std::vector<float>& w,
                                  const float* bias, const Shape& s) {
  std::vector<float> out(static_cast<std::size_t>(s.N) * s.Cout);
  for (int n = 0; n < s.N; ++n) {
    for (int o = 0; o < s.Cout; ++o) {
      float acc = bias != nullptr ? bias[o] : 0.f;
      for (int i = 0; i < s.Cin; ++i) {
        acc = oracle_madd(inp[static_cast<std::size_t>(n) * s.Cin + i],
                          w[static_cast<std::size_t>(o) * s.Cin + i], acc);
      }
      out[static_cast<std::size_t>(n) * s.Cout + o] = acc;
    }
  }
  return out;
}

// N not a multiple of the tile's 6 rows, column tails of every width class
// (Cout 1, 7, 91, 259), Cin = 1, and N > 256 so the dw pass spans several
// reduction blocks. Cout and Cin (the backward passes' column count) of 32
// and 33: one whole 16-lane tile, and one column past it.
const Shape kGemmShapes[] = {
    {1, 1, 1},      {5, 1, 7},      {13, 64, 1},   {7, 37, 91},
    {11, 64, 259},  {19, 1, 259},   {8, 259, 7},   {301, 64, 91},
    {263, 37, 259}, {50, 128, 48},  {9, 32, 33},   {14, 33, 32},
};

}  // namespace

TEST(Kernels, GemmForwardPathsMatchScalarMaddChainBits) {
  Rng rng(31);
  for (const Shape& s : kGemmShapes) {
    SCOPED_TRACE("N=" + std::to_string(s.N) + " Cin=" + std::to_string(s.Cin) +
                 " Cout=" + std::to_string(s.Cout));
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto bias = random_vec(rng, s.Cout);
    const auto want = oracle_forward(inp, w, bias.data(), s);
    const auto want_nobias = oracle_forward(inp, w, nullptr, s);
    const auto want_post = oracle_gelu(want);
    kern::PackedMat packed;
    kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);
    std::vector<float> out(want.size(), 7.f), post(want.size());
    kern::matmul_forward_packed(out.data(), inp.data(), packed, bias.data(),
                                s.N);
    EXPECT_TRUE(same_bits(out, want));
    kern::matmul_forward_packed(out.data(), inp.data(), packed, nullptr, s.N);
    EXPECT_TRUE(same_bits(out, want_nobias));
    std::fill(out.begin(), out.end(), 7.f);
    kern::matmul_bias_gelu_forward(out.data(), post.data(), inp.data(), packed,
                                   bias.data(), s.N);
    EXPECT_TRUE(same_bits(out, want));
    EXPECT_TRUE(same_bits(post, want_post));
  }
}

TEST(Kernels, GemmBackwardMatchesScalarMaddChainBits) {
  Rng rng(32);
  for (const Shape& s : kGemmShapes) {
    SCOPED_TRACE("N=" + std::to_string(s.N) + " Cin=" + std::to_string(s.Cin) +
                 " Cout=" + std::to_string(s.Cout));
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto dout = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cout);
    // Non-zero starting accumulators: the passes add into their gradients.
    const auto seed_di = random_vec(rng, inp.size(), 0.1f);
    const auto seed_dw = random_vec(rng, w.size(), 0.1f);
    const auto seed_db = random_vec(rng, s.Cout, 0.1f);
    auto want_di = seed_di, want_dw = seed_dw, want_db = seed_db;
    for (int n = 0; n < s.N; ++n) {
      for (int i = 0; i < s.Cin; ++i) {
        float& acc = want_di[static_cast<std::size_t>(n) * s.Cin + i];
        for (int o = 0; o < s.Cout; ++o) {
          acc = oracle_madd(dout[static_cast<std::size_t>(n) * s.Cout + o],
                            w[static_cast<std::size_t>(o) * s.Cin + i], acc);
        }
      }
    }
    for (int o = 0; o < s.Cout; ++o) {
      for (int i = 0; i < s.Cin; ++i) {
        float& acc = want_dw[static_cast<std::size_t>(o) * s.Cin + i];
        for (int n = 0; n < s.N; ++n) {
          acc = oracle_madd(dout[static_cast<std::size_t>(n) * s.Cout + o],
                            inp[static_cast<std::size_t>(n) * s.Cin + i], acc);
        }
      }
      for (int n = 0; n < s.N; ++n) {
        want_db[o] += dout[static_cast<std::size_t>(n) * s.Cout + o];
      }
    }
    auto di = seed_di, dw = seed_dw, db = seed_db;
    kern::matmul_backward_dx(di.data(), dout.data(), w.data(), s.N, s.Cin,
                             s.Cout);
    kern::matmul_backward_dw(dw.data(), db.data(), dout.data(), inp.data(), s.N,
                             s.Cin, s.Cout, 0, s.Cout);
    EXPECT_TRUE(same_bits(di, want_di));
    EXPECT_TRUE(same_bits(dw, want_dw));
    EXPECT_TRUE(same_bits(db, want_db));
    // No bias gradient: dw is unchanged.
    auto dw2 = seed_dw;
    kern::matmul_backward_dw(dw2.data(), nullptr, dout.data(), inp.data(), s.N,
                             s.Cin, s.Cout, 0, s.Cout);
    EXPECT_TRUE(same_bits(dw2, want_dw));
  }
}

// ---- exact math: vector lanes against the scalar definitions --------------
// exact_tanhf_n, exact_coshf_n and exact_expf_n must return their scalar
// function's bits in every lane, NaN for NaN. exact_math_test sweeps all
// 2^32 inputs; these cases cover each branch edge and run in the sanitizer
// builds too.

namespace {

float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

bool same_or_both_nan(float a, float b) {
  return std::isnan(a) ? std::isnan(b)
                       : std::bit_cast<std::uint32_t>(a) ==
                             std::bit_cast<std::uint32_t>(b);
}

/// Every branch threshold of tanhf, coshf, expf and the expm1f they call
/// (|x|'s bits), each +-2 ulps and with both signs; then zeros, denormals,
/// infinities, NaNs and a strided sweep of all bit patterns.
std::vector<float> edge_inputs() {
  const float ln2 = 0.6931471805599453f;
  std::vector<std::uint32_t> edges = {
      0x24000000u, 0x3f800000u, 0x41b00000u,               // tanhf, coshf
      0x3eb17218u, 0x42b17180u, 0x42b2d4fcu,               // coshf
      0x42b00000u, 0x42b17217u, 0x42cff1b4u, 0x42ce8ecfu,  // expf
      0x33000000u, 0x3f851592u, 0x4195b844u, 0x42b17218u,  // expm1f
  };
  // expm1f's k = round(x / ln2) changes formula at k = 2, 23 and 57.
  for (const float k : {2.f, 23.f, 57.f}) {
    edges.push_back(std::bit_cast<std::uint32_t>((k - 0.5f) * ln2));
  }
  // tanhf calls expm1f at 2|x|: halving steps the exponent down by one.
  const std::size_t n_edges = edges.size();
  for (std::size_t i = 0; i < n_edges; ++i) edges.push_back(edges[i] - 0x00800000u);
  std::vector<float> in;
  for (const std::uint32_t e : edges) {
    for (std::uint32_t d = 0; d <= 4; ++d) {
      in.push_back(from_bits(e + d - 2));
      in.push_back(from_bits((e + d - 2) | 0x80000000u));
    }
  }
  for (const std::uint32_t u :
       {0x00000000u, 0x80000000u, 0x00000001u, 0x807fffffu, 0x00800000u,
        0x7f7fffffu, 0xff7fffffu, 0x7f800000u, 0xff800000u, 0x7fc00000u,
        0xffc00001u, 0x7f800001u,
        // The only two expf inputs whose bits change when its reduction
        // r = x * 32 / ln2 - k rounds twice instead of once.
        0x4202422fu, 0xc27c65d9u}) {
    in.push_back(from_bits(u));
  }
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 65521) {
    in.push_back(from_bits(static_cast<std::uint32_t>(u)));
  }
  return in;
}

}  // namespace

TEST(ExactMath, VectorLanesMatchScalarDefinitionsAtBranchEdges) {
  const std::vector<float> in = edge_inputs();
  using VecFn = void (*)(float*, const float*, std::size_t);
  using ScalarFn = float (*)(float);
  const struct {
    const char* name;
    VecFn vec;
    ScalarFn scalar;
  } fns[] = {{"tanhf", kern::exact_tanhf_n, kern::exact_tanhf},
             {"coshf", kern::exact_coshf_n, kern::exact_coshf},
             {"expf", kern::exact_expf_n, kern::exact_expf}};
  for (const auto& f : fns) {
    SCOPED_TRACE(f.name);
    // Every start offset up to 16 and lengths that are not a multiple of 8
    // or 16, so each input lands in every lane of either width and in the
    // scalar tail.
    for (std::size_t off = 0; off <= 16; ++off) {
      const std::size_t n = in.size() - off;
      std::vector<float> out(n);
      f.vec(out.data(), in.data() + off, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_or_both_nan(out[i], f.scalar(in[off + i])))
            << "x=" << in[off + i] << " (0x" << std::hex
            << std::bit_cast<std::uint32_t>(in[off + i]) << std::dec
            << ") offset " << off;
      }
    }
    // In place.
    std::vector<float> buf = in;
    f.vec(buf.data(), buf.data(), buf.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_TRUE(same_or_both_nan(buf[i], f.scalar(in[i]))) << i;
    }
  }
}

TEST(ExactMath, ScalarDefinitionsKeepLibmsSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kern::exact_tanhf(inf), 1.f);
  EXPECT_EQ(kern::exact_tanhf(-inf), -1.f);
  EXPECT_EQ(kern::exact_tanhf(30.f), 1.f);
  EXPECT_TRUE(std::signbit(kern::exact_tanhf(-0.f)));
  EXPECT_EQ(kern::exact_coshf(0.f), 1.f);
  EXPECT_EQ(kern::exact_coshf(-inf), inf);
  EXPECT_EQ(kern::exact_coshf(100.f), inf);
  EXPECT_EQ(kern::exact_expf(0.f), 1.f);
  EXPECT_EQ(kern::exact_expf(-inf), 0.f);
  EXPECT_EQ(kern::exact_expf(89.f), inf);
  EXPECT_EQ(kern::exact_expf(-104.f), 0.f);
  EXPECT_EQ(kern::exact_expf(-103.5f), std::numeric_limits<float>::denorm_min());
  EXPECT_EQ(kern::exact_expm1f(-inf), -1.f);
  EXPECT_EQ(kern::exact_expm1f(-30.f), -1.f);
  for (const float nan : {std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_TRUE(std::isnan(kern::exact_tanhf(nan)));
    EXPECT_TRUE(std::isnan(kern::exact_coshf(nan)));
    EXPECT_TRUE(std::isnan(kern::exact_expf(nan)));
    EXPECT_TRUE(std::isnan(kern::exact_expm1f(nan)));
  }
}

namespace {

/// Random pre-activations in [-12, 12] (tanh arguments up to ~63, past
/// tanh and cosh's common range at 22), with zeros, denormals, tiny and
/// huge values mixed in. No input makes a NaN, whose payload could differ.
std::vector<float> gelu_inputs(Rng& rng, std::size_t n) {
  auto v = random_vec(rng, n, 24.f);
  const float specials[] = {0.f,    -0.f,   1e-40f, -1e-40f, 1e-20f, -3e-12f,
                            8.4f,   -8.5f,  30.f,   -30.f,   1e4f,   -1e13f};
  for (std::size_t i = 0; i < n; i += 7) v[i] = specials[(i / 7) % 12];
  return v;
}

}  // namespace

TEST(Kernels, GeluKernelsMatchScalarBitsOnTailsAndSpecialValues) {
  Rng rng(33);
  // The backward kernel against gelu_backward_ref; 8k + 5 elements, split
  // at arbitrary points, as the model splits it by sequence, so lanes and
  // scalar tails both run.
  const int N = 8 * 5000 + 5;
  const auto inp = gelu_inputs(rng, N);
  const auto dout = random_vec(rng, N);
  const auto seed = random_vec(rng, N, 0.1f);
  auto want = seed;
  kern::gelu_backward_ref(want.data(), inp.data(), dout.data(), N);
  // The forward epilogue, through matmul_bias_gelu_forward with Cout = 13
  // over row ranges, each of which ends in a partial vector.
  const Shape s{3001, 1, 13};
  const auto x = gelu_inputs(rng, s.N);
  const std::vector<float> w(s.Cout, 1.f), bias(s.Cout, 0.f);
  const auto pre_want = oracle_forward(x, w, bias.data(), s);
  const auto post_want = oracle_gelu(pre_want);
  kern::PackedMat packed;
  kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);
  for (const int parts : {1, 3, 7}) {
    SCOPED_TRACE("parts=" + std::to_string(parts));
    auto d = seed;
    std::vector<float> pre(pre_want.size()), post(pre_want.size());
    for (int k = 0; k < parts; ++k) {
      const int lo = N * k / parts, hi = N * (k + 1) / parts;
      kern::gelu_backward(d.data() + lo, inp.data() + lo, dout.data() + lo,
                          hi - lo);
      const std::size_t n0 = static_cast<std::size_t>(s.N) * k / parts;
      const std::size_t n1 = static_cast<std::size_t>(s.N) * (k + 1) / parts;
      kern::matmul_bias_gelu_forward(pre.data() + n0 * s.Cout,
                                     post.data() + n0 * s.Cout,
                                     x.data() + n0 * s.Cin, packed,
                                     bias.data(), static_cast<int>(n1 - n0));
    }
    EXPECT_TRUE(same_bits(d, want));
    EXPECT_TRUE(same_bits(pre, pre_want));
    EXPECT_TRUE(same_bits(post, post_want));
  }
  std::vector<float> post(pre_want.size());
  kern::gelu_epilogue(post.data(), pre_want.data(), post.size());
  EXPECT_TRUE(same_bits(post, post_want));
}

TEST(Kernels, SoftmaxOnSignedZerosAndNaNMatchesRefBits) {
  // Rows whose max is zero, with zeros of both signs spread over the lanes
  // and the scalar tail, and rows with a NaN logit, which the max skips and
  // the row's sum does not.
  const int V = 259;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(35);
  std::vector<float> logits;
  for (int row = 0; row < 12; ++row) {
    auto l = random_vec(rng, V, 20.f);
    for (float& x : l) x = -std::fabs(x) - 1.f;
    for (int v = row % 3; v < V; v += 5 + row) l[v] = (v / 7) % 2 ? -0.f : 0.f;
    l[V - 1 - row % 3] = row % 2 ? -0.f : 0.f;
    if (row >= 8) l[(row * 37) % V] = row % 2 ? -nan : nan;
    logits.insert(logits.end(), l.begin(), l.end());
  }
  const int N = static_cast<int>(logits.size()) / V;
  std::vector<float> ref(logits.size());
  kern::softmax_forward_ref(ref.data(), logits.data(), N, V);
  std::vector<float> probs(logits.size());
  kern::softmax_forward(probs.data(), logits.data(), N, V);
  EXPECT_TRUE(same_bits(probs, ref));
}

TEST(Kernels, SoftmaxMatchesRefBitsWhereExponentialsUnderflow) {
  // Logits spread over +-150: many exp arguments fall below -88, the vector
  // exp's common range, and come out subnormal or zero.
  Rng rng(34);
  for (const std::pair<int, int>& shape : {std::pair{3, 13}, std::pair{40, 259}}) {
    const int N = shape.first, V = shape.second;
    const auto logits = random_vec(rng, static_cast<std::size_t>(N) * V, 300.f);
    std::vector<float> ref(logits.size());
    kern::softmax_forward_ref(ref.data(), logits.data(), N, V);
    std::vector<float> probs(logits.size());
    kern::softmax_forward(probs.data(), logits.data(), N, V);
    EXPECT_TRUE(same_bits(probs, ref));
  }
}

// ---- the pool itself -------------------------------------------------------

TEST(Kernels, NestedAndConcurrentPassesRunInlineWithSameBits) {
  // Model passes dispatch to the pool. A pass inside a pool body, or on a
  // second thread while another pass owns the pool, runs its items inline
  // and must give the same bits.
  const GptConfig cfg{64, 32, 2, 2, 32};
  const Gpt model(cfg, 27);
  Rng rng(27);
  const int B = 6, T = 24;
  std::vector<int> toks(B * T);
  for (int& t : toks) t = static_cast<int>(rng.below(cfg.vocab));
  const auto logits_of = [&](Gpt& m) {
    m.forward(toks.data(), B, T);
    return std::vector<float>(m.logits(),
                              m.logits() + std::size_t{1} * B * T * cfg.vocab);
  };
  Gpt first = model;
  const std::vector<float> want = logits_of(first);
  const int saved = kern::num_threads();
  kern::set_num_threads(4);
  std::vector<Gpt> nested_models(4, model);
  std::vector<std::vector<float>> nested(4);
  kern::parallel_ranges(4, 1 << 20, [&](int lo, int hi) {
    for (int k = lo; k < hi; ++k) nested[k] = logits_of(nested_models[k]);
  });
  std::vector<Gpt> concurrent_models(4, model);
  std::vector<std::vector<float>> concurrent(4);
  std::vector<std::thread> callers;
  for (int k = 0; k < 4; ++k) {
    callers.emplace_back([&, k] {
      for (int rep = 0; rep < 5; ++rep) {
        concurrent[k] = logits_of(concurrent_models[k]);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  kern::set_num_threads(saved);
  for (const auto& out : nested) EXPECT_TRUE(same_bits(out, want));
  for (const auto& out : concurrent) EXPECT_TRUE(same_bits(out, want));
}

TEST(Kernels, EnvThreadsDefaultsToAndClampsAtHardwareThreads) {
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const char* saved = std::getenv("CHATFUZZ_ML_THREADS");
  const std::string keep = saved != nullptr ? saved : "";
  unsetenv("CHATFUZZ_ML_THREADS");
  EXPECT_EQ(kern::env_threads(), hw);
  setenv("CHATFUZZ_ML_THREADS", "100000", 1);
  EXPECT_EQ(kern::env_threads(), hw);
  setenv("CHATFUZZ_ML_THREADS", "0", 1);
  EXPECT_EQ(kern::env_threads(), hw);
  setenv("CHATFUZZ_ML_THREADS", "1", 1);
  EXPECT_EQ(kern::env_threads(), 1);
  if (saved != nullptr) {
    setenv("CHATFUZZ_ML_THREADS", keep.c_str(), 1);
  } else {
    unsetenv("CHATFUZZ_ML_THREADS");
  }
}

// ---- end-to-end model parity ------------------------------------------------

TEST(Kernels, ForwardMatchesRefKernelsEndToEnd) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt fast(cfg, 77);
  Gpt ref(cfg, 77);
  ref.set_use_ref_kernels(true);
  Rng rng(3);
  const int B = 2, T = 10;
  std::vector<int> toks(B * T);
  for (int& t : toks) t = static_cast<int>(rng.below(cfg.vocab));
  fast.forward(toks.data(), B, T);
  ref.forward(toks.data(), B, T);
  const float* lf = fast.logits();
  const float* lr = ref.logits();
  for (int i = 0; i < B * T * cfg.vocab; ++i) {
    ASSERT_NEAR(lf[i], lr[i], 1e-3f) << i;
  }
}

TEST(Kernels, GenStepMatchesForwardAtEveryPosition) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 99);
  Rng rng(5);
  const int T = 20;
  std::vector<int> seq(T);
  for (int& t : seq) t = static_cast<int>(rng.below(cfg.vocab));

  model.forward(seq.data(), 1, T);
  std::vector<float> full(static_cast<std::size_t>(T) * cfg.vocab);
  std::memcpy(full.data(), model.logits(), full.size() * sizeof(float));

  Gpt::GenState st = model.gen_begin(1);
  std::vector<float> step(cfg.vocab);
  for (int t = 0; t < T; ++t) {
    model.gen_step(st, &seq[t], step.data());
    for (int v = 0; v < cfg.vocab; ++v) {
      ASSERT_NEAR(step[v], full[static_cast<std::size_t>(t) * cfg.vocab + v],
                  1e-3f)
          << "t=" << t << " v=" << v;
    }
  }
}

TEST(Kernels, GenStepPackedMatchesRefPath) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt fast(cfg, 123);
  Gpt ref(cfg, 123);
  ref.set_use_ref_kernels(true);
  Rng rng(7);
  const int B = 2, T = 16;
  Gpt::GenState sf = fast.gen_begin(B);
  Gpt::GenState sr = ref.gen_begin(B);
  EXPECT_FALSE(sf.wpack.empty());
  EXPECT_TRUE(sr.wpack.empty());
  std::vector<int> toks(B);
  std::vector<float> lf(static_cast<std::size_t>(B) * cfg.vocab);
  std::vector<float> lr(lf.size());
  for (int t = 0; t < T; ++t) {
    for (int b = 0; b < B; ++b) {
      toks[b] = static_cast<int>(rng.below(cfg.vocab));
    }
    fast.gen_step(sf, toks.data(), lf.data());
    ref.gen_step(sr, toks.data(), lr.data());
    for (std::size_t i = 0; i < lf.size(); ++i) {
      ASSERT_NEAR(lf[i], lr[i], 1e-3f) << "t=" << t << " i=" << i;
    }
  }
}

TEST(Kernels, GenStepOnActiveRowsMatchesAllRowsBits) {
  // One state decodes every row; another decodes a shrinking active set,
  // as Sampler::generate does once rows finish. Rows never meet in a decode
  // step, so an active row's logits must be the same bits either way, at
  // every position and thread count.
  const GptConfig cfg{64, 40, 2, 2, 16};
  Gpt model(cfg, 31);
  const int B = 6, V = cfg.vocab;
  Rng rng(8);
  std::vector<std::vector<int>> toks(cfg.ctx, std::vector<int>(B));
  for (auto& col : toks) {
    for (int& t : col) t = static_cast<int>(rng.below(V));
  }
  at_thread_counts([&] {
    Gpt::GenState all = model.gen_begin(B), some = model.gen_begin(B);
    std::vector<float> la(static_cast<std::size_t>(B) * V);
    std::vector<float> ls(la.size(), 7.f);
    std::vector<int> active{0, 1, 2, 3, 4, 5};
    for (int pos = 0; pos < cfg.ctx; ++pos) {
      // Rows stop at positions 3, 9, 20 and 31; rows 2 and 5 run to ctx.
      const int stop_row = pos == 3 ? 4 : pos == 9 ? 0 : pos == 20 ? 3
                         : pos == 31 ? 1 : -1;
      active.erase(std::remove(active.begin(), active.end(), stop_row),
                   active.end());
      model.gen_step(all, toks[pos].data(), la.data());
      const std::vector<float> before = ls;
      model.gen_step(some, toks[pos].data(), ls.data(), active);
      for (int b = 0; b < B; ++b) {
        const std::size_t at = static_cast<std::size_t>(b) * V;
        const bool on =
            std::find(active.begin(), active.end(), b) != active.end();
        // Active rows match the all-rows step; the others are untouched.
        const std::vector<float>& want = on ? la : before;
        ASSERT_EQ(0, std::memcmp(ls.data() + at, want.data() + at,
                                 V * sizeof(float)))
            << "pos=" << pos << " row=" << b;
      }
    }
  });
}

TEST(Kernels, GenerationBeyondOldFixedScratchBound) {
  // The seed used a fixed float[512] attention-score stack buffer in
  // gen_step; a ctx above 512 would have overrun it. The scratch is now
  // sized from the config.
  const GptConfig cfg{32, 520, 1, 2, 8};
  Gpt model(cfg, 9);
  Gpt::GenState st = model.gen_begin(1);
  std::vector<float> logits(cfg.vocab);
  int tok = 1;
  for (int t = 0; t < cfg.ctx; ++t) {
    model.gen_step(st, &tok, logits.data());
    tok = t % cfg.vocab;
  }
  for (int v = 0; v < cfg.vocab; ++v) {
    ASSERT_TRUE(std::isfinite(logits[v])) << v;
  }
}

TEST(KernelsDeathTest, RejectsIndivisibleHeadSplit) {
  // n_embd % n_head != 0 must die loudly at construction, not corrupt
  // memory in the attention head split later.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const GptConfig bad{64, 32, 1, 3, 16};
  EXPECT_DEATH({ Gpt model(bad, 1); }, "divisible by n_head");
}

TEST(KernelsDeathTest, RejectsNonPositiveCtx) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const GptConfig bad{64, 0, 1, 2, 16};
  EXPECT_DEATH({ Gpt model(bad, 1); }, "invalid config");
}
