// Transformer layer kernels for the training path: causal attention,
// layernorm and softmax, split across the kernel pool (ml/kernels.h).
//
// Every kernel here reproduces its *_ref loop in kernels_ref.cpp bit for bit.
// That is why this file is compiled with -ffp-contract=off (CMakeLists.txt):
// contracting a*b+c into an FMA rounds once instead of twice. The loops are
// reshaped only in ways that keep each output element's operations and their
// order — work is split across independent outputs (batch rows, rows,
// channels) and vector lanes run across independent keys, never across a
// sum.
#include <algorithm>
#include <cmath>
#include <vector>

#include "ml/kernels.h"

namespace chatfuzz::ml::kern {

namespace {

/// Per-thread scratch for one attention head: keys and values transposed to
/// [hs, T] so a pass over head dimension i reads all keys with unit stride,
/// plus one row of partial sums.
struct HeadScratch {
  std::vector<float> kt, vt, acc;
};

HeadScratch& head_scratch(int hs, int T) {
  static thread_local HeadScratch s;
  const std::size_t n = static_cast<std::size_t>(hs) * T;
  if (s.kt.size() < n) {
    s.kt.resize(n);
    s.vt.resize(n);
  }
  if (s.acc.size() < static_cast<std::size_t>(T)) s.acc.resize(T);
  return s;
}

/// dst[i * T + t2] = src[t2 * stride + i] for t2 < T, i < hs.
void transpose_head(float* dst, const float* src, int T, int hs,
                    std::size_t stride) {
  for (int t2 = 0; t2 < T; ++t2) {
    const float* row = src + t2 * stride;
    for (int i = 0; i < hs; ++i) {
      dst[static_cast<std::size_t>(i) * T + t2] = row[i];
    }
  }
}

/// dot[t2] = x . (column t2 of xt) for t2 < n. Each lane starts at 0 and
/// adds x[i] * xt[i][t2] in ascending i: the scalar dot product's exact
/// sequence, run for many t2 at once.
void dots(float* dot, const float* x, const float* xt, int T, int hs, int n) {
  for (int t2 = 0; t2 < n; ++t2) dot[t2] = 0.f;
  for (int i = 0; i < hs; ++i) {
    const float xi = x[i];
    const float* row = xt + static_cast<std::size_t>(i) * T;
    for (int t2 = 0; t2 < n; ++t2) dot[t2] += xi * row[t2];
  }
}

/// dpre[t2] += sum_t3 a[t3] * ([t2 == t3] - a[t2]) * da[t3] for t2, t3 < n,
/// the softmax Jacobian. acc[t2] sums its terms in ascending t3, four t3 per
/// pass over t2 so the partial sums stay in registers longer.
void softmax_jacobian(float* dpre, float* acc, const float* a, const float* da,
                      int n) {
  for (int t2 = 0; t2 < n; ++t2) acc[t2] = 0.f;
  int t3 = 0;
  for (; t3 + 4 <= n; t3 += 4) {
    const float a0 = a[t3], a1 = a[t3 + 1], a2 = a[t3 + 2], a3 = a[t3 + 3];
    const float d0 = da[t3], d1 = da[t3 + 1], d2 = da[t3 + 2], d3 = da[t3 + 3];
    for (int t2 = 0; t2 < n; ++t2) {
      const float at2 = a[t2];
      float s = acc[t2];
      s += a0 * ((t2 == t3 ? 1.f : 0.f) - at2) * d0;
      s += a1 * ((t2 == t3 + 1 ? 1.f : 0.f) - at2) * d1;
      s += a2 * ((t2 == t3 + 2 ? 1.f : 0.f) - at2) * d2;
      s += a3 * ((t2 == t3 + 3 ? 1.f : 0.f) - at2) * d3;
      acc[t2] = s;
    }
  }
  for (; t3 < n; ++t3) {
    const float a0 = a[t3], d0 = da[t3];
    for (int t2 = 0; t2 < n; ++t2) {
      acc[t2] += a0 * ((t2 == t3 ? 1.f : 0.f) - a[t2]) * d0;
    }
  }
  for (int t2 = 0; t2 < n; ++t2) dpre[t2] += acc[t2];
}

}  // namespace

void attention_forward(float* out, float* preatt, float* att, const float* qkv,
                       int B, int T, int C, int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  const std::size_t C3 = static_cast<std::size_t>(3) * C;
  const std::size_t work = static_cast<std::size_t>(NH) * T * T * hs;
  parallel_ranges(B, work, [&](int b0, int b1) {
    HeadScratch& s = head_scratch(hs, T);
    for (int b = b0; b < b1; ++b) {
      const float* qkv_b = qkv + static_cast<std::size_t>(b) * T * C3;
      for (int h = 0; h < NH; ++h) {
        transpose_head(s.kt.data(), qkv_b + C + h * hs, T, hs, C3);
        for (int t = 0; t < T; ++t) {
          const std::size_t row =
              (static_cast<std::size_t>(b * NH + h) * T + t) * T;
          float* pre = preatt + row;
          float* a = att + row;
          dots(pre, qkv_b + t * C3 + h * hs, s.kt.data(), T, hs, t + 1);
          float maxv = -1e30f;
          for (int t2 = 0; t2 <= t; ++t2) {
            pre[t2] *= scale;
            if (pre[t2] > maxv) maxv = pre[t2];
          }
          float sum = 0.f;
          for (int t2 = 0; t2 <= t; ++t2) {
            const float e = std::exp(pre[t2] - maxv);
            a[t2] = e;
            sum += e;
          }
          const float inv = sum > 0.f ? 1.f / sum : 0.f;
          for (int t2 = 0; t2 <= t; ++t2) a[t2] *= inv;
          for (int t2 = t + 1; t2 < T; ++t2) {
            pre[t2] = 0.f;
            a[t2] = 0.f;
          }
          float* o = out + (static_cast<std::size_t>(b) * T + t) * C + h * hs;
          for (int i = 0; i < hs; ++i) o[i] = 0.f;
          for (int t2 = 0; t2 <= t; ++t2) {
            const float* v = qkv_b + t2 * C3 + 2 * C + h * hs;
            const float w = a[t2];
            for (int i = 0; i < hs; ++i) o[i] += w * v[i];
          }
        }
      }
    }
  });
}

void attention_backward(float* dqkv, float* dpreatt, float* datt,
                        const float* dout, const float* qkv, const float* att,
                        int B, int T, int C, int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  const std::size_t C3 = static_cast<std::size_t>(3) * C;
  const std::size_t work =
      static_cast<std::size_t>(NH) * T * T * (T / 3 + 3 * hs);
  // The reference walks t outermost and h inside it; heads own disjoint
  // slices of dqkv, so walking h outermost keeps every element's order
  // (ascending t) and lets one transposed V serve a whole head.
  parallel_ranges(B, work, [&](int b0, int b1) {
    HeadScratch& s = head_scratch(hs, T);
    for (int b = b0; b < b1; ++b) {
      const float* qkv_b = qkv + static_cast<std::size_t>(b) * T * C3;
      float* dqkv_b = dqkv + static_cast<std::size_t>(b) * T * C3;
      for (int h = 0; h < NH; ++h) {
        transpose_head(s.vt.data(), qkv_b + 2 * C + h * hs, T, hs, C3);
        for (int t = 0; t < T; ++t) {
          const std::size_t row =
              (static_cast<std::size_t>(b * NH + h) * T + t) * T;
          const float* a = att + row;
          float* da = datt + row;
          float* dpre = dpreatt + row;
          const float* d =
              dout + (static_cast<std::size_t>(b) * T + t) * C + h * hs;
          // through the weighted sum of V
          dots(s.acc.data(), d, s.vt.data(), T, hs, t + 1);
          for (int t2 = 0; t2 <= t; ++t2) {
            float* dv = dqkv_b + t2 * C3 + 2 * C + h * hs;
            const float w = a[t2];
            for (int i = 0; i < hs; ++i) dv[i] += w * d[i];
            da[t2] += s.acc[t2];
          }
          // through the softmax
          softmax_jacobian(dpre, s.acc.data(), a, da, t + 1);
          // through q.k
          const float* q = qkv_b + t * C3 + h * hs;
          float* dq = dqkv_b + t * C3 + h * hs;
          for (int t2 = 0; t2 <= t; ++t2) {
            const float* k = qkv_b + t2 * C3 + C + h * hs;
            float* dk = dqkv_b + t2 * C3 + C + h * hs;
            const float g = dpre[t2] * scale;
            for (int i = 0; i < hs; ++i) {
              dq[i] += g * k[i];
              dk[i] += g * q[i];
            }
          }
        }
      }
    }
  });
}

void layernorm_forward(float* out, float* mean, float* rstd, const float* inp,
                       const float* w, const float* b, const int* rows, int N,
                       int C) {
  parallel_ranges(N, static_cast<std::size_t>(8) * C, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const float* x = inp + static_cast<std::size_t>(rows ? rows[n] : n) * C;
      float m = 0.f;
      for (int c = 0; c < C; ++c) m += x[c];
      m /= static_cast<float>(C);
      float v = 0.f;
      for (int c = 0; c < C; ++c) {
        const float d = x[c] - m;
        v += d * d;
      }
      v /= static_cast<float>(C);
      const float rs = 1.f / std::sqrt(v + 1e-5f);
      float* o = out + static_cast<std::size_t>(n) * C;
      for (int c = 0; c < C; ++c) o[c] = (x[c] - m) * rs * w[c] + b[c];
      mean[n] = m;
      rstd[n] = rs;
    }
  });
}

void layernorm_backward(float* dinp, float* dw, float* db, const float* dout,
                        const float* inp, const float* mean, const float* rstd,
                        const float* w, const int* rows, int N, int C) {
  // dinp: one row per output row.
  parallel_ranges(N, static_cast<std::size_t>(12) * C, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const std::size_t r = static_cast<std::size_t>(rows ? rows[n] : n);
      const float* x = inp + r * C;
      const float* d = dout + static_cast<std::size_t>(n) * C;
      const float m = mean[n], rs = rstd[n];
      float dnorm_mean = 0.f, dnorm_norm_mean = 0.f;
      for (int c = 0; c < C; ++c) {
        const float norm = (x[c] - m) * rs;
        const float dnorm = w[c] * d[c];
        dnorm_mean += dnorm;
        dnorm_norm_mean += dnorm * norm;
      }
      dnorm_mean /= static_cast<float>(C);
      dnorm_norm_mean /= static_cast<float>(C);
      float* di = dinp + r * C;
      for (int c = 0; c < C; ++c) {
        const float norm = (x[c] - m) * rs;
        const float dnorm = w[c] * d[c];
        di[c] += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rs;
      }
    }
  });
  // dw/db sum over rows: each thread owns a channel range and walks the
  // rows in ascending order, as the reference does. The sums run in a
  // private buffer and are stored once, so no thread writes a cache line
  // it shares with a neighbouring channel range row after row.
  parallel_ranges(C, static_cast<std::size_t>(4) * N, [&](int c0, int c1) {
    static thread_local std::vector<float> sums;
    const int w = c1 - c0;
    sums.assign(dw + c0, dw + c1);
    sums.insert(sums.end(), db + c0, db + c1);
    float* sw = sums.data();
    float* sb = sw + w;
    for (int n = 0; n < N; ++n) {
      const std::size_t r = static_cast<std::size_t>(rows ? rows[n] : n);
      const float* x = inp + r * C + c0;
      const float* d = dout + static_cast<std::size_t>(n) * C + c0;
      const float m = mean[n], rs = rstd[n];
      for (int c = 0; c < w; ++c) {
        const float norm = (x[c] - m) * rs;
        sw[c] += norm * d[c];
        sb[c] += d[c];
      }
    }
    std::copy(sw, sw + w, dw + c0);
    std::copy(sb, sb + w, db + c0);
  });
}

void softmax_forward(float* probs, const float* logits, int N, int V) {
  parallel_ranges(N, static_cast<std::size_t>(16) * V, [&](int n0, int n1) {
    for (int n = n0; n < n1; ++n) {
      const float* l = logits + static_cast<std::size_t>(n) * V;
      float* p = probs + static_cast<std::size_t>(n) * V;
      float maxv = -1e30f;
      for (int v = 0; v < V; ++v) maxv = l[v] > maxv ? l[v] : maxv;
      float sum = 0.f;
      for (int v = 0; v < V; ++v) {
        p[v] = std::exp(l[v] - maxv);
        sum += p[v];
      }
      const float inv = 1.f / sum;
      for (int v = 0; v < V; ++v) p[v] *= inv;
    }
  });
}

}  // namespace chatfuzz::ml::kern
