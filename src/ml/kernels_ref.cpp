// Reference kernels: the seed's naive triple loops, verbatim, except that
// tanh, cosh and exp are the exact_* ports (kernels_exact.cpp) rather than
// libm calls, which keeps their bits independent of the installed libm.
// This file is deliberately compiled at the project's base optimization
// level (no -O3 / -march boost — see CMakeLists.txt): it is the parity
// oracle for the vectorized kernels.
#include <cmath>

#include "ml/kernels.h"

namespace chatfuzz::ml::kern {

void matmul_forward_ref(float* out, const float* inp, const float* w,
                        const float* bias, int N, int Cin, int Cout) {
  for (int n = 0; n < N; ++n) {
    const float* x = inp + static_cast<std::size_t>(n) * Cin;
    float* o = out + static_cast<std::size_t>(n) * Cout;
    for (int oc = 0; oc < Cout; ++oc) {
      const float* wr = w + static_cast<std::size_t>(oc) * Cin;
      float acc = bias != nullptr ? bias[oc] : 0.f;
      for (int i = 0; i < Cin; ++i) acc += x[i] * wr[i];
      o[oc] = acc;
    }
  }
}

void matmul_backward_ref(float* dinp, float* dw, float* dbias,
                         const float* dout, const float* inp, const float* w,
                         int N, int Cin, int Cout) {
  for (int n = 0; n < N; ++n) {
    const float* d = dout + static_cast<std::size_t>(n) * Cout;
    float* di = dinp + static_cast<std::size_t>(n) * Cin;
    for (int oc = 0; oc < Cout; ++oc) {
      const float* wr = w + static_cast<std::size_t>(oc) * Cin;
      const float g = d[oc];
      for (int i = 0; i < Cin; ++i) di[i] += g * wr[i];
    }
  }
  for (int n = 0; n < N; ++n) {
    const float* d = dout + static_cast<std::size_t>(n) * Cout;
    const float* x = inp + static_cast<std::size_t>(n) * Cin;
    for (int oc = 0; oc < Cout; ++oc) {
      float* dwr = dw + static_cast<std::size_t>(oc) * Cin;
      const float g = d[oc];
      if (dbias != nullptr) dbias[oc] += g;
      for (int i = 0; i < Cin; ++i) dwr[i] += g * x[i];
    }
  }
}

void gelu_forward_ref(float* out, const float* inp, int N) {
  for (int n = 0; n < N; ++n) out[n] = gelu_scalar(inp[n]);
}

void gelu_backward_ref(float* dinp, const float* inp, const float* dout,
                       int N) {
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  for (int n = 0; n < N; ++n) {
    const float x = inp[n];
    const float cube = 0.044715f * x * x * x;
    const float tanh_arg = kS * (x + cube);
    const float tanh_out = exact_tanhf(tanh_arg);
    const float cosh_v = exact_coshf(tanh_arg);
    const float sech2 = 1.f / (cosh_v * cosh_v);
    const float local =
        0.5f * (1.f + tanh_out) +
        x * 0.5f * sech2 * kS * (1.f + 3.f * 0.044715f * x * x);
    dinp[n] += local * dout[n];
  }
}

// ---- transformer layer loops, as the seed wrote them in gpt.cpp ----------

void layernorm_forward_ref(float* out, float* mean, float* rstd,
                           const float* inp, const float* w, const float* b,
                           int N, int C) {
  for (int n = 0; n < N; ++n) {
    const float* x = inp + n * C;
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
    float* o = out + n * C;
    for (int c = 0; c < C; ++c) o[c] = (x[c] - m) * rs * w[c] + b[c];
    mean[n] = m;
    rstd[n] = rs;
  }
}

void layernorm_backward_ref(float* dinp, float* dw, float* db,
                            const float* dout, const float* inp,
                            const float* mean, const float* rstd,
                            const float* w, int N, int C) {
  for (int n = 0; n < N; ++n) {
    const float* x = inp + n * C;
    const float* d = dout + n * C;
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
    float* di = dinp + n * C;
    for (int c = 0; c < C; ++c) {
      const float norm = (x[c] - m) * rs;
      const float dnorm = w[c] * d[c];
      dw[c] += norm * d[c];
      db[c] += d[c];
      di[c] += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rs;
    }
  }
}

void attention_forward_ref(float* out, float* preatt, float* att,
                           const float* qkv, int B, int T, int C, int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      for (int h = 0; h < NH; ++h) {
        const float* q = qkv + (b * T + t) * 3 * C + h * hs;
        float* pre = preatt + ((b * NH + h) * T + t) * T;
        float* a = att + ((b * NH + h) * T + t) * T;
        float maxv = -1e30f;
        for (int t2 = 0; t2 <= t; ++t2) {
          const float* k = qkv + (b * T + t2) * 3 * C + C + h * hs;
          float dot = 0.f;
          for (int i = 0; i < hs; ++i) dot += q[i] * k[i];
          dot *= scale;
          pre[t2] = dot;
          if (dot > maxv) maxv = dot;
        }
        float sum = 0.f;
        for (int t2 = 0; t2 <= t; ++t2) {
          const float e = exact_expf(pre[t2] - maxv);
          a[t2] = e;
          sum += e;
        }
        const float inv = sum > 0.f ? 1.f / sum : 0.f;
        for (int t2 = 0; t2 <= t; ++t2) a[t2] *= inv;
        for (int t2 = t + 1; t2 < T; ++t2) {
          pre[t2] = 0.f;
          a[t2] = 0.f;
        }
        float* o = out + (b * T + t) * C + h * hs;
        for (int i = 0; i < hs; ++i) o[i] = 0.f;
        for (int t2 = 0; t2 <= t; ++t2) {
          const float* v = qkv + (b * T + t2) * 3 * C + 2 * C + h * hs;
          const float w = a[t2];
          for (int i = 0; i < hs; ++i) o[i] += w * v[i];
        }
      }
    }
  }
}

void attention_backward_ref(float* dqkv, float* dpreatt, float* datt,
                            const float* dout, const float* qkv,
                            const float* att, int B, int T, int C, int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      for (int h = 0; h < NH; ++h) {
        const float* a = att + ((b * NH + h) * T + t) * T;
        float* da = datt + ((b * NH + h) * T + t) * T;
        float* dpre = dpreatt + ((b * NH + h) * T + t) * T;
        const float* d = dout + (b * T + t) * C + h * hs;
        // through weighted sum of V
        for (int t2 = 0; t2 <= t; ++t2) {
          const float* v = qkv + (b * T + t2) * 3 * C + 2 * C + h * hs;
          float* dv = dqkv + (b * T + t2) * 3 * C + 2 * C + h * hs;
          float acc = 0.f;
          for (int i = 0; i < hs; ++i) {
            acc += v[i] * d[i];
            dv[i] += a[t2] * d[i];
          }
          da[t2] += acc;
        }
        // through softmax
        for (int t2 = 0; t2 <= t; ++t2) {
          float acc = 0.f;
          for (int t3 = 0; t3 <= t; ++t3) {
            const float indicator = t2 == t3 ? 1.f : 0.f;
            acc += a[t3] * (indicator - a[t2]) * da[t3];
          }
          dpre[t2] += acc;
        }
        // through q.k
        const float* q = qkv + (b * T + t) * 3 * C + h * hs;
        float* dq = dqkv + (b * T + t) * 3 * C + h * hs;
        for (int t2 = 0; t2 <= t; ++t2) {
          const float* k = qkv + (b * T + t2) * 3 * C + C + h * hs;
          float* dk = dqkv + (b * T + t2) * 3 * C + C + h * hs;
          const float g = dpre[t2] * scale;
          for (int i = 0; i < hs; ++i) {
            dq[i] += g * k[i];
            dk[i] += g * q[i];
          }
        }
      }
    }
  }
}

void softmax_forward_ref(float* probs, const float* logits, int N, int V) {
  for (int n = 0; n < N; ++n) {
    const float* l = logits + n * V;
    float* p = probs + n * V;
    float maxv = -1e30f;
    for (int v = 0; v < V; ++v) maxv = l[v] > maxv ? l[v] : maxv;
    float sum = 0.f;
    for (int v = 0; v < V; ++v) {
      p[v] = exact_expf(l[v] - maxv);
      sum += p[v];
    }
    const float inv = 1.f / sum;
    for (int v = 0; v < V; ++v) p[v] *= inv;
  }
}

}  // namespace chatfuzz::ml::kern
