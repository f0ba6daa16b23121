// AdamW over the flat parameter/gradient buffers of Gpt.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/kernels.h"
#include "util/serialize.h"

namespace chatfuzz::ml {

struct AdamWConfig {
  float lr = 3e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
  float grad_clip = 1.0f;  // global-norm clip; <= 0 disables
};

class AdamW {
 public:
  explicit AdamW(std::size_t num_params, AdamWConfig cfg = {})
      : cfg_(cfg), m_(num_params, 0.f), v_(num_params, 0.f) {}

  const AdamWConfig& config() const { return cfg_; }
  void set_lr(float lr) { cfg_.lr = lr; }

  /// One update step: params -= lr * mhat / (sqrt(vhat) + eps) + decay.
  /// The global-norm sum is one serial double loop in ascending order; the
  /// clip scale and the per-parameter update are element-wise and run on
  /// the kernel pool, so the result is the same bits at any thread count.
  void step(std::vector<float>& params, std::vector<float>& grads) {
    ++t_;
    const int n = static_cast<int>(params.size());
    if (cfg_.grad_clip > 0.f) {
      double norm2 = 0.0;
      for (float g : grads) norm2 += static_cast<double>(g) * g;
      const double norm = std::sqrt(norm2);
      if (norm > cfg_.grad_clip) {
        const float scale = cfg_.grad_clip / static_cast<float>(norm);
        kern::parallel_ranges(n, 2, [&](int lo, int hi) {
          for (int i = lo; i < hi; ++i) grads[i] *= scale;
        });
      }
    }
    const float bc1 = 1.f - std::pow(cfg_.beta1, static_cast<float>(t_));
    const float bc2 = 1.f - std::pow(cfg_.beta2, static_cast<float>(t_));
    kern::parallel_ranges(n, 16, [&](int lo, int hi) {
      for (int i = lo; i < hi; ++i) {
        m_[i] = cfg_.beta1 * m_[i] + (1.f - cfg_.beta1) * grads[i];
        v_[i] = cfg_.beta2 * v_[i] + (1.f - cfg_.beta2) * grads[i] * grads[i];
        const float mhat = m_[i] / bc1;
        const float vhat = v_[i] / bc2;
        params[i] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) +
                                cfg_.weight_decay * params[i]);
      }
    });
  }

  std::uint64_t steps() const { return t_; }

  /// Snapshot / restore the optimizer moments and step count (bias
  /// correction depends on t_, so resumed training continues exactly).
  void save_state(ser::Writer& w) const {
    w.u64(t_);
    w.vec_f32(m_);
    w.vec_f32(v_);
  }
  bool restore_state(ser::Reader& r) {
    const std::uint64_t t = r.u64();
    std::vector<float> m = r.vec_f32();
    std::vector<float> v = r.vec_f32();
    if (!r.ok() || m.size() != m_.size() || v.size() != v_.size()) {
      r.fail();
      return false;
    }
    t_ = t;
    m_ = std::move(m);
    v_ = std::move(v);
    return true;
  }

 private:
  AdamWConfig cfg_;
  std::uint64_t t_ = 0;
  std::vector<float> m_, v_;
};

}  // namespace chatfuzz::ml
