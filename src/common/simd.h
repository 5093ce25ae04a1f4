// Portable 4-lane double wrapper used by the vectorized selectivity check
// (ComputeGlFast), plus the scalar math helpers the cost formulas share.
//
// Vec4dScalar is a plain double[4] with element loops. Compilers
// auto-vectorize the fixed-trip-count loops to SSE2/NEON where available,
// and the four independent lanes software-pipeline on anything; no
// target-specific flags or runtime dispatch are involved.
//
// Every helper is SCRPQO_VEC_INLINE (always_inline) so the loops fold into
// their callers.
//
// The double overloads of VecMax/VecMin/VecSelectGt/VecLog2 carry the exact
// branch semantics of the original scalar cost formulas
// (optimizer/cost_formulas.h). This header is also the only file where the
// effect analyzer's FP rule allows a raw std::log2 call.
#pragma once

#include <cmath>

#if defined(__GNUC__) || defined(__clang__)
#define SCRPQO_VEC_INLINE inline __attribute__((always_inline))
#else
#define SCRPQO_VEC_INLINE inline
#endif

namespace scrpqo {

// ---------------------------------------------------------------------------
// Scalar (double) math: exactly the branch semantics the original cost
// formulas used.
// ---------------------------------------------------------------------------

SCRPQO_VEC_INLINE double VecMax(double a, double b) {
  return a > b ? a : b;
}
SCRPQO_VEC_INLINE double VecMin(double a, double b) {
  return a < b ? a : b;
}
/// `x > t ? a : b`.
SCRPQO_VEC_INLINE double VecSelectGt(double x, double t, double a, double b) {
  return x > t ? a : b;
}
SCRPQO_VEC_INLINE double VecLog2(double x) { return std::log2(x); }

// ---------------------------------------------------------------------------
// Vec4dScalar: four independent double lanes.
// ---------------------------------------------------------------------------

struct Vec4dScalar {
  double v[4];

  Vec4dScalar() = default;
  SCRPQO_VEC_INLINE explicit Vec4dScalar(double x) : v{x, x, x, x} {}

  static SCRPQO_VEC_INLINE Vec4dScalar Load(const double* p) {
    Vec4dScalar r;
    r.v[0] = p[0];
    r.v[1] = p[1];
    r.v[2] = p[2];
    r.v[3] = p[3];
    return r;
  }
};

SCRPQO_VEC_INLINE Vec4dScalar operator*(Vec4dScalar a, Vec4dScalar b) {
  Vec4dScalar r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
SCRPQO_VEC_INLINE Vec4dScalar operator/(Vec4dScalar a, Vec4dScalar b) {
  Vec4dScalar r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}
SCRPQO_VEC_INLINE Vec4dScalar VecMax(Vec4dScalar a, Vec4dScalar b) {
  Vec4dScalar r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
/// Lanewise `x > t ? a : b`.
SCRPQO_VEC_INLINE Vec4dScalar VecSelectGt(Vec4dScalar x, Vec4dScalar t,
                                          Vec4dScalar a, Vec4dScalar b) {
  Vec4dScalar r;
  for (int i = 0; i < 4; ++i) r.v[i] = x.v[i] > t.v[i] ? a.v[i] : b.v[i];
  return r;
}

}  // namespace scrpqo
