#include "nn/packed_forward.h"

#include <cstring>

namespace qpe::nn {

void RepackHeadsKT(const float* k, int rows, int dim, int num_heads,
                   float* kbt) {
  const int dh = dim / num_heads;
  // Row-blocked transpose: a column pass over all rows touches one cache
  // line per row, and every head column repeats it, so an unblocked loop
  // streams the whole K block from L2 once per column. Blocking the rows
  // keeps each block's lines in L1 across the dh column passes. Pure data
  // movement — the order never affects the stored bits.
  constexpr int kRowBlock = 256;
  for (int h = 0; h < num_heads; ++h) {
    const float* src = k + h * dh;
    float* dst = kbt + static_cast<size_t>(h) * dh * rows;
    for (int r0 = 0; r0 < rows; r0 += kRowBlock) {
      const int r1 = r0 + kRowBlock < rows ? r0 + kRowBlock : rows;
      for (int c = 0; c < dh; ++c) {
        float* dcol = dst + static_cast<size_t>(c) * rows;
        for (int r = r0; r < r1; ++r) {
          dcol[r] = src[static_cast<size_t>(r) * dim + c];
        }
      }
    }
  }
}

void RepackHeadsVB(const float* v, int rows, int dim, int num_heads,
                   float* vb) {
  const int dh = dim / num_heads;
  for (int h = 0; h < num_heads; ++h) {
    float* dst = vb + static_cast<size_t>(h) * rows * dh;
    const float* src = v + h * dh;
    for (int r = 0; r < rows; ++r) {
      std::memcpy(dst + static_cast<size_t>(r) * dh,
                  src + static_cast<size_t>(r) * dim, sizeof(float) * dh);
    }
  }
}

}  // namespace qpe::nn
