#ifndef QPE_NN_LOSS_H_
#define QPE_NN_LOSS_H_

#include "nn/tensor.h"

namespace qpe::nn {

// Loss functions composed from autograd ops. Predictions and targets must
// have identical shapes; each returns a scalar ([1,1]) tensor.

inline Tensor MseLoss(const Tensor& prediction, const Tensor& target) {
  return Mean(Square(Sub(prediction, target)));
}

}  // namespace qpe::nn

#endif  // QPE_NN_LOSS_H_
