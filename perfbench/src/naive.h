//===- perfbench/src/naive.h - Reference loop nests --------------*- C++ -*-===//
///
/// \file
/// Plain single-thread loop nests computing the same functions as the
/// FreeTensor programs the benchmark times. They are the references every
/// kernel ratio is taken against and the ground truth every output check
/// compares with, so they include no FreeTensor header and are compiled
/// with fixed flags by perfbench/CMakeLists.txt: a change to `src/` or to
/// the library's build flags cannot move them.
///
/// The float instantiations are timed; the double instantiations of the
/// differentiable programs feed the finite-difference gradient checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_NAIVE_H
#define PERFBENCH_NAIVE_H

#include <cstdint>

namespace pb::naive {

/// y[i,k] = e[i,k] + sum_j e[adj[i,j],k] + |e[adj[i,j],k] - e[adj[i,j+1],k]|.
template <class T>
void subdivnet(int64_t N, int64_t F, const T *E, const int64_t *Adj, T *Y);

/// Sliding-window softmax attention with half-window W.
template <class T>
void longformer(int64_t N, int64_t D, int64_t W, const T *Q, const T *K,
                const T *V, T *Y);

/// Soft silhouette: img[p] = 1 - exp(sum_f ln(1 - .999 sigmoid(d/sigma))).
template <class T>
void softras(int64_t NF, int64_t NP, double Sigma, const T *Verts,
             const T *Px, const T *Py, T *Img);

/// Graph attention on a fixed-degree graph.
void gat(int64_t N, int64_t F, int64_t Deg, const float *H,
         const int64_t *Adj, const float *A1, const float *A2, float *Y);

/// out[j] = val[j] * <a[i,:], b[idx[j],:]> for j in row i's segment.
void sddmm(int64_t Rows, int64_t F, const int64_t *Ptr, const int64_t *Idx,
           const float *Val, const float *A, const float *B, float *Out);

/// y[i,:] = sum_j softmax_seg(e)[j] * h[idx[j],:]; empty rows give zeros.
void segsoftmax(int64_t Rows, int64_t F, const int64_t *Ptr,
                const int64_t *Idx, const float *E, const float *H,
                float *Y);

/// y[i,:] = sum_j val[j] * x[idx[j],:].
void spmm(int64_t Rows, int64_t F, const int64_t *Ptr, const int64_t *Idx,
          const float *Val, const float *X, float *Y);

} // namespace pb::naive

#endif // PERFBENCH_NAIVE_H
