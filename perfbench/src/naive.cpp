//===- perfbench/src/naive.cpp - Reference loop nests ---------------------===//

#include "naive.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pb::naive {

template <class T>
void subdivnet(int64_t N, int64_t F, const T *E, const int64_t *Adj, T *Y) {
  for (int64_t I = 0; I < N; ++I)
    for (int64_t K = 0; K < F; ++K) {
      T Acc = E[I * F + K];
      for (int64_t J = 0; J < 3; ++J) {
        const T A = E[Adj[I * 3 + J] * F + K];
        const T B = E[Adj[I * 3 + (J + 1) % 3] * F + K];
        Acc += A;
        Acc += std::abs(A - B);
      }
      Y[I * F + K] = Acc;
    }
}

template <class T>
void longformer(int64_t N, int64_t D, int64_t W, const T *Q, const T *K,
                const T *V, T *Y) {
  const int64_t Win = 2 * W + 1;
  std::vector<T> Dot(Win);
  for (int64_t J = 0; J < N; ++J) {
    for (int64_t O = -W; O <= W; ++O) {
      const bool In = J + O >= 0 && J + O < N;
      T Acc = In ? T(0) : T(-1e30);
      if (In)
        for (int64_t P = 0; P < D; ++P)
          Acc += Q[J * D + P] * K[(J + O) * D + P];
      Dot[O + W] = Acc;
    }
    const T Mx = *std::max_element(Dot.begin(), Dot.end());
    T Den = 0;
    for (int64_t I = 0; I < Win; ++I) {
      Dot[I] = std::exp(Dot[I] - Mx);
      Den += Dot[I];
    }
    for (int64_t P = 0; P < D; ++P)
      Y[J * D + P] = 0;
    for (int64_t O = -W; O <= W; ++O) {
      if (J + O < 0 || J + O >= N)
        continue;
      const T A = Dot[O + W] / Den;
      for (int64_t P = 0; P < D; ++P)
        Y[J * D + P] += A * V[(J + O) * D + P];
    }
  }
}

template <class T>
void softras(int64_t NF, int64_t NP, double Sigma, const T *Verts,
             const T *Px, const T *Py, T *Img) {
  const T InvSigma = T(1.0 / Sigma);
  for (int64_t P = 0; P < NP; ++P) {
    T S = 0;
    for (int64_t F = 0; F < NF; ++F) {
      T D = 0;
      for (int J = 0; J < 3; ++J) {
        const int J1 = (J + 1) % 3;
        const T VX = Verts[(F * 3 + J) * 2], VY = Verts[(F * 3 + J) * 2 + 1];
        const T EX = Verts[(F * 3 + J1) * 2] - VX;
        const T EY = Verts[(F * 3 + J1) * 2 + 1] - VY;
        const T Cr = (Px[P] - VX) * EY - (Py[P] - VY) * EX;
        D = J == 0 ? Cr : std::min(D, Cr);
      }
      const T Prob = T(1) / (T(1) + std::exp(-D * InvSigma));
      S += std::log(T(1) - Prob * T(0.999));
    }
    Img[P] = T(1) - std::exp(S);
  }
}

void gat(int64_t N, int64_t F, int64_t Deg, const float *H,
         const int64_t *Adj, const float *A1, const float *A2, float *Y) {
  std::vector<float> S1(N, 0.0f), S2(N, 0.0f), P(Deg);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t K = 0; K < F; ++K) {
      S1[I] += A1[K] * H[I * F + K];
      S2[I] += A2[K] * H[I * F + K];
    }
  for (int64_t I = 0; I < N; ++I) {
    float Den = 1e-12f;
    for (int64_t M = 0; M < Deg; ++M) {
      P[M] = 1.0f / (1.0f + std::exp(-(S1[I] + S2[Adj[I * Deg + M]])));
      Den += P[M];
    }
    for (int64_t K = 0; K < F; ++K)
      Y[I * F + K] = 0;
    for (int64_t M = 0; M < Deg; ++M) {
      const float Al = P[M] / Den;
      const float *Hn = H + Adj[I * Deg + M] * F;
      for (int64_t K = 0; K < F; ++K)
        Y[I * F + K] += Al * Hn[K];
    }
  }
}

void sddmm(int64_t Rows, int64_t F, const int64_t *Ptr, const int64_t *Idx,
           const float *Val, const float *A, const float *B, float *Out) {
  for (int64_t I = 0; I < Rows; ++I)
    for (int64_t J = Ptr[I]; J < Ptr[I + 1]; ++J) {
      float Acc = 0.0f;
      for (int64_t K = 0; K < F; ++K)
        Acc += A[I * F + K] * B[Idx[J] * F + K];
      Out[J] = Val[J] * Acc;
    }
}

void segsoftmax(int64_t Rows, int64_t F, const int64_t *Ptr,
                const int64_t *Idx, const float *E, const float *H,
                float *Y) {
  for (int64_t I = 0; I < Rows; ++I) {
    float Mx = -1e30f;
    for (int64_t J = Ptr[I]; J < Ptr[I + 1]; ++J)
      Mx = std::max(Mx, E[J]);
    float Sum = 0.0f;
    for (int64_t J = Ptr[I]; J < Ptr[I + 1]; ++J)
      Sum += std::exp(E[J] - Mx);
    for (int64_t K = 0; K < F; ++K)
      Y[I * F + K] = 0.0f;
    for (int64_t J = Ptr[I]; J < Ptr[I + 1]; ++J) {
      const float Wt = std::exp(E[J] - Mx) / Sum;
      for (int64_t K = 0; K < F; ++K)
        Y[I * F + K] += Wt * H[Idx[J] * F + K];
    }
  }
}

void spmm(int64_t Rows, int64_t F, const int64_t *Ptr, const int64_t *Idx,
          const float *Val, const float *X, float *Y) {
  for (int64_t I = 0; I < Rows; ++I) {
    for (int64_t K = 0; K < F; ++K)
      Y[I * F + K] = 0.0f;
    for (int64_t J = Ptr[I]; J < Ptr[I + 1]; ++J)
      for (int64_t K = 0; K < F; ++K)
        Y[I * F + K] += Val[J] * X[Idx[J] * F + K];
  }
}

template void subdivnet<float>(int64_t, int64_t, const float *,
                               const int64_t *, float *);
template void subdivnet<double>(int64_t, int64_t, const double *,
                                const int64_t *, double *);
template void longformer<float>(int64_t, int64_t, int64_t, const float *,
                                const float *, const float *, float *);
template void longformer<double>(int64_t, int64_t, int64_t, const double *,
                                 const double *, const double *, double *);
template void softras<float>(int64_t, int64_t, double, const float *,
                             const float *, const float *, float *);
template void softras<double>(int64_t, int64_t, double, const double *,
                              const double *, const double *, double *);

} // namespace pb::naive
