"""Dense O(n^2) duration spillover: the reference for the band.

This is the convolution ``scanpp.duration`` used before it summed the
spillover over the pair band: per scanpath, the elapsed times and each
spillover column's kernel go through n x n arrays whose upper triangle is
masked. ``loglik_grad`` evaluates a batch one segment at a time, concatenates
the per-event terms and sums the gradients; like ``duration_loglik_grad``, it
returns the terms as one array, then the gradient. It shares no code with the
package but the kernel ``gamma_kernel`` and the output distribution
``_log_density``, and tests compare ``duration_loglik_grad`` against it.
"""
import numpy as np
from scipy.special import digamma

from scanpp.duration import _log_density, gamma_kernel


def conv_features(onsets, design, spec, params):
    """Per-event convolution features c[i, k] = sum_{m<i} x[m, k] * kernel(t_i - t_m).

    Also the elapsed times t_i - t_m and each column's kernel matrix, both 0
    on and above the diagonal; none below two events.
    """
    n = onsets.shape[0]
    k = spec.n_spill
    feats = np.zeros((n, k))
    if n < 2 or k == 0:
        return feats, None, []
    tri = np.tril(np.ones((n, n), dtype=bool), k=-1)
    tau = np.where(tri, onsets[:, None] - onsets[None, :], 0.0)
    kernels = []
    for kk, col in enumerate(spec.spill_indices):
        kern = np.where(tri, gamma_kernel(tau, float(params.kernel_alpha[kk]),
                                          float(params.kernel_beta[kk]),
                                          float(params.kernel_theta[kk])), 0.0)
        feats[:, kk] = kern @ design[:, col]
        kernels.append(kern)
    return feats, tau, kernels


def markov_features(design, spec):
    """Lagged predictor values of one scanpath, shape (n, lags, spillover)."""
    n = design.shape[0]
    feats = np.zeros((n, spec.lags, spec.n_spill))
    cols = list(spec.spill_indices)
    for j in range(1, spec.lags + 1):
        if j < n:
            feats[j:, j - 1, :] = design[:n - j, cols]
    return feats


def means(onsets, design, spec, params):
    """Mean log-durations of one scanpath, with the features and kernels they used."""
    xi = design @ params.w
    feats, tau, kernels = None, None, []
    if spec.mean_variant == "convolution":
        feats, tau, kernels = conv_features(onsets, design, spec, params)
        if spec.n_spill:
            xi = xi + feats @ params.w_prime
    elif spec.mean_variant == "markov" and spec.n_spill:
        feats = markov_features(design, spec)
        xi = xi + np.einsum("njk,jk->n", feats, params.w_prime)
    return xi, feats, tau, kernels


def path_loglik_grad(onsets, durations, design, spec, params):
    """Per-event terms and gradient of one scanpath."""
    xi, feats, tau, kernels = means(onsets, design, spec, params)
    per, dxi, grads = _log_density(durations, xi, spec, params, grad=True)
    grads["w"] = design.T @ dxi
    if spec.mean_variant == "convolution":
        grads["w_prime"] = feats.T @ dxi
        d_alpha, d_beta, d_theta = np.zeros((3, spec.n_spill))
        # Each kernel matrix is 0 on and above the diagonal, and so is each
        # derivative below, as its factors are finite there.
        for kk, (col, kern) in enumerate(zip(spec.spill_indices, kernels)):
            al = float(params.kernel_alpha[kk])
            be = float(params.kernel_beta[kk])
            th = float(params.kernel_theta[kk])
            z = tau + th
            with np.errstate(divide="ignore", invalid="ignore"):
                logz = np.where(z > 0, np.log(np.maximum(z, 1e-300)), 0.0)
                invz = np.where(z > 0, 1.0 / np.maximum(z, 1e-300), 0.0)
            xcol = design[:, col]
            wk = float(params.w_prime[kk])
            d_alpha[kk] = wk * float(dxi @ ((kern * (np.log(be) - digamma(al) + logz)) @ xcol))
            d_beta[kk] = wk * float(dxi @ ((kern * (al / be - z)) @ xcol))
            d_theta[kk] = wk * float(dxi @ ((kern * ((al - 1.0) * invz - be)) @ xcol))
        grads["kernel_alpha"] = d_alpha
        grads["kernel_beta"] = d_beta
        grads["kernel_theta"] = d_theta
    elif feats is not None:
        grads["w_prime"] = np.einsum("n,njk->jk", dxi, feats)
    else:
        grads["w_prime"] = np.zeros_like(params.w_prime)
    return np.atleast_1d(per), grads


def loglik_grad(pd, spec, params):
    """``duration_loglik_grad`` of a batch, one segment at a time."""
    parts, total = [np.empty(0)], {}
    for lo, m in zip(pd.starts.tolist(), pd.lengths.tolist()):
        per, grads = path_loglik_grad(pd.onsets[lo:lo + m], pd.durations[lo:lo + m],
                                      pd.design[lo:lo + m], spec, params)
        parts.append(per)
        for key, value in grads.items():
            total[key] = total[key] + value if key in total else value
    return np.concatenate(parts), total
