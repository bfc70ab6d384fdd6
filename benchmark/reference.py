"""Independent evaluation of the two criteria, for checking the program.

Traces Tr[rho G] of product operators G are taken per component: from the
amplitudes of a pure state (G applied site by site to the state vector),
analytically for white noise, and for a dense matrix by contracting the
row and column index of each site with the flattened factor.  None of this
goes through kunent, and the pure and noise routes share no algorithm with
the program's dense kernels.

An operator batch is a list over sites of arrays of shape (C, d_i, d_i):
C product operators evaluated at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

CHUNK_ENTRIES = 2**16


def _pure_expect(amp: np.ndarray, dims, batch) -> np.ndarray:
    c = batch[0].shape[0]
    state = np.broadcast_to(amp.reshape(dims), (c, *dims))
    for i, f in enumerate(batch):
        moved = np.moveaxis(state, i + 1, -1)
        shape = moved.shape
        out = moved.reshape(c, -1, shape[-1]) @ np.transpose(f, (0, 2, 1))
        state = np.moveaxis(out.reshape(shape), -1, i + 1)
    return state.reshape(c, -1) @ amp.conj()


def _noise_expect(dims, batch) -> np.ndarray:
    out = np.ones(batch[0].shape[0], dtype=complex)
    for f in batch:
        out = out * np.trace(f, axis1=1, axis2=2)
    return out / prod(dims)


def dense_expect(mat: np.ndarray, dims, batch) -> np.ndarray:
    """Tr[rho G] for a dense rho: sum over a_i, b_i of rho[a, b] prod g_i[b_i, a_i]."""
    n = len(dims)
    tensor = mat.reshape(*dims, *dims)
    tensor = np.transpose(tensor, [ax for i in range(n) for ax in (i, n + i)])
    flat = tensor.reshape([d * d for d in dims])
    out = np.einsum("cx,x...->c...", np.transpose(batch[0], (0, 2, 1)).reshape(-1, dims[0] ** 2), flat)
    for i in range(1, n):
        vec = np.transpose(batch[i], (0, 2, 1)).reshape(-1, dims[i] ** 2)
        out = np.einsum("cx,cx...->c...", vec, out)
    return out


def expect(state, dims, batch) -> np.ndarray:
    """Tr[rho G_c] for each operator c of `batch`; `state` is an `inputs.Mixture`
    or a dense matrix.

    Operators are taken in chunks of at most CHUNK_ENTRIES working-array
    entries, so checking adds little to the peak memory of the run.
    """
    dense = isinstance(state, np.ndarray)
    per_op = prod(dims) ** 2 // dims[0] ** 2 if dense else prod(dims)
    step = max(1, CHUNK_ENTRIES // per_op)
    parts = []
    for lo in range(0, batch[0].shape[0], step):
        chunk = [f[lo : lo + step] for f in batch]
        if dense:
            parts.append(dense_expect(state, dims, chunk))
            continue
        out = state.noise * _noise_expect(dims, chunk)
        for w, amp in state.pure:
            out = out + w * _pure_expect(amp, dims, chunk)
        parts.append(out)
    return np.concatenate(parts)


def _gram(f):
    return f @ f.conj().T


# ---------------------------------------------------------------- Theorem 1


@dataclass
class T1Bundle:
    cross: complex
    subset: np.ndarray  # indexed by bitmask, bit i set: y-factor on site i+1


def t1_bundle(state, dims, x, y) -> T1Bundle:
    """Tr[rho Y X^dag] and the 2^N subset traces, as one operator batch."""
    masks = np.arange(2 ** len(dims))
    batch = []
    for i, (fx, fy) in enumerate(zip(x, y)):
        on = (masks >> i & 1).astype(bool)[:, None, None]
        subsets = np.where(on, _gram(fy), _gram(fx))
        batch.append(np.concatenate([(fy @ fx.conj().T)[None], subsets]))
    values = expect(state, dims, batch)
    return T1Bundle(complex(values[0]), values[1:].real)


def t1_values(b: T1Bundle, k: int) -> dict:
    full = b.subset.size - 1
    s = np.maximum(b.subset, 0.0)
    terms = np.sqrt(s[1:full] * s[full - 1 : 0 : -1])
    lhs = abs(b.cross)
    rhs = float(terms.sum())
    scaled = (2 ** (k + 1) - 2) * lhs
    return {"lhs": lhs, "rhs": rhs, "margin": scaled - rhs, "scale": max(scaled, rhs),
            "terms": terms}


# ---------------------------------------------------------------- Theorem 2


@dataclass
class T2Bundle:
    cross: np.ndarray  # [s, t, i, j]
    pair: np.ndarray  # [s, t, i, j]
    site: np.ndarray  # [s, i]
    base: float


def t2_bundle(state, dims, x, omegas) -> T2Bundle:
    """Every trace of the site-probe inequality, as one operator batch.

    Each operator carries x x^dag on every site except at most two, i and j
    (index -1 where absent), which carry the substituted factors.
    """
    n, big_t = len(dims), len(omegas)
    x = np.asarray(x)
    om = np.asarray(omegas)
    xx = x @ np.conj(np.transpose(x, (0, 2, 1)))
    oo = om @ np.conj(np.transpose(om, (0, 2, 1)))
    s, t, i, j = (a.ravel() for a in np.meshgrid(
        np.arange(big_t), np.arange(big_t), np.arange(n), np.arange(n), indexing="ij"))
    off = i != j
    s, t, i, j = s[off], t[off], i[off], j[off]
    site_s, site_i = (a.ravel() for a in np.meshgrid(np.arange(big_t), np.arange(n), indexing="ij"))
    none = np.full(1, -1)
    first = np.concatenate([none, site_i, i, i])
    second = np.concatenate([none, np.full(site_i.size, -1), j, j])
    eye = np.eye(x.shape[1])[None]
    sub_first = np.concatenate([eye, oo[site_s],
                                x[i] @ np.conj(np.transpose(om[s], (0, 2, 1))), oo[s]])
    sub_second = np.concatenate([eye, eye.repeat(site_i.size, 0),
                                 om[t] @ np.conj(np.transpose(x[j], (0, 2, 1))), oo[t]])
    batch = []
    for m in range(n):
        stack = np.repeat(xx[m][None], first.size, axis=0)
        stack[first == m] = sub_first[first == m]
        stack[second == m] = sub_second[second == m]
        batch.append(stack)
    values = expect(state, dims, batch)
    ncross = s.size
    cross = np.zeros((big_t, big_t, n, n), dtype=complex)
    pair = np.zeros((big_t, big_t, n, n))
    site = np.zeros((big_t, n))
    site[site_s, site_i] = values[1 : 1 + site_i.size].real
    cross[s, t, i, j] = values[1 + site_i.size : 1 + site_i.size + ncross]
    pair[s, t, i, j] = values[1 + site_i.size + ncross :].real
    return T2Bundle(cross, pair, site, float(values[0].real))


def t2_values(b: T2Bundle, k: int) -> dict:
    big_t, _, n, _ = b.cross.shape
    off = ~np.eye(n, dtype=bool)
    base = max(b.base, 0.0)
    lhs = float(np.abs(b.cross)[:, :, off].sum())
    rhs_pairs = float(np.sqrt(base * np.maximum(b.pair, 0.0)[:, :, off]).sum())
    rhs_sites = big_t * (n - k - 1) * float(np.maximum(b.site, 0.0).sum())
    rhs = rhs_pairs + rhs_sites
    return {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs, "scale": max(lhs, rhs),
            "parts": (lhs, rhs_pairs, rhs_sites, base)}


def t2_k1_values(b: T2Bundle) -> dict:
    """Per-tuple k = 1 form: largest |cross|^2 - base * pair over tuples,
    with every tuple's (lhs, rhs) so a tie for the largest can be resolved."""
    n = b.cross.shape[2]
    off = ~np.eye(n, dtype=bool)
    lhs = (np.abs(b.cross) ** 2)[:, :, off].ravel()
    rhs = (max(b.base, 0.0) * np.maximum(b.pair, 0.0))[:, :, off].ravel()
    margins = lhs - rhs
    return {"lhs": float(lhs[np.argmax(margins)]), "rhs": float(rhs[np.argmax(margins)]),
            "margin": float(margins.max()), "tuples": (lhs, rhs, margins)}


def combine(bundles, weights):
    """Bundle of a mixture from the bundles of its components (linearity)."""
    first = bundles[0]
    fields = first.__dataclass_fields__
    return type(first)(**{
        name: sum(w * getattr(b, name) for w, b in zip(weights, bundles)) for name in fields
    })


# ---------------------------------------------------------------- closed forms


def ghz_margin(n: int, k: int, p: float) -> float:
    """Theorem-1 margin of the GHZ probe on p|GHZ_n><GHZ_n| + (1-p) I/2^n."""
    return (2 ** (k + 1) - 2) * p / 2 - (2**n - 2) * (1 - p) / 2**n


def ghz_threshold(n: int, k: int) -> float:
    c = (2**n - 2) / 2**n
    return c / (2**k - 1 + c)


def w_threshold(n: int, k: int, d: int) -> float:
    num = n * (d - 1) * (2 * n - k - 2)
    return num / (k * d**n + num)
