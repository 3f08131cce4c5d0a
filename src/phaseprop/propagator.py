"""Semiclassical propagation: thawed packets, the phase-space kernel,
and grid propagators in both representations.

For Hamiltonians that are at most quadratic the kernel below is the
exact flow kernel of the phase-space evolution restricted to the
analyzed subspace; for general Hamiltonians it is the leading
semiclassical approximation.  All branch-sensitive square roots are
taken through continuously tracked logarithms carried by the
trajectory bundle, never by principal-branch evaluation of endpoint
data.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import (CausticError, ConfigurationError, EhrenfestWarning,
                     _warn_at_caller)
from .flow import (FlowOptions, SiegelMatrix, TrajectoryBundle,
                   _anisotropy, _check_siegel, _ehrenfest_crossings, _method,
                   _real_jacobian, _sample_orbits, _step_grid, _symplectic,
                   ehrenfest_guard, flow_batch, integrate_characteristics)
from .models import HamiltonianModel, PhasePoint
from .transform import (_PAD, ComplexField, _checked_axis, _clip_momentum,
                        _edge_ratio, _momentum_scale, _padded_axis, _phase_table,
                        _support, wave_packet_transform)

__all__ = [
    "propagate_packet", "eval_packet",
    "double_anisotropy_Q", "kernel_Ksc", "apply_propagator",
    "position_space_solution", "van_vleck_kernel",
]


def propagate_packet(model: HamiltonianModel, X0: PhasePoint, T: float,
                     hbar: float, opts: FlowOptions | None = None
                     ) -> TrajectoryBundle:
    """Carry the packet centered at X0 along its orbit up to time T.  The
    orbit's bundle, which carries ``hbar``, is the packet's record: at each
    stored time an exact Gaussian of unit norm (:func:`eval_packet`)."""
    return integrate_characteristics(model, X0, T, replace(opts or FlowOptions(), hbar=hbar))


def eval_packet(bundle: TrajectoryBundle, t: float, x) -> np.ndarray:
    """Evaluate the packet that :func:`propagate_packet` carried along
    ``bundle`` at position samples ``x``.

    ``(pi hbar)^(-d/4) a(t) exp{(i/hbar)(Act + p_0.q_0/2 + p_t.(x-q_t)
    + (x-q_t).Z_t (x-q_t)/2)}`` with ``a(t) = exp(-log det A / 2)``.
    The static gauge term ``p_0.q_0/2`` is the initial packet's own and
    does not transport — the dynamical phase sits entirely in ``Act``.
    """
    hbar = bundle.hbar
    if hbar is None:
        raise ConfigurationError("eval_packet needs a bundle that carries hbar")
    i = bundle.index_of(t)
    q0, p0, qt, pt = bundle.q[0], bundle.p[0], bundle.q[i], bundle.p[i]
    Z = _anisotropy(bundle.A[i], bundle.B[i])
    a = np.exp(-0.5 * bundle.logdetA[i])
    act = bundle.action[i]
    x = np.asarray(x, dtype=float)
    d = qt.size
    if d == 1:
        dx = x - qt[0]
        phase = act + p0[0] * q0[0] / 2 + pt[0] * dx + 0.5 * Z[0, 0] * dx ** 2
    else:
        dx = x - qt
        quad = np.einsum("...i,ij,...j->...", dx, Z, dx)
        phase = act + (p0 @ q0) / 2 + dx @ pt + 0.5 * quad
    return (np.pi * hbar) ** (-d / 4) * a * np.exp(1j / hbar * phase)


def double_anisotropy_Q(Z) -> SiegelMatrix:
    """Doubled anisotropy form on phase space.

    ``Q(Z) = [[i(I - R), I/2 - R], [I/2 - R, iR]]`` with
    ``R = (I - iZ)^{-1}``; maps the Siegel half-space of packet widths
    into the Siegel half-space on the doubled variables, with the
    isotropic fixed point ``Q(iI) = (i/2) I``.
    """
    M = Z.M if isinstance(Z, SiegelMatrix) else np.atleast_2d(np.asarray(Z, dtype=complex))
    return SiegelMatrix(_doubled(M))


def _doubled(Z: np.ndarray) -> np.ndarray:
    """``Q(Z)`` of one width matrix or a stack, with the Siegel checks
    over the whole stack."""
    I = np.eye(Z.shape[-1])
    R = np.linalg.inv(I - 1j * Z)
    off = 0.5 * I - R  # both off-diagonal blocks
    Q = np.concatenate([np.concatenate([1j * (I - R), off], axis=-1),
                        np.concatenate([off, 1j * R], axis=-1)], axis=-2)
    _check_siegel(Q)
    return Q


class _Kernel:
    """The kernel ``K(X, Y_s, t)`` of :func:`kernel_Ksc` for the sources
    ``Y_s = (eta_s, xi_s)``, the rows of ``eta`` and ``xi``, from the
    endpoints ``e`` of their orbits (one :func:`flow_batch`), at targets
    ``X = (q, p)`` along the last axis of an array: one exponential per
    (target, source) pair.  It serves :func:`kernel_Ksc`, ``kernel-dump``
    and the WKB phase; :func:`_integrated_sum` sums the same kernel over a
    grid."""

    def __init__(self, eta, xi, e):
        self.Yt = np.concatenate([e.q, e.p], axis=1)
        self.JYt = _symplectic(e.q.shape[1]) @ self.Yt.T
        self.Q = _doubled(_anisotropy(e.A, e.B))
        # the source-only phase Act + (xi.eta - xi_t.eta_t)/2
        xi_eta = np.reshape(np.multiply(xi, eta), e.q.shape)
        self.base = e.action + 0.5 * np.sum(xi_eta - e.p * e.q, axis=1)
        self.logdet_w = e.logdet_w

    @classmethod
    def launched(cls, model, eta, xi, t: float, opts: FlowOptions | None = None):
        """The kernel of the sources at time ``t >= 0``."""
        if t < 0:
            raise ConfigurationError(f"t must be nonnegative, got {t}")
        return cls(eta, xi, flow_batch(model, eta, xi, t, opts))

    def phase(self, X: np.ndarray) -> np.ndarray:
        """The phase of ``K``, with a last axis over the sources."""
        n = self.Yt.shape[1]
        v = [X[..., k, None] - self.Yt[:, k] for k in range(n)]
        quad = sum(v[i] * ((2 - (i == j)) * self.Q[:, i, j] * v[j])
                   for i in range(n) for j in range(i, n))
        return self.base + 0.5 * (X @ self.JYt + quad)

    def log_prefactor(self, hbar: float) -> np.ndarray:
        """The log of ``(2 pi hbar)^(-d) 2^(d/2) det(A - iB)^(-1/2)``, per
        source."""
        d = self.Yt.shape[1] / 2
        return d * np.log(2 ** 0.5 / (2 * np.pi * hbar)) - 0.5 * self.logdet_w

    def values(self, X: np.ndarray, hbar: float) -> np.ndarray:
        return np.exp(self.log_prefactor(hbar) + 1j / hbar * self.phase(X))


def kernel_Ksc(X: PhasePoint, Y: PhasePoint, t: float,
               model: HamiltonianModel, hbar: float,
               opts: FlowOptions | None = None) -> complex:
    """Semiclassical phase-space kernel ``K(X, Y, t)``.

    Built from the orbit launched at the source point Y: with
    ``Y_t = (eta_t, xi_t)``, action ``Act``, frame ``(A, B)`` and
    ``Q = Q(B A^{-1})``,

    ``K = (2 pi hbar)^(-d) 2^(d/2) exp(-log det(A - iB)/2) *
    exp{(i/hbar)(Act + (xi.eta - xi_t.eta_t)/2 + X.J Y_t / 2
    + (X - Y_t).Q (X - Y_t)/2)}``.

    At t = 0 this reduces identically to the reproducing kernel.
    """
    kernel = _Kernel.launched(model, Y.q, Y.p, t, opts)
    return complex(kernel.values(X.as_vector(), hbar)[0])


def _check_input(field: ComplexField, rank: int, times, caller: str, name: str) -> None:
    """The entry checks of the grid propagators, in order: the field's rank,
    ``times >= 0`` and a field that is not zero everywhere."""
    if field.rank != rank:
        raise ConfigurationError(f"{caller} expects a rank-{rank} field")
    if min(times, default=0.0) < 0:
        raise ConfigurationError(f"t must be nonnegative, got {min(times)}")
    if not field.values.any():
        raise ConfigurationError(f"{name} is zero everywhere: nothing to propagate")


def _kept_sources(field: ComplexField):
    """The grid indices ``(iq, ip)``, in row-major order, of the sources above
    1e-13 of the field's peak modulus, and their quadrature weights."""
    mag = np.abs(field.values)
    iq, ip = np.nonzero(mag > 1e-13 * mag.max())
    return iq, ip, field.values[iq, ip] * (field.spacing(0) * field.spacing(1))


def _derive_out_axes(e, inside, hbar):
    """The derived output grid: the padded range (:func:`_padded_axis`) of
    the images, among the endpoints ``e``, of the sources ``inside`` the
    input's support (:func:`_support`)."""
    q, p = e.q[inside, 0], e.p[inside, 0]
    return (_padded_axis(float(q.min()), float(q.max()), hbar),
            _padded_axis(float(p.min()), float(p.max()), hbar))


def _guarded_orbits(model, Q, P, W, times, hbar, opts):
    """Yield the endpoints at each of the ascending ``times >= 0`` of the
    orbits from the 1-D arrays ``Q``, ``P``, as :func:`flow_batch` gives
    them, from one :func:`_sample_orbits` pass.  Before a time ``t > 0``'s,
    warns, at the line that called the grid propagator, of each Ehrenfest
    crossing on ``[0, t]`` of the heaviest source's orbit (largest ``|W|``):
    its row of an rk4 pass, else its own bundle (``t/200`` steps on closed forms)."""
    opts = opts or FlowOptions()
    method, g = _method(model, opts), int(np.argmax(np.abs(W)))
    if method == "rk4":  # the pass steps every node of the times' grid anyway
        grid, ends = _step_grid(np.concatenate([[0.0], times]), opts.step)
        A, B = [], []
        for i, s in enumerate(_sample_orbits(model, Q[:, None], P[:, None], grid, opts)):
            A.append(s.A[g])
            B.append(s.B[g])
            for _ in range(ends[1:].count(i)):  # each of the times that lands on node i
                if grid[i] > 0:
                    for msg in _ehrenfest_crossings(grid[:i + 1], np.stack(A), np.stack(B), hbar):
                        _warn_at_caller(msg, EhrenfestWarning)
                yield s
        return
    exact = method == "exact"
    states = _sample_orbits(model, Q[:, None], P[:, None],
                            times if exact else np.concatenate([[0.0], times]), opts)
    if not exact:
        next(states)  # the sources at t = 0
    for t, e in zip(times, states):
        if t > 0:
            guard = replace(opts, step=t / 200 if exact else opts.step, hbar=hbar)
            for msg in ehrenfest_guard(integrate_characteristics(
                    model, PhasePoint(Q[g], P[g]), t, guard)):
                _warn_at_caller(msg, EhrenfestWarning)
        yield e


# Largest real part of an exponent in the tables of the separable sums.  The
# product of a tile's tables (four in the kernel sum, two in the position
# synthesis) and its rescaling are each at most e^(4 x 60) in modulus, so
# every term that matters to double precision stays between about 1e-224 and
# 1e+105: far from underflow and overflow.  The two factors that
# transform._phase_table multiplies into each table are bounded by the same
# exponent.
_TABLE_EXPONENT = 60.0
# Most output nodes in one tile: a table row per node over a grid line per
# source, so a tile's tables over a 237-line box stay near 1 MB each.
_TILE_NODES = 256


def _tiles(axis: np.ndarray, reach: float, hbar: float) -> list:
    """Split an output axis into runs of half-width at most
    ``_TABLE_EXPONENT hbar / reach`` and of at most ``_TILE_NODES`` nodes."""
    n = math.ceil((axis[-1] - axis[0]) * reach / (2 * _TABLE_EXPONENT * hbar))
    n = max(n, math.ceil(axis.size / _TILE_NODES))
    return np.array_split(np.arange(axis.size), min(max(n, 1), axis.size))


class _SourceBox(NamedTuple):
    """Kept sources of a tensor grid under an affine flow, centred on their
    bounding box.  ``M`` is the real flow Jacobian that every orbit shares
    and ``half`` the box's half-widths.  ``yq``, ``yp`` are the box's grid
    lines less its centre ``ybar``, and ``jq``, ``jp`` each source's lines,
    so that a source sits at ``ybar + y'`` with ``y' = (yq[jq], yp[jp])``.
    Its image is ``Ybt + v`` with ``v = M y'`` (shape ``(2, N)``), where
    ``Ybt`` is the image of ``ybar``."""

    M: np.ndarray
    half: np.ndarray
    yq: np.ndarray
    yp: np.ndarray
    jq: np.ndarray
    jp: np.ndarray
    v: np.ndarray
    Ybt: np.ndarray


def _source_box(e, qs, ps, iq, ip) -> _SourceBox:
    """The box geometry of the sources ``(qs[iq], ps[ip])`` from their
    endpoints ``e`` (one :func:`flow_batch` of an affine flow)."""
    M = _real_jacobian(e.A[0], e.B[0])
    q0, q1, p0, p1 = iq.min(), iq.max(), ip.min(), ip.max()
    ybar = 0.5 * np.array([qs[q0] + qs[q1], ps[p0] + ps[p1]])
    yq, yp = qs[q0:q1 + 1] - ybar[0], ps[p0:p1 + 1] - ybar[1]
    jq, jp = iq - q0, ip - p0
    v = M @ np.stack([yq[jq], yp[jp]])
    # the common offset of the images, averaged over the sources' round-off
    Ybt = np.mean(np.stack([e.q[:, 0], e.p[:, 0]]) - v, axis=1)
    return _SourceBox(M, 0.5 * np.array([qs[q1] - qs[q0], ps[p1] - ps[p0]]),
                      yq, yp, jq, jp, v, Ybt)


# The windowed sums drop a term only past the reach where its Gaussian
# factor falls below e^-_WINDOW_EXPONENT = 4.2e-18, well under the double
# epsilon.
_WINDOW_EXPONENT = 40.0


def _reach(hbar: float, im_z) -> float:
    """Distance from its image past which a packet's (or the kernel's)
    Gaussian factor falls below ``e^-_WINDOW_EXPONENT``, for the least of
    ``im_z``: the narrowest ``Im z``, or the eigenvalues of ``Im Q``."""
    return math.sqrt(2 * hbar * _WINDOW_EXPONENT / np.min(im_z))


def _in_reach(images, lo: float, hi: float, reach: float) -> slice:
    """The run of the sorted ``images`` within ``reach`` of ``[lo, hi]``."""
    return slice(np.searchsorted(images, lo - reach),
                 np.searchsorted(images, hi + reach, "right"))


def _affine_sum(e, hbar, qs, ps, iq, ip, Wg, qo, po):
    """Kernel sum for an affine flow ``Y_t = M Y + c`` as matrix products,
    from the sources' endpoints ``e`` (one :func:`flow_batch`).

    All sources share the frame, hence ``M`` and ``Q``.  In coordinates
    centred on an output tile, ``X = xbar + x'``, and on the kept-source box
    (:func:`_source_box`), ``Y = ybar + y'``, the kernel exponent is a
    target-only part, a source-only part and the bilinear ``x'.K y'`` with
    ``K = (J/2 - Q) M``.  Over the tensor source grid the bilinear factor
    is four exponential tables ``exp{(i/hbar) K_ab x'_a y'_b}``, and the
    sum over sources of one tile is the product ``W @ E^T`` of their
    gathered products.  Each table comes from two short factor tables
    (:func:`_phase_table`), at about ``2 sqrt(n)`` exponentials per node
    over ``n`` grid lines.  Tiles are narrow enough that no table exponent,
    and so no factor's, has a real part above ``_TABLE_EXPONENT``.  The
    target and source factors are scaled to peak modulus 1; because the
    kernel modulus never exceeds its prefactor, the two scales multiply to
    at most ``e^(4 _TABLE_EXPONENT)``.

    ``|K| <= pref exp{-lambda |X - Y_t|^2 / (2 hbar)}``, with ``pref`` the
    kernel's prefactor and ``lambda`` the least eigenvalue of ``Im Q``.  So a
    tile pair keeps the sources whose image ``Y_t`` lies within ``R``
    (:func:`_reach` of ``lambda``) of the pair's range in ``q`` and in
    ``p``: with the sources sorted by ``q_t``, a contiguous run for each
    ``q`` tile (:func:`_in_reach`), masked in ``p_t`` for each pair.  Only
    the kept sources take a ``sigma``, an ``e^sigma``, gathered table
    columns and a share of ``W @ E^T``; a pair that keeps none is exactly 0.
    A term dropped at a kept node is at most ``e^-40 |W_s|`` times ``pref``,
    as :func:`_separable_synthesis` drops them.
    """
    M, half, yq, yp, jq, jp, v, Ybt = _source_box(e, qs, ps, iq, ip)
    Q = _doubled(_anisotropy(e.A[0], e.B[0]))
    J = _symplectic(1)
    K = (0.5 * J - Q) @ M

    Y = np.stack([qs[iq], ps[ip]])
    Yt = np.stack([e.q[:, 0], e.p[:, 0]])
    # source-only exponent: (i/hbar)(Act + (xi.eta - xi_t.eta_t)/2 + v.Q v/2)
    base = 1j / hbar * (e.action + 0.5 * (Y[0] * Y[1] - Yt[0] * Yt[1])
                        + 0.5 * np.einsum("in,ij,jn->n", v, Q, v))
    iv = 1j / hbar * v
    amp = (2 * np.pi * hbar) ** (-1) * 2 ** 0.5 * np.exp(-0.5 * e.logdet_w[0])

    qt, pt = Ybt[:, None] + v
    order = np.argsort(qt, kind="stable")
    qt, pt, base, iv, jq, jp, Wg = (qt[order], pt[order], base[order], iv[:, order],
                                    jq[order], jp[order], Wg[order])
    R = _reach(hbar, np.linalg.eigvalsh(Q.imag))
    spread = np.max(np.abs(K.imag) * half, axis=1)
    p_tiles = []
    for rp in _tiles(po, spread[1], hbar):
        xp = po[rp]
        dp = xp - 0.5 * (xp[0] + xp[-1])
        E = (_phase_table(dp, yq, 1j / hbar * K[1, 0])[:, jq]
             * _phase_table(dp, yp, 1j / hbar * K[1, 1])[:, jp])
        p_tiles.append((rp, xp, E, (pt >= xp[0] - R) & (pt <= xp[-1] + R)))
    out = np.zeros((qo.size, po.size), dtype=complex)
    for rq in _tiles(qo, spread[0], hbar):
        xq = qo[rq]
        s = _in_reach(qt, xq[0], xq[-1], R)
        if s.start == s.stop:
            continue
        dq = xq - 0.5 * (xq[0] + xq[-1])
        Tq = (_phase_table(dq, yq, 1j / hbar * K[0, 0])[:, jq[s]]
              * _phase_table(dq, yp, 1j / hbar * K[0, 1])[:, jp[s]])
        uq = xq[:, None] - Ybt[0]
        for rp, xp, E, near in p_tiles:
            m = np.flatnonzero(near[s])
            if not m.size:
                continue
            k = s.start + m
            xbar = np.array([xq[0] + xq[-1], xp[0] + xp[-1]]) / 2
            up = xp[None, :] - Ybt[1]
            # target-only: X.J Ybar_t/2 + (X - Ybar_t).Q (X - Ybar_t)/2
            tau = 1j / hbar * (0.5 * (xq[:, None] * Ybt[1] - xp[None, :] * Ybt[0])
                               + 0.5 * (Q[0, 0] * uq ** 2 + 2 * Q[0, 1] * uq * up
                                        + Q[1, 1] * up ** 2))
            # source-only, plus the tile centre's share of the bilinear part
            sigma = base[k] + (0.5 * J.T @ xbar - Q @ (xbar - Ybt)) @ iv[:, k]
            st, ss = tau.real.max(), sigma.real.max()
            W = Tq[:, m] * (Wg[k] * np.exp(sigma - ss))
            out[rq[0]:rq[-1] + 1, rp[0]:rp[-1] + 1] = (
                amp * np.exp(st + ss) * (np.exp(tau - st) * (W @ E[:, k].T)))
    return out


# Most entries in one batch of a tile's cross tables: a batch of sources
# over a tile of nq x np nodes holds nq np entries per source, so each of
# its few arrays stays near 4 MB.
_BATCH_ENTRIES = 1 << 18


def _integrated_sum(e, hbar, qs, ps, iq, ip, Wg, qo, po):
    """Kernel sum over integrated orbits, from the sources' endpoints ``e``
    (one :func:`flow_batch`), each with its own ``Y_t``, ``Q``, source-only
    phase ``base`` and prefactor, as :class:`_Kernel` gives them.

    At a target ``X = Y_t + u`` the exponent of source ``s`` is
    ``base + u.J Y_t/2 + u.Q u/2``, since ``Y_t.J Y_t = 0``.  On an output
    tile centred on ``(qbar, pbar)``, with ``X = (qbar + q', pbar + p')``
    and ``(dq, dp) = (qbar, pbar) - Y_t``, the product
    ``u_q u_p = q' p' + dp u_q + dq u_p - dq dp`` splits the exponent into
    - ``sigma``, source-only: ``base - Q_qp dq dp``;
    - ``f``, q-only: ``u_q (p_t/2 + Q_qp dp + Q_qq u_q/2)``;
    - ``g``, p-only: ``u_p (-q_t/2 + Q_qp dq + Q_pp u_p/2)``;
    - the cross term ``Q_qp q' p'``.
    Each part stays of the size of the exponent near the image for the
    sources that matter there, so the sum rounds as the per-pair kernel
    does.  The cross factor ``exp{(i/hbar) Q_qp q' p'}`` is a table over
    the tile's q nodes and sources by its uniform p nodes, from two short
    factor tables (:func:`_phase_table` with a coefficient per row), and
    the tile is one product over its sources of ``W_s e^(sigma + f)`` with
    the cross table times ``e^g``.  Tiles (:func:`_tiles`) are narrow
    enough that no cross exponent has a real part above
    ``_TABLE_EXPONENT``.  ``e^f`` and ``e^g`` are each scaled to peak
    modulus 1 over the tile, and their scales move into ``sigma``; because
    ``|K|`` never exceeds its prefactor, which rides in the weights, the
    real part of ``sigma`` then stays below ``_TABLE_EXPONENT``.

    The tile pairs keep sources as :func:`_affine_sum`'s do, with ``R``
    (:func:`_reach`) of the least eigenvalue of ``Im Q`` over the sources:
    with the sources sorted by ``q_t``, a run for each ``q`` tile
    (:func:`_in_reach`), masked in ``p_t`` for each pair.  A pair that
    keeps none is exactly 0, and a term dropped at a kept node is at most
    ``e^-40 |W_s|`` times its prefactor.  The sources of a pair go through
    in batches of at most ``_BATCH_ENTRIES`` table entries.
    """
    kernel = _Kernel(qs[iq], ps[ip], e)
    qt, pt = e.q[:, 0], e.p[:, 0]
    # the kernel's prefactor rides in the weights
    W = Wg * np.exp(kernel.log_prefactor(hbar))
    order = np.argsort(qt, kind="stable")
    qt, pt, base, W, Q = qt[order], pt[order], kernel.base[order], W[order], kernel.Q[order]
    Qqq, Qqp, Qpp = Q[:, 0, 0], Q[:, 0, 1], Q[:, 1, 1]
    R = _reach(hbar, np.linalg.eigvalsh(Q.imag))
    # half-widths hq, hp <= _TABLE_EXPONENT hbar / r bound |Im Q_qp| hq hp
    # by _TABLE_EXPONENT hbar
    r = math.sqrt(_TABLE_EXPONENT * hbar * np.abs(Qqp.imag).max())
    ih = 1j / hbar
    p_tiles = []
    for rp in _tiles(po, r, hbar):
        xp = po[rp]
        p_tiles.append((rp, xp, (pt >= xp[0] - R) & (pt <= xp[-1] + R)))
    out = np.zeros((qo.size, po.size), dtype=complex)
    for rq in _tiles(qo, r, hbar):
        xq = qo[rq]
        s = _in_reach(qt, xq[0], xq[-1], R)
        qbar = 0.5 * (xq[0] + xq[-1])
        dxq = xq - qbar
        for rp, xp, near in p_tiles:
            kept = s.start + np.flatnonzero(near[s])
            if not kept.size:
                continue
            pbar = 0.5 * (xp[0] + xp[-1])
            dxp = xp - pbar
            tile = out[rq[0]:rq[-1] + 1, rp[0]:rp[-1] + 1]
            step = max(1, _BATCH_ENTRIES // tile.size)
            for k in np.array_split(kept, math.ceil(kept.size / step)):
                dq, dp = qbar - qt[k], pbar - pt[k]
                # f over (q node, source), g over (source, p node)
                uq, up = xq[:, None] - qt[k], xp - pt[k][:, None]
                f = ih * uq * (0.5 * pt[k] + Qqp[k] * dp + 0.5 * Qqq[k] * uq)
                g = ih * up * ((Qqp[k] * dq - 0.5 * qt[k])[:, None] + 0.5 * Qpp[k][:, None] * up)
                fs, gs = f.real.max(axis=0), g.real.max(axis=1)[:, None]
                sigma = ih * (base[k] - Qqp[k] * dq * dp) + fs + gs[:, 0]
                ss = sigma.real.max()
                # rows (q node, source), columns the p nodes
                C = _phase_table(dxq[:, None], dxp, ih * Qqp[k])
                C *= np.exp(g - gs)
                wf = np.exp(f - fs) * (W[k] * np.exp(sigma - ss))
                tile += np.exp(ss) * np.matmul(wf[:, None, :], C)[:, 0, :]
    return out


def apply_propagator(Psi0: ComplexField, t: float, model: HamiltonianModel,
                     out_axes=None, opts: FlowOptions | None = None) -> ComplexField:
    """Propagate a phase-space field: ``Psi(X, t) = integral
    K(X, Y, t) Psi0(Y) dY`` by grid quadrature, at the field's own ``hbar``.

    The output grid is the padded range of the images of the input's
    support, the sources above 1e-6 of the peak modulus, read from their own
    orbits (:func:`_derive_out_axes`), unless ``out_axes=(q, p)``, two
    uniform increasing axes, overrides it.  The propagation is unitary on
    analyzed fields, so the output norm matches the input norm to quadrature
    accuracy.  Sources below 1e-13 of the peak modulus are dropped
    (:func:`_kept_sources`).  A flow in closed form (method ``"exact"``, the
    default for models that carry closed forms) is summed by
    :func:`_affine_sum`, an integrated one by :func:`_integrated_sum`.
    Warns of boundary mass above 1e-6 of the peak and, through
    :func:`_guarded_orbits`, when the linearized flow along the orbit of the
    kept source of the largest weight outgrows ``hbar^{-1/2}``.  Never
    silently truncates a non-decayed input.  One time of
    :func:`_propagated_fields`.
    """
    return next(_propagated_fields(Psi0, [t], model, out_axes, opts))


def _propagated_fields(Psi0: ComplexField, times, model: HamiltonianModel,
                       out_axes=None, opts: FlowOptions | None = None):
    """Yield :func:`apply_propagator` at each of the ascending ``times``: one
    set-up, then each time's sum as one orbit pass reaches it."""
    _check_input(Psi0, 2, times, "apply_propagator", "the input field")
    hbar = Psi0.hbar
    if out_axes is not None:
        if len(out_axes) != 2:
            raise ConfigurationError("out_axes must be a (q, p) pair of axes")
        qo = _checked_axis(out_axes[0], "out_axes[0]")
        po = _checked_axis(out_axes[1], "out_axes[1]")
    edge = _edge_ratio(Psi0.values)
    if edge > 1e-6:
        _warn_at_caller(
            f"phase-space field carries {edge:.2e} of its peak at the grid "
            "boundary; propagated norm may be lossy", UserWarning)
    qs, ps = Psi0.axes
    iq, ip, Wg = _kept_sources(Psi0)
    inside = _support(Psi0.values)[iq, ip]
    summed = _affine_sum if _method(model, opts or FlowOptions()) == "exact" else _integrated_sum
    for e in _guarded_orbits(model, qs[iq], ps[ip], Wg, times, hbar, opts):
        if out_axes is None:
            qo, po = _derive_out_axes(e, inside, hbar)
        yield ComplexField((qo, po), summed(e, hbar, qs, ps, iq, ip, Wg, qo, po), hbar)


# Output nodes per synthesis window: few, so that a window's source slice is
# little wider than twice the reach, yet enough to amortise each slice.
_WINDOW_NODES = 16


def _windowed_synthesis(e, src, hbar, x):
    """``sum_s src_s exp{(i/hbar)(p_t (x - q_t) + z_s (x - q_t)^2 / 2)}`` at
    the nodes ``x``, from the sources' endpoints ``e``: each run of
    ``_WINDOW_NODES`` nodes sums, pair by pair, the sources whose images
    ``q_t`` lie within :func:`_reach` of the run.  A term's modulus is
    ``|src_s| exp{-Im z_s (x - q_t)^2 / (2 hbar)}``, so the dropped terms sum
    to at most ``e^-40 sum_s |src_s|`` at any node: the truncation step of
    the fast Gauss transform (Greengard & Strain 1991)."""
    qt, pt = e.q[:, 0], e.p[:, 0]
    z = _anisotropy(e.A, e.B)[:, 0, 0]
    order = np.argsort(qt, kind="stable")
    qt, pt, z, src = qt[order], pt[order], z[order], src[order]
    reach = _reach(hbar, z.imag)
    starts = np.arange(0, x.size, _WINDOW_NODES)
    ends = np.minimum(starts + _WINDOW_NODES, x.size)
    lo = np.searchsorted(qt, x[starts] - reach)
    hi = np.searchsorted(qt, x[ends - 1] + reach)
    out = np.empty(x.size, dtype=complex)
    for s, end, a, b in zip(starts, ends, lo, hi):
        dxs = x[s:end, None] - qt[None, a:b]
        phase = pt[None, a:b] * dxs + 0.5 * z[None, a:b] * dxs ** 2
        out[s:end] = np.exp(1j / hbar * phase) @ src[a:b]
    return out


def _separable_synthesis(e, src, hbar, qs, ps, iq, ip, x):
    """The sum of :func:`_windowed_synthesis` for an affine flow, by tables
    over the kept-source box (:func:`_source_box`).

    Every packet shares ``z``, and a source's image is
    ``(q_t, p_t) = (Qb + v_q, Pb + v_p)`` with ``v = M y'``.  At a node
    ``x = xbar + x'`` of a tile centred on ``xbar``, with ``d = xbar - q_t``,
    the exponent ``p_t (x - q_t) + z (x - q_t)^2 / 2`` is the sum of
    - ``sigma``: the pair's exponent at the tile centre, ``p_t d + z d^2 / 2``;
    - ``tau``, target-only: ``x' (Pb + z (xbar - Qb + x' / 2))``;
    - the bilinear ``x' (kappa . y')``, ``kappa = M[1] - z M[0]``.
    So a tile is ``e^tau rowsum(T_q * (T_p @ G^T))``: two tables
    ``exp{(i/hbar) kappa_a x' y'_a}``, each from two short factor tables
    (:func:`_phase_table`, about ``2 sqrt(n)`` exponentials per node over
    ``n`` lines), and the grid ``G`` of the sources times ``e^sigma``, zero
    elsewhere.  A tile keeps the sources whose image lies within ``R``
    (:func:`_reach`) of one of its nodes, that is within ``R`` plus
    the tile's half-width of its centre: only they take a ``sigma`` and an
    ``e^sigma``, and the tables and a fresh ``G`` span only the box lines
    that hold them.  Each factor keeps phases of the size of the pair's own
    near the tile.  Tiles and scales are those of :func:`_affine_sum`.
    Nodes farther than ``R`` from every image are exactly 0, and a term
    dropped at a kept node is at most ``e^-40 |src_s|`` there, as the
    windowed sum drops them.
    """
    box = _source_box(e, qs, ps, iq, ip)
    z = complex(_anisotropy(e.A[0], e.B[0])[0, 0])
    Qb, Pb = box.Ybt
    kappa = box.M[1] - z * box.M[0]
    qt, pt = box.Ybt[:, None] + box.v
    order = np.argsort(qt, kind="stable")
    qt, pt, src, jq, jp = qt[order], pt[order], src[order], box.jq[order], box.jp[order]
    reach = _reach(hbar, z.imag)
    near = (np.searchsorted(qt, x + reach, "right")
            > np.searchsorted(qt, x - reach))
    out = np.zeros(x.size, dtype=complex)
    for r in _tiles(x, np.max(np.abs(kappa.imag) * box.half), hbar):
        r = r[near[r]]
        if not r.size:
            continue
        # the sources within reach of some node of the tile, and the lines
        # of the box that hold them
        s = _in_reach(qt, x[r[0]], x[r[-1]], reach)
        q0, p0 = jq[s].min(), jp[s].min()
        yq, yp = box.yq[q0:jq[s].max() + 1], box.yp[p0:jp[s].max() + 1]
        xbar = 0.5 * (x[r[0]] + x[r[-1]])
        dx = x[r] - xbar
        d = xbar - qt[s]
        sigma = 1j / hbar * (pt[s] + 0.5 * z * d) * d
        tau = 1j / hbar * (Pb + z * (xbar - Qb + 0.5 * dx)) * dx
        st, ss = tau.real.max(), sigma.real.max()
        G = np.zeros((yq.size, yp.size), dtype=complex)
        G[jq[s] - q0, jp[s] - p0] = src[s] * np.exp(sigma - ss)
        Tq = _phase_table(dx, yq, 1j / hbar * kappa[0])
        Tp = _phase_table(dx, yp, 1j / hbar * kappa[1])
        out[r] = np.exp(st + ss) * np.exp(tau - st) * np.einsum("ij,ij->i", Tq, Tp @ G.T)
    return out


def _default_phase_axes(psi0: ComplexField, hbar: float):
    """The derived analysis grid of :func:`position_space_solution`: the
    state's padded support (:func:`_padded_axis`) in q, and in p a
    half-width of the local phase-gradient scale plus the pad, at least
    the q axis's extent, within the momenta the position spacing resolves
    (a source packet at ``|p| > pi hbar / dx`` aliases on the grid)."""
    lo, hi = psi0.axes[0][_support(psi0.values)][[0, -1]]
    qs = _padded_axis(lo, hi, hbar)
    dx = psi0.spacing()
    P = max(abs(qs[0]), abs(qs[-1]), _momentum_scale(psi0, hbar) + _PAD * math.sqrt(hbar))
    P = _clip_momentum(P, np.pi * hbar / dx, dx, "p axis")
    return qs, _padded_axis(-P, P, hbar, pad=0.0)


def position_space_solution(psi0: ComplexField, t: float,
                            model: HamiltonianModel,
                            phase_axes=None, out_axis=None,
                            opts: FlowOptions | None = None) -> ComplexField:
    """Evolve a position-space state by packet superposition, at the
    state's own ``hbar``.

    Analyzes the state into its phase-space field, carries every source
    packet along its orbit (center, width, amplitude, action), and
    resynthesizes ``psi(x, t) = (2 pi hbar)^(-d/2) integral
    Psi0(Y) [propagated packet](x) dY``.  The analysis grid is derived
    from the state's support and local momentum scale
    (:func:`_default_phase_axes`) unless ``phase_axes`` overrides it; the
    output axis defaults to the input axis, and one given as ``out_axis``
    must be uniform and increasing.  A flow in closed form (method
    ``"exact"``) is summed by :func:`_separable_synthesis`, an integrated
    one by :func:`_windowed_synthesis`; each drops only the terms of
    sources farther than :func:`_reach` from a node.  Emits Ehrenfest
    warnings as :func:`apply_propagator` does, for the orbit of the kept
    source of the largest weight.  One time of :func:`_propagated_states`.
    """
    return next(_propagated_states(psi0, [t], model, phase_axes, out_axis, opts))


def _propagated_states(psi0: ComplexField, times, model: HamiltonianModel,
                       phase_axes=None, out_axis=None, opts: FlowOptions | None = None):
    """Yield :func:`position_space_solution` at each of the ascending
    ``times``: one analysis, then each time's sum as one orbit pass reaches it."""
    _check_input(psi0, 1, times, "position_space_solution", "the input state")
    hbar = psi0.hbar
    x = _checked_axis(out_axis, "out_axis") if out_axis is not None else psi0.axes[0]
    if phase_axes is None:
        phase_axes = _default_phase_axes(psi0, hbar)
    Psi0 = wave_packet_transform(psi0, phase_axes)
    if not Psi0.values.any():
        raise ConfigurationError(
            "the state analysed on phase_axes is zero everywhere: nothing to propagate")

    iq, ip, Wg = _kept_sources(Psi0)
    Qg, Pg = Psi0.axes[0][iq], Psi0.axes[1][ip]

    pref = (np.pi * hbar) ** (-0.25) * (2 * np.pi * hbar) ** (-0.5)
    exact = _method(model, opts or FlowOptions()) == "exact"
    for e in _guarded_orbits(model, Qg, Pg, Wg, times, hbar, opts):
        amp = np.exp(-0.5 * e.logdetA)
        src = pref * amp * Wg * np.exp(1j / hbar * (e.action + 0.5 * Pg * Qg))
        if exact:
            out = _separable_synthesis(e, src, hbar, *Psi0.axes, iq, ip, x)
        else:
            out = _windowed_synthesis(e, src, hbar, x)
        yield ComplexField((x,), out, hbar)


def van_vleck_kernel(x: float, y: float, t: float, model: HamiltonianModel,
                     hbar: float) -> complex:
    """Position-space semiclassical kernel by stationary phase.

    ``K(x, y, t) = sum_r (2 pi i hbar)^(-1/2) |Im A_r(t)|^(-1/2)
    exp{(i/hbar) Act_r - i pi nu_r / 2}`` summed over trajectories from
    y reaching x at time t; ``Im A = dq_t/dp`` in the Hamiltonian
    gauge and ``nu_r`` counts its zeros (focal points) on (0, t].
    Raises a caustic error naming the earliest focal time when the
    endpoint itself is focal.

    One grid of ``n = clip(ceil(t / 1e-3), 256, 400)`` equal intervals and
    its step ``t / n`` serve every integration: the root scan and its
    refinement (:func:`_scan_roots`), and one sampled pass over the roots
    that gives the amplitude, the action and the focal count.
    """
    if model.dim != 1:
        raise ConfigurationError("van_vleck_kernel supports d = 1 only")
    if t <= 0:
        raise ConfigurationError(f"t must be positive, got {t}")
    x = float(x)
    y = float(y)
    # at least 256 intervals resolve the sign changes of Im A (the focal
    # points); at most 400 bound the cost of a long time
    n = min(max(math.ceil(t / 1e-3), 256), 400)
    opts = FlowOptions(step=t / n)

    if _method(model, opts) == "exact":
        # closed forms, an affine flow: q_t(y, p0) = q_t(y, 0) + Im A(t) p0;
        # Im A is the same on every orbit, so a focal one raises below
        e = flow_batch(model, [y], [0.0], t)
        A = e.A[0, 0, 0]
        roots = np.array([0.0 if _focal(A) else (x - e.q[0, 0]) / A.imag])
    else:
        roots = _scan_roots(model, x, y, t, opts)
        if not roots.size:
            raise ConfigurationError(
                f"no trajectory from y={y} reaches x={x} at t={t} within "
                "the scan window")

    times = np.linspace(0.0, t, n + 1)
    _, *states = _sample_orbits(model, np.full((roots.size, 1), y), roots[:, None],
                                times, opts)
    end = states[-1]
    # Im A from the first step on (it is exactly 0 at t = 0); a zero sample
    # counts as positive, so a sign change through it is counted once
    imA = np.array([s.A[:, 0, 0].imag for s in states])
    flips = (imA[1:] < 0) != (imA[:-1] < 0)
    for r in range(roots.size):
        if _focal(end.A[r, 0, 0]):
            # the earliest focal time: a secant through the first sign change
            t_star = t
            if flips[:, r].any():
                k = int(np.argmax(flips[:, r]))
                a, b = imA[k, r], imA[k + 1, r]
                t_star = float(times[k + 1] + (times[k + 2] - times[k + 1]) * a / (a - b))
            raise CausticError("trajectory endpoint is focal (Im A vanishes)", t_star=t_star)
    amp = (2 * np.pi * hbar) ** -0.5 * np.exp(-0.25j * np.pi) / np.sqrt(np.abs(imA[-1]))
    return complex(np.sum(amp * np.exp(1j / hbar * end.action - 0.5j * np.pi * flips.sum(0))))


def _focal(A: complex) -> bool:
    """Whether ``Im A`` (``dq_t/dp``) vanishes, relative to ``max(1, |A|)``."""
    return abs(A.imag) < 1e-8 * max(1.0, abs(A))


def _scan_roots(model, x, y, t, opts):
    """The momenta p0 of the orbits from y that reach x at t: 41 samples
    bracket the sign changes of ``p0 -> q_t(y, p0) - x``, and Chandrupatla's
    method refines every bracket at once, one ``flow_batch`` over the live
    brackets per iteration.  Two roots in one interval leave its ends one
    sign, but its slope ``Im A = dq_t/dp0`` turns there from pointing toward
    0 to pointing away; those turning points (zeros of ``Im A``, one more
    solve) join the samples."""
    from scipy.optimize.elementwise import find_root

    def flow(p0):
        return flow_batch(model, np.full(p0.shape, y), p0, t, opts)

    def g(p0):
        return flow(p0).q[:, 0] - x

    center = (x - y) / (2 * t)
    width = max(4.0, 2 * abs(x - y) / max(t, 1e-2))
    grid = np.linspace(center - width, center + width, 41)
    e = flow(grid)
    vals, slope = e.q[:, 0] - x, e.A[:, 0, 0].imag
    turn = np.nonzero((vals[:-1] * vals[1:] > 0) & (slope[:-1] * vals[:-1] < 0)
                      & (slope[1:] * vals[1:] > 0))[0]
    if turn.size:
        tp = find_root(lambda p0: flow(p0).A[:, 0, 0].imag,
                       (grid[turn], grid[turn + 1])).x
        grid, vals = np.insert(grid, turn + 1, tp), np.insert(vals, turn + 1, g(tp))
    k = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    return find_root(g, (grid[k], grid[k + 1]), tolerances=dict(xatol=1e-12)).x
