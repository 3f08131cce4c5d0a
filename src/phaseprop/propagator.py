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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CausticError, ConfigurationError, EhrenfestWarning
from .flow import (FlowOptions, SiegelMatrix, TrajectoryBundle, _anisotropy,
                   _check_siegel, _real_jacobian, _sample_orbits, anisotropy_Z,
                   ehrenfest_guard, flow_batch, integrate_characteristics,
                   symplectic_J)
from .models import HamiltonianModel, PhasePoint
from .transform import (ComplexField, _momentum_scale, _position_support,
                        wave_packet_transform)

__all__ = [
    "PropagatedPacket", "propagate_packet", "eval_packet",
    "double_anisotropy_Q", "kernel_Ksc", "apply_propagator",
    "position_space_solution", "van_vleck_kernel",
]


@dataclass(frozen=True)
class PropagatedPacket:
    """A coherent packet carried along one characteristic orbit.

    At every stored time the packet stays an exact Gaussian: center
    ``X_t``, width matrix ``Z_t = B A^{-1}``, amplitude
    ``1/sqrt(det A)`` (branch-tracked), and action phase — with unit
    L2 norm for all t.
    """

    bundle: TrajectoryBundle
    hbar: float

    @property
    def base(self) -> PhasePoint:
        return self.bundle.points[0]


def propagate_packet(model: HamiltonianModel, X0: PhasePoint, T: float,
                     hbar: float, opts: FlowOptions | None = None
                     ) -> PropagatedPacket:
    """Carry the packet centered at X0 along its orbit up to time T."""
    opts = opts or FlowOptions()
    opts = FlowOptions(method=opts.method, step=opts.step, rtol=opts.rtol,
                       hbar=hbar)
    return PropagatedPacket(integrate_characteristics(model, X0, T, opts), hbar)


def eval_packet(pkt: PropagatedPacket, t: float, x) -> np.ndarray:
    """Evaluate the propagated packet at position samples ``x``.

    ``(pi hbar)^(-d/4) a(t) exp{(i/hbar)(Act + p_0.q_0/2 + p_t.(x-q_t)
    + (x-q_t).Z_t (x-q_t)/2)}`` with ``a(t) = exp(-log det A / 2)``.
    The static gauge term ``p_0.q_0/2`` is the initial packet's own and
    does not transport — the dynamical phase sits entirely in ``Act``.
    """
    b = pkt.bundle
    i = b.index_of(t)
    X0 = b.points[0]
    Xt = b.points[i]
    Z = anisotropy_Z(b.frames[i]).M
    a = np.exp(-0.5 * b.logdetA[i])
    act = b.action[i]
    hbar = pkt.hbar
    x = np.asarray(x, dtype=float)
    d = Xt.d
    if d == 1:
        dx = x - Xt.q[0]
        phase = act + X0.p[0] * X0.q[0] / 2 + Xt.p[0] * dx + 0.5 * Z[0, 0] * dx ** 2
    else:
        dx = x - Xt.q
        quad = np.einsum("...i,ij,...j->...", dx, Z, dx)
        phase = act + (X0.p @ X0.q) / 2 + dx @ Xt.p + 0.5 * quad
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
    Q = np.concatenate([np.concatenate([1j * (I - R), 0.5 * I - R], axis=-1),
                        np.concatenate([0.5 * I - R, 1j * R], axis=-1)], axis=-2)
    _check_siegel(Q)
    return Q


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
    if t < 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    e = flow_batch(model, Y.q, Y.p, t, opts)
    qt, pt = e.q[0], e.p[0]
    Qm = _doubled(_anisotropy(e.A, e.B))[0]
    d = Y.d
    pref = (2 * np.pi * hbar) ** (-d) * 2 ** (d / 2) * np.exp(-0.5 * e.logdet_w[0])
    v = np.concatenate([X.q - qt, X.p - pt])
    phase = (e.action[0]
             + (Y.p @ Y.q - pt @ qt) / 2
             + (X.q @ pt - X.p @ qt) / 2
             + 0.5 * v @ Qm @ v)
    return complex(pref * np.exp(1j / hbar * phase))


def _support_box(field: ComplexField, rel: float = 1e-6):
    """Index-aligned bounding box where the field exceeds ``rel`` of
    its peak modulus."""
    mag = np.abs(field.values)
    mask = mag > rel * mag.max()
    iq = np.nonzero(mask.any(axis=1))[0]
    ip = np.nonzero(mask.any(axis=0))[0]
    qs, ps = field.axes
    return (float(qs[iq[0]]), float(qs[iq[-1]]),
            float(ps[ip[0]]), float(ps[ip[-1]]))


def _axis(lo: float, hi: float, target: float) -> np.ndarray:
    n = max(2, int(math.ceil((hi - lo) / target)) + 1)
    return np.linspace(lo, hi, n)


def _derive_out_axes(model, box, t, hbar, opts):
    """Propagated bounding box: flow the support-box corners and center
    forward and pad by the packet decay width."""
    qa, qb, pa, pb = box
    e = flow_batch(model, [qa, qa, qb, qb, (qa + qb) / 2],
                   [pa, pb, pa, pb, (pa + pb) / 2], t, opts)
    pad = 6 * np.sqrt(hbar)
    tgt = np.sqrt(hbar) / 4
    return (_axis(float(e.q.min()) - pad, float(e.q.max()) + pad, tgt),
            _axis(float(e.p.min()) - pad, float(e.p.max()) + pad, tgt))


def _warn_if_edge_mass(field: ComplexField) -> None:
    v = np.abs(field.values)
    peak = v.max()
    edge = max(v[0].max(), v[-1].max(), v[:, 0].max(), v[:, -1].max())
    if edge > 1e-6 * peak:
        warnings.warn(
            f"phase-space field carries {edge / peak:.2e} of its peak at the "
            "grid boundary; propagated norm may be lossy", UserWarning,
            stacklevel=3)


def _emit_ehrenfest(model, center, t, hbar, opts):
    if t <= 0:
        return
    step = max(t / 400, 1e-3) if model.frame_at is None else t / 200
    guard_opts = FlowOptions(method=opts.method if opts else None,
                             step=step, hbar=hbar)
    bundle = integrate_characteristics(model, center, t, guard_opts)
    for msg in ehrenfest_guard(bundle):
        warnings.warn(msg, EhrenfestWarning, stacklevel=3)


def _dense_sum(model, t, hbar, Qg, Pg, Wg, qo, po, opts):
    """Kernel sum with one exponential per (target, source) pair, for
    flows without closed forms."""
    e = flow_batch(model, Qg, Pg, t, opts)
    qt, pt = e.q[:, 0], e.p[:, 0]
    Qm = _doubled(_anisotropy(e.A, e.B))
    pref = (2 * np.pi * hbar) ** (-1) * 2 ** 0.5
    # source-only phase: Act + (xi.eta - xi_t.eta_t)/2, plus prefactor root
    src = np.exp(1j / hbar * (e.action + 0.5 * (Pg * Qg - pt * qt))
                 - 0.5 * e.logdet_w) * Wg * pref

    Xq = np.repeat(qo, po.size)
    Xp = np.tile(po, qo.size)
    nout = Xq.size
    out = np.empty(nout, dtype=complex)
    chunk = max(1, int(4e6 / max(1, Qg.size)))
    for s in range(0, nout, chunk):
        e = min(nout, s + chunk)
        vq = Xq[s:e, None] - qt[None, :]
        vp = Xp[s:e, None] - pt[None, :]
        quad = 0.5 * (Qm[None, :, 0, 0] * vq ** 2
                      + 2 * Qm[None, :, 0, 1] * vq * vp
                      + Qm[None, :, 1, 1] * vp ** 2)
        phase = quad + 0.5 * (Xq[s:e, None] * pt[None, :]
                              - Xp[s:e, None] * qt[None, :])
        out[s:e] = np.exp(1j / hbar * phase) @ src
    return out.reshape(qo.size, po.size)


# Largest real part of an exponent in the tables of the separable sum.  The
# product of the four tables and the rescaling of a tile are each at most
# e^(4 x 60) in modulus, so every term that matters to double precision stays
# between about 1e-224 and 1e+105: far from underflow and overflow.
_TABLE_EXPONENT = 60.0


def _tiles(axis: np.ndarray, reach: float, hbar: float) -> list:
    """Split an output axis into runs of half-width at most
    ``_TABLE_EXPONENT hbar / reach``."""
    n = math.ceil((axis[-1] - axis[0]) * reach / (2 * _TABLE_EXPONENT * hbar))
    return np.array_split(np.arange(axis.size), min(max(n, 1), axis.size))


def _affine_sum(model, t, hbar, qs, ps, iq, ip, Wg, qo, po):
    """Kernel sum for an affine flow ``Y_t = M Y + c`` as matrix products.

    All sources share the frame, hence ``Q``.  In coordinates centred on
    an output tile, ``X = xbar + x'``, and on the kept-source box,
    ``Y = ybar + y'``, the kernel exponent is a target-only part, a
    source-only part and the bilinear ``x'.K y'`` with
    ``K = (J/2 - Q) M``.  Over the tensor source grid the bilinear factor
    is four exponential tables ``exp{(i/hbar) K_ab x'_a y'_b}``, and the
    sum over sources of one tile is the product ``W @ E^T`` of their
    gathered products.  Tiles are narrow enough that no table exponent
    has a real part above ``_TABLE_EXPONENT``.  The target and source
    factors are scaled to peak modulus 1; because the kernel modulus never
    exceeds its prefactor, the two scales multiply to at most
    ``e^(4 _TABLE_EXPONENT)``.
    """
    A, B, _ldA, ldw = model.frame_at(t)
    M = _real_jacobian(A, B)
    c = np.array(model.bulk_flow(0.0, 0.0, t), dtype=float)
    Q = _doubled(_anisotropy(A, B))
    J = symplectic_J(1)
    K = (0.5 * J - Q) @ M

    q0, q1, p0, p1 = iq.min(), iq.max(), ip.min(), ip.max()
    ybar = 0.5 * np.array([qs[q0] + qs[q1], ps[p0] + ps[p1]])
    half = 0.5 * np.array([qs[q1] - qs[q0], ps[p1] - ps[p0]])
    yq, yp = qs[q0:q1 + 1] - ybar[0], ps[p0:p1 + 1] - ybar[1]
    jq, jp = iq - q0, ip - p0
    Y = np.stack([qs[iq], ps[ip]])
    Yt = M @ Y + c[:, None]
    v = M @ np.stack([yq[jq], yp[jp]])  # Y_t - Ybar_t
    Ybt = M @ ybar + c
    # source-only exponent: (i/hbar)(Act + (xi.eta - xi_t.eta_t)/2 + v.Q v/2)
    base = 1j / hbar * (model.bulk_action(Y[0], Y[1], t)
                        + 0.5 * (Y[0] * Y[1] - Yt[0] * Yt[1])
                        + 0.5 * np.einsum("in,ij,jn->n", v, Q, v))
    iv = 1j / hbar * v
    amp = (2 * np.pi * hbar) ** (-1) * 2 ** 0.5 * np.exp(-0.5 * ldw)

    reach = np.max(np.abs(K.imag) * half, axis=1)
    p_tiles = []
    for rp in _tiles(po, reach[1], hbar):
        xp = po[rp]
        dp = xp - 0.5 * (xp[0] + xp[-1])
        E = (np.exp(1j / hbar * K[1, 0] * np.outer(dp, yq))[:, jq]
             * np.exp(1j / hbar * K[1, 1] * np.outer(dp, yp))[:, jp])
        p_tiles.append((rp, xp, E))
    out = np.empty((qo.size, po.size), dtype=complex)
    for rq in _tiles(qo, reach[0], hbar):
        xq = qo[rq]
        dq = xq - 0.5 * (xq[0] + xq[-1])
        Tq = (np.exp(1j / hbar * K[0, 0] * np.outer(dq, yq))[:, jq]
              * np.exp(1j / hbar * K[0, 1] * np.outer(dq, yp))[:, jp])
        uq = xq[:, None] - Ybt[0]
        for rp, xp, E in p_tiles:
            xbar = np.array([xq[0] + xq[-1], xp[0] + xp[-1]]) / 2
            up = xp[None, :] - Ybt[1]
            # target-only: X.J Ybar_t/2 + (X - Ybar_t).Q (X - Ybar_t)/2
            tau = 1j / hbar * (0.5 * (xq[:, None] * Ybt[1] - xp[None, :] * Ybt[0])
                               + 0.5 * (Q[0, 0] * uq ** 2 + 2 * Q[0, 1] * uq * up
                                        + Q[1, 1] * up ** 2))
            # source-only, plus the tile centre's share of the bilinear part
            sigma = base + (0.5 * J.T @ xbar - Q @ (xbar - Ybt)) @ iv
            st, ss = tau.real.max(), sigma.real.max()
            W = Tq * (Wg * np.exp(sigma - ss))
            out[rq[0]:rq[-1] + 1, rp[0]:rp[-1] + 1] = (
                amp * np.exp(st + ss) * (np.exp(tau - st) * (W @ E.T)))
    return out


def apply_propagator(Psi0: ComplexField, t: float, model: HamiltonianModel,
                     hbar: float | None = None, out_axes=None,
                     opts: FlowOptions | None = None) -> ComplexField:
    """Propagate a phase-space field: ``Psi(X, t) = integral
    K(X, Y, t) Psi0(Y) dY`` by grid quadrature.

    The output grid is derived automatically — the input support box is
    flowed forward (corners and center) and padded by six packet decay
    widths at spacing ``sqrt(hbar)/4`` — unless ``out_axes=(q, p)``
    overrides it.  The propagation is unitary on analyzed fields, so
    the output norm matches the input norm to quadrature accuracy.
    Models with an affine closed-form flow (``bulk_flow``) are summed as
    matrix products over output tiles; others by one orbit per source.
    Sources below 1e-13 of the peak modulus are dropped.
    Emits an Ehrenfest warning when the linearized flow outgrows
    ``hbar^{-1/2}``; never silently truncates a non-decayed input.
    """
    if Psi0.rank != 2:
        raise ConfigurationError("apply_propagator expects a rank-2 field")
    hbar = float(hbar) if hbar is not None else Psi0.hbar
    if t < 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    _warn_if_edge_mass(Psi0)
    qs, ps = Psi0.axes
    w = Psi0.spacing(0) * Psi0.spacing(1)
    mag = np.abs(Psi0.values)
    iq, ip = np.nonzero(mag > 1e-13 * mag.max())
    Wg = Psi0.values[iq, ip] * w

    box = _support_box(Psi0)
    if out_axes is None:
        qo, po = _derive_out_axes(model, box, t, hbar, opts)
    else:
        qo = np.asarray(out_axes[0], dtype=float)
        po = np.asarray(out_axes[1], dtype=float)

    if model.bulk_flow is not None:
        out = _affine_sum(model, t, hbar, qs, ps, iq, ip, Wg, qo, po)
    else:
        out = _dense_sum(model, t, hbar, qs[iq], ps[ip], Wg, qo, po, opts)
    _emit_ehrenfest(model, PhasePoint([(box[0] + box[1]) / 2],
                                      [(box[2] + box[3]) / 2]), t, hbar, opts)
    return ComplexField((qo, po), out, hbar)


def _default_phase_axes(psi0: ComplexField, hbar: float):
    x = psi0.axes[0]
    i0, i1 = _position_support(psi0)
    pad = 6 * np.sqrt(hbar)
    qa, qb = float(x[i0]) - pad, float(x[i1]) + pad
    # momentum half-width: local phase-gradient scale plus packet decay
    pscale = _momentum_scale(psi0, hbar)
    P = max(abs(qa), abs(qb), pscale + pad)
    tgt = np.sqrt(hbar) / 4
    return _axis(qa, qb, tgt), _axis(-P, P, tgt)


def position_space_solution(psi0: ComplexField, t: float,
                            model: HamiltonianModel,
                            hbar: float | None = None,
                            phase_axes=None, out_axis=None,
                            opts: FlowOptions | None = None) -> ComplexField:
    """Evolve a position-space state by packet superposition.

    Analyzes the state into its phase-space field, carries every source
    packet along its orbit (center, width, amplitude, action), and
    resynthesizes ``psi(x, t) = (2 pi hbar)^(-d/2) integral
    Psi0(Y) [propagated packet](x) dY``.  The analysis grid is derived
    from the state's support and local momentum scale unless
    ``phase_axes`` overrides it; the output axis defaults to the input
    axis.
    """
    if psi0.rank != 1:
        raise ConfigurationError("position_space_solution expects a rank-1 field")
    hbar = float(hbar) if hbar is not None else psi0.hbar
    if t < 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    if phase_axes is None:
        phase_axes = _default_phase_axes(psi0, hbar)
    if psi0.hbar != hbar:
        psi0 = ComplexField(psi0.axes, psi0.values, hbar)
    Psi0 = wave_packet_transform(psi0, phase_axes)
    x = np.asarray(out_axis, dtype=float) if out_axis is not None else psi0.axes[0]

    qs, ps = Psi0.axes
    w = Psi0.spacing(0) * Psi0.spacing(1)
    QQ, PP = np.meshgrid(qs, ps, indexing="ij")
    mag = np.abs(Psi0.values)
    keep = (mag > 1e-13 * mag.max()).ravel()
    Qg = QQ.ravel()[keep]
    Pg = PP.ravel()[keep]
    Wg = Psi0.values.ravel()[keep] * w

    e = flow_batch(model, Qg, Pg, t, opts)
    qt, pt = e.q[:, 0], e.p[:, 0]
    z = _anisotropy(e.A, e.B)[:, 0, 0]
    amp = np.exp(-0.5 * e.logdetA)

    pref = (np.pi * hbar) ** (-0.25) * (2 * np.pi * hbar) ** (-0.5)
    src = pref * amp * Wg * np.exp(1j / hbar * (e.action + 0.5 * Pg * Qg))
    out = np.empty(x.size, dtype=complex)
    chunk = max(1, int(4e6 / max(1, Qg.size)))
    for s in range(0, x.size, chunk):
        e = min(x.size, s + chunk)
        dxs = x[s:e, None] - qt[None, :]
        phase = pt[None, :] * dxs + 0.5 * z[None, :] * dxs ** 2
        out[s:e] = np.exp(1j / hbar * phase) @ src
    _emit_ehrenfest(model, PhasePoint([float(np.mean(Qg))], [float(np.mean(Pg))]),
                    t, hbar, opts)
    return ComplexField((x,), out, hbar)


def _imA_zero_count_and_first(times, imA, t):
    """Zeros of Im A on (0, t]: count (Morse index) and earliest zero."""
    nu = 0
    first = None
    prev = imA[1]
    for k in range(2, len(times)):
        cur = imA[k]
        if prev != 0 and (np.sign(cur) != np.sign(prev)) and times[k] <= t + 1e-12:
            nu += 1
            if first is None:
                cross = times[k - 1] + (times[k] - times[k - 1]) * (
                    prev / (prev - cur))
                first = float(cross)
        prev = cur if cur != 0 else prev
    return nu, first


def van_vleck_kernel(x: float, y: float, t: float, model: HamiltonianModel,
                     hbar: float) -> complex:
    """Position-space semiclassical kernel by stationary phase.

    ``K(x, y, t) = sum_r (2 pi i hbar)^(-1/2) |Im A_r(t)|^(-1/2)
    exp{(i/hbar) Act_r - i pi nu_r / 2}`` summed over trajectories from
    y reaching x at time t; ``Im A = dq_t/dp`` in the Hamiltonian
    gauge and ``nu_r`` counts its zeros (focal points) on (0, t].
    Raises a caustic error naming the earliest focal time when the
    endpoint itself is focal.
    """
    if model.dim != 1:
        raise ConfigurationError("van_vleck_kernel supports d = 1 only")
    if t <= 0:
        raise ConfigurationError(f"t must be positive, got {t}")
    x = float(x)
    y = float(y)

    if model.frame_at is not None:
        # closed forms, an affine flow: q_t(y, p0) = q_t(y, 0) + Im A(t) p0
        q0 = model.bulk_flow(np.array([[y]]), np.zeros((1, 1)), t)[0][0, 0]
        roots = [(x - q0) / model.frame_at(t)[0][0, 0].imag]
    else:
        roots = _scan_roots(model, x, y, t)
        if not roots:
            raise ConfigurationError(
                f"no trajectory from y={y} reaches x={x} at t={t} within "
                "the scan window")

    # the samples resolve the sign changes of Im A (the focal points): at
    # least 256 intervals, none longer than the integration step 1e-3
    times = np.linspace(0.0, t, max(257, math.ceil(t / 1e-3) + 1))
    states = list(_sample_orbits(model, np.full((len(roots), 1), y),
                                 np.array(roots)[:, None], times, FlowOptions(step=1e-3)))
    imA = np.array([s.A[:, 0, 0].imag for s in states])
    end = states[-1]
    total = 0.0j
    for r in range(len(roots)):
        imA_t = imA[-1, r]
        nu, first = _imA_zero_count_and_first(times, imA[:, r], t)
        if abs(imA_t) < 1e-8 * max(1.0, abs(end.A[r, 0, 0])):
            raise CausticError(
                "trajectory endpoint is focal (Im A vanishes)",
                t_star=first if first is not None else t)
        amp = (2 * np.pi * hbar) ** -0.5 * np.exp(-0.25j * np.pi) / np.sqrt(abs(imA_t))
        total += amp * np.exp(1j / hbar * end.action[r] - 0.5j * np.pi * nu)
    return complex(total)


def _scan_roots(model, x, y, t):
    """Bracket-and-solve on p0 -> q_t(y, p0) - x for general models."""
    from scipy.optimize import brentq

    opts = FlowOptions(step=max(t / 400, 1e-3))

    def g(p0):
        p0 = np.atleast_1d(p0)
        return flow_batch(model, np.full(p0.shape, y), p0, t, opts).q[:, 0] - x

    center = (x - y) / (2 * t)
    width = max(4.0, 2 * abs(x - y) / max(t, 1e-2))
    grid = np.linspace(center - width, center + width, 41)
    vals = g(grid)
    roots = []
    for k in range(len(grid) - 1):
        if np.sign(vals[k]) != np.sign(vals[k + 1]):
            roots.append(float(brentq(lambda p0: g(p0)[0], grid[k], grid[k + 1],
                                      xtol=1e-12)))
    return roots
