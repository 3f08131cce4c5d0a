"""Wave-packet analysis and synthesis between position and phase space.

A position-space state ``psi(x)`` maps to a phase-space field
``Psi(q, p)`` by pairing against a coherent Gaussian packet family;
the map is an isometry onto a reproducing-kernel subspace (the twisted
Fock--Bargmann space), and its left inverse superposes the same packets
against ``Psi``.  All quadratures are plain uniform-grid Riemann sums,
which converge spectrally for the smooth decaying integrands used here.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from ._csvwriter import write_rows
from .errors import (ConfigurationError, SpacingWarning, TruncationError,
                     _warn_at_caller)
from .models import PhasePoint

__all__ = [
    "ComplexField", "gaussian_packet", "wave_packet_transform",
    "inverse_transform", "overlap", "bergmann_kernel",
    "fock_bargmann_residual", "husimi_check", "write_field_csv",
    "field_metadata",
]


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar samples on a uniform rectangular grid.

    ``axes`` holds one strictly increasing, uniformly spaced coordinate
    array per dimension; ``values[i, j, ...]`` is the sample at
    ``(axes[0][i], axes[1][j], ...)``.  Rank 1 is a position-space
    state, rank 2 a phase-space field over ``(q, p)``.  Values must be
    finite.
    """

    axes: tuple
    values: np.ndarray
    hbar: float

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        values = np.asarray(self.values, dtype=complex)
        if len(axes) != values.ndim:
            raise ConfigurationError(
                f"field has {len(axes)} axes but values of rank {values.ndim}")
        finite = np.isfinite(values)
        if not finite.all():
            raise ConfigurationError(
                f"field has {finite.size - int(finite.sum())} non-finite values")
        for k, a in enumerate(axes):
            _checked_axis(a, f"axis {k}")
            if a.size != values.shape[k]:
                raise ConfigurationError(
                    f"axis {k} has {a.size} nodes, values expect {values.shape[k]}")
        if not (self.hbar > 0):
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)

    @property
    def rank(self) -> int:
        return len(self.axes)

    def spacing(self, k: int = 0) -> float:
        a = self.axes[k]
        return float((a[-1] - a[0]) / (a.size - 1))

    def cell(self) -> float:
        """Volume of one grid cell."""
        out = 1.0
        for k in range(self.rank):
            out *= self.spacing(k)
        return out

    def l2_norm(self) -> float:
        """L2 norm with the plain Lebesgue measure (the analysis map is
        an isometry, so phase fields use the same measure)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell()))


def _checked_axis(a, name: str) -> np.ndarray:
    """``a`` as a float array; raises unless it is 1-D with at least two
    uniformly spaced, strictly increasing nodes."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ConfigurationError(f"{name} must be 1-D with >= 2 nodes")
    d = np.diff(a)
    if not (d.min() > 0 and d.max() - d.min() <= 1e-9 * d.mean()):
        raise ConfigurationError(f"{name} must be uniform increasing")
    return a


def gaussian_packet(center: PhasePoint, hbar: float, x) -> np.ndarray:
    """Coherent Gaussian packet centered at a phase point, sampled at x.

    ``G(x) = (pi hbar)^(-d/4) exp{(i/hbar)(p.q/2 + p.(x-q)
    + (i/2)|x-q|^2)}`` — unit L2 norm for every center.  For d = 1,
    ``x`` may be any array and is mapped elementwise; for d > 1 the
    last axis of ``x`` indexes components.
    """
    q, p, d = center.q, center.p, center.d
    x = np.asarray(x, dtype=float)
    if d == 1:
        dxq = x - q[0]
        phase = p[0] * q[0] / 2 + p[0] * dxq + 0.5j * dxq ** 2
    else:
        if x.shape[-1] != d:
            raise ConfigurationError(
                f"x last axis must have length d={d}, got shape {x.shape}")
        dxq = x - q
        phase = (p @ q) / 2 + dxq @ p + 0.5j * np.sum(dxq ** 2, axis=-1)
    return (np.pi * hbar) ** (-d / 4) * np.exp(1j / hbar * phase)


def _edge_ratio(values: np.ndarray) -> float:
    """The largest modulus on the grid's boundary over the peak modulus, of
    a field that is not zero everywhere."""
    mag = np.abs(values)
    edge = max(float(mag[(slice(None),) * k + (end,)].max())
               for k in range(mag.ndim) for end in (0, -1))
    return edge / float(mag.max())


def _check_boundary(values: np.ndarray, rel: float, what: str) -> None:
    if not values.any():
        raise ConfigurationError(f"{what} is identically zero")
    ratio = _edge_ratio(values)
    if ratio > rel:
        raise TruncationError(
            f"{what} does not decay at the grid boundary "
            f"(edge/peak = {ratio:.3e} > {rel:g}); enlarge the grid",
            boundary_mass=ratio)


# A derived grid pads the support by _PAD sqrt(hbar), six packet decay
# widths, and spaces its nodes at most _SPACING sqrt(hbar) apart, the
# spacing below which packet quadratures keep their accuracy.
_PAD, _SPACING = 6.0, 0.25


def _padded_axis(lo: float, hi: float, hbar: float, pad: float = _PAD,
                 nodes: int = 2) -> np.ndarray:
    """The uniform axis over ``[lo, hi]`` widened by ``pad sqrt(hbar)`` at
    either end, in the fewest equal steps (at least ``nodes - 1``) no longer
    than ``_SPACING sqrt(hbar)``."""
    r = math.sqrt(hbar)
    lo, hi = lo - pad * r, hi + pad * r
    return np.linspace(lo, hi, max(nodes, math.ceil((hi - lo) / (_SPACING * r)) + 1))


def _check_spacing(dx: float, hbar: float, what: str) -> None:
    if dx > _SPACING * math.sqrt(hbar) * (1 + 1e-12):
        _warn_at_caller(
            f"{what} spacing {dx:.4g} exceeds sqrt(hbar)/4 = "
            f"{_SPACING * math.sqrt(hbar):.4g}; packet quadratures lose accuracy",
            SpacingWarning)


# Packet weights exp{-(x-q)^2/(2 hbar)} fall below 1e-16 beyond
# 8.6 sqrt(hbar) of q (e^-37).
_PACKET_RADIUS = 8.6


def _packet_blocks(qs: np.ndarray, x: np.ndarray, hbar: float):
    """Runs of q nodes at most two packet radii wide, each with the
    slice of x nodes within one packet radius of the run and its centre c.

    The transforms factor ``exp{-(i/hbar) p (x - q)}`` through the block
    centre c, so the Fourier phases are ``p (x - c) / hbar`` with
    ``|x - c|`` at most twice the per-q kernel's ``|x - q|``.  Their
    round-off grows with their size: one block for the whole axis, with
    phases up to ``p x / hbar``, left the position solver's norm drift a
    unit in the last place above the per-q kernel's more often.  Nodes
    outside the slice carry packet weights below 1e-16 and are left out.
    """
    radius = _PACKET_RADIUS * np.sqrt(hbar)
    n = max(1, math.ceil((qs[-1] - qs[0]) / (2 * radius)))
    for rows in np.array_split(np.arange(qs.size), n):
        lo, hi = qs[rows[0]], qs[rows[-1]]
        cols = slice(int(np.searchsorted(x, lo - radius)),
                     int(np.searchsorted(x, hi + radius, side="right")))
        yield rows, cols, 0.5 * (lo + hi)


def _expi(theta: np.ndarray) -> np.ndarray:
    """``exp(i theta)`` for real ``theta``: the same values as ``np.exp``
    of the imaginary array, written straight into one complex array."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _phase_table(u, v, c) -> np.ndarray:
    """``exp(c u_k v_l)`` for any ``u``, a uniform ``v`` of ``L`` nodes and a
    coefficient ``c``, a scalar or one per row broadcast against ``u``, from
    two short factor tables; the table has the rows of ``c u`` and a last
    axis over ``v``.  A purely imaginary ``c`` goes through :func:`_expi`.

    With ``B`` odd near ``sqrt(L)``, ``v_l = a_j + b_k`` for
    ``l = k B + j - lead``: ``a`` is a block of ``B`` nodes centred on the
    centre of ``v``, and ``b`` the shifts of that block onto ``ceil(L / B)``
    blocks that overhang ``v`` by at most ``(B - 1) / 2`` nodes at either
    end.  Each row then takes about ``2 sqrt(L)`` exponentials instead of
    ``L``; each entry is the product of its two factors and of
    ``1 + c u_k (v_l - a_j - b_k)``, which puts back the last-place
    difference between ``v`` and its uniform split.  Because ``B`` is odd,
    no ``|a_j|`` or ``|b_k|`` exceeds ``max |v|``, so no factor's exponent
    exceeds the direct table's in modulus.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cu = c * u
    L = v.size
    if L == 0:
        return np.empty(cu.shape + (0,), dtype=complex)
    B = math.isqrt(L) | 1
    nb = -(-L // B)
    lead = (nb * B - L) // 2
    h = (v[-1] - v[0]) / max(L - 1, 1)
    a = 0.5 * (v[0] + v[-1]) + (np.arange(B) - (B - 1) / 2) * h
    b = (np.arange(nb) * B - lead - (L - B) / 2) * h
    if not np.any(np.real(c)):
        ta, tb = (_expi(np.multiply.outer(np.imag(c) * u, w)) for w in (a, b))
    else:
        ta, tb = np.exp(np.multiply.outer(cu, a)), np.exp(np.multiply.outer(cu, b))
    # v_l - a_j - b_k is a few units in the last place of v, so its factor
    # exp(c u_k (v_l - a_j - b_k)) is 1 + c u_k (v_l - a_j - b_k) in double
    k, j = divmod(np.arange(L) + lead, B)
    rest = np.zeros(nb * B)
    rest[lead:lead + L] = (v - b[k]) - a[j]
    out = np.multiply.outer(cu, rest).reshape(cu.shape + (nb, B))
    out += 1
    out *= tb[..., None]
    out *= ta[..., None, :]
    return out.reshape(cu.shape + (nb * B,))[..., lead:lead + L]


def wave_packet_transform(psi: ComplexField, phase_grid) -> ComplexField:
    """Analyze a position-space state into its phase-space field.

    ``Psi(q, p) = (2 pi hbar)^(-d/2) integral conj(G_(q,p))(x) psi(x) dx``
    evaluated on the tensor grid ``phase_grid = (q_axis, p_axis)`` of two
    uniform increasing axes, checked before any work.  The state must
    decay below 1e-12 of its peak at the position-grid boundary; spacings
    beyond ``sqrt(hbar)/4`` trigger a warning.  The Fourier and phase
    tables over the p axis come from :func:`_phase_table`, at about
    ``2 sqrt(n_p)`` exponentials per row instead of ``n_p``.
    """
    if psi.rank != 1:
        raise ConfigurationError("wave_packet_transform expects a rank-1 field")
    qs = _checked_axis(phase_grid[0], "q axis")
    ps = _checked_axis(phase_grid[1], "p axis")
    hbar = psi.hbar
    x = psi.axes[0]
    dx = psi.spacing()
    _check_boundary(psi.values, 1e-12, "position-space state")
    _check_spacing(dx, hbar, "position grid")
    _check_spacing(float(qs[1] - qs[0]), hbar, "q grid")
    _check_spacing(float(ps[1] - ps[0]), hbar, "p grid")
    pref = (np.pi * hbar) ** (-0.25) * (2 * np.pi * hbar) ** (-0.5) * dx
    # conj(G)(x) = (pi hbar)^(-1/4) exp{-(x-q)^2/(2 hbar)} *
    #              exp{-(i/hbar)(p q/2 + p (x - q))}
    # and p (x - q) = p (x - c) - p (q - c), so over a block of q around c
    # the sum over x is one product of a Gaussian-weight matrix [q, x] and
    # a Fourier matrix [x, p]; neither table can overflow.
    out = np.empty((qs.size, ps.size), dtype=complex)
    for rows, cols, c in _packet_blocks(qs, x, hbar):
        G = np.exp(-np.subtract.outer(qs[rows], x[cols]) ** 2 / (2 * hbar)) \
            * psi.values[cols]
        F = _phase_table(x[cols] - c, ps, -1j / hbar)
        out[rows] = pref * _phase_table(c - qs[rows] / 2, ps, -1j / hbar) * (G @ F)
    return ComplexField((qs, ps), out, hbar)


def inverse_transform(Psi: ComplexField, position_grid) -> ComplexField:
    """Synthesize a position-space state from a phase-space field.

    ``psi(x) = (2 pi hbar)^(-d/2) integral Psi(q, p) G_(q,p)(x) dq dp``.
    ``position_grid`` must be uniform and increasing, and the field must
    decay below 1e-10 of its peak at the phase-grid boundary.  The phase
    table over p and the Fourier table over the x nodes of each block come
    from :func:`_phase_table`, at about twice the square root of their
    length in exponentials per row.
    """
    if Psi.rank != 2:
        raise ConfigurationError("inverse_transform expects a rank-2 field")
    x = _checked_axis(position_grid, "position grid")
    hbar = Psi.hbar
    _check_boundary(Psi.values, 1e-10, "phase-space field")
    qs, ps = Psi.axes
    dq, dp = Psi.spacing(0), Psi.spacing(1)
    pref = (np.pi * hbar) ** (-0.25) * (2 * np.pi * hbar) ** (-0.5) * dq * dp
    # G_(q,p)(x) = (pi hbar)^(-1/4) exp{-(x-q)^2/(2 hbar)} *
    #              exp{(i/hbar)(p q/2 + p (x - q))}
    # factors as the analysis kernel does: per block of q around c, a
    # Fourier product over p, then a Gaussian-weighted sum over q.
    out = np.zeros(x.size, dtype=complex)
    for rows, cols, c in _packet_blocks(qs, x, hbar):
        H = Psi.values[rows] * _phase_table(c - qs[rows] / 2, ps, 1j / hbar)
        R = H @ _phase_table(ps, x[cols] - c, 1j / hbar)
        out[cols] += np.sum(
            np.exp(-np.subtract.outer(qs[rows], x[cols]) ** 2 / (2 * hbar)) * R, axis=0)
    return ComplexField((x,), pref * out, hbar)


def overlap(X: PhasePoint, Y: PhasePoint, hbar: float) -> complex:
    """Inner product of two unit packets, ``<G_X, G_Y>``.

    Equals ``exp{(i/hbar)(X.JY/2)} exp{-(|q-eta|^2+|p-xi|^2)/(4 hbar)}``
    with the pairing ``X.JY = q.xi - p.eta`` for ``X=(q,p), Y=(eta,xi)``:
    the product of the coordinates' one-dimensional overlaps.
    """
    # on Python floats the division by hbar is Python's complex one, which
    # rounds unlike numpy's (a product with the reciprocal) on arrays
    return complex(reduce(mul, (_overlap(*map(float, c), hbar)
                                for c in zip(X.q, X.p, Y.q, Y.p))))


def _overlap(q, p, eta, xi, hbar):
    """``<G_X, G_Y>`` of one-dimensional unit packets at ``X = (q, p)`` and
    ``Y = (eta, xi)``, for scalars or arrays that broadcast."""
    dq, dp = q - eta, p - xi
    return np.exp(0.5j * (q * xi - p * eta) / hbar - (dq * dq + dp * dp) / (4 * hbar))


def bergmann_kernel(X: PhasePoint, Y: PhasePoint, hbar: float) -> complex:
    """Reproducing kernel of the analyzed subspace:
    ``b(X, Y) = (2 pi hbar)^(-d) <G_X, G_Y>``."""
    return (2 * np.pi * hbar) ** (-X.d) * overlap(X, Y, hbar)


def fock_bargmann_residual(Psi: ComplexField) -> float:
    """Peak-normalized residual of the analyticity constraint.

    Analyzed fields satisfy ``((q - ip)/2) Psi - i hbar dPsi/dp
    + hbar dPsi/dq = 0`` identically; the residual is evaluated with
    central differences on interior nodes only and normalized by the
    field's peak modulus.  Decays as O(h^2) for true analyzed fields
    and stays O(1) for generic fields.
    """
    if Psi.rank != 2:
        raise ConfigurationError("fock_bargmann_residual expects a rank-2 field")
    qs, ps = Psi.axes
    v = Psi.values
    hbar = Psi.hbar
    dq, dp = Psi.spacing(0), Psi.spacing(1)
    dv_dq = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * dq)
    dv_dp = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * dp)
    Q = qs[1:-1, None]
    P = ps[None, 1:-1]
    res = (Q - 1j * P) / 2 * v[1:-1, 1:-1] - 1j * hbar * dv_dp + hbar * dv_dq
    return float(np.abs(res).max() / np.abs(v).max())


def _support(values: np.ndarray) -> np.ndarray:
    """Whether each node of a field's ``values`` exceeds 1e-6 of its peak
    modulus: the nodes of its support."""
    mag = np.abs(values)
    return mag > 1e-6 * mag.max()


def _clip_momentum(P: float, nyq: float, dx: float, what: str) -> float:
    """``P``, or ``nyq`` where ``P`` exceeds the momenta that the position
    spacing ``dx`` resolves, with a :class:`SpacingWarning`."""
    if P > nyq:
        _warn_at_caller(
            f"position spacing {dx:.4g} resolves momenta only up to "
            f"{nyq:.4g} < requested {P:.4g}; clipping the {what}",
            SpacingWarning)
        return nyq
    return P


def _momentum_scale(psi: ComplexField, hbar: float) -> float:
    """Largest local momentum ``hbar * Im(psi'/psi)`` where ``|psi|^2``
    exceeds 1e-8 of its peak (central differences on interior nodes);
    the momentum extent of a derived phase grid is this plus a packet
    decay pad."""
    v = psi.values
    dx = psi.spacing()
    dpsi = (v[2:] - v[:-2]) / (2 * dx)
    mag2 = np.abs(v[1:-1]) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        ploc = hbar * np.imag(dpsi * np.conj(v[1:-1])) / np.where(mag2 > 0, mag2, 1)
    mask = mag2 > 1e-8 * mag2.max()
    return float(np.abs(ploc[mask]).max()) if mask.any() else 0.0


def _default_husimi_grid(psi: ComplexField):
    """The derived grid of :func:`husimi_check`: the position nodes, at a
    stride near ``_SPACING sqrt(hbar)``, over the padded support within the
    grid, and a p axis that the Wigner sum's lags ``2 dx`` resolve, of at
    least 9 nodes (a coarse grid's clipped axis would take fewer)."""
    x = psi.axes[0]
    dx = psi.spacing()
    hbar = psi.hbar
    pad = _PAD * math.sqrt(hbar)
    lo, hi = x[_support(psi.values)][[0, -1]]
    i0 = int(np.searchsorted(x, max(float(x[0]), lo - pad) - 1e-12))
    i1 = int(np.searchsorted(x, min(float(x[-1]), hi + pad) + 1e-12)) - 1
    stride = max(1, int(np.floor(_SPACING * math.sqrt(hbar) / dx)))
    iq = np.arange(i0, i1 + 1, stride)
    P = _clip_momentum(_momentum_scale(psi, hbar) + pad, np.pi * hbar / (2 * dx), dx, "p grid")
    return iq, _padded_axis(-P, P, hbar, pad=0.0, nodes=9)


def husimi_check(psi: ComplexField, phase_grid=None):
    """Cross-validate the analyzed field against the smoothed Wigner
    function of the same state.

    Computes the Husimi density ``|Psi(q, p)|^2`` from the analysis map
    and, independently, the Wigner function of ``psi`` convolved with
    the unit Gaussian ``g(q, p) = (pi hbar)^(-1) exp{-(q^2+p^2)/hbar}``;
    the two agree identically in exact arithmetic.  Returns
    ``(husimi, convolved_wigner, max_diff)`` with ``max_diff`` the
    peak-normalized maximum discrepancy.

    The q axis is taken on position-grid nodes (required by the Wigner
    quadrature); with ``phase_grid=None`` both axes are derived from
    the state's support and local momentum scale.
    """
    if psi.rank != 1:
        raise ConfigurationError("husimi_check expects a rank-1 field")
    x = psi.axes[0]
    v = psi.values
    dx = psi.spacing()
    hbar = psi.hbar
    if phase_grid is None:
        iq, ps = _default_husimi_grid(psi)
    else:
        qs_req = np.asarray(phase_grid[0], dtype=float)
        ps = np.asarray(phase_grid[1], dtype=float)
        iq = np.searchsorted(x, qs_req - 1e-9)
        if np.abs(x[np.clip(iq, 0, x.size - 1)] - qs_req).max() > 1e-9:
            raise ConfigurationError(
                "husimi_check q axis must lie on position-grid nodes")
    qs = x[iq]
    Psi = wave_packet_transform(psi, (qs, ps))
    husimi = np.abs(Psi.values) ** 2

    # Wigner function W(q_i, p) = (2 pi hbar)^(-1) * 2 dx *
    #   sum_j exp(-i p (2 dx j)/hbar) psi[i+j] conj(psi)[i-j]
    # over |j| <= min(i, nx-1-i).  The terms at j and -j are complex
    # conjugates, so W is the j = 0 term plus twice the real part over j > 0.
    # Padding psi with jmax zeros on each side zeroes every lag past a row's
    # range, so the lag products of row i are a window of the padded state
    # times the reversed window ending at i; the sum is one product with the
    # Fourier table, which _phase_table builds over the uniform lags at about
    # 2 sqrt(jmax + 1) exponentials per p node.
    jmax = int(np.minimum(iq, x.size - 1 - iq).max())
    js = np.arange(jmax + 1)
    win = np.lib.stride_tricks.sliding_window_view(np.pad(v, jmax), js.size)
    prod = win[iq + jmax]
    prod *= np.conj(win[iq][:, ::-1])
    prod[:, 1:] *= 2
    E = _phase_table(ps, 2 * dx * js, -1j / hbar)
    W = (2 * dx) / (2 * np.pi * hbar) * np.real(prod @ E.T)

    dq = float(qs[1] - qs[0])
    dp = float(ps[1] - ps[0])
    Gq = np.exp(-np.subtract.outer(qs, qs) ** 2 / hbar)
    Gp = np.exp(-np.subtract.outer(ps, ps) ** 2 / hbar)
    conv = (dq * dp) / (np.pi * hbar) * (Gq @ W @ Gp.T)
    max_diff = float(np.abs(husimi - conv).max() / husimi.max())
    hus_f = ComplexField((qs, ps), husimi.astype(complex), hbar)
    conv_f = ComplexField((qs, ps), conv.astype(complex), hbar)
    return hus_f, conv_f, max_diff


_AXIS_NAMES = {1: ("x",), 2: ("q", "p")}


def field_metadata(field: ComplexField, **extra) -> dict:
    """JSON-ready description of a field: axes, hbar, and L2 norm."""
    names = _AXIS_NAMES.get(field.rank, tuple(f"axis{k}" for k in range(field.rank)))
    meta = {
        "axes": [
            {"name": names[k], "min": float(a[0]), "max": float(a[-1]),
             "count": int(a.size)}
            for k, a in enumerate(field.axes)
        ],
        "hbar": float(field.hbar),
        "norm": field.l2_norm(),
    }
    meta.update(extra)
    return meta


def _csv_job(field: ComplexField, path) -> tuple:
    """The arguments of the :func:`._csvwriter.write_rows` call that writes
    ``field`` to ``path``: names, axes and values as plain lists, so that
    the job goes to the CLI's writer process as :mod:`marshal` data."""
    names = _AXIS_NAMES.get(field.rank, tuple(f"axis{k}" for k in range(field.rank)))
    vals = field.values.ravel()
    return (os.fspath(path), names, [axis.tolist() for axis in field.axes],
            vals.real.tolist(), vals.imag.tolist())


def write_field_csv(field: ComplexField, path) -> dict:
    """Write a field as CSV (one row per node, C order) and return its
    metadata dict.

    The header is a fixed function of the rank — ``x,re,im`` for states,
    ``q,p,re,im`` for phase fields — and values are printed with
    repr-exact precision so identical runs produce identical bytes.  The
    text comes from the one formatter, :func:`._csvwriter.write_rows`,
    which the CLI's writer process also runs; here it runs in this
    process, so the file is written when the call returns.
    """
    write_rows(*_csv_job(field, path))
    return field_metadata(field, path=str(path))
