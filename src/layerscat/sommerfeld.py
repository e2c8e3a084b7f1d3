"""Spectral-domain integrals of the two-layered Helmholtz kernel.

Every integral handled here has the form

    I(u) = (1/2pi) integral_R  g(xi) f(xi) e^{i xi u} d xi,
    g(xi) = E(xi; x2, y2) / (S(xi,k+) + S(xi,k-)),

where E = e^{sx x2 + sy y2}, each end's slope s being -S+ at or above the
interface (z >= 0) and S- below it, f is 1, or a source derivative's factor
(-i xi for d/dy1, dE/dy2 = sy for d/dy2), and g is even in xi on the real
axis.  The integrand has square-root branch points at +-k1, +-k2 (kinks;
the denominator never vanishes on the real axis) and decays like
e^{-Re S * v} with the vertical decay v = |x2| + |y2|.

Evaluation strategy: composite Gauss-Legendre panels on [0, inf) folded via
e^{i xi u} + sigma e^{-i xi u}, with substitutions that erase the kinks,

    [0, k1]   xi = k1 sin(phi),
    [k1, k2]  xi = mid - halfwidth cos(phi),
    [k2, T0]  xi = sqrt(k2^2 + w^2),

plus, beyond T0, ray tails xi = T0 + p e^{+-i pi/4}, p >= 0, rotated into
the quadrant where both the oscillatory factor and the vertical decay are
exponentially damped.  On them Re(xi^2 - k^2) = w0^2 + k2^2 - k^2
+ sqrt(2) T0 p >= w0^2 >= 1 for k = k+, k-, so the principal root
sqrt(xi^2 - k^2) is the decaying sheet of S (specfun.vertical_wavenumber).

In spectral_point panel counts follow the accumulated phase xi*u and decay
xi*v so that each 16-point panel sees about one oscillation.  A second pass
with doubled panel density provides the error estimate.

spectral_point evaluates one pair this way.  On point sets one evaluator,
remainder_matrices, serves assembly, boundary data and field evaluation: a
real-axis rule (no ray tails, so it needs v_min > _MIN_DECAY) shared by all
pairs, returning the sum I or one layer sum a I + b (f' dI/dy1 - dI/dy2), or
for field evaluation either one applied to weights at the sources, which
fold once per rule point for targets on both sides of the interface.
Below the interface it integrates the remainder R = G - Phi_{k-}(x, y) whole:
the mirror term's integrand e^{S-(x2+y2)}/(2 S-) is subtracted inside the
integral, leaving g = (k+^2 - k-^2) / (2 S- (S+ + S-)^2), which decays like
|xi|^-3.  The shared rule is sized by a tolerance: its cutoff leaves a tail
of at most _RULE_TOL (a bound on the integrand beyond both branch points,
see _tail_cutoff), and S+, S- come from the exact squares of the
substitutions rather than sqrt(xi^2 - k^2), whose cancellation near a branch
point the factor 1/S- would magnify.  Its panels have 32 points and cover
seven oscillations each (4.6 points per wavelength, against 8 for 16 points
over two).  The n-point Gauss-Legendre error on e^{i omega x} over a panel
of length L holding m oscillations is at most

    (2 pi m)^{2n} (n!)^4 / ((2n + 1) ((2n)!)^3) * L,

5.3e-23 L for n = 32, m = 7 (4.8e-20 L for n = 16, m = 2).  Both rules
refuse (DomainError) a segment that would need more than _MAX_POINTS points:
4000 panels of 16 for spectral_point, 2000 of 32 for the shared rule.

The shared rule's sums are products of per-node fold factors
e^{S f_j} cos(xi t_j) and e^{S f_j} sin(xi t_j).  On the Nystrom grid, the
progression t_j = t_0 + j h, cos and sin are evaluated only at
m = ceil(sqrt(n)) anchors t_{am} and at the m offsets b h, each for the
exact product xi t (Dekker's two-product gives its rounding error to first
order).  Node j = a m + b is t_{am} + b h + d_j, d_j the grid's rounding,
and e^{i xi t_j} = E_a F_b (1 + i xi d_j), E and F the anchors' and
offsets' e^{i xi t}, gives the factors of the exact phase to a few
rounding errors of 1, where cos of the rounded phase is off by up to half
an ulp of it, as other point sets take it.  Sources on a plane (the grid
at one height: e^{S f_0} is one number per rule point) make no factors:
their sums are products of the tables, O(p n q) BLAS flops for p rows plus
O(q sqrt(n)) table work.  The field's weight rows, as (anchors, offsets),
take one GEMM with F; a one-target sum (a plane's Toeplitz row, point-
source data) folds e^{S f_0} and the target's factors into per-rule
coefficients, one GEMM the other way.  The node-set sum keeps the factors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .errors import AccuracyError, DomainError
from .specfun import vertical_wavenumber


#: elements per (node, rule point) temporary in remainder_matrices; a
#: complex block then stays under 8 MB
_BLOCK = 500_000

#: elements per block of nodes x rule points that _fold_factors finishes
#: at a time; its five temporaries (under 1 MB together) then stay in a
#: core's L2 cache
_FOLD_CHUNK = 16_384

#: absolute bound on the part of each shared-rule integral beyond its cutoff
_RULE_TOL = 1e-15

#: Gauss-Legendre points per segment of a rule; both rules refuse to exceed it
_MAX_POINTS = 64_000

#: least vertical decay v_min of the shared rule; v_min = 2 min|f| on nodes
_MIN_DECAY = 0.02


class _Panels:
    """How a rule lays Gauss-Legendre panels on its segments: `order` points
    per panel, each covering `oscillations` oscillations of e^{i xi u} and
    `decay` times the scalar rule's share of the decay e^{-xi v}, at least
    `least` panels per segment and at most _MAX_POINTS points."""

    def __init__(self, order, oscillations, decay, least):
        self.nodes, self.weights = np.polynomial.legendre.leggauss(order)
        self.order, self.oscillations = order, oscillations
        self.decay, self.least = decay, least
        self.limit = _MAX_POINTS // order


#: spectral_point: one oscillation per 16-point panel
_SCALAR_PANELS = _Panels(16, 1, 1.0, 3)
#: real_axis_rule: seven oscillations per 32-point panel, which resolves
#: twice the decay of a 16-point one
_SHARED_PANELS = _Panels(32, 7, 0.5, 2)

def _integrand(k_plus, k_minus, x2, y2, xi, grad):
    """g(xi) = E / (S+ + S-) of the module doc for one pair, xi a real or
    complex array, and the factors f of its parts, rows of shape (parts,
    xi.size) or (1, 1): [1], or with grad [1, -i xi, sy] for I, dI/dy1,
    dI/dy2."""
    sp = vertical_wavenumber(xi, k_plus)
    sm = vertical_wavenumber(xi, k_minus)
    sx, sy = (-sp if z >= 0 else sm for z in (x2, y2))
    g = np.exp(sx * x2 + sy * y2) / (sp + sm)
    return g, (np.stack((np.ones_like(sy), -1j * xi, sy)) if grad
               else np.ones((1, 1)))


def _panel_nodes(edges, panels):
    """Gauss-Legendre nodes/weights on consecutive panels [edges[i], edges[i+1]]."""
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b) + half * panels.nodes).ravel()
    w = (half * panels.weights).ravel()
    return x, w


def _segment_panels(k1, k2, u_abs, v, w0, panels, refine):
    """Panel counts of the three segments of _head_segments: enough for
    panels.oscillations oscillations of e^{i xi u_abs} per panel, plus a
    share panels.decay of (0.15 k1, 0.3 c, 0.2 w0) v for the decay
    e^{-xi v}, at least panels.least, times refine.  A segment that would
    need more than panels.limit panels (_MAX_POINTS points) raises
    DomainError."""
    phase = u_abs / (2 * np.pi * panels.oscillations)
    share = panels.decay * v
    c = 0.5 * (k2 - k1)
    ximax = np.hypot(k2, w0)
    counts = [int(max(n, panels.least) * refine)
              for n in (np.ceil(k1 * phase + 0.15 * k1 * share),
                        np.ceil(2 * c * phase + 0.3 * c * share),
                        np.ceil((ximax - k2) * phase + 0.2 * w0 * share))]
    if max(counts) > panels.limit:
        raise DomainError(
            f"spectral rule needs {max(counts)} panels of {panels.order} "
            f"points on one segment (limit {panels.limit} panels, "
            f"{_MAX_POINTS} points): u = {u_abs:.6g}, v = {v:.6g}, "
            f"refine = {refine}")
    return counts


def _head_segments(k1, k2, w0, counts, panels):
    """Real-axis rule on [0, T0], T0 = sqrt(k2^2 + w0^2), in kink-removing
    coordinates, with counts[i] Gauss-Legendre panels of panels.order points
    on segment i.

    Returns (xi, w, s1, s2, T0) with s1 = S(xi, k1), s2 = S(xi, k2) taken
    from the exact squares of each substitution,

        [0, k1]   xi^2 - k1^2 = -(k1 cos phi)^2,
        [k1, k2]  xi - k1 = 2c sin^2(phi/2),  k2 - xi = 2c cos^2(phi/2),
        [k2, T0]  xi^2 - k2^2 = w^2,

    so that they keep full relative accuracy up to the branch points, where
    sqrt(xi^2 - k^2) of the rounded node would not.
    """
    gap = (k2 - k1) * (k2 + k1)
    p, wp = _panel_nodes(np.linspace(0.0, 0.5 * np.pi, int(counts[0]) + 1),
                         panels)
    kcos = k1 * np.cos(p)
    xi1, w1 = k1 * np.sin(p), wp * kcos
    s1 = [-1j * kcos]
    s2 = [-1j * np.sqrt(gap + kcos * kcos)]
    mid, c = 0.5 * (k1 + k2), 0.5 * (k2 - k1)
    p, wp = _panel_nodes(np.linspace(0.0, np.pi, int(counts[1]) + 1), panels)
    xi2, w2 = mid - c * np.cos(p), wp * (c * np.sin(p))
    s1.append(np.sqrt(2 * c * (xi2 + k1)) * np.sin(0.5 * p))
    s2.append(-1j * np.sqrt(2 * c * (xi2 + k2)) * np.cos(0.5 * p))
    p, wp = _panel_nodes(np.linspace(0.0, w0, int(counts[2]) + 1), panels)
    xi3 = np.sqrt(k2 * k2 + p * p)
    w3 = wp * (p / xi3)
    s1.append(np.sqrt(p * p + gap))
    s2.append(p)
    return (np.concatenate((xi1, xi2, xi3)), np.concatenate((w1, w2, w3)),
            np.concatenate(s1), np.concatenate(s2), np.hypot(k2, w0))


def _ray_tail(kern, t0, u, v, refine, tol):
    """integral_{T0}^{inf} g f e^{i xi u} d xi, rotated by sign(u) * pi/4,
    for each part f of kern (_integrand with the pair bound)."""
    theta = 0.25 * np.pi if u >= 0 else -0.25 * np.pi
    rot = np.exp(1j * theta)
    rate = (abs(u) + v) / np.sqrt(2.0)
    # panel lengths: bounded by the oscillation/decay scale and, for the
    # slowly decaying algebraic part, by the distance from the origin
    # (log-spaced panels keep the endpoint ratio small for 1/xi integrands)
    def cap(pos):
        return min(2 * np.pi / max(rate, 1e-30), 0.6 * (t0 + pos)) / refine

    acc = 0.0
    pos = 0.0
    length = cap(0.0)
    quiet = 0
    for _ in range(int(400 * refine)):
        p, wp = _panel_nodes(np.linspace(pos, pos + length, 2), _SCALAR_PANELS)
        xi = t0 + rot * p
        g, f = kern(xi)
        contrib = np.sum(g * np.exp(1j * xi * u) * (rot * wp) * f, axis=1)
        acc = acc + contrib
        mag = np.abs(contrib).max()
        pos += length
        length = min(1.35 * length, cap(pos))
        # two consecutive negligible panels, so an oscillation zero cannot
        # truncate the tail early
        quiet = quiet + 1 if mag < 0.02 * tol else 0
        if quiet >= 2:
            return acc
    raise AccuracyError("ray tail did not converge", estimate=mag)


def _spectral_once(kern, k1, k2, u, v, sigma, tol, refine):
    w0 = max(1.0, min(k2 + 1.0, 60.0 / max(v, 1e-2)))
    counts = _segment_panels(k1, k2, abs(u), v, w0, _SCALAR_PANELS, refine)
    xi, w, _, _, t0 = _head_segments(k1, k2, w0, counts, _SCALAR_PANELS)
    g, f = kern(xi)
    eplus = np.exp(1j * xi * u)
    eminus = np.exp(-1j * xi * u)
    out = np.sum(w * g * f * (eplus + sigma[:, None] * eminus), axis=1)
    tail_p = _ray_tail(kern, t0, u, v, refine, tol)
    tail_m = _ray_tail(kern, t0, -u, v, refine, tol)
    return (out + tail_p + sigma * tail_m) / (2 * np.pi)


def spectral_point(k_plus, k_minus, x2, y2, u, grad=False, tol=1e-10):
    """Spectral integral for one pair, the array [I] or with grad
    [I, dI/dy1, dI/dy2], from the doubled panel density, or AccuracyError
    when a part differs from the single density by more than tol."""
    # sigma = +1 keeps the even fold 2 cos, -1 (the odd dI/dy1) 2i sin
    sigma = np.array([1.0, -1.0, 1.0] if grad else [1.0])
    k1, k2 = sorted((k_plus, k_minus))

    def once(refine):
        return _spectral_once(
            lambda xi: _integrand(k_plus, k_minus, x2, y2, xi, grad), k1, k2,
            u, abs(x2) + abs(y2), sigma, tol, refine)

    fine = once(2)
    est = np.abs(fine - once(1)).max()
    if est > tol:
        raise AccuracyError("spectral integral did not reach tolerance", estimate=est)
    return fine


def _tail_cutoff(c, p, v):
    """Smallest w0 (from above, by bisection) with

        (1/pi) c e^{-w0 v} / (v w0^p min(1, w0)) <= _RULE_TOL.

    Beyond k2 = max(k+, k-) write xi = sqrt(k2^2 + w^2): then S(xi, k+) and
    S(xi, k-) are at least w, and d xi = (w / xi) d w.  Take an integrand
    bounded by c e^{-S v} / S^(p+1) times its mode factor (1, xi or S-, all
    at most max(1, xi)).  In w it is then at most
    c e^{-w v} / (w^p min(1, w)), since max(1, xi) / xi <= 1 / min(1, w).
    Folded with 1/pi, its integral beyond T0 = sqrt(k2^2 + w0^2) is at most
    the bound above: the factor after e^{-w v} decreases, and e^{-w v}
    alone integrates to e^{-w0 v} / v.
    """
    log_c = math.log(c / (math.pi * v * _RULE_TOL))
    lo, hi = 0.0, max(1.0, log_c / v)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_c - mid * v - p * math.log(mid) - min(0.0, math.log(mid)) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def real_axis_rule(k_plus, k_minus, u_max, v_min, above, refine=1):
    """Shared positive-axis rule (xi, w, S+, S-) for families of integrals
    with oscillation up to u_max and vertical decay at least v_min > _MIN_DECAY.

    The rule is sized for the integrand of remainder_matrices: for targets
    above the interface (above True) E / (S+ + S-), bounded by e^{-S v} / (2 S)
    beyond both branch points; below it (False) the mirror-subtracted
    E (k+^2 - k-^2) / (2 S- (S+ + S-)^2), bounded by
    e^{-S v} |k+^2 - k-^2| / (8 S^3), S = min(S+, S-).  The cutoff T0 leaves
    a tail of at most _RULE_TOL (see _tail_cutoff); above = (False, True),
    targets on both sides, takes the larger of the two cutoffs.  Each
    32-point panel covers about seven oscillations of e^{i xi u_max}
    (Gauss-Legendre error at most 5.3e-23 times its length, see the module
    docstring) and half the decay share of a 16-point one; each segment has
    at least 2 panels.  S+ = S(xi, k+) and S- = S(xi, k-) come from the
    exact squares of _head_segments.  A segment that would need more than
    _MAX_POINTS points (2000 panels) raises DomainError.  The caller folds
    with e^{i xi u} + sigma e^{-i xi u} and applies 1/(2pi).
    """
    if v_min <= _MIN_DECAY:
        raise DomainError(f"real_axis_rule requires vertical decay v_min > {_MIN_DECAY}")
    k1, k2 = sorted((k_plus, k_minus))
    w0 = max(_tail_cutoff(*((0.5, 0) if up else
                            (abs(k_plus ** 2 - k_minus ** 2) / 8, 2)), v_min)
             for up in np.atleast_1d(above))
    counts = _segment_panels(k1, k2, u_max, v_min, w0, _SHARED_PANELS, refine)
    xi, w, s1, s2, _ = _head_segments(k1, k2, w0, counts, _SHARED_PANELS)
    sp, sm = (s1, s2) if k_plus < k_minus else (s2, s1)
    return xi, w, sp, sm


def _anchors(pos):
    """pos as anchors plus offsets: (anchors, offsets, d) with
    pos_j = anchors_a + offsets_b + d_j for j = a m + b, m = offsets.size.

    On an arithmetic progression pos_j = pos_0 + j h (exactly, as Grid.nodes
    is) the anchors are every m-th point, m = ceil(sqrt(n)), the offsets
    b h, and d_j = (pos_j - anchors_a) - b h the rounding left over.  Any
    other point set is its own anchors, with one zero offset and d = None."""
    n = pos.size
    if n > 2:
        h = (pos[-1] - pos[0]) / (n - 1)
        j = np.arange(n)
        if np.array_equal(pos, pos[0] + h * j):
            m = math.isqrt(n - 1) + 1
            anchors, offsets = pos[::m], h * np.arange(m)
            return anchors, offsets, (pos - anchors[j // m]) - offsets[j % m]
    return pos, np.zeros(1), None


def _split(x):
    """x = hi + lo with hi holding the upper 26 bits (Veltkamp's splitting
    by 2^27 + 1)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _cos_sin(a, b, exact=True):
    """cos and sin of the outer product a b.  With exact they are those of
    the exact product to first order: the rounding error r of p = fl(a b)
    (Dekker's two-product, itself exact) enters as cos(p + r) =
    cos p - r sin p, sin(p + r) = sin p + r cos p."""
    p = np.multiply.outer(a, b)
    c, s = np.cos(p), np.sin(p)
    if not exact:
        return c, s
    (ah, al), (bh, bl) = _split(a), _split(b)
    r = np.multiply.outer(ah, bh) - p
    r += np.multiply.outer(ah, bl)
    r += np.multiply.outer(al, bh)
    r += np.multiply.outer(al, bl)
    return c - r * s, s + r * c


def _fold_factors(xi, expo, pos, height, scale):
    """[C, S] per node and rule point: C = scale e^{expo height} cos(xi pos),
    S = scale e^{expo height} sin(xi pos), shape (2, nodes, rule points).

    On a progression cos and sin come from the anchors and offsets of
    _anchors, for the exact products (_cos_sin), by angle addition and the
    correction (1 + i xi d) of the module docstring; any other point set
    takes cos and sin of each rounded phase, and real exponents (after the
    imaginary ones, as xi ascends) the real exp.  The
    nodes go in blocks of whole anchors of about _FOLD_CHUNK elements, each
    finished (rotation, correction, amplitude) in cache before the next."""
    nq, n = xi.size, pos.size
    anchors, offsets, d = _anchors(pos)
    m = offsets.size
    ca, sa = _cos_sin(anchors, xi, exact=d is not None)
    cb, sb = _cos_sin(offsets, xi) if d is not None else (None, None)
    out = np.empty((2, n, nq), dtype=np.result_type(expo, scale))
    ni = np.count_nonzero(np.imag(expo))
    step = max(1, _FOLD_CHUNK // (nq * m))
    for a0 in range(0, anchors.size, step):
        sl = slice(a0, a0 + step)
        lo = a0 * m
        hi = min(lo + step * m, n)
        if d is None:
            c, s = ca[sl], sa[sl]
        else:
            c = ca[sl, None] * cb
            t = sa[sl, None] * sb
            c -= t
            s = sa[sl, None] * cb
            np.multiply(ca[sl, None], sb, out=t)
            s += t
            c, s, t = (x.reshape(-1, nq)[:hi - lo] for x in (c, s, t))
            e = np.multiply.outer(d[lo:hi], xi)
            np.multiply(e, s, out=t)
            e *= c
            c -= t
            s += e
        h, amp = height[lo:hi], np.empty((hi - lo, nq), dtype=out.dtype)
        np.exp(np.multiply.outer(h, expo[:ni]), out=amp[:, :ni])
        np.exp(np.multiply.outer(h, np.real(expo[ni:])), out=amp[:, ni:])
        amp *= scale
        np.multiply(c, amp, out=out[0, lo:hi])
        np.multiply(s, amp, out=out[1, lo:hi])
    return out


def _gemm(c, a, b, alpha=1.0):
    """c += alpha a b^T in place; a (n1, k), b (n2, k) C-ordered, c Fortran-ordered."""
    gemm, = get_blas_funcs(("gemm",), (a, b, c))
    gemm(alpha, a.T, b.T, beta=1.0, c=c, trans_a=1, overwrite_c=1)


def _syrk(c, a, alpha):
    """Upper triangle of c += alpha a a^T in place; a (n, k) C-ordered, c
    Fortran-ordered."""
    syrk, = get_blas_funcs(("syrk",), (a, c))
    syrk(alpha, a.T, beta=1.0, c=c, trans=1, overwrite_c=1)


def _tables(xi, pos, height):
    """Sources on a plane (a progression at one height) as (e^{i xi anchor},
    the offsets' cos, sin interleaved, d) of _anchors and _cos_sin, else None."""
    anchors, offsets, d = _anchors(pos)
    if d is not None and np.all(height == height[0]):
        (ca, sa), (cb, sb) = _cos_sin(anchors, xi), _cos_sin(offsets, xi)
        return ca + 1j * sa, (cb + 1j * sb).view(float), d


def _table_rows(xi, tables, w):
    """[sum_j w_rj C_j, sum_j w_rj S_j], C + i S = e^{i xi t_j} on a plane:
    [Re w, Im w, Re w d, Im w d] as (anchors, offsets), one GEMM with the
    offsets' table, times the anchors' and summed over the anchors."""
    e, tab, d = tables
    r = np.zeros((4, len(w), e.shape[0] * tab.shape[0]))
    r[..., :d.size] = [w.real, w.imag, w.real * d, w.imag * d]
    z = (r.reshape(-1, tab.shape[0]) @ tab).view(complex).reshape(4, len(w), *e.shape)
    z *= e
    y = z[:2].sum(axis=2) + 1j * xi * z[2:].sum(axis=2)    # (1 + i xi d_j)
    return np.array([y[0].real + 1j * y[1].real, y[0].imag + 1j * y[1].imag])


def _table_cols(xi, tables, ab):
    """sum_q a_rq C_jq + b_rq S_jq (rows, n), ab = [(a_r, b_r)], C, S as in
    _table_rows: Re[(a + i b)(1 - i xi d_j) e^{-i xi t_j}], the rows times
    the anchors' conjugate table, then one real GEMM with the offsets'."""
    if np.iscomplexobj(ab):
        return _table_cols(xi, tables, ab.real) + 1j * _table_cols(xi, tables, ab.imag)
    (e, tab, d), g = tables, ab[:, 0] + 1j * ab[:, 1]
    g = np.concatenate((g, -1j * xi * g))[:, None] * e.conj()     # (1 - i xi d_j)
    p = (g.reshape(-1, xi.size).view(float) @ tab.T).reshape(len(g), -1)[:, :d.size]
    return p[:len(ab)] + d * p[len(ab):]


def _fold_sums(sums, xi, sm, st, base, s, fs, t, f):
    """Add one part of the folded rule to sums, (I,) or (I, dI/dy1, dI/dy2),
    in two or six products per rule block; st is the targets' exponent, S-
    below the interface and -S+ above it.  The rule's dtype picks real or
    complex BLAS, which takes the two halves of [C, S] uncopied."""
    blk = max(1, _BLOCK // (2 * max(s.size, t.size)))
    for lo in range(0, xi.size, blk):
        sl = slice(lo, lo + blk)
        xs = _fold_factors(xi[sl], st[sl], s, fs, base[sl])
        if s.size == 1 and (tables := _tables(xi[sl], t, f)):   # over a plane
            x, e, (cs, ss) = xi[sl], sm[sl], xs[:, 0] * np.exp(sm[sl] * f[0])
            ab = np.array([(cs, ss), (x * ss, -x * cs), (e * cs, e * ss)][:len(sums)])
            for acc, row in zip(sums, _table_cols(x, tables, ab)):
                acc[0] += row
            continue
        xt = _fold_factors(xi[sl], sm[sl], t, f, 1.0)
        for k, (a, b) in enumerate(zip(xs, xt)):
            _gemm(sums[0], a, b)
            if len(sums) > 1:   # sin(xi (s - t)) = S_s C_t - C_s S_t
                _gemm(sums[2], a * sm[sl], b)
                _gemm(sums[1], xs[1 - k] * xi[sl], xt[k], alpha=1 - 2 * k)


def _fold_contract(out, xi, sm, t, f, coef, sides):
    """Add one part of the folded rule, applied to source weights w, to out;
    coef is (w,) for I w, or (a w, b f' w, b w) for L w, sides one
    (rows, s, fs, st, base) per side of the interface.  Per rule block the
    sources' [C, S] (_fold_factors) fold once into P = (a w)C - S-(b w)C
    - xi (b f' w)S and Q = (a w)S - S-(b w)S + xi (b f' w)C, vectors over
    the rule, and each target adds C_s P + S_s Q: (m + n) q products."""
    blk = max(1, _BLOCK // (2 * max(t.size, *(x[0].size for x in sides))))
    for lo in range(0, xi.size, blk):
        sl = slice(lo, lo + blk)
        if tables := _tables(xi[sl], t, f):     # sources on a plane
            cw, sw = _table_rows(xi[sl], tables, coef) * np.exp(sm[sl] * f[0])
        else:
            x = _fold_factors(xi[sl], sm[sl], t, f, 1.0)
            cw, sw = coef.real @ x + 1j * (coef.imag @ x)  # no complex copy of x
        p, q = cw[0], sw[0]
        if len(coef) > 1:
            p = p - sm[sl] * cw[2] - xi[sl] * sw[1]
            q = q - sm[sl] * sw[2] + xi[sl] * cw[1]
        for rows, s, fs, st, base in sides:
            cs, ss = _fold_factors(xi[sl], st[sl], s, fs, base[sl])
            out[rows] += cs @ p + ss @ q


def _normal_sum(val, dy1, dy2, a, b, df):
    """a val + b (f' dy1 - dy2), written over val and dy1, with a, b, f' per
    column (source)."""
    dy1 *= df
    dy1 -= dy2
    dy1 *= b
    val *= a
    val += dy1
    return val


def _fold_layer(out, xi, sm, base, t, f, normal, sign, r=None):
    """Add one part of the folded rule to the layer sum out (normal as in
    remainder_matrices), and R's upper triangle to r.  With [C, S] of
    _fold_factors carrying sqrt(base), and P = (a - b S-) C - b f' xi S,
    Q = (a - b S-) S + b f' xi C built in place, sign (C P^T + S Q^T) is
    R diag(a) + N diag(b) there; [C, S] holds about min(_BLOCK, n^2) / 4."""
    a, b, df, rows = normal
    blk = max(1, min(_BLOCK, t.size ** 2) // (8 * t.size))
    for lo in range(0, xi.size, blk):
        sl = slice(lo, lo + blk)
        x = _fold_factors(xi[sl], sm[sl], t, f, np.sqrt(base[sl]))
        y = np.empty_like(x)
        u = np.subtract(np.reshape(a, (-1, 1)), np.multiply.outer(b, sm[sl]),
                        out=y[0])
        np.multiply(u, x[1], out=y[1])
        u *= x[0]
        v = np.multiply.outer(b * df, xi[sl])
        u -= v * x[1]
        y[1] += v * x[0]
        for xh, yh in zip(x, y):
            if r is not None:
                _syrk(r, xh, sign)
            _gemm(out, *((yh, xh) if rows else (xh, yh)), alpha=sign)


def remainder_matrices(k_plus, k_minus, t_nodes, f_vals, s_nodes=None,
                       fs_vals=None, refine=1, normal=None, weights=None):
    """Spectral part of G between point sets, through one shared rule.

    Sources y_j = (t_j, f_j) lie strictly below the interface, targets
    x_i = (s_i, fs_i) (the sources when s_nodes is omitted) all on one side
    of it unless weights are given (DomainError otherwise).  Of the sum

        I[i, j] = (1/2pi) int_R  E_i e^{S-(xi) f_j} g(xi)
                  e^{i xi (s_i - t_j)} d xi,

    the remainder R = G - Phi_{k-}(x, y) below the interface (E_i =
    e^{S- fs_i}, g mirror-subtracted as in the module doc) and all of G at
    or above it (E_i = e^{-S+ fs_i}, g = 1/(S+ + S-)): each end's slope is
    -S+ at or above the interface, S- below it.  It returns
    with normal = (a, b, f') at the sources the layer sum
    L = I diag(a) + N diag(b), N = f' dI/dy1 - dI/dy2 (_normal_sum); on the
    node set normal = (a, b, f', rows), and with rows set (the normal at
    the targets) L's transpose; with normal None (targets given) I alone:
    one dense complex matrix.  With weights w at the sources (targets given,
    on either side) it returns L w or I w, by _fold_contract.

    The rule on xi > 0 (real_axis_rule) spans u_max = max|s_i - t_j| and
    decays at least as e^{-xi v_min}, v_min = min|fs| + min|f|.  The fold
    e^{i xi u} + e^{-i xi u} = 2 [cos xi s cos xi t + sin xi s sin xi t]
    (2 sin(xi u) for the odd dI/dy1) writes every sum as products of the
    per-node factors E cos(xi t), E sin(xi t).  Where xi > max(k+, k-)
    they are real: that part runs first, in real BLAS, into real sums then
    made complex.  Between point sets _fold_sums gives I (and dI/dy1,
    dI/dy2, combined in place); on the node set L's real part is a syrk for
    R and a product for N diag(b), real buffers freed once L is formed from
    them a column panel at a time, and _fold_layer adds its complex part.
    """
    t = np.asarray(t_nodes, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    symmetric = s_nodes is None
    s = t if symmetric else np.asarray(s_nodes, dtype=float)
    fs = f if symmetric else np.asarray(fs_vals, dtype=float)
    if not np.all(f < 0):       # NaN too
        raise DomainError("surface nodes must lie strictly below the interface")
    up = fs >= 0
    sides = np.unique(up)       # False below the interface, True at or above
    if sides.size > 1 and weights is None:
        raise DomainError("targets must lie on one side of the interface")
    u_max = float(max(s.max() - t.min(), t.max() - s.min()))
    v_min = float(np.abs(fs).min() + np.abs(f).min())
    xi, w, sp, sm = real_axis_rule(k_plus, k_minus, u_max, v_min, sides,
                                   refine=refine)
    # per side (True at or above the interface) the targets' exponent st
    # and the rule's weights base, with the fold's factor 2 / (2 pi)
    side = {True: (-sp, w / (sp + sm) / np.pi), False: (sm, w * (
        k_plus ** 2 - k_minus ** 2) / (2 * sm * (sp + sm) ** 2) / np.pi)}
    real = (sp.imag == 0) & (sm.imag == 0)
    if weights is not None:
        out = np.zeros(s.size, dtype=complex)
        coef = np.array([weights] if normal is None else
                        [normal[0] * weights, normal[1] * normal[2] * weights,
                         normal[1] * weights])
        groups = [(np.flatnonzero(up == above), *side[above]) for above in sides]
        for part, cast in ((real, np.real), (~real, np.asarray)):
            _fold_contract(out, xi[part], cast(sm[part]), t, f, coef,
                           [(rows, s[rows], fs[rows], cast(st[part]),
                             cast(base[part])) for rows, st, base in groups])
        return out
    st, base = side[sides[0]]
    xr, smr, br = xi[real], sm[real].real, base[real].real
    if not symmetric:
        sums = [np.zeros((s.size, t.size), order="F")
                for _ in range(1 if normal is None else 3)]
        _fold_sums(sums, xr, smr, st[real].real, br, s, fs, t, f)
        for k in range(len(sums)):  # one at a time: one real sum beside them
            sums[k] = sums[k].astype(complex, order="F")
        _fold_sums(sums, xi[~real], sm[~real], st[~real], base[~real],
                   s, fs, t, f)
        return sums[0] if normal is None else _normal_sum(*sums, *normal)
    if normal is None or len(normal) != 4:
        raise DomainError("the node set takes a normal (a, b, f', rows)")
    a, b, df, rows = normal
    sign = 1.0 if k_plus > k_minus else -1.0    # sign base > 0 where real
    r, out = (np.zeros((t.size, t.size), order="F") for _ in range(2))
    _fold_layer(out, xr, smr, sign * br, t, f, (0.0, b, df, rows), sign, r)
    out = out.astype(complex, order="F")
    step = max(1, _FOLD_CHUNK // t.size)
    for lo in range(0, t.size, step):   # out += R diag(a), or diag(a) R
        sl, hi = slice(lo, lo + step), lo + step
        r[sl, sl] += np.triu(r[sl, sl], 1).T
        r[hi:, sl] = r[sl, hi:].T
        out[:, sl] += r[:, sl] * (a[:, None] if rows else a[sl])
    del r
    _fold_layer(out, xi[~real], sm[~real], sign * base[~real], t, f, normal,
                sign)
    return out
