"""Independent reference implementations used by the test suite.

Everything here is deliberately written against different algorithms and
different libraries than the package code: series instead of integral
representations, pairing enumeration instead of diagram recursion,
oscillation-aware mpmath quadrature instead of the package quadrature.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, optimize


def bessel_k_series(nu: float, z: float, terms: int = 160) -> float:
    """K_nu(z) summed from the small-argument series expansions.

    Non-integer order: pi/(2 sin(pi nu)) * (I_{-nu} - I_{nu}) with
    I_nu(z) = sum_j (z/2)^(2j+nu) / (j! Gamma(j+1+nu)). Integer order m:
    the finite sum plus the logarithmic series with digamma corrections.
    Evaluated at 60 significant digits; the subtraction of the two
    exponentially growing branches cancels catastrophically in double
    precision for moderate z.
    """
    with mpmath.workdps(60):
        zz = mpmath.mpf(z)
        nn = mpmath.mpf(nu)
        if abs(nu - round(nu)) > 1e-9:
            s_minus = mpmath.mpf(0)
            s_plus = mpmath.mpf(0)
            for j in range(terms):
                base = (zz / 2) ** (2 * j) / mpmath.factorial(j)
                s_minus += base * (zz / 2) ** (-nn) / mpmath.gamma(j + 1 - nn)
                s_plus += base * (zz / 2) ** (nn) / mpmath.gamma(j + 1 + nn)
            val = mpmath.pi / (2 * mpmath.sin(mpmath.pi * nn)) * (s_minus - s_plus)
        else:
            m = int(round(abs(nu)))
            finite = mpmath.mpf(0)
            for j in range(m):
                finite += (
                    mpmath.mpf(-1) ** j
                    * mpmath.factorial(m - j - 1)
                    / mpmath.factorial(j)
                    * (zz / 2) ** (2 * j - m)
                )
            finite /= 2
            series = mpmath.mpf(0)
            for j in range(terms):
                series += (
                    (zz / 2) ** (m + 2 * j)
                    / (mpmath.factorial(j) * mpmath.factorial(m + j))
                    * (
                        mpmath.log(zz / 2)
                        - mpmath.digamma(j + 1) / 2
                        - mpmath.digamma(j + m + 1) / 2
                    )
                )
            val = finite + mpmath.mpf(-1) ** (m + 1) * series
        return float(val)


def _hermite_monomials(l: int) -> list[tuple[int, float]]:
    # He_l(x) = sum of coef * x^power
    coeffs = np.polynomial.hermite_e.herme2poly([0.0] * l + [1.0])
    return [(p, float(c)) for p, c in enumerate(coeffs) if c != 0.0]


@lru_cache(maxsize=None)
def _pairings(slots: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    # perfect matchings of the multiset of variable slots
    if not slots:
        return ((),)
    if len(slots) % 2:
        return ()
    first, rest = slots[0], list(slots[1:])
    out = []
    for i in range(len(rest)):
        other = rest[i]
        remaining = tuple(rest[:i] + rest[i + 1 :])
        for tail in _pairings(remaining):
            out.append(((first, other),) + tail)
    return tuple(out)


def _monomial_moment(slots: tuple[int, ...], corr: np.ndarray) -> float:
    # E[prod zeta_i over slots] by summing products over all pairings
    total = 0.0
    for match in _pairings(slots):
        prod = 1.0
        for i, j in match:
            prod *= corr[i, j]
        total += prod
    return total


def isserlis_hermite_moment(orders, corr) -> float:
    """E[prod_j He_{l_j}(zeta_j)] by expanding every Hermite polynomial
    into monomials and evaluating each mixed Gaussian moment with the
    Isserlis pairing sum."""
    corr = np.asarray(corr, dtype=float)
    expansions = [_hermite_monomials(l) for l in orders]
    total = 0.0
    for combo in itertools.product(*expansions):
        coef = 1.0
        slots = []
        for var, (power, c) in enumerate(combo):
            coef *= c
            slots.extend([var] * power)
        total += coef * _monomial_moment(tuple(slots), corr)
    return total


def density_oracle(spec, lam: float, dps: int = 30) -> float:
    """Spectral density by oscillation-aware mpmath quadrature of the
    cosine transform of each component covariance."""
    total = mpmath.mpf(0)
    with mpmath.workdps(dps):
        for comp in spec.components:
            alpha = mpmath.mpf(comp.alpha)
            rho = mpmath.mpf(comp.rho)

            def env(t, alpha=alpha, rho=rho):
                return (1 + t**rho) ** (-alpha / 2)

            for mu in (abs(lam - comp.kappa), abs(lam + comp.kappa)):
                if mu == 0.0:
                    raise ValueError("oracle requires non-singular frequencies")
                part = mpmath.quadosc(
                    lambda t: env(t) * mpmath.cos(mu * t),
                    [0, mpmath.inf],
                    omega=mpmath.mpf(mu),
                )
                total += mpmath.mpf(comp.weight) / (2 * mpmath.pi) * part
    return float(total)


def density_oracle_fast(spec, lam: float) -> float:
    """Spectral density by QUADPACK Fourier-integral quadrature (QAWF)
    of the cosine transform of each component covariance. Same split of
    cos(kappa t) cos(lam t) into half frequencies as the mpmath oracle,
    but orders of magnitude faster; accurate to ~1e-8 absolute."""
    total = 0.0
    for comp in spec.components:
        env = lambda t, a=comp.alpha, r=comp.rho: (1.0 + t**r) ** (-a / 2.0)
        for mu in (abs(lam - comp.kappa), lam + comp.kappa):
            if mu == 0.0:
                raise ValueError("oracle requires non-singular frequencies")
            part, _ = integrate.quad(
                env, 0.0, math.inf, weight="cos", wvar=mu,
                epsabs=1e-10, limlst=200, limit=400,
            )
            total += comp.weight / (2.0 * math.pi) * part
    return total


def abs_cov_power_oracle(
    spec, m: int, split: float = 4096.0, dps: int = 30
) -> tuple[float, float]:
    """int_0^split of |B(t)|^m dt by mpmath quadrature over carrier-aligned
    blocks, and an upper bound on the tail beyond the split, so the full
    integral lies in [head, head + tail_bound]."""
    kappas = [c.kappa for c in spec.components if c.kappa > 0.0]
    with mpmath.workdps(dps):

        def babs(t):
            val = mpmath.mpf(0)
            for c in spec.components:
                val += (
                    mpmath.mpf(c.weight)
                    * mpmath.cos(c.kappa * t)
                    / (1 + t ** mpmath.mpf(c.rho)) ** (mpmath.mpf(c.alpha) / 2)
                )
            return abs(val) ** m

        split = mpmath.mpf(split)
        period = mpmath.pi / max(kappas) if kappas else split / 8
        knots = [mpmath.mpf(0)]
        while knots[-1] < split:
            knots.append(min(knots[-1] + period, split))
        head = mpmath.quad(babs, knots)
        # envelope tail: expand |B|^m <= (sum_j w_j env_j)^m termwise
        envelope = mpmath.mpf(0)
        for combo in itertools.product(spec.components, repeat=m):
            w = mpmath.mpf(1)
            b = mpmath.mpf(0)
            for c in combo:
                w *= mpmath.mpf(c.weight)
                b += mpmath.mpf(c.alpha) * mpmath.mpf(c.rho) / 2
            envelope += w * split ** (1 - b) / (b - 1)
        return float(head), float(envelope)


@lru_cache(maxsize=None)
def abs_cov_power_quad_oracle(spec, m: int, lo: float = 0.0) -> float:
    """int_lo^inf |B(t)|^m dt by QUADPACK (QAGS) between knots a quarter
    period of the fastest carrier apart (1 apart without a carrier), graded
    geometrically toward t = 0, up to the split max(4096, 4 lo). Past the
    split it takes the package's envelope tail, the power law
    env(split)^m * split / (beta - 1) with beta = m * min_j alpha_j rho_j / 2,
    which bounds the rest from above."""
    comps = [(c.weight, c.kappa, c.rho, c.alpha / 2.0) for c in spec.components]

    def babs(t):
        return abs(sum(w * math.cos(k * t) * (1.0 + t**r) ** -a for w, k, r, a in comps)) ** m

    split = max(4096.0, 4.0 * lo)
    kappa = max(k for _, k, _, _ in comps)
    step = 0.5 * math.pi / kappa if kappa > 0.0 else 1.0
    knots = [0.0] + [step * 2.0**-j for j in range(40, 0, -1)] if lo == 0.0 else [lo]
    while knots[-1] < split:
        knots.append(min(knots[-1] + step, split))
    head = math.fsum(
        integrate.quad(babs, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for a, b in zip(knots, knots[1:])
    )
    envelope = sum(w * (1.0 + split**r) ** -a for w, _, r, a in comps)
    beta = m * min(a * r for _, _, r, a in comps)
    return head + envelope**m * split / (beta - 1.0)


@lru_cache(maxsize=None)
def _envelope_cosine_qawf(envelope: tuple, mu: float) -> float:
    # int_0^inf prod_j (1 + t^rho_j)^(-a_j) cos(mu t) dt for envelope
    # ((a_j, rho_j), ...); QAWF for mu > 0, QAGI on the plain integral
    def env(t):
        out = 1.0
        for a, rho in envelope:
            out *= (1.0 + t**rho) ** (-a)
        return out

    if mu == 0.0:
        val, _ = integrate.quad(env, 0.0, math.inf, epsabs=1e-11, epsrel=1e-11, limit=400)
    else:
        val, _ = integrate.quad(
            env, 0.0, math.inf, weight="cos", wvar=mu,
            epsabs=1e-11, limlst=200, limit=400,
        )
    return val


def self_convolution_qawf_oracle(spec, k: int, lam: float) -> float:
    """f^(*k)(lam) = (1/pi) int_0^inf B(t)^k cos(lam t) dt by expanding
    B^k over ordered k-tuples of components, every product of carrier
    cosines over its 2^m sign patterns, and transforming each resulting
    envelope-times-cosine line with QUADPACK's Fourier integral (QAWF)."""
    comps = spec.components
    lines: dict = {}
    for combo in itertools.product(range(len(comps)), repeat=k):
        weight = 1.0
        counts = [0] * len(comps)
        for j in combo:
            weight *= comps[j].weight
            counts[j] += 1
        envelope = tuple(
            (n * comps[j].alpha / 2.0, comps[j].rho)
            for j, n in enumerate(counts)
            if n
        )
        carriers = [comps[j].kappa for j in combo if comps[j].kappa != 0.0]
        # prod_i cos(x_i) = 2^-m sum over signs of cos(sum_i s_i x_i)
        for signs in itertools.product((1.0, -1.0), repeat=len(carriers)):
            freq = round(abs(sum(s * x for s, x in zip(signs, carriers))), 12)
            key = (envelope, freq)
            lines[key] = lines.get(key, 0.0) + weight * 0.5 ** len(carriers)
    lam = abs(lam)
    total = 0.0
    for (envelope, freq), coef in lines.items():
        # cos(freq t) cos(lam t) splits into the two shifted frequencies
        for mu in (round(abs(lam - freq), 12), lam + freq):
            total += 0.5 * coef * _envelope_cosine_qawf(envelope, mu)
    return total / math.pi


def _envelope_reference(lines, t: float):
    # (U, U', local decay exponent) per line, straight from the exponents
    tr = t**lines.rho
    u = np.exp(-lines.expo @ np.log1p(tr))
    beta_loc = lines.expo @ (lines.rho * tr / (1.0 + tr))
    return u, -u * beta_loc / t, beta_loc


def _tail_closure_reference(lines, lam: float):
    # one order's tail with its own doubling loop: two integrations by
    # parts for mu > 0, a checked local power law for mu == 0
    from harmreg import spectral as sp

    mu = np.concatenate([np.abs(lam - lines.omega), lam + lines.omega])
    coef = np.concatenate([lines.coef, lines.coef])
    row = np.concatenate([np.arange(lines.omega.size)] * 2)
    zero = mu == 0.0
    mu_o, coef_o, row_o = mu[~zero], coef[~zero], row[~zero]
    coef_z, row_z = coef[zero], row[zero]

    def power_tail(t):
        u, _, beta_loc = _envelope_reference(lines, t)
        return u * t / (beta_loc - 1.0), beta_loc

    def parts_bound(du):
        return np.abs(coef_o) @ (np.abs(du[row_o]) / mu_o**2)

    t1 = sp._T_START
    while True:
        _, du, _ = _envelope_reference(lines, t1)
        err = parts_bound(du)
        if row_z.size:
            closed, beta_loc = power_tail(t1)
            _, beta_half = power_tail(0.5 * t1)
            err += np.abs(coef_z) @ (closed * 2.0 * np.abs(beta_loc - beta_half))[row_z]
        if err / (2.0 * math.pi) <= sp._TAIL_TARGET or t1 >= sp._T_CAP:
            break
        t1 *= 2.0
    u, du, _ = _envelope_reference(lines, t1)
    tail = coef_o @ (
        -u[row_o] * np.sin(mu_o * t1) / mu_o - du[row_o] * np.cos(mu_o * t1) / mu_o**2
    )
    err = parts_bound(du)
    if row_z.size:
        closed, _ = power_tail(t1)
        half, _ = power_tail(0.5 * t1)
        edges = np.linspace(0.5 * t1, t1, sp._SEG_PANELS + 1)
        seg, coarse = (
            np.exp(-lines.expo @ np.log1p(t.ravel()[None, :] ** lines.rho[:, None])) @ w.ravel()
            for t, w in (sp._panel_nodes(edges), sp._panel_nodes(edges[::2]))
        )
        tail += coef_z @ closed[row_z]
        err += np.abs(coef_z) @ (np.abs(half - (seg + closed)) + np.abs(seg - coarse))[row_z]
    return t1, float(tail) / (2.0 * math.pi), float(err) / (2.0 * math.pi)


def power_transforms_reference(spec, lam: float, orders) -> list[tuple[float, float]]:
    """(1/pi) int_0^inf B(t)^k cos(lam t) dt with its error estimate for each
    k in orders, by the cosine-transform engine as it stood before its tails
    were stacked and its cos(lam t) factored: a tail closure per order with
    two integrations by parts, and a body that takes cos(lam t) directly on
    every node of the panels of ``_block_edges``, laid out panel by panel.
    It shares only the expansion of B^k into lines and the panel edges with
    the package."""
    from harmreg import spectral as sp

    closures = [_tail_closure_reference(sp._stacked_lines(spec, (k,)), lam) for k in orders]
    t1s = [c[0] for c in closures]
    kappa_max = max(c.kappa for c in spec.components)
    body = dict.fromkeys(orders, 0.0)
    diff = dict.fromkeys(orders, 0.0)
    a, b = 0.0, sp._T_START
    while a < max(t1s):
        open_orders = {k for k, t1 in zip(orders, t1s) if t1 >= b}
        omega = max(open_orders) * kappa_max + lam
        width = 2.0 * math.pi / omega if omega > 0.0 else math.inf
        for edges in sp._block_edges(a, b, width):
            fine_t, fine_w = sp._panel_nodes(edges)
            coarse_t, coarse_w = sp._panel_nodes(edges[::2])
            fine_t, coarse_t = fine_t.ravel(), coarse_t.ravel()
            fine_w = fine_w.ravel() * np.cos(lam * fine_t)
            coarse_w = coarse_w.ravel() * np.cos(lam * coarse_t)
            fine_b, coarse_b = sp.covariance(spec, fine_t), sp.covariance(spec, coarse_t)
            for k in open_orders:
                value = fine_w @ fine_b**k
                body[k] += value
                diff[k] += abs(value - coarse_w @ coarse_b**k)
        a, b = b, 2.0 * b
    return [
        (body[k] / math.pi + tail, diff[k] / math.pi + tail_err)
        for k, (_, tail, tail_err) in zip(orders, closures)
    ]


def hermite_coefficients_oracle(g, k_max: int, breakpoints=(), dps: int = 30) -> np.ndarray:
    """C_k = int G(x) He_k(x) phi(x) dx for k = 0..k_max by mpmath
    tanh-sinh quadrature split at the breakpoints, with He_k expanded into
    monomials (Horner) instead of run through the three-term recurrence;
    ``g`` must accept mpmath numbers."""
    with mpmath.workdps(dps):
        edges = [-mpmath.inf, *(mpmath.mpf(b) for b in sorted(breakpoints)), mpmath.inf]
        norm = 1 / mpmath.sqrt(2 * mpmath.pi)
        out = []
        for k in range(k_max + 1):
            # herme2poly lists the (exact integer) monomial coefficients lowest first
            poly = [mpmath.mpf(c) for c in np.polynomial.hermite_e.herme2poly([0.0] * k + [1.0])]
            poly.reverse()

            def integrand(x, poly=poly):
                return g(x) * mpmath.polyval(poly, x) * norm * mpmath.exp(-x * x / 2)

            out.append(float(mpmath.quad(integrand, edges)))
    return np.array(out)


def circulant_path_oracle(root: np.ndarray, n: int, seed) -> np.ndarray:
    """Circulant-embedding draw from the full Hermitian spectrum (Wood & Chan
    1994; Dietrich & Newsam 1997).

    With the scaled root r = sqrt(eigenvalues / size) of an embedding of
    even size M and one vector z of M standard normals from
    default_rng(seed), the spectrum V_0 = r_0 z_0, V_{M/2} = r_{M/2} z_1,
    V_k = r_k (z_{2k} + i z_{2k+1}) / sqrt(2) and V_{M-k} = conj(V_k) for
    0 < k < M/2 has an inverse FFT whose imaginary part is rounding and
    whose real part, times M and cut to the first n entries, is a
    stationary Gaussian path with the embedded covariance.
    """
    size = root.size
    half = size // 2
    z = np.random.default_rng(seed).standard_normal(size)
    spectrum = np.zeros(size, dtype=complex)
    spectrum[0] = z[0]
    spectrum[half] = z[1]
    spectrum[1:half] = (z[2::2] + 1j * z[3::2]) / math.sqrt(2.0)
    spectrum[half + 1:] = spectrum[half - 1:0:-1].conjugate()
    path = size * np.fft.ifft(root * spectrum)
    assert np.max(np.abs(path.imag)) <= 1e-12 * np.max(np.abs(path.real))
    return path.real[:n]


def lemma2_oracle(noise, transform, horizons, replications, master_seed,
                  dt=0.25, band=(0.1, 3.0)) -> tuple[float, ...]:
    """Mean eta^2 per horizon by one path at a time.

    Replication r on horizon g draws ``gaussian_path`` from
    SeedSequence(master_seed, spawn_key=(g, r)), subordinates it and takes
    ``eta_squared`` of its own periodogram; the sup values are summed in
    replication order and divided by the replication count.
    """
    from harmreg.montecarlo import eta_squared
    from harmreg.simulate import SamplePath, SamplingGrid, gaussian_path, subordinate

    means = []
    for gi, horizon in enumerate(horizons):
        grid = SamplingGrid(float(horizon), dt)
        acc = 0.0
        for r in range(replications):
            seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(gi, r))
            eps = subordinate(gaussian_path(noise, grid, seed), transform)
            acc += eta_squared(SamplePath(grid=grid, values=eps), band)
        means.append(acc / replications)
    return tuple(means)


def least_squares_oracle(values: np.ndarray, times: np.ndarray, truth) -> np.ndarray:
    """Least-squares harmonic fit by MINPACK's Levenberg-Marquardt.

    ``scipy.optimize.least_squares(method="lm")`` minimises the sum of
    squared residuals x(t_i) - sum_k (A_k cos(phi_k t_i) + B_k sin(phi_k t_i)),
    formed term by term and differenced numerically, starting from the
    true rows ``truth`` of (A_k, B_k, phi_k). Returns the fitted rows.
    """
    truth = np.asarray(truth, dtype=float)

    def residual(tau):
        rows = tau.reshape(-1, 3)
        fit = sum(a * np.cos(p * times) + b * np.sin(p * times) for a, b, p in rows)
        return values - fit

    sol = optimize.least_squares(
        residual, truth.ravel(), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15
    )
    return sol.x.reshape(-1, 3)
