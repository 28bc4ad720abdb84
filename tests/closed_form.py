"""G, H and J of the mu = 0 and mu = p extremal examples in closed form,
kept as a test-only oracle that uses no quadrature.

On these two families every functional is an incomplete beta integral

    B(x1, x2; A, b) = integral of z**(A - 1) * (1 - z)**(b - 1) over (x1, x2),

which mpmath.betainc gives unregularised, A < 0 and integer A included.
For mu = 0 (g = e**(a s), v = e**(c s)) substitute z = s0 * e**(-c s); for
mu = p (g = s**m with m = a + p - 1, v = s**c) substitute z = s0 * s**(-c).
Then v - s0 = s0 * (1 - z) / z, z = 1 at the support start t0, and each
functional is a prefactor times s0**(-A) times B(z_R, 1; A, b) for G and H,
or B(z_R, z_r; A, b) for J, with

    G:  prefactor omega / c,             A = -q - k / c,            b = q + 1
    H:  prefactor omega * c**(p - 1),    A = -q - a / c,            b = q - p + 1
    J:  prefactor omega**(1/(1-p)) / c,  A = (q + a / c) / (p - 1), b = 1 - q / (p - 1)

where k = a for mu = 0 and k = m + 1 = a + p for mu = p, so that
g ds = (s0 / z)**(k / c) dz / (c z) on both.  The example's double s0, a,
c and omega are taken as exact, as the code takes them, and z = 1 at the
support start, as the code's edge tables take v(t0) = s0 to be exact.
The work runs at 80 digits: B(z_R, 1; A, b) with A large and negative is a
difference of two continued values, and at 40 digits it lost 1.4e-11 on one
tuple of the domain sweep.

For mu < p (g = e**(a s**beta), v = e**(c s**beta)) the same z leaves
(log(s0 / z) / c)**(1/beta - 1) in G's integrand, so log_gh_below_p
integrates G and H by 40-digit quadrature, in y = (1 - z)**alpha with
alpha = q + 1 for G and alpha = gamma = q - p + 1 for H, where the factor
(1 - z)**(alpha - 1) dz = dy / alpha of the support edge is smooth.  In z
itself it is not: at gamma = 0.01 half of H lies at 1 - z < 1e-30, and a
40-digit quadrature in z came out 0.43 off in log H.
"""

import mpmath

DPS = 80


def log_integrals(ex, g_radii, h_radii, j_pairs):
    """log G at each of g_radii, log H at each of h_radii and log J over
    each (r, R) of j_pairs for the example ex (mu = 0 or mu = p), as three
    lists of 80-digit mpf."""
    with mpmath.workdps(DPS):
        p, q, a, c, s0, omega = (mpmath.mpf(x) for x in (
            ex.p, ex.q, ex.a, ex.c, ex.s0, ex.manifold.omega))
        if ex.mu == 0.0:
            def z(s):
                return s0 * mpmath.exp(-c * s)
            k = a
        elif ex.mu == ex.p:
            def z(s):
                return s0 * mpmath.mpf(s) ** -c
            k = a + p
        else:
            raise ValueError(f"no closed form for 0 < mu < p, got mu={ex.mu}")
        log_s0, log_omega = mpmath.log(s0), mpmath.log(omega)

        def log_beta(log_prefactor, A, b, x1, x2):
            return log_prefactor - A * log_s0 \
                + mpmath.log(mpmath.betainc(A, b, x1, x2))

        G = [log_beta(log_omega - mpmath.log(c), -q - k / c, q + 1, z(R), 1)
             for R in g_radii]
        H = [log_beta(log_omega + (p - 1) * mpmath.log(c), -q - a / c,
                      q - p + 1, z(R), 1) for R in h_radii]
        J = [log_beta(-log_omega / (p - 1) - mpmath.log(c),
                      (q + a / c) / (p - 1), 1 - q / (p - 1), z(R), z(r))
             for r, R in j_pairs]
    return G, H, J


def log_gh_below_p(ex, functional, log_v):
    """log G (functional "G") or log H ("H") of the example ex (mu < p, beta
    in (0, 1]) from its support start up to the radius where log v reaches
    log_v, as a 40-digit mpf: with z = s0 / v, L = log v = log s0 - log z
    and K = q + a / c + 1,

        G = omega / (c beta) * s0**(K - 1) * integral of
            z**-K * (1 - z)**q * (L / c)**(1/beta - 1) dz,
        H = omega * (c beta)**(p - 1) * s0**(K - 1) * integral of
            z**-K * (1 - z)**(q - p) * (L / c)**((p - 1)(beta - 1)/beta) dz,

    over (s0 / e**log_v, 1), log s0 > 0.  The part over z > 1/2 is integrated in
    y = (1 - z)**alpha, and the rest in log z, on pieces of unit length, so
    that neither end layer is left to one quadrature.  The double p, q, a,
    c, beta, s0 and omega, and log_v, are taken as exact."""
    with mpmath.workdps(40):
        p, q, a, c, beta, s0, omega = (mpmath.mpf(x) for x in (
            ex.p, ex.q, ex.a, ex.c, ex.profile.beta, ex.s0, ex.manifold.omega))
        log_s0, K = mpmath.log(s0), q + a / c + 1
        if functional == "G":
            alpha, e, log_pre = q + 1, 1 / beta - 1, -mpmath.log(c * beta)
        else:
            alpha = q - p + 1
            e = (p - 1) * (beta - 1) / beta
            log_pre = (p - 1) * mpmath.log(c * beta)

        # (L / c)**e = (log s0 / c)**e * (1 - log z / log s0)**e, whose
        # first factor leaves each integrand of order one: mpmath's
        # tolerance is absolute
        def edge(y):
            log_z = mpmath.log1p(-y ** (1 / alpha))
            return mpmath.exp(-K * log_z + e * mpmath.log1p(-log_z / log_s0)) / alpha

        def bulk(u):
            return mpmath.exp((1 - K) * u + (alpha - 1) * mpmath.log1p(-mpmath.exp(u))
                              + e * mpmath.log1p(-u / log_s0))

        log_top, half = log_s0 - mpmath.mpf(log_v), -mpmath.log(2)
        if log_top >= half:
            total = mpmath.quad(edge, [0, (-mpmath.expm1(log_top)) ** alpha])
        else:
            pieces = int(mpmath.ceil(half - log_top)) + 1
            total = mpmath.quad(edge, [0, 2 ** -alpha]) \
                + mpmath.quad(bulk, mpmath.linspace(log_top, half, pieces))
        return mpmath.log(omega) + log_pre + e * mpmath.log(log_s0 / c) \
            + (K - 1) * log_s0 + mpmath.log(total)
