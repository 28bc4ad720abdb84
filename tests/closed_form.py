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
