"""Exact oracles for the frame distortion and the series ratios, shared
by the test modules.

Evaluates the definitions at 300 significant digits, enough for every
level up to 1e100: T_k = (log k / log(k-1))^(beta/2) - 1, K = alpha / T_k
with alpha = (1 - 2 sigma) / (2 sigma), the gauge exponent
p K / (1 + log K), and the ratio exp(G(K_{k+1}) - G(K_k)).  The frame
quantities are formed from the radii r = sigma^k / 2, R = sigma^(k-1) / 4,
r' = l_k / 2 and R' = l_{k-1} / 4 (R = R' = 1/16 at level 3), with
l_k = 2^-k (log k)^(-beta/2), in an exponent range wide enough for them
at any level.  The parameters are taken at their exact double values.
"""

from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

PRECISION = 300


def exact_gain_ratio(k, sigma, beta, p):
    with localcontext() as ctx:
        ctx.prec = PRECISION
        two_sigma = 2 * Decimal(sigma)
        alpha = (1 - two_sigma) / two_sigma

        def gain(n):
            T = (Decimal(n).ln() / Decimal(n - 1).ln()) ** (Decimal(beta) / 2) - 1
            K = alpha / T
            return Decimal(p) * K / (1 + K.ln())

        return (gain(k + 1) - gain(k)).exp()


def exact_gain_deviation(k, sigma, beta, p):
    """|ratio / limit - 1| with limit exp(2 p alpha / beta), as a float."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        two_sigma = 2 * Decimal(sigma)
        alpha = (1 - two_sigma) / two_sigma
        limit = (2 * Decimal(p) * alpha / Decimal(beta)).exp()
        return float(abs(exact_gain_ratio(k, sigma, beta, p) / limit - 1))


def _radii(k, sigma, beta):
    """(r, R, r', R') of level k in the current decimal context."""
    s, half_beta = Decimal(sigma), Decimal(beta) / 2

    def side(n):
        return Decimal(2) ** -n * Decimal(n).ln() ** -half_beta

    if k == 3:
        return s**3 / 2, Decimal(1) / 16, side(3) / 2, Decimal(1) / 16
    return s**k / 2, s ** (k - 1) / 4, side(k) / 2, side(k - 1) / 4


def _context(ctx):
    ctx.prec = PRECISION
    ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX


def exact_sup_distortion(k, sigma, beta):
    """max(t/a, a/t) at the inner radius, t = r'/r, a = (R' - r')/(R - r)."""
    with localcontext() as ctx:
        _context(ctx)
        r, R, r_img, R_img = _radii(k, sigma, beta)
        t, a = r_img / r, (R_img - r_img) / (R - r)
        return max(t / a, a / t)


def _tv(r, R, r_img, R_img):
    a = (R_img - r_img) / (R - r)
    b = (R * r_img - R_img * r) / (R - r)
    return 4 * a * (R**2 - r**2) + 8 * max(b, 0) * (R - r)


def exact_tv_integral(k, sigma, beta):
    """4 a (R^2 - r^2) + 8 max(b, 0) (R - r), the frame's derivative-norm integral."""
    with localcontext() as ctx:
        _context(ctx)
        return _tv(*_radii(k, sigma, beta))


def exact_tv_log_term(k, sigma, beta):
    """log(4^(k-1) tv(k)) for k >= 4, at levels whose radii leave every
    decimal exponent range (sigma^k at k = 1e308).  The integral scales by
    P P' when the pre-image radii scale by P = sigma^(k-1) and the image
    radii by P' = l_{k-1}, so it is formed from radii divided by those,
    (sigma / 2, 1 / 4, l_k / (2 l_{k-1}), 1 / 4), and the logs of P and P'.
    300 digits resolve l_k / l_{k-1} only to 1e-300, which moves the log
    term by far less than its ulp at such levels."""
    with localcontext() as ctx:
        _context(ctx)
        s, half_beta = Decimal(sigma), Decimal(beta) / 2

        def log_side(n):
            return -n * Decimal(2).ln() - half_beta * Decimal(n).ln().ln()

        u = (log_side(k) - log_side(k - 1)).exp() * 2
        quarter = Decimal(1) / 4
        scaled = _tv(s / 2, quarter, u / 4, quarter)
        return (k - 1) * Decimal(4).ln() + (k - 1) * s.ln() + log_side(k - 1) + scaled.ln()


def exact_subexp_ratio(k, sigma, beta, p):
    """The subexp series' level-k term ratio: 4 times the ratio of the
    level-(k+1) and level-k frame areas 4 (R^2 - r^2), times the ratio of
    the gauges exp(p K / (1 + log K)) at the exact frame sups K."""
    with localcontext() as ctx:
        _context(ctx)

        def area(n):
            r, R, _, _ = _radii(n, sigma, beta)
            return 4 * (R**2 - r**2)

        def gain(n):
            K = exact_sup_distortion(n, sigma, beta)
            return Decimal(p) * K / (1 + K.ln())

        return 4 * area(k + 1) / area(k) * (gain(k + 1) - gain(k)).exp()


def exact_tv_ratio(k, sigma, beta):
    """The tv series' level-k term ratio, 4 (level-(k+1) / level-k integral)."""
    with localcontext() as ctx:
        _context(ctx)
        return 4 * exact_tv_integral(k + 1, sigma, beta) / exact_tv_integral(k, sigma, beta)
