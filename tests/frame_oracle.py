"""Exact oracles for what the map resolves in double precision, shared
by the test modules.

exact_walk locates a point as the scalar walk does, with the centers and
radii of the exact construction: every center, step and radius is a
Fraction built from the exact double value of sigma, so nothing rounds.
exact_least_frame_jacobian is a min(r'/r, R'/R), the least Jacobian of a
level-k frame map, taken exactly from the double radii the map reads.
"""

from fractions import Fraction

from cantormap.construction import MIN_LEVEL, radii

U = Fraction(1, 2**53)


def exact_walk(x0, x1, depth, sigma):
    """(level, in_frame, clear) of the point (x0, x1) under the scalar
    walk's conventions (closed frames, ties to the higher cell), from the
    exact centers (o + 1/2) / 8 +- sigma^3 / 4 +- ... and radii
    r_k = sigma^k / 2.

    clear is whether every comparison the walk made at a level k, of
    rho with r_k and of each coordinate with its center's, had a margin
    above k u, u = 2^-53.  A double center at level k is k - 3 rounded
    additions off the exact one, and r_k and x - c round once more, so
    the double walk makes the same choices wherever clear holds.
    """
    s = Fraction(sigma)
    x = (Fraction(x0), Fraction(x1))
    c = [(min(int(8 * xa), 7) + Fraction(1, 2)) / 8 for xa in x]
    k, clear = MIN_LEVEL, True
    while True:
        d = [xa - ca for xa, ca in zip(x, c)]
        rho, r = max(abs(d[0]), abs(d[1])), s**k / 2
        clear = clear and abs(rho - r) > k * U
        if k == depth or rho >= r:
            return k, rho >= r, clear
        clear = clear and min(abs(d[0]), abs(d[1])) > k * U
        c = [ca + s**k / 4 if da >= 0 else ca - s**k / 4 for ca, da in zip(c, d)]
        k += 1


def exact_least_frame_jacobian(k, params):
    """a min(r'/r, R'/R) of the level-k frame, exact from the double
    radii; 0 where r, r', R - r or R' - r' is not positive."""
    rad = radii(k, params)
    r, R, r_img, R_img = (Fraction(v) for v in (rad.r, rad.R, rad.r_img, rad.R_img))
    if min(r, r_img, R - r, R_img - r_img) <= 0:
        return Fraction(0)
    return (R_img - r_img) / (R - r) * min(r_img / r, R_img / R)
