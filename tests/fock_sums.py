"""Brute-force Fock sums in mpmath: the reference for the closed-form observables.

The weights |c_n|^2 come from the product recursion of the defining
equations at 40 digits, with F(n) = n + beta_{n mod lambda} taken from
beta_bar, over every level that weighs more than CUTOFF of the heaviest one;
nothing here calls clext.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40
# levels lighter than this, relative to the heaviest one, are left out of the sums
CUTOFF = mp.mpf(10) ** -30


class FockSums:
    """Normalized moments of one coherent state, from one pass over its levels.

    sector = None is the eigenstate |z> (every level, |c_{n+1}/c_n|^2 =
    |z|^2 / F(n+1)); sector = (mu, alpha) is |z; mu; alpha> on n = k lambda + mu,
    |c_{n+lambda}/c_n|^2 = |z|^2 prod_{j<=alpha} F(n+j) / prod_{alpha<j<=lambda} F(n+j).
    """

    def __init__(self, beta_bar, z_abs: float, sector=None):
        with mp.workdps(DPS):
            self.lam = lam = len(beta_bar) + 1
            self.beta = [mp.mpf(0)] + [lam * mp.mpf(b) - mu for mu, b in enumerate(beta_bar, 1)]
            mu, alpha, width = (0, 0, 1) if sector is None else (sector[0], sector[1], lam)
            signs = [1 if j <= alpha else -1 for j in range(1, width + 1)]
            # which levels weigh more than CUTOFF of the heaviest: found from
            # floating-point logs of the weights, walking up from the vacuum
            beta = [float(b) for b in self.beta]
            log_z2, log_cut = 2.0 * math.log(z_abs), math.log(CUTOFF)
            log_w, top = [0.0], 0.0
            while len(log_w) < 3 or log_w[-1] > top + log_cut:
                n = mu + width * (len(log_w) - 1)
                log_w.append(log_w[-1] + log_z2 + sum(
                    s * math.log(n + j + beta[(n + j) % lam]) for j, s in enumerate(signs, 1)
                ))
                top = max(top, log_w[-1])
            kept = [i for i, v in enumerate(log_w) if v > top + log_cut]
            # their weights at 40 digits, by the product recursion from the
            # lightest kept level (the overall scale drops out)
            levels = [mu + width * i for i in range(kept[0], kept[-1] + 1)]
            weights = [mp.mpf(1)]
            for n in levels[:-1]:
                w = weights[-1] * mp.mpf(z_abs) ** 2
                for j, s in enumerate(signs, 1):
                    w = w * self.F(n + j) if s > 0 else w / self.F(n + j)
                weights.append(w)
            total = mp.fsum(weights)
            self.p = [(n, w / total) for n, w in zip(levels, weights)]
            self.mean = self.expect(lambda n: n)
            self.var = self.expect(lambda n: (n - self.mean) ** 2)
            self.q = (self.var - self.mean) / self.mean

    def F(self, n: int):
        return n + self.beta[n % self.lam] if n > 0 else mp.mpf(0)

    def expect(self, g):
        with mp.workdps(DPS):
            return mp.fsum(p * g(n) for n, p in self.p)

    def dressed_x(self):
        """X = P of the eigenstate: <F(N+1) - F(N)> / 2 over the vacuum's lambda bb_1 / 2."""
        with mp.workdps(DPS):
            return self.expect(lambda n: self.F(n + 1) - self.F(n)) / self.F(1)

    def real_xp(self, z: complex):
        """(X, P) of the eigenstate for real photons, over the vacuum value 1/2."""
        with mp.workdps(DPS):
            e1 = self.expect(lambda n: mp.sqrt((n + 1) / self.F(n + 1)))
            e2 = self.expect(lambda n: mp.sqrt((n + 1) * (n + 2) / (self.F(n + 1) * self.F(n + 2))))
            common = self.mean + mp.mpf(0.5) - abs(mp.mpc(z)) ** 2 * e2
            spread = e2 - e1**2
            return (
                2 * (common + 2 * mp.mpf(z.real) ** 2 * spread),
                2 * (common + 2 * mp.mpf(z.imag) ** 2 * spread),
            )
