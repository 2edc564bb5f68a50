"""Reference for ``igusa.counting._ranks_mod_p``: the rank over F_p of one
matrix by Gauss-Jordan elimination with modular inverses.

This is the scalar ``_rank_mod_p`` the batched kernel replaced, kept
unchanged apart from this docstring, so that tests can rank point by point
independently of the kernel.
"""

from __future__ import annotations


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank
