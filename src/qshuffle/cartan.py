"""Symmetrizable Cartan matrices and the associated integer pairing.

A ``CartanData`` holds a generalized Cartan matrix (a_ij) together with
symmetrizing integers d_i, so that (i,j) = d_i a_ij is symmetric.  Roots
are indexed 1..rank throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CartanData:
    rank: int
    matrix: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        # exact type checks: bool is an int subclass but never a valid entry
        if type(n) is not int or n < 1:
            raise ValueError("rank must be a positive integer")
        m = self.matrix
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("matrix must be rank x rank")
        for i in range(n):
            for j in range(n):
                a = m[i][j]
                if type(a) is not int:
                    raise ValueError("matrix entries must be integers")
                if i == j and a != 2:
                    raise ValueError("diagonal entries must equal 2")
                if i != j and a > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if (m[i][j] == 0) != (m[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
        d = self.symmetrizers
        if len(d) != n or any(type(x) is not int or x < 1 for x in d):
            raise ValueError("symmetrizers must be positive integers")
        for i in range(n):
            for j in range(n):
                if d[i] * m[i][j] != d[j] * m[j][i]:
                    raise ValueError("symmetrizers do not symmetrize the matrix")

    # indices are 1-based, matching the root numbering in reports

    def a(self, i: int, j: int) -> int:
        self._check_index(i)
        self._check_index(j)
        return self.matrix[i - 1][j - 1]

    def d(self, i: int) -> int:
        self._check_index(i)
        return self.symmetrizers[i - 1]

    def pairing(self, i: int, j: int) -> int:
        """The symmetric form (alpha_i, alpha_j) = d_i a_ij."""
        return self.d(i) * self.a(i, j)

    def _check_index(self, i: int):
        if type(i) is not int or not 1 <= i <= self.rank:
            raise ValueError(f"root index {i} out of range 1..{self.rank}")

    # ---------- serialization ----------

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "matrix": [list(row) for row in self.matrix],
            "symmetrizers": list(self.symmetrizers),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> CartanData:
        try:
            rank = data["rank"]
            matrix = tuple(tuple(row) for row in data["matrix"])
            symm = tuple(data["symmetrizers"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Cartan description: {exc}") from exc
        return cls(rank, matrix, symm)


def _chain_matrix(n: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    return m


def builtin_cartan(tag: str) -> CartanData:
    """Standard finite-type tables: A_n, B_n (n>=2), C_n (n>=2), D_n (n>=4), G_2.

    In types B and C the last root is the distinguished one (short in B,
    long in C); in G_2 the first root is long with d = (3, 1).
    """
    tag = tag.strip()
    if len(tag) < 2 or tag[0] not in "ABCDG" or not tag[1:].isdigit():
        raise ValueError(f"unrecognized Cartan tag {tag!r}")
    series, n = tag[0], int(tag[1:])
    if series == "A":
        if n < 1:
            raise ValueError("type A needs rank >= 1")
        return CartanData(n, _to_t(_chain_matrix(n)), (1,) * n)
    if series == "B":
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        m = _chain_matrix(n)
        m[n - 1][n - 2] = -2
        return CartanData(n, _to_t(m), (2,) * (n - 1) + (1,))
    if series == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        m = _chain_matrix(n)
        m[n - 2][n - 1] = -2
        return CartanData(n, _to_t(m), (1,) * (n - 1) + (2,))
    if series == "D":
        if n < 4:
            raise ValueError("type D needs rank >= 4")
        m = _chain_matrix(n)
        m[n - 2][n - 1] = m[n - 1][n - 2] = 0
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
        return CartanData(n, _to_t(m), (1,) * n)
    if series == "G":
        if n != 2:
            raise ValueError("type G exists only at rank 2")
        return CartanData(2, ((2, -1), (-3, 2)), (3, 1))
    raise ValueError(f"unrecognized Cartan tag {tag!r}")


def _to_t(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)
