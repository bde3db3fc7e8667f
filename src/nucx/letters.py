"""Edge-label alphabet for the diagram family.

Six elementary letters each prepend one typed variable to a function:

* ``U``  -- useless variable (both branches equal),
* ``X``  -- xor variable (branches are complements),
* ``Cbt``-- canalizing variable: branch ``b`` forces the constant ``t``.

A letter ``l`` has the ``conjugate`` ``c`` with ``l.N`` equal to
``N.c``: ``U`` and ``X`` are their own, ``Cbt``'s is ``Cb(1-t)``.
``reduction.cons_diamond`` reads ``conjugate``.

The seventh letter ``N`` encodes output negation (a complement mark); it
is arity-preserving, not elementary.  Letters are process-wide singletons,
so identity comparison (``letter is U``) is the intended equality test.

This module is the one list of the letters and of their introduction
priority, ``ELEMENTARY``'s order: ``U`` first keeps constants canonical,
which the canalizing patterns depend on, and the exhaustive injectivity
suite validates the place of ``X``.
"""

from __future__ import annotations


class Letter:
    """One symbol of the edge alphabet.  Do not instantiate; use the
    module-level singletons."""

    __slots__ = ("token", "branch", "const", "conjugate")

    def __init__(self, token: str, branch: int | None = None,
                 const: int | None = None):
        self.token = token
        self.branch = branch        # canalizing letters only
        self.const = const          # canalizing letters only
        self.conjugate: Letter | None = None

    def __reduce__(self):
        # unpickle to the singleton, so identity tests keep working
        return from_token, (self.token,)

    def __repr__(self):
        return self.token


U = Letter("U")
X = Letter("X")
C00 = Letter("C00", branch=0, const=0)
C01 = Letter("C01", branch=0, const=1)
C10 = Letter("C10", branch=1, const=0)
C11 = Letter("C11", branch=1, const=1)
N = Letter("N")

#: All elementary letters, in introduction-priority order.
ELEMENTARY = (U, X, C11, C10, C01, C00)

#: Every letter, including the complement mark.
ALPHABET = ELEMENTARY + (N,)

U.conjugate = U
X.conjugate = X
C00.conjugate = C01
C01.conjugate = C00
C10.conjugate = C11
C11.conjugate = C10

_BY_TOKEN = {l.token: l for l in ALPHABET}


def from_token(token: str) -> Letter:
    """Look up a letter by its text token (case-insensitive)."""
    letter = _BY_TOKEN.get(token.upper())
    if letter is None:
        raise ValueError(f"unknown letter token: {token!r}")
    return letter
