"""Named covariant and invariant catalogs for binary forms.

For the nonic (n = 9) the catalog holds every covariant and invariant used in
the nullcone analysis and the parameter-system certification; the invariant
suffix is its degree in the coefficients of f.  The seven entries flagged
`hsop` are

    j_4, B_8, D_10, j_12, B_12, j_14, j_16

the explicit homogeneous system of parameters.  For n in {2, 3, 6, 7} the
catalog carries the classical small-order parameter systems (degrees 2; 4;
2, 4, 6, 10; and 4, 8, 12, 12, 20 respectively).

Each order's catalog is one table of rows (name, order, degree, hsop, text).
A text is an `exprs` expression whose `@name`s are entries of earlier rows;
it is parsed at load time into a closed expression that shares those
entries' nodes, and its (order, degree) is recomputed then: a mismatch with
the row is a programming error and raises immediately.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .exprs import Expr, expr_from_text, expr_meta


class CatalogEntry(NamedTuple):
    name: str
    order: int
    degree: int
    hsop: bool
    text: str  # as the table writes it, with the names of earlier entries
    expr: Expr  # closed: every name replaced by that entry's expression


class Catalog:
    """Ordered name -> entry map for one base-form order."""

    def __init__(self, n: int, rows):
        self.n = n
        self.entries: Dict[str, CatalogEntry] = {}
        # name -> closed expression: the names a text may use
        self.defs: Dict[str, Expr] = {}
        memo: dict = {}
        for name, order, degree, hsop, text in rows:
            if name in self.entries:
                raise ValueError(f"duplicate catalog name {name!r}")
            expr = expr_from_text(text, self.defs)
            got = expr_meta(expr, n, memo)
            if got != (order, degree):
                raise ValueError(
                    f"catalog entry {name!r}: declared (order, degree) = "
                    f"({order}, {degree}) but recomputed {got}"
                )
            self.entries[name] = CatalogEntry(name, order, degree, hsop, text, expr)
            self.defs[name] = expr

    def __getitem__(self, name: str) -> CatalogEntry:
        return self.entries[name]

    def invariants(self) -> Tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries.values() if e.order == 0)

    def hsop(self) -> Tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries.values() if e.hsop)


# One table per order: rows (name, order, degree, hsop, text).
_TABLES = {
    2: [("h_2", 0, 2, True, "(tr f f 2)")],
    3: [("h_4", 0, 4, True, "(tr (tr f f 2) (tr f f 2) 2)")],
    6: [
        ("k", 4, 2, False, "(tr f f 4)"),
        ("m", 2, 3, False, "(tr f @k 4)"),
        ("h_2", 0, 2, True, "(tr f f 6)"),
        ("h_4", 0, 4, True, "(tr @k @k 4)"),
        ("h_6", 0, 6, True, "(tr (tr @k @k 2) @k 4)"),
        ("h_10", 0, 10, True, "(tr (pow @m 2) (tr @k @k 2) 4)"),
    ],
    7: [
        ("l", 2, 2, False, "(tr f f 6)"),
        ("q", 6, 2, False, "(tr f f 4)"),
        ("p", 5, 3, False, "(tr f @l 2)"),
        ("k_q", 4, 4, False, "(tr @q @q 4)"),
        ("m_q", 2, 6, False, "(tr @q @k_q 4)"),
        ("h_4", 0, 4, True, "(tr @l @l 2)"),
        ("h_8", 0, 8, True, "(tr (tr @p @p 4) @l 2)"),
        ("h_12a", 0, 12, True, "(tr (tr @k_q @k_q 2) @k_q 4)"),
        ("h_12b", 0, 12, True, "(tr (tr @p @p 2) (pow @l 3) 6)"),
        ("h_20", 0, 20, True, "(tr (pow @m_q 2) (tr @k_q @k_q 2) 4)"),
    ],
    9: [
        # covariants
        ("l", 2, 2, False, "(tr f f 8)"),
        ("q", 6, 2, False, "(tr f f 6)"),
        ("s", 10, 2, False, "(tr f f 4)"),
        ("u", 14, 2, False, "(tr f f 2)"),
        ("r", 3, 3, False, "(tr @q f 6)"),
        ("p", 7, 3, False, "(tr f @l 2)"),
        ("k_q", 4, 4, False, "(tr @q @q 4)"),
        ("m_q", 2, 6, False, "(tr @q @k_q 4)"),
        ("l_p", 2, 6, False, "(tr @p @p 6)"),
        ("q_p", 6, 6, False, "(tr @p @p 4)"),
        ("p_p", 5, 9, False, "(tr @p @l_p 2)"),
        ("k_qp", 4, 12, False, "(tr @q_p @q_p 4)"),
        ("m_qp", 2, 18, False, "(tr @q_p @k_qp 4)"),
        # invariants, suffix = degree
        ("j_4", 0, 4, True, "(tr @l @l 2)"),
        ("A_4", 0, 4, False, "(tr @q @q 6)"),
        ("j_8", 0, 8, False, "(tr @k_q @k_q 4)"),
        ("A_8", 0, 8, False, "(tr (tr @p @p 6) @l 2)"),
        ("B_8", 0, 8, True, "(tr @q (pow @r 2) 6)"),
        ("C_8", 0, 8, False, "(tr (tr @q @q 4) (pow @l 2) 4)"),
        ("D_8", 0, 8, False, "(tr (tr @q @q 4) (tr @q @s 6) 4)"),
        ("j_10", 0, 10, False, "(tr (tr @p (tr f @q 6) 3) (tr @q @q 4) 4)"),
        ("A_10", 0, 10, False, "(tr (tr @p (tr f @q 6) 3) (pow @l 2) 4)"),
        ("B_10", 0, 10, False, "(tr (tr (tr f @q 6) (tr f @s 6) 3) (tr @s @s 8) 4)"),
        ("C_10", 0, 10, False, "(tr (tr (tr (tr @s @s 6) f 6) (tr @l f 2) 3) @q 6)"),
        ("D_10", 0, 10, True, "(tr (tr (tr (tr @u @u 10) f 6) (tr @q f 2) 5) @q 6)"),
        ("j_12", 0, 12, True, "(tr (tr @k_q @k_q 2) @k_q 4)"),
        ("A_12", 0, 12, False, "(tr @l_p @l_p 2)"),
        ("B_12", 0, 12, True, "(tr (tr @p @p 4) (pow @l 3) 6)"),
        ("C_12", 0, 12, False, "(tr (tr @r @r 2) (tr @r @r 2) 2)"),
        ("D_12", 0, 12, False, "(tr (tr (pow @q 2) @q 6) (pow @r 2) 6)"),
        ("j_14", 0, 14, True, "(tr @q (tr (pow @r 3) @r 3) 6)"),
        ("j_16", 0, 16, True, "(tr (tr @p @p 2) (pow @l 5) 10)"),
        ("j_18", 0, 18, False, "(tr (tr (tr @q @q 2) @q 1) (pow @r 4) 12)"),
        ("j_20", 0, 20, False, "(tr (pow @m_q 2) (tr @k_q @k_q 2) 4)"),
        ("A_20", 0, 20, False, "(tr (pow @p 2) (pow @l 7) 14)"),
        ("B_20", 0, 20, False, "(tr @q (pow (tr @r @r 2) 3) 6)"),
        ("C_20", 0, 20, False,
         "(tr (tr (tr (pow @r 3) @r 3) @q 4) (tr (tr f @u 8) (tr f @s 8) 3) 4)"),
        ("j_24", 0, 24, False, "(tr (tr @p_p @p_p 4) @l_p 2)"),
        ("j_36", 0, 36, False, "(tr (tr @k_qp @k_qp 2) @k_qp 4)"),
        ("A_36", 0, 36, False, "(tr (tr @p_p @p_p 2) (pow @l_p 3) 6)"),
        ("j_60", 0, 60, False, "(tr (pow @m_qp 2) (tr @k_qp @k_qp 2) 4)"),
    ],
}

_CACHE: Dict[int, Catalog] = {}

# The orders that have a catalog.
ORDERS = tuple(_TABLES)


def catalog_for(n: int) -> Catalog:
    """The named catalog for n in `ORDERS`."""
    if n not in ORDERS:
        raise ValueError(f"no catalog for order {n}")
    got = _CACHE.get(n)
    if got is None:
        got = _CACHE[n] = Catalog(n, _TABLES[n])
    return got
