"""Named covariant and invariant catalogs for binary forms.

For the nonic (n = 9) the catalog holds every covariant and invariant used in
the nullcone analysis and the parameter-system certification; the invariant
suffix is its degree in the coefficients of f.  The seven entries flagged
`hsop` are

    j_4, B_8, D_10, j_12, B_12, j_14, j_16

the explicit homogeneous system of parameters.  For n in {2, 3, 6, 7} the
catalog carries the classical small-order parameter systems (degrees 2; 4;
2, 4, 6, 10; and 4, 8, 12, 12, 20 respectively).

Every entry's declared (order, degree) pair is recomputed from its expression
at load time; a mismatch is a programming error and raises immediately.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .exprs import Expr, F, Ref, expr_meta, inline_refs, pw, tr


class CatalogEntry(NamedTuple):
    name: str
    expr: Expr
    order: int
    degree: int
    hsop: bool = False


class Catalog:
    """Ordered name -> entry map for one base-form order."""

    def __init__(self, n: int, entries):
        self.n = n
        self.entries: Dict[str, CatalogEntry] = {}
        self.defs: Dict[str, Expr] = {}
        self._closed: Dict[str, Expr] = {}
        self._inline_memo: dict = {}
        for entry in entries:
            if entry.name in self.entries:
                raise ValueError(f"duplicate catalog name {entry.name!r}")
            self.entries[entry.name] = entry
            self.defs[entry.name] = entry.expr
        meta_memo: dict = {}
        for entry in self.entries.values():
            order, degree = expr_meta(entry.expr, n, self.defs, meta_memo)
            if (order, degree) != (entry.order, entry.degree):
                raise ValueError(
                    f"catalog entry {entry.name!r}: declared "
                    f"(order, degree) = ({entry.order}, {entry.degree}) but "
                    f"recomputed ({order}, {degree})"
                )

    def __getitem__(self, name: str) -> CatalogEntry:
        return self.entries[name]

    def closed(self, name: str) -> Expr:
        """The entry's expression with every named reference inlined."""
        got = self._closed.get(name)
        if got is None:
            got = inline_refs(self.entries[name].expr, self.defs, self._inline_memo)
            self._closed[name] = got
        return got

    def invariants(self) -> Tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries.values() if e.order == 0)

    def hsop(self) -> Tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries.values() if e.hsop)


def _nonic() -> Catalog:
    l, q, u, s = Ref("l"), Ref("q"), Ref("u"), Ref("s")
    r, p = Ref("r"), Ref("p")
    k_q, m_q = Ref("k_q"), Ref("m_q")
    l_p, q_p, p_p = Ref("l_p"), Ref("q_p"), Ref("p_p")
    k_qp = Ref("k_qp")

    def cov(name, expr, order, degree):
        return CatalogEntry(name, expr, order, degree)

    def inv(name, expr, degree, hsop=False):
        return CatalogEntry(name, expr, 0, degree, hsop)

    entries = [
        # covariants
        cov("l", tr(F, F, 8), 2, 2),
        cov("q", tr(F, F, 6), 6, 2),
        cov("s", tr(F, F, 4), 10, 2),
        cov("u", tr(F, F, 2), 14, 2),
        cov("r", tr(q, F, 6), 3, 3),
        cov("p", tr(F, l, 2), 7, 3),
        cov("k_q", tr(q, q, 4), 4, 4),
        cov("m_q", tr(q, k_q, 4), 2, 6),
        cov("l_p", tr(p, p, 6), 2, 6),
        cov("q_p", tr(p, p, 4), 6, 6),
        cov("p_p", tr(p, l_p, 2), 5, 9),
        cov("k_qp", tr(q_p, q_p, 4), 4, 12),
        cov("m_qp", tr(q_p, k_qp, 4), 2, 18),
        # invariants, suffix = degree
        inv("j_4", tr(l, l, 2), 4, hsop=True),
        inv("A_4", tr(q, q, 6), 4),
        inv("j_8", tr(k_q, k_q, 4), 8),
        inv("A_8", tr(tr(p, p, 6), l, 2), 8),
        inv("B_8", tr(q, pw(r, 2), 6), 8, hsop=True),
        inv("C_8", tr(tr(q, q, 4), pw(l, 2), 4), 8),
        inv("D_8", tr(tr(q, q, 4), tr(q, s, 6), 4), 8),
        inv("j_10", tr(tr(p, tr(F, q, 6), 3), tr(q, q, 4), 4), 10),
        inv("A_10", tr(tr(p, tr(F, q, 6), 3), pw(l, 2), 4), 10),
        inv("B_10", tr(tr(tr(F, q, 6), tr(F, s, 6), 3), tr(s, s, 8), 4), 10),
        inv("C_10", tr(tr(tr(tr(s, s, 6), F, 6), tr(l, F, 2), 3), q, 6), 10),
        inv("D_10", tr(tr(tr(tr(u, u, 10), F, 6), tr(q, F, 2), 5), q, 6), 10, hsop=True),
        inv("j_12", tr(tr(k_q, k_q, 2), k_q, 4), 12, hsop=True),
        inv("A_12", tr(l_p, l_p, 2), 12),
        inv("B_12", tr(tr(p, p, 4), pw(l, 3), 6), 12, hsop=True),
        inv("C_12", tr(tr(r, r, 2), tr(r, r, 2), 2), 12),
        inv("D_12", tr(tr(pw(q, 2), q, 6), pw(r, 2), 6), 12),
        inv("j_14", tr(q, tr(pw(r, 3), r, 3), 6), 14, hsop=True),
        inv("j_16", tr(tr(p, p, 2), pw(l, 5), 10), 16, hsop=True),
        inv("j_18", tr(tr(tr(q, q, 2), q, 1), pw(r, 4), 12), 18),
        inv("j_20", tr(pw(m_q, 2), tr(k_q, k_q, 2), 4), 20),
        inv("A_20", tr(pw(p, 2), pw(l, 7), 14), 20),
        inv("B_20", tr(q, pw(tr(r, r, 2), 3), 6), 20),
        inv(
            "C_20",
            tr(
                tr(tr(pw(r, 3), r, 3), q, 4),
                tr(tr(F, u, 8), tr(F, s, 8), 3),
                4,
            ),
            20,
        ),
        inv("j_24", tr(tr(p_p, p_p, 4), l_p, 2), 24),
        inv("j_36", tr(tr(k_qp, k_qp, 2), k_qp, 4), 36),
        inv("A_36", tr(tr(p_p, p_p, 2), pw(l_p, 3), 6), 36),
        inv("j_60", tr(pw(Ref("m_qp"), 2), tr(k_qp, k_qp, 2), 4), 60),
    ]
    return Catalog(9, entries)


def _small(n: int) -> Catalog:
    if n == 2:
        return Catalog(2, [CatalogEntry("h_2", tr(F, F, 2), 0, 2, hsop=True)])
    if n == 3:
        ff2 = tr(F, F, 2)
        return Catalog(3, [CatalogEntry("h_4", tr(ff2, ff2, 2), 0, 4, hsop=True)])
    if n == 6:
        k, m = Ref("k"), Ref("m")
        return Catalog(
            6,
            [
                CatalogEntry("k", tr(F, F, 4), 4, 2),
                CatalogEntry("m", tr(F, k, 4), 2, 3),
                CatalogEntry("h_2", tr(F, F, 6), 0, 2, hsop=True),
                CatalogEntry("h_4", tr(k, k, 4), 0, 4, hsop=True),
                CatalogEntry("h_6", tr(tr(k, k, 2), k, 4), 0, 6, hsop=True),
                CatalogEntry("h_10", tr(pw(m, 2), tr(k, k, 2), 4), 0, 10, hsop=True),
            ],
        )
    if n == 7:
        l, q, p = Ref("l"), Ref("q"), Ref("p")
        k_q, m_q = Ref("k_q"), Ref("m_q")
        return Catalog(
            7,
            [
                CatalogEntry("l", tr(F, F, 6), 2, 2),
                CatalogEntry("q", tr(F, F, 4), 6, 2),
                CatalogEntry("p", tr(F, l, 2), 5, 3),
                CatalogEntry("k_q", tr(q, q, 4), 4, 4),
                CatalogEntry("m_q", tr(q, k_q, 4), 2, 6),
                CatalogEntry("h_4", tr(l, l, 2), 0, 4, hsop=True),
                CatalogEntry("h_8", tr(tr(p, p, 4), l, 2), 0, 8, hsop=True),
                CatalogEntry("h_12a", tr(tr(k_q, k_q, 2), k_q, 4), 0, 12, hsop=True),
                CatalogEntry("h_12b", tr(tr(p, p, 2), pw(l, 3), 6), 0, 12, hsop=True),
                CatalogEntry(
                    "h_20", tr(pw(m_q, 2), tr(k_q, k_q, 2), 4), 0, 20, hsop=True
                ),
            ],
        )
    raise ValueError(f"no catalog for order {n}")


_CACHE: Dict[int, Catalog] = {}

# The orders that have a catalog.
ORDERS = (2, 3, 6, 7, 9)


def catalog_for(n: int) -> Catalog:
    """The named catalog for n in `ORDERS`."""
    if n not in ORDERS:
        raise ValueError(f"no catalog for order {n}")
    got = _CACHE.get(n)
    if got is None:
        got = _nonic() if n == 9 else _small(n)
        _CACHE[n] = got
    return got
