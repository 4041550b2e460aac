"""The per-form scalar evaluator: the reference of the batched engine's tests.

`Evaluator` evaluates parsed expressions, which hold no names, at one
`BinaryForm`, whatever scalars its coefficients are, memoizing shared
subtrees.  Its transvectant is a parameter: `forms.transvectant`, the
library's kernel, by default, or `closed_form.transvectant`, the
derivative-sum oracle, which shares no code with `batch.transvect`.  A power
is a chain of 0-th transvectants, as in `batch`.
"""

from typing import Callable

from binforms.exprs import Base, Expr, Pow, Tr
from binforms.forms import BinaryForm, transvectant as kernel_transvectant


class Evaluator:
    """Evaluates expressions at one base form, memoizing shared subtrees."""

    def __init__(self, form: BinaryForm, transvectant: Callable = kernel_transvectant):
        self.form = form
        self.transvectant = transvectant
        self._memo: dict = {}

    def eval(self, e: Expr) -> BinaryForm:
        got = self._memo.get(e)
        if got is not None:
            return got
        if isinstance(e, Base):
            val = self.form
        elif isinstance(e, Tr):
            val = self.transvectant(self.eval(e.left), self.eval(e.right), e.index)
        elif isinstance(e, Pow):
            child = val = self.eval(e.child)
            for _ in range(e.k - 1):
                val = self.transvectant(val, child, 0)
        else:
            raise TypeError(f"not an expression: {e!r}")
        self._memo[e] = val
        return val
