"""Independent oracles that Tier-1 checks the engine against; no verifier runs them.

- `MatrixMultiplier`: multiplication by sum_k A_k*u_k(x) on vector
  functions, for any square A_k; the direct m x m fold that the vector
  suite's graded lift must match, and, with p(S) as a matrix, the
  reference for the lift's own `realize.FuncMatrix`.
- `truncated_shift_matrix` and `safe_block`: a polynomial in U and D as a
  matrix, U a raising shift and D diagonal, to check `normalize` against.
- `incomplete_vw_fixture`: a rule set that `check_confluence` must reject.
- `constant_vector`: the vector function c (x) 1 of a constant vector c.
- `apply_operator`: a `DiffOperator` sum_r p_r*D^r applied to a function
  f as sum_r p_r*f^(r); against `build_binomial`'s fold on f itself, it
  checks the operator form of B(n) that `cor-vw`'s realized rows state.
- `letter_actions`: U as multiplication by u and D as a derivation, the
  assignment under which `realize.apply_assigned` applies a free B(n)
  word by word, the path independent of the fold.
"""

from __future__ import annotations

from ncbinom.freealg import NcPoly, accumulate
from ncbinom.realize import D_DX, DiffOperator, FuncExpr, Matrix, VecFunc, apply_assigned
from ncbinom.rewrite import RelationPreset, make_preset
from ncbinom.scalars import ONE, ZERO, CycloScalar, add_ints


class MatrixMultiplier:
    """Multiplication by sum_k A_k*u_k(x); parts are (Matrix A_k, FuncExpr u_k), A_k square.

    Each part's column index, column j -> [(row i, A_k[i][j] != 0)], is built once, here.
    """

    __slots__ = ("parts", "_columns")

    def __init__(self, parts):
        data = tuple(parts)
        if not data:
            raise ValueError("a multiplier needs at least one part")
        m = data[0][0].shape[0]
        if any(a.shape != (m, m) for a, _ in data):
            raise ValueError("multiplication matrices must be square and of one size")
        object.__setattr__(self, "parts", data)
        columns = []
        for a, u in data:
            rows_of: dict[int, list] = {}
            for (i, j), x in a.terms.items():
                rows_of.setdefault(j, []).append((i, x))
            columns.append((rows_of, u))
        object.__setattr__(self, "_columns", tuple(columns))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixMultiplier is immutable")

    @property
    def dim(self) -> int:
        return self.parts[0][0].shape[0]

    def matvec(self, v: VecFunc) -> VecFunc:
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {v.dim}")

        def images():
            # each (u_k term, v_j term) pair sums its keys once and goes to
            # every row i with A_k[i][j] != 0
            for rows_of, u in self._columns:
                for (j, c2, a2, b2), w2 in v.terms.items():
                    rows = rows_of.get(j)
                    if rows:
                        for (c1, a1, b1), w1 in u.terms.items():
                            key = (add_ints(c1, c2), add_ints(a1, a2), add_ints(b1, b2))
                            w = w1 * w2
                            for i, x in rows:
                                yield (i, *key), x * w

        return v._like(accumulate(images()))

    def __mul__(self, v):
        # any operand but a vector is declined, so Python names both kinds
        if isinstance(v, VecFunc):
            return self.matvec(v)
        return NotImplemented


def truncated_shift_matrix(p: NcPoly, preset: RelationPreset, size: int) -> Matrix:
    """Matrix of p with U a raising shift and D diagonal, on e_0 .. e_size.

    The preset must have exactly one rule, D U -> U D + c*U; c is read off
    it, and D has eigenvalue k*c on e_k.  Entries are exact wherever no
    basis vector escapes the truncation; `size` must exceed the U-degree
    of p by at least 2.
    """
    if [pair for pair, _ in preset.rules] != [("D", "U")]:
        raise ValueError(f"{preset.name}: shift representation needs one rule, for D U")
    right = preset.rules[0][1]
    u, d = preset.generator("U"), preset.generator("D")
    c = right.terms.get(next(iter(u.terms)), ZERO)
    if right != u * d + c * u:
        raise ValueError(f"{preset.name}: shift representation needs D U -> U D + c*U, not {right}")
    u_deg = p.letter_degree("U")
    if size < u_deg + 2:
        raise ValueError(f"size {size} too small; need at least U-degree + 2 = {u_deg + 2}")
    dim = size + 1
    shift = Matrix._raw((dim, dim), {(j + 1, j): ONE for j in range(size)})
    diag = Matrix._raw((dim, dim), accumulate(((i, i), i * c) for i in range(dim)))
    actions = {"U": lambda g: shift * g, "D": lambda g: diag * g}
    return apply_assigned(p, actions, Matrix.identity(dim))


def safe_block(mat: Matrix, size: int) -> Matrix:
    shape = tuple(min(size + 1, d) for d in mat.shape)
    return Matrix._raw(shape, {key: x for key, x in mat.terms.items() if max(key) <= size})


def incomplete_vw_fixture(lam) -> RelationPreset:
    """`partial-vw` without its D-V rule: deliberately incomplete, diverges on D W V."""
    full = make_preset("partial-vw", lam)
    rules = tuple((pair, right) for pair, right in full.rules if pair != ("D", "V"))
    return RelationPreset("partial-vw-incomplete", full.alphabet, rules)


def constant_vector(values) -> VecFunc:
    """c (x) 1, keyed directly at the zero exponents."""
    values, key = tuple(map(CycloScalar.of, values)), (ZERO.ints,) * 3
    return VecFunc._raw(len(values), accumulate(((i, *key), v) for i, v in enumerate(values)))


def letter_actions(u, kind: str = D_DX) -> dict:
    """U acts as multiplication by u (a function or a multiplier), D as the derivation `kind`."""
    return {"U": lambda g: u * g, "D": lambda g: g.differentiate(kind)}


def apply_operator(op: DiffOperator, f: FuncExpr, kind: str = D_DX) -> FuncExpr:
    """sum_r p_r * f^(r), f^(r) the r-th image of f under the derivation `kind`."""
    derivatives = [f]
    for _ in range(max((key[0] for key in op.terms), default=0)):
        derivatives.append(derivatives[-1].differentiate(kind))
    return f._like(accumulate(
        ((add_ints(c1, c2), add_ints(a1, a2), add_ints(b1, b2)), v1 * v2)
        for (r, c1, a1, b1), v1 in op.terms.items()
        for (c2, a2, b2), v2 in derivatives[r].terms.items()
    ))
