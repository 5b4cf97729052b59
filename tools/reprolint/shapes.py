"""Shape & stochastic-structure abstract interpretation (RL016-RL020).

The repro codebase is a pipeline of *structured* numpy arrays: generator
blocks whose rows sum to zero, probability vectors that sum to one, QBD
block triples that must be square and mutually conformable, and a
batched kernel that stacks all of them on a leading ``N`` axis.  This
module interprets each function abstractly over a small lattice of
**array facts** and reports structural misuse before runtime:

``ArrayFact``
    ``shape`` -- a tuple of symbolic dimensions (``"m"``, ``"n_b"``,
    ``"2"``, ``"?"`` for unknown, products like ``"m_g*ph"`` from
    ``np.kron``), or ``None`` when the rank itself is unknown;
    ``kind`` -- one of the stochastic kinds below, or ``None``;
    ``transposed`` -- an oriented (row-convention) block observed
    through ``.T``;
    ``stacked`` -- a leading-axis batch (``np.stack`` result, or a
    canonical block name inside ``repro.qbd.batched``).

Stochastic kinds: ``GENERATOR`` (zero row sums), ``SUBGENERATOR``
(``D0``/``A1``/``B00``-style diagonal blocks), ``STOCHASTIC``,
``PROB_VECTOR``, ``RATE_BLOCK`` (non-negative off-diagonal rate blocks
such as ``D1``/``A0``/``A2``), ``RATE_SCALAR`` and ``PROB_SCALAR``.

Facts are *seeded* from the field declarations of the repo's core
models -- ``QBDProcess`` (``b00``/``b01``/``b10``/``a0``/``a1``/``a2``),
``MarkovianArrivalProcess`` (``d0``/``d1``) and ``FgBgModel``
(``service_rate``/``bg_probability``/``idle_wait_rate``) -- whenever a
parameter or attribute carries one of those canonical names, and are
pushed through transfer functions for the operations the codebase
actually uses: ``@``/``np.matmul``, ``np.kron``, ``np.linalg.solve``,
``np.eye``/``zeros``/``ones``/``full``, slicing/indexing, ``.T`` /
``transpose``, ``np.stack``, reductions and elementwise broadcasts.
The kind algebra knows the two assembly idioms ``D0 + D1 -> GENERATOR``
and ``A0 + A1 + A2 -> GENERATOR``.

The rules on top of the lattice:

RL016
    Non-conformable or non-square block assembly reaching
    ``r_matrix``/``drift``/``QBDProcess``: a transposed oriented block
    (``a2.T``, a transposed ``np.kron`` operand), a boundary block with
    a swapped row split (``b01`` shaped ``(m, n_b)``), numerically
    mismatched matmul operands.
RL017
    Stochastic-kind confusion: a subgenerator or rate block where a
    proper generator is expected (``D0`` standalone into
    ``stationary_distribution``/``validate_generator``), a generator
    where a stochastic matrix / probability vector is expected, a rate
    passed as a probability.
RL018
    Batched-axis hazards on leading-``N`` stacks: a reduction without
    an explicit axis (or over ``axis=0``) that silently aggregates
    *across items*; ``np.linalg.solve`` with a stacked LHS and a 2-D
    RHS (vector-vs-matrix dispatch differs across numpy versions); an
    elementwise op mixing a ``(N, m, m)`` stack with a ``(N, m)``
    operand.  Not applied under ``tests``/``benchmarks`` (aggregating
    across items is legitimate in assertions and summaries).
RL019
    NaN-policy violations: a value derived from ``bg_completion_rate``
    used in a comparison or aggregation in a scope with no visible
    NaN guard (``isnan``/``isfinite``/``nan_to_num``/nan-aware
    reduction or a ``NEAR_ZERO_BG_PROBABILITY`` test).  Not applied
    under ``tests`` (assertions pin exact scenarios).
RL020
    Precision hazards: narrowing float dtypes (``float32``/``half``/
    ...), the removed ``np.float_`` alias, and floor division on
    rate/millisecond quantities.

Like the RL006 freeze oracle, the layer is deliberately *syntactic*:
a fact survives straight-line dataflow, a branch joins facts by
agreement, and anything the transfer functions do not model drops to
unknown -- unknown never fires a rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import PurePath
from typing import Any

from tools.reprolint.core import Violation

__all__ = [
    "ArrayFact",
    "CANONICAL_SEEDS",
    "KINDS",
    "analyze_shapes",
    "extract_shape_summary",
    "join",
    "shape_rules",
]

# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------

GENERATOR = "GENERATOR"
SUBGENERATOR = "SUBGENERATOR"
STOCHASTIC = "STOCHASTIC"
PROB_VECTOR = "PROB_VECTOR"
RATE_BLOCK = "RATE_BLOCK"
RATE_SCALAR = "RATE_SCALAR"
PROB_SCALAR = "PROB_SCALAR"

KINDS = frozenset(
    {
        GENERATOR,
        SUBGENERATOR,
        STOCHASTIC,
        PROB_VECTOR,
        RATE_BLOCK,
        RATE_SCALAR,
        PROB_SCALAR,
    }
)

#: Kinds that follow the row convention (rows index "from"-states); using
#: them transposed silently swaps the transition direction.
ORIENTED_KINDS = frozenset({GENERATOR, SUBGENERATOR, STOCHASTIC, RATE_BLOCK})

DIM_UNKNOWN = "?"


@dataclass(frozen=True)
class ArrayFact:
    """One abstract array value: symbolic shape + stochastic kind."""

    shape: tuple[str, ...] | None = None
    kind: str | None = None
    transposed: bool = False
    stacked: bool = False

    @property
    def ndim(self) -> int | None:
        return None if self.shape is None else len(self.shape)

    def to_json(self) -> dict[str, Any]:
        return {
            "s": list(self.shape) if self.shape is not None else None,
            "k": self.kind,
            "t": self.transposed,
            "st": self.stacked,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "ArrayFact":
        shape = data.get("s")
        return ArrayFact(
            shape=tuple(shape) if shape is not None else None,
            kind=data.get("k"),
            transposed=bool(data.get("t", False)),
            stacked=bool(data.get("st", False)),
        )


def _join_dim(a: str, b: str) -> str:
    return a if a == b else DIM_UNKNOWN


def join(a: ArrayFact | None, b: ArrayFact | None) -> ArrayFact | None:
    """Least upper bound: facts survive a branch merge only by agreement."""
    if a is None or b is None:
        return None
    if a.shape is None or b.shape is None or len(a.shape) != len(b.shape):
        shape = None
    else:
        shape = tuple(_join_dim(x, y) for x, y in zip(a.shape, b.shape))
    return ArrayFact(
        shape=shape,
        kind=a.kind if a.kind == b.kind else None,
        transposed=a.transposed and b.transposed,
        stacked=a.stacked and b.stacked,
    )


def _known(dim: str) -> bool:
    return dim != DIM_UNKNOWN


def _numeric(dim: str) -> bool:
    return dim.isdigit()


def _dims_conflict(a: str, b: str) -> bool:
    """Provable inequality of two symbolic dimensions.

    Distinct *symbols* conflict (the layer compares declared structure,
    not runtime values -- ``m`` and ``n_b`` may coincide numerically,
    but a block indexed by the wrong one is still assembled wrong);
    anything involving ``?`` is compatible.
    """
    return _known(a) and _known(b) and a != b


#: The dimension symbols introduced by the canonical seeds.  A symbolic
#: matmul conflict is only provable between two of *these*: locally named
#: dimensions (``a``, ``phases``) often alias a canonical one at runtime.
_CANONICAL_DIMS = frozenset({"m", "n_b", "ph", "m_g", "N"})


def _matmul_inner_conflict(a: str, b: str) -> bool:
    if not (_known(a) and _known(b)) or a == b:
        return False
    if _numeric(a) and _numeric(b):
        return True
    return a in _CANONICAL_DIMS and b in _CANONICAL_DIMS


def _is_swap(shape: tuple[str, ...], expected: tuple[str, ...]) -> bool:
    """``shape`` is exactly the transposed ``expected`` with distinct dims."""
    if len(shape) != 2 or len(expected) != 2:
        return False
    r, c = expected
    if not (_known(r) and _known(c)) or r == c:
        return False
    return shape == (c, r)


# ---------------------------------------------------------------------------
# Seeds: canonical field declarations of the core models
# ---------------------------------------------------------------------------

#: Facts attached to parameters and attribute reads by canonical name,
#: mirroring the field declarations of ``QBDProcess`` (blocks),
#: ``MarkovianArrivalProcess`` (``d0``/``d1``) and ``FgBgModel``
#: (rates and probabilities).
CANONICAL_SEEDS: dict[str, ArrayFact] = {
    "b00": ArrayFact(("n_b", "n_b"), SUBGENERATOR),
    "b01": ArrayFact(("n_b", "m"), RATE_BLOCK),
    "b10": ArrayFact(("m", "n_b"), RATE_BLOCK),
    "a0": ArrayFact(("m", "m"), RATE_BLOCK),
    "a1": ArrayFact(("m", "m"), SUBGENERATOR),
    "a2": ArrayFact(("m", "m"), RATE_BLOCK),
    "d0": ArrayFact(("ph", "ph"), SUBGENERATOR),
    "d1": ArrayFact(("ph", "ph"), RATE_BLOCK),
    "r": ArrayFact(("m", "m"), None),
    "g": ArrayFact(("m", "m"), None),
    "service_rate": ArrayFact((), RATE_SCALAR),
    "idle_wait_rate": ArrayFact((), RATE_SCALAR),
    "arrival_rate": ArrayFact((), RATE_SCALAR),
    "mu": ArrayFact((), RATE_SCALAR),
    "alpha": ArrayFact((), RATE_SCALAR),
    "lam": ArrayFact((), RATE_SCALAR),
    "bg_probability": ArrayFact((), PROB_SCALAR),
}

#: Block names that are *stacks* inside the batched kernel: the same
#: declarations lifted to a leading item axis.
_BATCHED_STACK_NAMES = frozenset({"a0", "a1", "a2", "r", "g"})

_SCALAR_KINDS = frozenset({RATE_SCALAR, PROB_SCALAR})


def _seed_for(name: str, *, batched: bool) -> ArrayFact | None:
    key = name.lstrip("_")
    if batched and key in _BATCHED_STACK_NAMES:
        return ArrayFact(("N", "m", "m"), None, stacked=True)
    seed = CANONICAL_SEEDS.get(key)
    if seed is not None:
        return seed
    if key.endswith("_rate"):
        return ArrayFact((), RATE_SCALAR)
    if key.endswith("_probability") or key.endswith("_prob"):
        return ArrayFact((), PROB_SCALAR)
    return None


def _is_batched_path(path: str) -> bool:
    return "batched" in PurePath(path).name


def _path_parts(path: str) -> tuple[str, ...]:
    return PurePath(path).parts


def _is_test_path(path: str) -> bool:
    parts = _path_parts(path)
    name = PurePath(path).name
    return (
        "tests" in parts
        or name.startswith("test_")
        or name.startswith("conftest")
    )


def _is_benchmark_path(path: str) -> bool:
    parts = _path_parts(path)
    return "benchmarks" in parts or PurePath(path).name.startswith("bench_")


# ---------------------------------------------------------------------------
# Sink signatures: where structure is *consumed*
# ---------------------------------------------------------------------------

_GENERATOR_SINKS = frozenset(
    {"stationary_distribution", "validate_generator", "check_generator"}
)
_STOCHASTIC_SINKS = frozenset({"check_stochastic", "check_substochastic"})
_PROB_VECTOR_SINKS = frozenset({"check_probability_vector"})
#: ``(a0, a1, a2)`` triples of square, mutually conformable blocks.
_BLOCK_TRIPLE_SINKS = frozenset(
    {
        "r_matrix",
        "batched_r_matrix",
        "r_matrix_functional_iteration",
        "r_matrix_logarithmic_reduction",
        "r_matrix_natural_iteration",
        "g_matrix_logarithmic_reduction",
        "g_matrix_natural_iteration",
        "drift",
        "is_stable",
    }
)
_QBD_PARAMS = ("b00", "b01", "b10", "a0", "a1", "a2")
_QBD_SQUARE = frozenset({"b00", "a0", "a1", "a2"})

#: Every callable the per-file layer already checks by name.  The
#: cross-file pass skips these to avoid double-reporting a direct call.
SINK_NAMES = (
    _GENERATOR_SINKS
    | _STOCHASTIC_SINKS
    | _PROB_VECTOR_SINKS
    | _BLOCK_TRIPLE_SINKS
    | {"QBDProcess"}
)

_REDUCTIONS = frozenset(
    {
        "sum",
        "min",
        "max",
        "mean",
        "prod",
        "std",
        "var",
        "amin",
        "amax",
        "nansum",
        "nanmin",
        "nanmax",
        "nanmean",
        "median",
        "average",
    }
)

_NARROW_DTYPES = frozenset(
    {"float32", "float16", "half", "single", "csingle", "complex64"}
)

_NUMPY_BASES = frozenset({"np", "numpy"})

_NAN_GUARD_CALLS = frozenset(
    {"isnan", "isfinite", "nan_to_num", "nanmin", "nanmax", "nanmean", "nansum"}
)
_NAN_GUARD_NAME = "NEAR_ZERO_BG_PROBABILITY"
_NAN_SOURCE_ATTR = "bg_completion_rate"

_AGGREGATIONS = frozenset({"min", "max", "sum", "sorted", "mean", "average", "median", "amin", "amax"})

_RATEISH_NAMES = frozenset({"mu", "alpha", "lam"})


def _rateish(name: str) -> bool:
    return name.endswith("_ms") or name.endswith("_rate") or name in _RATEISH_NAMES


def _leaf_name(expr: ast.expr) -> str | None:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _call_leaf(node: ast.Call) -> str | None:
    return _leaf_name(node.func)


def _is_numpy_call(node: ast.Call, name: str) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_BASES
    )


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------


@dataclass
class _Finding:
    line: int
    col: int
    code: str
    message: str


@dataclass
class _SinkUse:
    """A parameter forwarded, unmodified, into a known sink slot."""

    param: str
    kind: str | None = None
    square: bool = False


class _Walker:
    """Forward abstract interpretation of one function (or module) body."""

    def __init__(
        self,
        path: str,
        *,
        batched: bool,
        class_name: str | None = None,
        params: dict[str, ArrayFact] | None = None,
        param_names: frozenset[str] = frozenset(),
        check_rl018: bool = True,
        check_rl020: bool = True,
    ) -> None:
        self.path = path
        self.batched = batched
        self.class_name = class_name
        self.env: dict[str, ArrayFact] = dict(params or {})
        self.param_names = param_names
        #: Names locally (re)assigned in this scope.  A canonical seed only
        #: applies to names the code never binds -- once ``d0 = base - ...``
        #: runs, later reads of ``d0`` mean *that* value, not the field
        #: declaration, even when the computed fact is unknown.
        self.assigned: set[str] = set()
        self.check_rl018 = check_rl018
        self.check_rl020 = check_rl020
        self.findings: list[_Finding] = []
        self.sink_uses: list[_SinkUse] = []
        self.calls: list[dict[str, Any]] = []

    # -- reporting ------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            _Finding(
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                code,
                message,
            )
        )

    # -- statements -----------------------------------------------------
    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            fact = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value, fact)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            fact = self._eval(stmt.value)
            self._bind(stmt.target, stmt.value, fact)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env.pop(stmt.target.id, None)
                self.assigned.add(stmt.target.id)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._branch([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.env.pop(stmt.target.id, None)
                self.assigned.add(stmt.target.id)
            self._branch([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._branch([stmt.body, stmt.orelse])
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body, stmt.orelse, stmt.finalbody]
            blocks.extend(h.body for h in stmt.handlers)
            self._branch(blocks)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
            self.run(stmt.body)
        elif isinstance(stmt, (ast.Assert,)):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
                    self.assigned.add(target.id)
        # Nested defs/classes are walked separately by the driver.

    def _branch(self, blocks: list[list[ast.stmt]]) -> None:
        """Run each block from a copy of the entry env, join the exits."""
        entry = dict(self.env)
        exits: list[dict[str, ArrayFact]] = []
        for block in blocks:
            if not block:
                exits.append(entry)
                continue
            self.env = dict(entry)
            self.run(block)
            exits.append(self.env)
        merged: dict[str, ArrayFact] = {}
        for name in set().union(*(e.keys() for e in exits)) if exits else set():
            fact = exits[0].get(name)
            for other in exits[1:]:
                fact = join(fact, other.get(name))
                if fact is None:
                    break
            if fact is not None:
                merged[name] = fact
        self.env = merged

    def _bind(self, target: ast.expr, value: ast.expr, fact: ArrayFact | None) -> None:
        if isinstance(target, ast.Name):
            self.assigned.add(target.id)
            if fact is not None:
                self.env[target.id] = fact
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self._bind(t, v, self._eval(v))
        elif isinstance(target, ast.Tuple):
            for t in target.elts:
                if isinstance(t, ast.Name):
                    self.env.pop(t.id, None)
                    self.assigned.add(t.id)
        # Subscript / attribute stores do not bind facts.

    # -- expressions ----------------------------------------------------
    def _eval(self, expr: ast.expr) -> ArrayFact | None:
        if isinstance(expr, ast.Name):
            fact = self.env.get(expr.id)
            if fact is not None:
                return fact
            if expr.id in self.assigned:
                return None
            return _seed_for(expr.id, batched=self.batched)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr)
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (int, float, complex)) and not isinstance(
                expr.value, bool
            ):
                return ArrayFact(())
            return None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._eval(elt)
            return None
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self._eval(value)
            return None
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return join(self._eval(expr.body), self._eval(expr.orelse))
        if isinstance(expr, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            return None
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        return None

    def _eval_attribute(self, expr: ast.Attribute) -> ArrayFact | None:
        if expr.attr == "T":
            base = self._eval(expr.value)
            if base is not None and base.ndim == 2:
                return replace(
                    base,
                    shape=(base.shape[1], base.shape[0]),
                    transposed=not base.transposed,
                )
            return None
        # Attribute *reads* seed from the canonical field declarations
        # (``qbd.a0``, ``arrival.d1``, ``model.service_rate``, ...).
        self._eval(expr.value)
        return _seed_for(expr.attr, batched=False)

    # -- elementwise / matmul -------------------------------------------
    def _eval_binop(self, expr: ast.BinOp) -> ArrayFact | None:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if isinstance(expr.op, ast.MatMult):
            return self._matmul(expr, left, right)
        if isinstance(expr.op, ast.FloorDiv):
            self._check_floordiv(expr)
            return None
        if isinstance(expr.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            return self._elementwise(expr, left, right)
        return None

    def _check_floordiv(self, expr: ast.BinOp) -> None:
        if not self.check_rl020:
            return
        for side in (expr.left, expr.right):
            name = _leaf_name(side)
            if name is not None and _rateish(name):
                self._emit(
                    expr,
                    "RL020",
                    f"floor division on rate/millisecond quantity {name!r} "
                    "truncates toward zero; rates and _ms durations are "
                    "continuous -- use true division (/) and round "
                    "explicitly where an integer is really meant",
                )
                return

    def _matmul(
        self, expr: ast.BinOp, left: ArrayFact | None, right: ArrayFact | None
    ) -> ArrayFact | None:
        if left is None or right is None or left.shape is None or right.shape is None:
            stacked = bool(left and left.stacked) or bool(right and right.stacked)
            return ArrayFact(None, stacked=stacked) if stacked else None
        ls, rs = left.shape, right.shape
        inner: tuple[str, str] | None = None
        result: tuple[str, ...] | None = None
        if len(ls) == 2 and len(rs) == 2:
            inner, result = (ls[1], rs[0]), (ls[0], rs[1])
        elif len(ls) == 1 and len(rs) == 2:
            inner, result = (ls[0], rs[0]), (rs[1],)
        elif len(ls) == 2 and len(rs) == 1:
            inner, result = (ls[1], rs[0]), (ls[0],)
        elif len(ls) == 3 and len(rs) == 3:
            inner, result = (ls[2], rs[1]), (ls[0], ls[1], rs[2])
        elif len(ls) == 3 and len(rs) == 2:
            inner, result = (ls[2], rs[0]), (ls[0], ls[1], rs[1])
        elif len(ls) == 2 and len(rs) == 3:
            inner, result = (ls[1], rs[1]), (rs[0], ls[0], rs[2])
        elif len(ls) == 3 and len(rs) == 1:
            inner, result = (ls[2], rs[0]), (ls[0], ls[1])
        if inner is not None and _matmul_inner_conflict(*inner):
            self._emit(
                expr,
                "RL016",
                f"matmul operands are not conformable: inner dimensions "
                f"{inner[0]!r} and {inner[1]!r} differ -- a block is "
                "transposed or indexed by the wrong dimension",
            )
        if result is None:
            return None
        return ArrayFact(result, stacked=left.stacked or right.stacked)

    def _elementwise(
        self, expr: ast.BinOp, left: ArrayFact | None, right: ArrayFact | None
    ) -> ArrayFact | None:
        kind = None
        if isinstance(expr.op, ast.Add) and left is not None and right is not None:
            kind = _add_kinds(left.kind, right.kind)
        if left is None or right is None:
            base = left or right
            if base is None or base.shape is None:
                return ArrayFact(None, kind=kind) if kind else None
            return ArrayFact(base.shape, kind=kind, stacked=base.stacked)
        if left.shape is None or right.shape is None:
            stacked = left.stacked or right.stacked
            return ArrayFact(None, kind=kind, stacked=stacked)
        # Stack/slice misalignment: (N, m, m) combined elementwise with
        # (N, m) broadcasts the 2-D operand as a *matrix*, not per item.
        if self.check_rl018 and not _is_test_path(self.path):
            pair = _stack_misalignment(left, right)
            if pair is not None:
                self._emit(
                    expr,
                    "RL018",
                    "elementwise op mixes a leading-axis stack "
                    f"{_fmt(pair[0].shape)} with a per-item operand "
                    f"{_fmt(pair[1].shape)}: numpy aligns shapes from "
                    "the right, so the item axis lands on a matrix axis "
                    "instead of mapping item-to-item -- add explicit "
                    "trailing axes ([:, None, None] / [..., None])",
                )
        shape = _broadcast(left.shape, right.shape)
        if shape is None:
            return ArrayFact(None, kind=kind, stacked=left.stacked or right.stacked)
        return ArrayFact(
            shape, kind=kind, stacked=left.stacked or right.stacked
        )

    # -- subscripts ------------------------------------------------------
    def _eval_subscript(self, expr: ast.Subscript) -> ArrayFact | None:
        base = self._eval(expr.value)
        index = expr.slice
        if base is None or base.shape is None:
            return None
        dims = list(base.shape)
        elements = list(index.elts) if isinstance(index, ast.Tuple) else [index]
        result: list[str] = []
        consumed = 0
        for position, element in enumerate(elements):
            self._eval_index(element)
            if _is_none(element):
                result.append("1")
            elif _is_ellipsis(element):
                # Keep every axis the remaining explicit elements do not
                # consume.
                remaining = sum(
                    1
                    for e in elements[position + 1 :]
                    if not _is_none(e) and not _is_ellipsis(e)
                )
                keep = len(dims) - consumed - remaining
                for _ in range(max(keep, 0)):
                    result.append(dims[consumed])
                    consumed += 1
            elif isinstance(element, ast.Slice):
                if consumed < len(dims):
                    if (
                        element.lower is None
                        and element.upper is None
                        and element.step is None
                    ):
                        result.append(dims[consumed])
                    else:
                        result.append(DIM_UNKNOWN)
                    consumed += 1
            elif isinstance(element, ast.Constant) and isinstance(
                element.value, int
            ):
                consumed += 1  # scalar index: axis dropped
            else:
                # Name/expression index: an int drops the axis, a mask or
                # fancy index keeps the rank -- unknowable statically, so
                # keep the rank but forget the leading extent and the
                # stack pedigree.
                if consumed < len(dims):
                    result.append(DIM_UNKNOWN)
                    consumed += 1
                return ArrayFact(
                    tuple(result) + tuple(dims[consumed:]), kind=None
                )
        result.extend(dims[consumed:])
        return ArrayFact(
            tuple(result),
            kind=None,
            stacked=base.stacked and len(result) == 3,
        )

    def _dim_from_expr(self, expr: ast.expr) -> str:
        """Symbolic dimension named by a shape-tuple element."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return str(expr.value)
        name = _leaf_name(expr)
        if name is not None:
            return name
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Mult, ast.Add)
        ):
            left = self._dim_from_expr(expr.left)
            right = self._dim_from_expr(expr.right)
            if _known(left) and _known(right):
                sep = "*" if isinstance(expr.op, ast.Mult) else "+"
                return f"{left}{sep}{right}"
            return DIM_UNKNOWN
        self._eval(expr)
        return DIM_UNKNOWN

    def _shape_from_expr(self, expr: ast.expr) -> tuple[str, ...] | None:
        if isinstance(expr, (ast.Tuple, ast.List)):
            return tuple(self._dim_from_expr(e) for e in expr.elts)
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return (str(expr.value),)
        name = _leaf_name(expr)
        if name is not None:
            return (name,)
        return None

    def _eval_index(self, element: ast.expr) -> None:
        if isinstance(element, ast.Slice):
            for part in (element.lower, element.upper, element.step):
                if part is not None:
                    self._eval(part)
        elif not _is_ellipsis(element):
            self._eval(element)

    # -- calls -----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> ArrayFact | None:
        leaf = _call_leaf(node)
        arg_facts = [self._eval(arg) for arg in node.args]
        kw_facts = {
            kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)

        self._check_dtype_kwargs(node)
        if leaf is None:
            return None

        # numpy factories -------------------------------------------------
        if leaf in {"zeros", "ones", "empty", "full"} and node.args:
            shape = self._shape_from_expr(node.args[0])
            if shape is not None:
                return ArrayFact(shape)
            return None
        if leaf == "eye" and node.args:
            dim = self._dim_from_expr(node.args[0])
            return ArrayFact((dim, dim))
        if leaf in {"zeros_like", "ones_like", "empty_like", "full_like", "copy"}:
            return arg_facts[0] if arg_facts else None
        if leaf in {"asarray", "array", "ascontiguousarray", "asfortranarray"}:
            return arg_facts[0] if arg_facts else None
        if leaf == "astype":
            base = (
                self._eval(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            self._check_astype(node)
            return base
        if leaf == "kron" and len(node.args) == 2:
            return self._kron(node, arg_facts[0], arg_facts[1])
        if leaf == "stack" and node.args:
            elem = self._stack_element_fact(node.args[0])
            if elem is not None and elem.shape is not None:
                return ArrayFact(("N", *elem.shape), stacked=True)
            return ArrayFact(None, stacked=True)
        if leaf == "transpose":
            return self._transpose_call(node, arg_facts)
        if leaf == "solve" and len(node.args) >= 2:
            return self._solve(node, arg_facts[0], arg_facts[1])
        if leaf == "lu_solve" and len(node.args) >= 2:
            return arg_facts[1]
        if leaf == "inv":
            return arg_facts[0] if arg_facts else None
        if leaf == "diag" and arg_facts and arg_facts[0] is not None:
            inner = arg_facts[0]
            if inner.ndim == 2:
                return ArrayFact((inner.shape[0],))
            if inner.ndim == 1:
                return ArrayFact((inner.shape[0], inner.shape[0]))
            return None
        if leaf in _REDUCTIONS:
            return self._reduction(node, leaf, arg_facts)
        if leaf in {"float", "int", "abs"}:
            inner = arg_facts[0] if arg_facts else None
            if inner is not None and inner.kind in _SCALAR_KINDS:
                return ArrayFact((), inner.kind)
            if leaf == "abs":
                return inner
            return ArrayFact(()) if arg_facts else None
        if leaf == "_as_block_stack":
            return ArrayFact(("N", "m", "m"), stacked=True)

        # structure sinks -------------------------------------------------
        self._check_sinks(node, leaf, arg_facts, kw_facts)
        self._record_call(node, arg_facts, kw_facts)
        return None

    def _transpose_call(
        self, node: ast.Call, arg_facts: list[ArrayFact | None]
    ) -> ArrayFact | None:
        base: ArrayFact | None
        perm_offset = 0
        if isinstance(node.func, ast.Attribute) and not (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id in _NUMPY_BASES
        ):
            base = self._eval(node.func.value)
        else:
            base = arg_facts[0] if arg_facts else None
            perm_offset = 1
        if base is None or base.shape is None:
            return base
        perm = [
            a.value
            for a in node.args[perm_offset:]
            if isinstance(a, ast.Constant) and isinstance(a.value, int)
        ]
        if len(perm) == len(base.shape):
            return replace(base, shape=tuple(base.shape[i] for i in perm))
        if base.ndim == 2 and not perm:
            return replace(
                base,
                shape=(base.shape[1], base.shape[0]),
                transposed=not base.transposed,
            )
        return replace(base, shape=None)

    def _kron(
        self,
        node: ast.Call,
        left: ArrayFact | None,
        right: ArrayFact | None,
    ) -> ArrayFact | None:
        for operand in (left, right):
            if (
                operand is not None
                and operand.transposed
                and operand.kind in ORIENTED_KINDS
            ):
                self._emit(
                    node,
                    "RL016",
                    "transposed kron operand: a row-oriented "
                    f"{operand.kind} block enters np.kron through .T, "
                    "which swaps its transition direction in the "
                    "assembled block -- drop the transpose (or transpose "
                    "the assembled result deliberately)",
                )
        if (
            left is None
            or right is None
            or left.ndim != 2
            or right.ndim != 2
        ):
            return None
        dims = tuple(
            _dim_product(a, b)
            for a, b in zip(left.shape, right.shape)
        )
        return ArrayFact(dims)

    def _solve(
        self,
        node: ast.Call,
        lhs: ArrayFact | None,
        rhs: ArrayFact | None,
    ) -> ArrayFact | None:
        if (
            self.check_rl018
            and not _is_test_path(self.path)
            and lhs is not None
            and lhs.stacked
            and lhs.ndim == 3
            and rhs is not None
            and rhs.ndim == 2
        ):
            self._emit(
                node,
                "RL018",
                "np.linalg.solve with a stacked (N, m, m) LHS and a 2-D "
                "RHS: vector-vs-matrix dispatch for a 2-D RHS differs "
                "between numpy versions -- keep the RHS explicitly 3-D "
                "((N, m, 1), e.g. rhs[..., None])",
            )
        return rhs

    def _reduction(
        self, node: ast.Call, leaf: str, arg_facts: list[ArrayFact | None]
    ) -> ArrayFact | None:
        if isinstance(node.func, ast.Attribute) and not (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id in _NUMPY_BASES
        ):
            base = self._eval(node.func.value)
        else:
            base = arg_facts[0] if arg_facts else None
        axis = self._reduction_axis(node)
        if (
            self.check_rl018
            and not _is_test_path(self.path)
            and not _is_benchmark_path(self.path)
            and base is not None
            and base.stacked
            and base.ndim == 3
            and axis in ("none", "0")
        ):
            how = (
                "with no axis argument"
                if axis == "none"
                else "over axis=0 (the item axis)"
            )
            self._emit(
                node,
                "RL018",
                f"reduction .{leaf}() {how} on a leading-axis (N, m, m) "
                "stack aggregates *across items* instead of per item -- "
                "reduce over the trailing axes (axis=(1, 2) or axis=-1) "
                "to keep one value per stacked item",
            )
        if base is None or base.shape is None:
            return None
        if axis == "none":
            return ArrayFact(())
        # Partial reductions: the reduced shape depends on which axes the
        # (possibly dynamic) axis argument names -- drop to unknown.
        return None

    @staticmethod
    def _reduction_axis(node: ast.Call) -> str:
        """``"none"``, ``"0"``, ``"trailing"`` or ``"other"``."""
        axis: ast.expr | None = None
        for kw in node.keywords:
            if kw.arg == "axis":
                axis = kw.value
        if axis is None:
            numpy_style = isinstance(node.func, ast.Name) or (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in _NUMPY_BASES
            )
            if numpy_style and len(node.args) >= 2:
                axis = node.args[1]
            elif not numpy_style and node.args:
                axis = node.args[0]
        if axis is None:
            return "none"
        if isinstance(axis, ast.Constant):
            if axis.value is None:
                return "none"
            if axis.value == 0:
                return "0"
        if isinstance(axis, ast.Tuple):
            values = [
                e.value
                for e in axis.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, int)
            ]
            if values and 0 not in values:
                return "trailing"
        if isinstance(axis, ast.Constant) and isinstance(axis.value, int):
            return "trailing" if axis.value != 0 else "0"
        if isinstance(axis, ast.UnaryOp):
            return "trailing"  # axis=-1 style
        return "other"

    def _stack_element_fact(self, arg: ast.expr) -> ArrayFact | None:
        if isinstance(arg, (ast.List, ast.Tuple)) and arg.elts:
            fact = self._eval(arg.elts[0])
            for elt in arg.elts[1:]:
                fact = join(fact, self._eval(elt))
            return fact
        if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
            return None
        return None

    # -- RL020 helpers ----------------------------------------------------
    def _check_dtype_kwargs(self, node: ast.Call) -> None:
        if not self.check_rl020:
            return
        for kw in node.keywords:
            if kw.arg == "dtype":
                self._check_dtype_value(kw.value)

    def _check_astype(self, node: ast.Call) -> None:
        if not self.check_rl020:
            return
        if node.args:
            self._check_dtype_value(node.args[0])
        for kw in node.keywords:
            if kw.arg == "dtype":
                self._check_dtype_value(kw.value)

    def _check_dtype_value(self, value: ast.expr) -> None:
        name: str | None = None
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            name = value.value
        else:
            name = _leaf_name(value)
        if name is None:
            return
        if name in _NARROW_DTYPES:
            self._emit(
                value,
                "RL020",
                f"narrowing float dtype {name!r}: rates, probabilities "
                "and _ms durations are float64 repo-wide -- a float32 "
                "downcast silently loses ~9 significant digits in the "
                "matrix-geometric iterations",
            )
        elif name == "float_":
            self._emit(
                value,
                "RL020",
                "np.float_ was removed in numpy 2.0 and reads as a "
                "narrowing alias -- spell the precision explicitly "
                "(float or np.float64)",
            )

    # -- sink checks ------------------------------------------------------
    def _check_sinks(
        self,
        node: ast.Call,
        leaf: str,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> None:
        if leaf in _GENERATOR_SINKS:
            self._check_kind_sink(node, leaf, arg_facts, GENERATOR)
        elif leaf in _STOCHASTIC_SINKS:
            self._check_kind_sink(node, leaf, arg_facts, STOCHASTIC)
        elif leaf in _PROB_VECTOR_SINKS:
            self._check_kind_sink(node, leaf, arg_facts, PROB_VECTOR)
        elif leaf in _BLOCK_TRIPLE_SINKS:
            self._check_block_triple(node, leaf, arg_facts, kw_facts)
        elif leaf == "QBDProcess" or (
            leaf == "cls" and self.class_name == "QBDProcess"
        ):
            self._check_qbd_ctor(node, arg_facts, kw_facts)
        self._check_probability_kwargs(node, kw_facts)
        self._note_sink_uses(node, leaf)

    def _check_kind_sink(
        self,
        node: ast.Call,
        leaf: str,
        arg_facts: list[ArrayFact | None],
        expected: str,
    ) -> None:
        fact = arg_facts[0] if arg_facts else None
        if fact is None or fact.kind is None or fact.kind == expected:
            return
        if expected == GENERATOR and fact.kind in (
            SUBGENERATOR,
            RATE_BLOCK,
            STOCHASTIC,
        ):
            hint = (
                "D0 alone is a *sub*generator (rows sum to -D1 rows); "
                "pass the full phase generator (e.g. d0 + d1)"
                if fact.kind == SUBGENERATOR
                else "pass the full phase generator, not a "
                f"{fact.kind} block"
            )
            self._emit(
                node,
                "RL017",
                f"{leaf}() expects a proper generator but receives a "
                f"{fact.kind} value: {hint}",
            )
        elif expected in (STOCHASTIC, PROB_VECTOR) and fact.kind in (
            GENERATOR,
            SUBGENERATOR,
        ):
            self._emit(
                node,
                "RL017",
                f"{leaf}() expects a {expected.lower().replace('_', ' ')} "
                f"but receives a {fact.kind} (rows sum to 0, not 1); "
                "convert (e.g. embedded jump chain) before the call",
            )

    def _check_oriented(self, node: ast.Call, name: str, fact: ArrayFact | None) -> bool:
        if fact is not None and fact.transposed and fact.kind in ORIENTED_KINDS:
            self._emit(
                node,
                "RL016",
                f"block {name!r} is a transposed {fact.kind}: QBD blocks "
                "follow the row convention (rows index the from-state) -- "
                "passing .T swaps the transition direction",
            )
            return True
        return False

    def _check_square(self, node: ast.Call, name: str, fact: ArrayFact | None) -> None:
        if fact is None or fact.ndim != 2:
            return
        r, c = fact.shape
        if _matmul_inner_conflict(r, c):
            self._emit(
                node,
                "RL016",
                f"block {name!r} must be square, got shape "
                f"({r}, {c})",
            )

    def _check_block_triple(
        self,
        node: ast.Call,
        leaf: str,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> None:
        names = ("a0", "a1", "a2")
        facts: dict[str, ArrayFact | None] = {}
        for index, name in enumerate(names):
            if name in kw_facts:
                facts[name] = kw_facts[name]
            elif index < len(arg_facts):
                facts[name] = arg_facts[index]
            else:
                facts[name] = None
        for name in names:
            if not self._check_oriented(node, name, facts[name]):
                self._check_square(node, name, facts[name])
        # Numerically incompatible triple members.
        shapes = {
            name: f.shape
            for name, f in facts.items()
            if f is not None and f.ndim == 2
        }
        numeric = {
            name: s
            for name, s in shapes.items()
            if all(_numeric(d) for d in s)
        }
        if len({s for s in numeric.values()}) > 1:
            listing = ", ".join(
                f"{name}={_fmt(s)}" for name, s in sorted(numeric.items())
            )
            self._emit(
                node,
                "RL016",
                f"{leaf}() requires same-shape square blocks, got "
                f"{listing}",
            )

    def _check_qbd_ctor(
        self,
        node: ast.Call,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> None:
        facts: dict[str, ArrayFact | None] = {}
        for index, name in enumerate(_QBD_PARAMS):
            if name in kw_facts:
                facts[name] = kw_facts[name]
            elif index < len(arg_facts):
                facts[name] = arg_facts[index]
            else:
                facts[name] = None
        for name in _QBD_PARAMS:
            if self._check_oriented(node, name, facts[name]):
                continue
            if name in _QBD_SQUARE:
                self._check_square(node, name, facts[name])
        boundary = facts["b00"]
        repeating = facts["a1"]
        n_b = boundary.shape[0] if boundary is not None and boundary.ndim == 2 else None
        m = repeating.shape[0] if repeating is not None and repeating.ndim == 2 else None
        if n_b is None or m is None:
            return
        for name, expected in (("b01", (n_b, m)), ("b10", (m, n_b))):
            fact = facts[name]
            if fact is None or fact.ndim != 2 or fact.transposed:
                continue
            if _is_swap(fact.shape, expected):
                self._emit(
                    node,
                    "RL016",
                    f"boundary block {name!r} has the wrong row split: "
                    f"expected shape {_fmt(expected)} (rows = "
                    f"{'boundary' if name == 'b01' else 'repeating'} "
                    f"states), got the transposed {_fmt(fact.shape)}",
                )
            elif all(_numeric(d) for d in (*fact.shape, *expected)) and (
                fact.shape != expected
            ):
                self._emit(
                    node,
                    "RL016",
                    f"boundary block {name!r} must have shape "
                    f"{_fmt(expected)}, got {_fmt(fact.shape)}",
                )

    def _check_probability_kwargs(
        self, node: ast.Call, kw_facts: dict[str, ArrayFact | None]
    ) -> None:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            if kw.arg == "bg_probability" or kw.arg.endswith("_probability"):
                fact = kw_facts.get(kw.arg)
                if fact is not None and fact.kind == RATE_SCALAR:
                    described = _leaf_name(kw.value) or "value"
                    self._emit(
                        node,
                        "RL017",
                        f"rate-valued {described!r} flows into probability "
                        f"parameter {kw.arg!r}: rates are per-ms and "
                        "unbounded, probabilities live in [0, 1] -- "
                        "normalize (rate ratio) before the call",
                    )

    # -- interprocedural extraction --------------------------------------
    def _note_sink_uses(self, node: ast.Call, leaf: str) -> None:
        """Record parameters forwarded unmodified into known sink slots."""
        expected_kind = (
            GENERATOR
            if leaf in _GENERATOR_SINKS
            else STOCHASTIC
            if leaf in _STOCHASTIC_SINKS
            else PROB_VECTOR
            if leaf in _PROB_VECTOR_SINKS
            else None
        )
        if expected_kind is not None and node.args:
            name = node.args[0].id if isinstance(node.args[0], ast.Name) else None
            if name in self.param_names:
                self.sink_uses.append(_SinkUse(name, kind=expected_kind))
        if leaf in _BLOCK_TRIPLE_SINKS:
            for arg in node.args[:3]:
                if isinstance(arg, ast.Name) and arg.id in self.param_names:
                    self.sink_uses.append(_SinkUse(arg.id, square=True))
            for kw in node.keywords:
                if (
                    kw.arg in ("a0", "a1", "a2")
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in self.param_names
                ):
                    self.sink_uses.append(_SinkUse(kw.value.id, square=True))

    def _record_call(
        self,
        node: ast.Call,
        arg_facts: list[ArrayFact | None],
        kw_facts: dict[str, ArrayFact | None],
    ) -> None:
        """Record the call with arg facts for the cross-file shape pass."""
        if not any(arg_facts) and not any(kw_facts.values()):
            return
        func = node.func
        if isinstance(func, ast.Name):
            target: list[str] = ["name", func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = ["attr", func.value.id, func.attr]
        else:
            return
        self.calls.append(
            {
                "line": node.lineno,
                "col": node.col_offset,
                "target": target,
                "pos": [f.to_json() if f else None for f in arg_facts],
                "kw": {
                    k: (f.to_json() if f else None)
                    for k, f in kw_facts.items()
                },
            }
        )


def _is_none(e: ast.expr) -> bool:
    return isinstance(e, ast.Constant) and e.value is None


def _is_ellipsis(e: ast.expr) -> bool:
    return isinstance(e, ast.Constant) and e.value is Ellipsis


def _fmt(shape: tuple[str, ...]) -> str:
    return "(" + ", ".join(shape) + ")"


def _dim_product(a: str, b: str) -> str:
    if not _known(a) or not _known(b):
        return DIM_UNKNOWN
    if _numeric(a) and _numeric(b):
        return str(int(a) * int(b))
    if a == "1":
        return b
    if b == "1":
        return a
    return f"{a}*{b}"


def _broadcast(
    left: tuple[str, ...], right: tuple[str, ...]
) -> tuple[str, ...] | None:
    out: list[str] = []
    for i in range(1, max(len(left), len(right)) + 1):
        a = left[-i] if i <= len(left) else "1"
        b = right[-i] if i <= len(right) else "1"
        if a == b:
            out.append(a)
        elif a == "1":
            out.append(b)
        elif b == "1":
            out.append(a)
        elif not _known(a):
            out.append(b)
        elif not _known(b):
            out.append(a)
        elif _numeric(a) and _numeric(b):
            return None  # provably incompatible
        else:
            out.append(DIM_UNKNOWN)
    return tuple(reversed(out))


def _stack_misalignment(
    left: ArrayFact, right: ArrayFact
) -> tuple[ArrayFact, ArrayFact] | None:
    """A per-item operand broadcast against the *trailing* matrix axes.

    An elementwise op between a ``(N, m, m)`` stack and a per-item
    ``(N,)`` or ``(N, m)`` array aligns from the right, so the item
    axis lands on a matrix axis instead of mapping item-to-item.
    Detected only when the leading symbols provably coincide and the
    item count provably differs from the matrix dimension.
    """
    for stack, flat in ((left, right), (right, left)):
        if not (stack.stacked and stack.ndim == 3 and _known(stack.shape[0])):
            continue
        n = stack.shape[0]
        m = stack.shape[2]
        if flat.ndim == 1 and flat.shape[0] == n and _dims_conflict(m, n):
            return stack, flat
        if (
            flat.ndim == 2
            and flat.shape[0] == n
            and _dims_conflict(stack.shape[1], n)
            and not _dims_conflict(m, flat.shape[1])
        ):
            return stack, flat
    return None


def _add_kinds(a: str | None, b: str | None) -> str | None:
    """Kind algebra of ``+``: the two generator-assembly idioms."""
    pair = {a, b}
    if pair == {SUBGENERATOR, RATE_BLOCK} or pair == {GENERATOR, RATE_BLOCK}:
        return GENERATOR
    if pair == {RATE_BLOCK}:
        return RATE_BLOCK
    return None


# ---------------------------------------------------------------------------
# RL019: the bg_completion_rate NaN policy
# ---------------------------------------------------------------------------


def _scope_has_nan_guard(body: list[ast.stmt]) -> bool:
    for node in _walk_shallow(body):
        if isinstance(node, ast.Call):
            leaf = _call_leaf(node)
            if leaf in _NAN_GUARD_CALLS:
                return True
        if isinstance(node, ast.Name) and node.id == _NAN_GUARD_NAME:
            return True
        if isinstance(node, ast.Attribute) and node.attr == _NAN_GUARD_NAME:
            return True
    return False


def _walk_shallow(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function defs."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _contains_nan_source(expr: ast.expr, derived: set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == _NAN_SOURCE_ATTR:
            return True
        if isinstance(node, ast.Name) and node.id in derived:
            return True
    return False


def _rl019_scan(
    body: list[ast.stmt], path: str, findings: list[_Finding]
) -> None:
    if _scope_has_nan_guard(body):
        return
    derived: set[str] = set()
    for node in _walk_shallow(body):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.expr):
            if _contains_nan_source(node.value, derived):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        derived.add(target.id)
    for node in _walk_shallow(body):
        site: ast.AST | None = None
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_contains_nan_source(o, derived) for o in operands):
                site = node
        elif isinstance(node, ast.Call):
            leaf = _call_leaf(node)
            if leaf in _AGGREGATIONS and any(
                _contains_nan_source(a, derived) for a in node.args
            ):
                site = node
        if site is not None:
            findings.append(
                _Finding(
                    site.lineno,
                    site.col_offset,
                    "RL019",
                    "value derived from bg_completion_rate used in a "
                    "comparison/aggregation with no NaN guard in scope: "
                    "below NEAR_ZERO_BG_PROBABILITY the metric is a "
                    "deliberate NaN and every comparison is silently "
                    "False -- test math.isnan()/np.isfinite() first (or "
                    "gate on bg_probability >= NEAR_ZERO_BG_PROBABILITY)",
                )
            )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _function_param_seeds(
    func: ast.FunctionDef | ast.AsyncFunctionDef, *, batched: bool
) -> tuple[dict[str, ArrayFact], frozenset[str]]:
    args = func.args
    names = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if names and names[0] in {"self", "cls"}:
        names = names[1:]
    seeds: dict[str, ArrayFact] = {}
    for name in names:
        seed = _seed_for(name, batched=batched)
        if seed is not None:
            seeds[name] = seed
    return seeds, frozenset(names)


def _iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[str | None, str, ast.AST]]:
    """Yield ``(class_name, qualname, node)`` for the module and every
    function/method (module body yields ``("", "<module>")``-style)."""
    yield None, "<module>", tree
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, stmt.name, stmt
            for inner in ast.walk(stmt):
                if (
                    isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and inner is not stmt
                ):
                    yield None, f"{stmt.name}.{inner.name}", inner
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt.name, f"{stmt.name}.{item.name}", item


def analyze_shapes(
    tree: ast.Module, path: str
) -> tuple[list[_Finding], dict[str, Any]]:
    """Run the abstract interpreter; returns ``(findings, summary)``.

    The summary is JSON-only and rides the project result cache:
    ``functions`` maps qualnames to sink-derived parameter expectations,
    ``calls`` lists call sites whose arguments carried facts (for the
    cross-file RL016/RL017 pass in :mod:`tools.reprolint.project`).
    """
    batched = _is_batched_path(path)
    is_test = _is_test_path(path)
    findings: list[_Finding] = []
    functions: dict[str, Any] = {}
    calls: list[dict[str, Any]] = []

    for class_name, qualname, node in _iter_scopes(tree):
        if isinstance(node, ast.Module):
            walker = _Walker(path, batched=batched)
            body = node.body
        else:
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            seeds, param_names = _function_param_seeds(node, batched=batched)
            walker = _Walker(
                path,
                batched=batched,
                class_name=class_name,
                params=seeds,
                param_names=param_names,
            )
            body = node.body
        walker.run(body)
        findings.extend(walker.findings)
        if not is_test:
            _rl019_scan(body, path, findings)
        for record in walker.calls:
            record["in_function"] = None if qualname == "<module>" else qualname
            calls.append(record)
        if walker.sink_uses:
            expect: dict[str, Any] = {}
            for use in walker.sink_uses:
                entry = expect.setdefault(
                    use.param, {"kind": None, "square": False}
                )
                if use.kind is not None:
                    entry["kind"] = use.kind
                if use.square:
                    entry["square"] = True
            functions[qualname] = {"expect": expect}

    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings, {"functions": functions, "calls": calls}


def extract_shape_summary(tree: ast.Module, path: str) -> dict[str, Any]:
    """The cacheable shape summary of one module (no violations)."""
    _, summary = analyze_shapes(tree, path)
    return summary


def shape_rules(tree: ast.Module, path: str) -> Iterator[Violation]:
    """The per-file RL016-RL020 rule driver (registered in FILE_RULES)."""
    findings, _ = analyze_shapes(tree, path)
    for finding in findings:
        yield Violation(
            path, finding.line, finding.col, finding.code, finding.message
        )
