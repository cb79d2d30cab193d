"""Discrete joint distributions and auxiliary channels.

A :class:`JointPmf` is the full joint law of K finite-alphabet variables
stored as a dense row-major tensor; an :class:`AuxChannel` is a conditional
distribution p(w | joint outcome) defining an auxiliary variable W.  Both
are immutable after construction and validated eagerly, so every value in
circulation satisfies its invariants.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Sequence

import numpy as np

from .errors import (
    EmptySelectionError,
    NegativeMassError,
    NotNormalizedError,
    OverlappingSelectionsError,
    ParseError,
    ShapeMismatchError,
    ZeroProbabilityEventError,
)

NORMALIZATION_TOL = 1e-12


def check_integer(value, minimum: int, name: str, error: type = ValueError) -> None:
    """Reject a setting ``name`` that is not an integer (numpy integers pass;
    a bool does not) with TypeError, and one below ``minimum`` with ``error``."""
    # A plain int (a bool's type is bool) skips the ABC checks.
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint law of K named finite-alphabet variables.

    ``probabilities`` may be passed flat or already shaped; it is stored as
    a read-only tensor of shape ``cardinalities`` whose row-major flattening
    enumerates joint outcomes.
    """

    variable_names: tuple[str, ...]
    cardinalities: tuple[int, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        names = tuple(str(v) for v in self.variable_names)
        cards = tuple(self.cardinalities)
        for c in cards:
            check_integer(c, 1, "cardinality", ShapeMismatchError)
        cards = tuple(int(c) for c in cards)
        tensor = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "cardinalities", cards)
        if len(names) != len(cards):
            raise ShapeMismatchError(
                f"{len(names)} variable names but {len(cards)} cardinalities"
            )
        expected = math.prod(cards)
        if tensor.size != expected:
            raise ShapeMismatchError(
                f"tensor has {tensor.size} entries, expected {expected} "
                f"for cardinalities {cards}"
            )
        tensor = _frozen_array(tensor.reshape(cards))
        object.__setattr__(self, "probabilities", tensor)
        validate(self)

    @property
    def k(self) -> int:
        """Number of variables."""
        return len(self.cardinalities)

    @property
    def num_outcomes(self) -> int:
        return self.probabilities.size

    @property
    def flat(self) -> np.ndarray:
        """Row-major 1-D view of the probability tensor."""
        return self.probabilities.reshape(-1)

    def support_indices(self) -> np.ndarray:
        """Row-major indices of outcomes with positive probability."""
        return np.flatnonzero(self.flat > 0.0)

    def outcome_symbols(self, index: int) -> tuple[int, ...]:
        """Per-variable symbols of a row-major joint outcome index."""
        return tuple(int(s) for s in np.unravel_index(index, self.cardinalities))

    def digits(self, var: int) -> np.ndarray:
        """Symbol of variable ``var`` for every row-major joint outcome;
        ``var`` is checked like an index of a selection."""
        (var,) = check_selection(self, [var], "var")
        idx = np.arange(self.num_outcomes)
        return np.unravel_index(idx, self.cardinalities)[var]

    @cached_property
    def support(self) -> SupportView:
        """The law compacted to its positive-probability outcomes (built once)."""
        return SupportView(self)

    @cached_property
    def _entropies(self) -> dict[tuple[int, ...], float]:
        """H(X_S) in bits of each selection S measured so far, keyed by the
        sorted S; ``infotheory.entropy`` fills it, at most 2^K - 1 floats."""
        return {}

    @cached_property
    def _seed_measures(self) -> dict[str, tuple]:
        """Floats that ``infotheory`` measures once per law on its support:
        "sources", H(X_k) of every source from a bincount of the support
        masses, and "constant" and "copy", the corner measures of the seed
        channels.  No entry refers to a channel."""
        return {}

    def __repr__(self) -> str:
        return f"JointPmf(variables={self.variable_names}, cardinalities={self.cardinalities})"


def symbol_nodes(digits, cardinalities) -> np.ndarray:
    """The node of each (source, symbol) pair of ``digits`` (K x S), the K
    alphabets laid side by side: symbol x of source k is node x plus the
    alphabet sizes of the sources before k."""
    return np.asarray(digits) + np.array((0, *cardinalities[:-1])).cumsum()[:, None]


class SupportView:
    """A joint law restricted to its support, where every search works.

    Row s of each array is the s-th positive-probability outcome in
    row-major order: ``indices[s]`` is its joint index, ``p[s]`` its mass,
    ``digits[k, s]`` the symbol of variable k and ``nodes[k, s]`` the node
    of that symbol (``symbol_nodes``); ``columns[k]`` slices source k's
    nodes.  Row s of ``onehot`` (size x nodes) is 1 at its K nodes, so
    ``onehot.T @ t`` aggregates support rows by every X_k at once.
    """

    def __init__(self, pmf: JointPmf):
        self.indices = pmf.support_indices()
        self.p = pmf.flat[self.indices]
        self.num_outcomes = pmf.num_outcomes
        cards = pmf.cardinalities
        self.digits = np.array(np.unravel_index(self.indices, cards))
        self.nodes = symbol_nodes(self.digits, cards)
        starts = (self.nodes[:, 0] - self.digits[:, 0]).tolist()  # the nodes of symbol 0
        self.columns = tuple(slice(a, a + c) for a, c in zip(starts, cards))
        self.onehot = np.zeros((len(self.indices), sum(cards)))
        self.onehot[np.arange(len(self.indices)), self.nodes] = 1.0
        for arr in (self.indices, self.p, self.digits, self.nodes, self.onehot):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    def w_cardinality(self, requested: int | None) -> int:
        """``requested``, checked to be an integer of at least 1 (not a
        bool), else support size + 1 (enough for any mixture)."""
        if requested is None:
            return self.size + 1
        check_integer(requested, 1, "w_cardinality")
        return requested

    def embed(self, rows: np.ndarray, w_cardinality: int) -> AuxChannel:
        """Full channel with ``rows`` on the support and uniform rows off it."""
        full = np.full((self.num_outcomes, w_cardinality), 1.0 / w_cardinality)
        full[self.indices] = rows
        return AuxChannel(w_cardinality, full)


@dataclass(frozen=True, eq=False)
class AuxChannel:
    """Conditional distribution p(w | joint outcome), one row per outcome."""

    w_cardinality: int
    rows: np.ndarray
    # (weak reference to a law, its corner measures) of the last law this
    # channel was measured with; only ``infotheory.corner_measures`` sets it.
    _corner = None
    # "constant" or "copy" on the channels those constructors build, whose
    # corners ``infotheory.corner_measures`` reads from the law's entropies.
    _seed = None

    def __post_init__(self):
        check_integer(self.w_cardinality, 1, "w_cardinality", ShapeMismatchError)
        object.__setattr__(self, "w_cardinality", int(self.w_cardinality))
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.w_cardinality:
            raise ShapeMismatchError(
                f"rows must have shape (num_outcomes, {self.w_cardinality}), "
                f"got {rows.shape}"
            )
        if (rows < 0.0).any():
            raise NegativeMassError("channel rows contain negative entries")
        sums = rows.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max()) if rows.shape[0] else 0.0
        if not worst <= NORMALIZATION_TOL:  # a NaN entry fails this test too
            raise NotNormalizedError(
                f"channel row sums deviate from 1 by up to {worst:.3e}"
            )
        object.__setattr__(self, "rows", _frozen_array(rows))

    def __getstate__(self):
        # A weak reference cannot be pickled; a copy starts with no memo.
        return {k: v for k, v in self.__dict__.items() if k != "_corner"}

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    def is_deterministic(self, tol: float = 0.0) -> bool:
        """True when every row puts all mass on a single w symbol."""
        return bool(np.all(self.rows.max(axis=1) >= 1.0 - tol))

    def labels(self) -> np.ndarray:
        """Per-outcome argmax label (the w value for deterministic rows)."""
        return self.rows.argmax(axis=1)

    def __repr__(self) -> str:
        return f"AuxChannel(w_cardinality={self.w_cardinality}, num_rows={self.num_rows})"


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def validate(pmf: JointPmf) -> None:
    """Raise unless all JointPmf invariants hold.

    Checks, in order: no duplicate names, non-negative entries, unit sum
    within ``NORMALIZATION_TOL`` (which no NaN or infinite entry meets).
    Non-negative entries with a sum near 1 leave some entry positive, so
    the support is never empty.
    """
    if len(set(pmf.variable_names)) != len(pmf.variable_names):
        raise ShapeMismatchError(f"duplicate variable names: {pmf.variable_names}")
    flat = pmf.flat
    if (flat < 0.0).any():
        worst = float(flat.min())
        raise NegativeMassError(f"negative probability entry {worst:.3e}")
    total = float(flat.sum())
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise NotNormalizedError(
            f"probabilities sum to {total!r}, off by {total - 1.0:.3e}"
        )


def check_selection(
    pmf: JointPmf, sel: Sequence[int] | None, what: str
) -> tuple[int, ...]:
    """Sorted variable indices of ``sel`` (every variable when None); an
    empty selection is returned for the caller to reject.  Indices must be
    integers (numpy integers too); bools, floats and strings raise
    TypeError rather than being truncated or parsed."""
    if sel is None:
        return tuple(range(pmf.k))
    items = tuple(sel)
    k = pmf.k
    # Distinct in-range plain ints (a bool's type is bool) need no more checks.
    if all(type(i) is int and 0 <= i < k for i in items) and len(set(items)) == len(items):
        return tuple(sorted(items))
    try:
        if bool in map(type, items):  # operator.index(True) would give 1
            raise TypeError
        indices = tuple(map(operator.index, items))
    except TypeError:
        raise TypeError(f"{what} indices must be integers, got {items!r}") from None
    for i in indices:
        if not 0 <= i < pmf.k:
            raise IndexError(f"{what} index {i} out of range for {pmf.k} variables")
    if len(set(indices)) != len(indices):
        raise OverlappingSelectionsError(f"{what} repeats a variable index: {indices}")
    return tuple(sorted(indices))


def check_channel(pmf: JointPmf, w: AuxChannel) -> None:
    """Raise unless ``w`` has one row per joint outcome of ``pmf``."""
    if w.num_rows != pmf.num_outcomes:
        raise ShapeMismatchError(
            f"channel has {w.num_rows} rows but pmf has {pmf.num_outcomes} outcomes"
        )


def marginalize(pmf: JointPmf, keep: Sequence[int]) -> JointPmf:
    """Marginal over the kept variables (original relative order)."""
    keep_sorted = check_selection(pmf, keep, "keep")
    if not keep_sorted:
        raise EmptySelectionError("keep selects no variables")
    drop = tuple(i for i in range(pmf.k) if i not in keep_sorted)
    tensor = pmf.probabilities.sum(axis=drop) if drop else pmf.probabilities
    names = tuple(pmf.variable_names[i] for i in keep_sorted)
    cards = tuple(pmf.cardinalities[i] for i in keep_sorted)
    try:
        return JointPmf(names, cards, tensor)
    except NotNormalizedError:  # summed in another order; see join_with_aux
        return JointPmf(names, cards, tensor / tensor.sum())


def condition(pmf: JointPmf, on: int, value: int) -> JointPmf:
    """Conditional joint law of the remaining variables given X_on = value."""
    if not 0 <= on < pmf.k:
        raise IndexError(f"variable index {on} out of range")
    if not 0 <= value < pmf.cardinalities[on]:
        raise IndexError(f"outcome {value} out of range for variable {on}")
    if pmf.k < 2:
        raise EmptySelectionError("conditioning would remove the only variable")
    slab = np.take(pmf.probabilities, value, axis=on)
    mass = float(slab.sum())
    if mass <= 0.0:
        raise ZeroProbabilityEventError(
            f"P({pmf.variable_names[on]} = {value}) = 0"
        )
    return JointPmf(
        tuple(n for i, n in enumerate(pmf.variable_names) if i != on),
        tuple(c for i, c in enumerate(pmf.cardinalities) if i != on),
        slab / mass,
    )


def join_with_aux(pmf: JointPmf, w: AuxChannel) -> JointPmf:
    """Joint law of (X_1, ..., X_K, W); W becomes the last variable."""
    check_channel(pmf, w)
    w_name = "W"
    while w_name in pmf.variable_names:
        w_name += "_"
    tensor = pmf.flat[:, None] * w.rows
    names, cards = pmf.variable_names + (w_name,), pmf.cardinalities + (w.w_cardinality,)
    try:
        return JointPmf(names, cards, tensor)
    except NotNormalizedError:
        # Law and channel may each be off by NORMALIZATION_TOL, and so their
        # product twice over; only then is the tensor divided by its sum.
        return JointPmf(names, cards, tensor / tensor.sum())


def product(a: JointPmf, b: JointPmf) -> JointPmf:
    """Independent product law; variables of ``a`` come first."""
    if set(a.variable_names) & set(b.variable_names):
        raise ShapeMismatchError("product factors share variable names")
    tensor = np.outer(a.flat, b.flat)
    names, cards = a.variable_names + b.variable_names, a.cardinalities + b.cardinalities
    try:
        return JointPmf(names, cards, tensor)
    except NotNormalizedError:  # as in join_with_aux
        return JointPmf(names, cards, tensor / tensor.sum())


# ---------------------------------------------------------------------------
# Channel constructors
# ---------------------------------------------------------------------------


def _one_hot_channel(rows: np.ndarray) -> AuxChannel:
    """The channel of fresh ``rows`` of exact zeros with one 1 per row.
    Such rows pass every ``AuxChannel`` check by construction, so they are
    frozen in place, with no second pass and no copy."""
    rows.setflags(write=False)
    w = object.__new__(AuxChannel)
    object.__setattr__(w, "w_cardinality", rows.shape[1])
    object.__setattr__(w, "rows", rows)
    return w


def constant_channel(pmf: JointPmf, w_cardinality: int = 1) -> AuxChannel:
    """W constant (all mass on symbol 0), independent of the sources.

    ``w_cardinality`` must be an integer (numpy integers too; not a bool)
    of at least 1, checked before the rows are allocated."""
    check_integer(w_cardinality, 1, "w_cardinality", ShapeMismatchError)
    rows = np.zeros((pmf.num_outcomes, w_cardinality))
    rows[:, 0] = 1.0
    w = _one_hot_channel(rows)
    if w_cardinality == 1:
        # Exactly one column of ones, as the closed-form corner needs; other
        # channels with |W| = 1 may hold rows within 1e-12 of 1.
        object.__setattr__(w, "_seed", "constant")
    return w


def copy_channel(pmf: JointPmf) -> AuxChannel:
    """W equals the joint outcome itself (full disclosure)."""
    w = _one_hot_channel(np.eye(pmf.num_outcomes))
    object.__setattr__(w, "_seed", "copy")
    return w


def deterministic_channel(
    pmf: JointPmf, labels: Sequence[int], w_cardinality: int | None = None
) -> AuxChannel:
    """W = labels[outcome] with probability one; ``w_cardinality`` is checked
    as ``AuxChannel`` checks it."""
    if w_cardinality is not None:
        check_integer(w_cardinality, 1, "w_cardinality", ShapeMismatchError)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (pmf.num_outcomes,):
        raise ShapeMismatchError(
            f"labels must have length {pmf.num_outcomes}, got {labels.shape}"
        )
    m = int(labels.max()) + 1 if w_cardinality is None else int(w_cardinality)
    if labels.min() < 0 or labels.max() >= m:
        raise ShapeMismatchError("label out of range for w_cardinality")
    rows = np.zeros((pmf.num_outcomes, m))
    rows[np.arange(pmf.num_outcomes), labels] = 1.0
    return _one_hot_channel(rows)


def variable_channel(pmf: JointPmf, var: int) -> AuxChannel:
    """W = X_var (deterministic copy of one source variable); ``var`` is
    checked by ``JointPmf.digits``."""
    return deterministic_channel(pmf, pmf.digits(var), pmf.cardinalities[var])


# ---------------------------------------------------------------------------
# Document I/O
#
# Documents are JSON text.  Floats are written with 17 significant digits so
# that load(save(x)) reproduces every double bit-exactly.
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _dump_pmf_text(pmf: JointPmf) -> str:
    numbers = ", ".join(_format_float(v) for v in pmf.flat)
    return (
        "{\n"
        f'  "variables": {json.dumps(list(pmf.variable_names))},\n'
        f'  "cardinalities": {json.dumps(list(pmf.cardinalities))},\n'
        f'  "pmf": [{numbers}]\n'
        "}\n"
    )


def _dump_aux_text(w: AuxChannel) -> str:
    rows = ",\n".join(
        "    [" + ", ".join(_format_float(v) for v in row) + "]" for row in w.rows
    )
    return (
        "{\n"
        f'  "w_cardinality": {w.w_cardinality},\n'
        '  "rows": [\n' + rows + "\n  ]\n"
        "}\n"
    )


def _write(text: str, target) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    return doc


def _field(doc: dict, name: str, kind) -> object:
    if name not in doc:
        raise ParseError(f"missing field {name!r}")
    value = doc[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"field {name!r} has wrong type {type(value).__name__}")
    return value


def save_pmf(pmf: JointPmf, target: str | IO[str]) -> None:
    """Write a joint PMF document (path or text stream)."""
    _write(_dump_pmf_text(pmf), target)


def load_pmf(source: str | IO[str]) -> JointPmf:
    """Read a joint PMF document; invariant violations raise as in validate."""
    doc = _parse_json(_read(source))
    variables = _field(doc, "variables", list)
    cardinalities = _field(doc, "cardinalities", list)
    pmf_values = _field(doc, "pmf", list)
    if not all(isinstance(v, str) for v in variables):
        raise ParseError("field 'variables' must list strings")
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in cardinalities):
        raise ParseError("field 'cardinalities' must list integers")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pmf_values):
        raise ParseError("field 'pmf' must list numbers")
    return JointPmf(tuple(variables), tuple(cardinalities), np.array(pmf_values))


def save_aux_channel(w: AuxChannel, target: str | IO[str]) -> None:
    """Write an auxiliary-channel document (path or text stream)."""
    _write(_dump_aux_text(w), target)


def load_aux_channel(source: str | IO[str]) -> AuxChannel:
    """Read an auxiliary-channel document."""
    doc = _parse_json(_read(source))
    w_card = _field(doc, "w_cardinality", int)
    rows = _field(doc, "rows", list)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"field 'rows' entry {i} must be a list of numbers")
    return AuxChannel(w_card, np.array(rows, dtype=float))
