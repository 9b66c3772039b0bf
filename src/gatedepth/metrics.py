"""Depth metrics computed by a single weighted critical-path sweep.

Every metric is gate-aware depth under its own weight map, which
:func:`metric_weights` builds from the names of the circuits compared (a
name's first gate decides whether it is multi-qubit). :func:`increment_rule`
is the one rule of every map: a gate adds its name's weight, and barriers
and delays add 0. The runtime's rule is :func:`gatedepth.runtime.duration`.
:func:`lower` alone applies rules to a circuit, giving each gate a row of
one increment per rule, and the sweep sets each gate's operands to
``max(operand depths) + row``. A row is a float under one rule and a tuple
of floats under several; :func:`row_ops` gives each width's zero, max and
``+``, written out entry by entry and generated once per width. So one
sweep of a circuit yields every metric and its runtime, bit for bit; the
w_s grid alone sweeps numpy rows, one entry per grid value, under numpy's
ops. This module imports no numpy.
"""
from __future__ import annotations

import json
import math
import operator
from functools import cache, reduce
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from .ir import BARRIER, DELAY, Circuit, multi_qubit

BARRIER_SKIP = "skip"
BARRIER_SYNC = "sync"


def nonnegative_number(value, label: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float if it is a finite number >= 0; booleans are not
    numbers. Otherwise raise ``error("<label> must be ...")``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{label} must be a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:
        num = math.inf
    if not math.isfinite(num):
        raise error(f"{label} must be finite, got {num}")
    if num < 0:
        raise error(f"{label} must be >= 0, got {num}")
    return num


def utf8_text(value: str, label: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error("<label> <value!r> is not UTF-8 text: ...")`` unless
    ``value`` can be written as UTF-8. A JSON ``\\ud800`` escape gives a str
    a lone surrogate, which no UTF-8 file or stream can hold, so a name
    that may be written is checked when it is read, before anything is
    written."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(f"{label} {value!r} is not UTF-8 text: "
                    f"a lone surrogate at character {exc.start}") from None


def read_json(path, error: type[ValueError] = ValueError):
    """The JSON document in the UTF-8 file ``path``. Text that does not
    decode, or is nested too deep to, raises ``error("invalid JSON: ...")``;
    bytes that are not UTF-8 raise the read's ``UnicodeDecodeError``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc


# parts of JSON text that write_json joins and writes at a time; bounds the
# text held at once
JSON_CHUNK = 4096
_JSON_CONTAINERS = {dict, list, tuple}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


class _JsonDepth:
    """The texts of ``json.dump(indent=2)`` at one depth of nesting:
    ``indent`` starts the line a container at this depth ends on, ``sep``
    comes before each item in it but a list's first, ``first`` before that
    one; ``keys`` are the str keys of the last dict checked at this depth,
    and ``texts`` the text before each of its values."""

    def __init__(self, depth: int):
        self.indent = "  " * depth
        self.inner = self.indent + "  "
        self.sep = ",\n" + self.inner
        self.first = "[\n" + self.inner
        self.end_dict = "\n" + self.indent + "}"
        self.end_list = "\n" + self.indent + "]"
        self.keys: tuple = ()
        self.texts: list[str] = []

    def key_texts(self, keys: tuple) -> list[str]:
        texts = [self.sep + encode_basestring_ascii(key) + ": " for key in keys]
        texts[0] = "{" + texts[0][1:]
        return texts


def _dumps_at(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for a value that starts on a line
    indented ``indent``: json escapes every newline in a string, so each
    newline in the text starts a line."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def write_json(path, document) -> None:
    """Write ``document`` to ``path`` as ``json.dump(document, fh, indent=2)``
    does, then a newline: the same bytes, and for what json cannot encode
    the same exception. The writer goes down plain dicts, lists and tuples
    and writes each str, float, int, bool and None of exact type itself,
    as json spells it: a str by ``json.encoder.encode_basestring_ascii``, a
    float by its repr (``NaN``, ``Infinity`` and ``-Infinity`` for those
    that are not finite), an int by its repr. Anything else is written by
    ``json.dumps(value, indent=2)`` and indented to its depth: a subclass
    (an ``IntEnum``, a ``NamedTuple``, a dict subclass), a value json cannot
    encode (a set) and a dict with a key that is not a str, so json writes
    or rejects its int, float, bool and None keys. A dict whose keys equal,
    in order, those of the last dict checked at its depth takes their texts
    without checking them again: the writer keeps one dict shape per depth,
    and no float text. A cycle, or nesting deeper than Python's recursion
    limit, is written by ``json.dump`` itself, which raises its own error.
    Text goes to the file ``JSON_CHUNK`` parts at a time, so a report is
    never held as one string."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            _write_json_parts(document, fh.write)
        except RecursionError:
            fh.seek(0)
            fh.truncate()
            json.dump(document, fh, indent=2)
        fh.write("\n")


def _write_json_parts(document, write) -> None:
    out: list[str] = []
    append = out.append
    depths: list[_JsonDepth] = []

    def encode(value, depth: int) -> None:
        """Append the text of ``value``, a dict, list or tuple with an item,
        at ``depth``."""
        if depth == len(depths):
            depths.append(_JsonDepth(depth))
        level = depths[depth]
        if type(value) is dict:
            keys = tuple(value)
            if keys != level.keys:
                for key in keys:
                    if type(key) is not str:
                        append(_dumps_at(value, level.indent))
                        return
                level.keys, level.texts = keys, level.key_texts(keys)
            items, end = zip(level.texts, value.values()), level.end_dict
        else:
            items, end = zip(chain((level.first,), repeat(level.sep)), value), level.end_list
        for before, item in items:
            append(before)
            kind = type(item)
            if kind is str:
                append(encode_basestring_ascii(item))
            elif kind is float:
                text = repr(item)
                # nan, inf or -inf; a finite repr ends in a digit
                append(_JSON_NONFINITE[text] if text[-1] > "9" else text)
            elif kind in _JSON_CONTAINERS and item:  # an empty one goes to json below
                encode(item, depth + 1)
            elif kind is int:
                append(repr(item))
            elif item is None or kind is bool:
                append(_JSON_CONSTANTS[item])
            else:
                append(_dumps_at(item, level.inner))
            if len(out) >= JSON_CHUNK:
                write("".join(out))
                out.clear()
        append(end)

    if type(document) in _JSON_CONTAINERS and document:
        encode(document, 0)
    else:
        append(_dumps_at(document, ""))
    write("".join(out))


class WeightMap:
    """Gate-name -> dimensionless weight in [0, 1] for one architecture.

    ``weights`` is a dict of floats, each a finite number >= 0. Equality is
    that of ``(weights, architecture)``, and a map, holding a dict, is
    unhashable; no attribute can be assigned or deleted.
    """

    weights: dict[str, float]
    architecture: str | None

    def __init__(self, weights: Mapping[str, float], architecture: str | None = None):
        self.__dict__.update(weights={
            name: nonnegative_number(w, f"/weights/{name}: weight")
            for name, w in weights.items()
        }, architecture=architecture)

    def __getitem__(self, name: str) -> float:
        return self.weights[name]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weights, self.architecture) == (other.weights, other.architecture)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(weights={self.weights!r}, "
                f"architecture={self.architecture!r})")

    def to_dict(self) -> dict:
        return {"architecture": self.architecture or "",
                "weights": dict(sorted(self.weights.items()))}

    @classmethod
    def from_dict(cls, data) -> "WeightMap":
        if not isinstance(data, dict):
            raise ValueError("/: weight map must be a JSON object")
        if not isinstance(data.get("weights"), dict):
            raise ValueError("/weights: required object")
        for name in data["weights"]:
            utf8_text(name, "/weights: gate")
        architecture = data.get("architecture")
        if not isinstance(architecture, (str, type(None))):
            raise ValueError("/architecture: must be a string or null")
        if architecture:
            utf8_text(architecture, "/architecture: architecture")
        return cls(weights=data["weights"], architecture=architecture or None)

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "WeightMap":
        return cls.from_dict(read_json(path))


class MissingWeightError(KeyError):
    """A counted gate name has no entry in the weight map."""

    def __init__(self, gate_name: str, position: int):
        self.gate_name = gate_name
        self.position = position
        super().__init__(f"no weight for gate {gate_name!r} (gate position {position})")


def _float_max(a: float, b: float) -> float:
    """``max(a, b)`` of two floats, bit for bit: ``a`` unless ``b > a``."""
    return b if b > a else a


@cache
def row_ops(width: int) -> tuple:
    """The zero, max and ``+`` of sweep rows of ``width`` floats.

    Width 1 rows are floats, under ``b if b > a else a`` (what ``max(a, b)``
    returns) and ``operator.add``. Wider rows are tuples; each width's max
    and ``+`` are generated once, as ``collections.namedtuple`` generates
    its class, from a template that writes out every entry: ``(b[0] if
    b[0] > a[0] else a[0], ...)`` and ``(a[0] + b[0], ...)``. Entry ``k``
    is then the max and ``+`` of two floats, as a float sweep of column
    ``k`` takes them. The source is built from ``range(width)`` alone, so
    no input text reaches ``exec``.
    """
    if width == 1:
        return 0.0, _float_max, operator.add
    maximum = ", ".join(f"b[{k}] if b[{k}] > a[{k}] else a[{k}]" for k in range(width))
    add = ", ".join(f"a[{k}] + b[{k}]" for k in range(width))
    namespace: dict = {}
    exec(f"def maximum(a, b):\n    return ({maximum},)\n"
         f"def add(a, b):\n    return ({add},)\n", namespace)
    return (0.0,) * width, namespace["maximum"], namespace["add"]


def sweep(circuit: Circuit, increments: Sequence, barrier: str = BARRIER_SKIP,
          zero=0.0, maximum=_float_max, add=operator.add):
    """Run the critical-path sweep; ``increments[i]`` is gate ``i``'s row.

    ``zero``, ``maximum`` and ``add`` are the rows' zero, max and ``+``. The
    defaults, ``row_ops(1)``, sweep float rows, and the result is the depth,
    a float. Tuple rows of ``width`` floats take ``row_ops(width)``; the w_s
    grid's numpy rows take ``np.zeros(width)``, ``np.maximum`` and
    ``np.add``. The result is then a row whose entry ``k`` equals a float
    sweep of column ``k``: both take the same ``+`` and max in the same
    order. Rows are never changed in place, so gates
    may share one row object. Only touched qubits keep a depth. A gate on
    one qubit adds its row to that qubit's depth, the ``+`` the general
    step takes on the same two values. Barriers never increment (their row
    is ignored); with ``barrier="sync"`` they propagate the max depth across
    their operands, with the default ``"skip"`` they are ignored entirely.
    A sum past the largest float is inf, in a float or a tuple row with no
    warning (numpy warns unless its caller sets ``np.errstate``); callers
    that report a depth check that it is finite.
    """
    depths: dict = {}
    get = depths.get
    for kind, qubits, row in zip(circuit.kinds, circuit.qubits, increments):
        if kind == BARRIER:
            if barrier != BARRIER_SYNC:
                continue
        elif len(qubits) == 1:
            q = qubits[0]
            depths[q] = add(get(q, zero), row)
            continue
        top = get(qubits[0], zero)
        for q in qubits[1:]:
            top = maximum(top, get(q, zero))
        if kind != BARRIER:
            top = add(top, row)
        for q in qubits:
            depths[q] = top
    return reduce(maximum, depths.values(), zero)


def metric_weights(circuits: Sequence[Circuit], weights: Mapping | None = None) -> dict:
    """Each metric's weight map over the gate names of ``circuits``: 1.0 for
    every name under ``"traditional"``; under ``"multiqubit"`` 1.0 for a
    name whose first gate is a unitary on two or more qubits, else 0.0 (a
    parsed name fixes its kind and arity); ``weights`` under ``"gateaware"``."""
    first: dict = {}  # name -> (kind, qubits) of the name's first gate
    for c in circuits:
        for name in dict.fromkeys(c.names):  # a loop per distinct name, not per gate
            i = c.names.index(name)
            first.setdefault(name, (c.kinds[i], c.qubits[i]))
    return {"traditional": dict.fromkeys(first, 1.0),
            "multiqubit": {name: 1.0 if multi_qubit(*gate) else 0.0 for name, gate in first.items()},
            "gateaware": weights}


def increment_rule(weights: Mapping):
    """The rule of the weight map ``weights``: a gate's ``(name, kind,
    qubits, params, position=-1)`` adds ``weights[name]``, or raises
    :class:`MissingWeightError` naming ``position``; barriers and delays add
    0.0. The w_s grid's map gives a column index in place of a weight."""
    def rule(name, kind, qubits, params, position=-1):
        if kind in (BARRIER, DELAY):
            return 0.0
        if name not in weights:
            raise MissingWeightError(name, position)
        return weights[name]
    return rule


def lower(circuit: Circuit, rules: Sequence, rows: dict | None = None) -> list:
    """Each gate's sweep row under ``rules``, in gate order: the one rule's
    increment, or a tuple of each rule's, in order.

    A row depends only on the gate's (name, kind, qubits) key, so it is
    built once per distinct key and kept in ``rows``; a caller may pass
    ``rows`` to share them between circuits lowered under the same rules.
    A delay's row holds its parameter, so it is built per gate and not
    kept. When a row cannot be built (a rule raises ``LookupError``), each
    rule in order is asked at each gate, with its position: the first rule
    that fails anywhere raises, at its first failing gate.
    """
    if len(rules) == 1:
        row = rules[0]
    else:
        def row(*gate):
            return tuple([rule(*gate) for rule in rules])
    rows = {} if rows is None else rows
    lowered = []
    append, get = lowered.append, rows.get
    columns = (circuit.names, circuit.kinds, circuit.qubits, circuit.params)
    try:
        for name, kind, qubits, params in zip(*columns):
            if kind == DELAY:
                append(row(name, kind, qubits, params))
                continue
            key = (name, kind, qubits)
            found = get(key)
            if found is None:
                found = rows[key] = row(name, kind, qubits, params)
            append(found)
    except LookupError:
        for rule in rules:
            for position, gate in enumerate(zip(*columns)):
                rule(*gate, position)
        raise
    return lowered


def traditional_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Length of the longest chain of logically dependent gates.

    Unitaries and measurements count 1; barriers and delays count 0.
    """
    weight_map = WeightMap(metric_weights([circuit])["traditional"])
    return int(round(gate_aware_depth(circuit, weight_map, barrier)))


def multiqubit_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Depth counting only gates whose name :func:`metric_weights` finds multi-qubit.

    Single-qubit gates still propagate the running max without incrementing.
    """
    weight_map = WeightMap(metric_weights([circuit])["multiqubit"])
    return int(round(gate_aware_depth(circuit, weight_map, barrier)))


def gate_aware_depth(circuit: Circuit, weight_map: WeightMap, barrier: str = BARRIER_SKIP) -> float:
    """Weighted critical-path depth: each gate contributes its weight-map entry.

    Every unitary and measure name must be present in the map; barriers and
    delays are exempt and contribute 0.
    """
    return sweep(circuit, lower(circuit, [increment_rule(weight_map.weights)]), barrier)
