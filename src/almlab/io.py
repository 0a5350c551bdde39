"""Problem file schema (JSON); :class:`Fields`, the one view through which
the problem, trace and oracle readers read every JSON object; and
:func:`write_json` and :func:`write_csv`, the one writer of every output
file.

Explicit form: fields n, Q, q, optional name, optional const, optional
l1_weight, optional box {lo, hi}, optional A and b, optional ineq list
whose entries are {"type": "affine", "G": [...], "d": ...} or
{"type": "quadratic", "P": [[...]], "r": [...], "s": ...}.
Matrices are row-major lists of lists; n, m1, m2 and seed are JSON
integers, every other number a finite double (box bounds may be +-Infinity).

Generated form: {"generator": {"family": ..., "n": ..., "m1": ..., "m2": ...,
"seed": ..., "conditioning": [lo, hi]}} in place of explicit matrices.

A field that no reader reads is refused, naming it: a misspelled key is an
error, not a default. A JSON true or false, or a string, is never read as
a number.
"""
from __future__ import annotations

import csv
import json
import math
import operator
from itertools import chain

import numpy as np

from .errors import ProblemFormatError
from .problem import (
    AffineInequality,
    AffineMap,
    BoxL1Regularizer,
    ConvexProgram,
    QuadraticInequality,
    QuadraticObjective,
)
from .problems import GeneratorSpec, generate


def load_problem(path) -> ConvexProgram:
    return problem_from_dict(path)


def problem_from_dict(doc) -> ConvexProgram:
    """The program of a problem document, or of the JSON file at path doc."""
    doc = Fields.load(doc)
    if "generator" in doc:
        spec = _generator_spec(doc.obj("generator", "family"))
        doc.done()
        return generate(spec)
    n = doc.int("n")
    Q = doc.matrix("Q", n, n)
    q = doc.vector("q", n)
    smooth = QuadraticObjective(Q, q, const=doc.number("const") if "const" in doc else 0.0)

    nonsmooth = None
    if "l1_weight" in doc or "box" in doc:
        weight = doc.array("l1_weight") if "l1_weight" in doc else None
        lo = hi = None
        if "box" in doc:
            box = doc.obj("box", "lo", "hi")
            lo, hi = box.vector("lo", n, allow_inf=True), box.vector("hi", n, allow_inf=True)
            box.done()
        nonsmooth = doc.build(BoxL1Regularizer, n, l1_weight=weight, lo=lo, hi=hi)

    eq = None
    if "A" in doc or "b" in doc:
        if "A" not in doc or "b" not in doc:
            raise doc.refuse("A", "equalities need both 'A' and 'b'")
        b = doc.vector("b")
        eq = AffineMap(doc.matrix("A", b.size, n), b)

    ineqs = []
    for entry in doc.objs("ineq", "type") if "ineq" in doc else ():
        if entry.get("type") == "affine":
            ineqs.append(AffineInequality(entry.vector("G", n), entry.number("d")))
        elif entry.get("type") == "quadratic":
            ineqs.append(QuadraticInequality(entry.matrix("P", n, n), entry.vector("r", n), entry.number("s")))
        else:
            raise entry.refuse("type", f"unknown type '{entry.get('type')}'")
        entry.done()

    name = doc.string("name", empty=True) if "name" in doc else ""
    doc.done()
    return ConvexProgram(smooth=smooth, eq=eq, ineqs=tuple(ineqs), nonsmooth=nonsmooth, name=name)


def write_json(path, doc):
    """Write doc to path as JSON with indent 1, a NumPy scalar as the plain
    number or bool it holds. The text is built before the file is opened,
    so a doc that cannot be written raises TypeError and leaves the file
    as it was."""
    text = json.dumps(doc, indent=1, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text)


def _json_default(v):
    if isinstance(v, (np.integer, np.floating, np.bool_)):
        return v.item()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def write_csv(path, columns, rows):
    """Write the header columns, then each of rows, as CSV with \\n line
    ends: a float with 17 significant digits, any other value as str gives
    it."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format(v, ".17g") if isinstance(v, (float, np.floating)) else v for v in row]
                         for row in rows)


# what JSON loads that NumPy reads as a number: true and false load as
# bool, a subclass of int that NumPy and operator.index read as 1 and 0,
# and np.asarray(..., dtype=float) parses a string such as "2"
_NON_NUMBERS = frozenset((bool, str))


def non_numbers(values) -> frozenset:
    """The types among _NON_NUMBERS of the entries of values; empty when
    each entry is read as the number it is."""
    return _NON_NUMBERS.intersection(map(type, values))


def _is_int(v) -> bool:
    # 1.0, true and "1" are not integers
    return isinstance(v, (int, np.integer)) and type(v) is not bool


def _generator_spec(gen: Fields) -> GeneratorSpec:
    family = gen.string("family")
    conditioning = tuple(gen.vector("conditioning", 2)) if "conditioning" in gen else (1.0, 10.0)
    ints = {k: gen.int(k) for k in ("n", "m1", "m2", "seed") if k in gen}
    gen.done()
    try:
        return GeneratorSpec(family=family, conditioning=conditioning, **ints)
    except ValueError as exc:
        raise ProblemFormatError(gen.name, str(exc)) from exc


class Fields:
    """A view of one JSON object doc, named name in its document (None for
    the document itself).

    Each read method returns one field, checked, or raises a
    :class:`ProblemFormatError` naming it as ``<name>.<field>``; the object
    itself is refused, naming name, when it is not an object or lacks a
    field of required. Every field a read asks for is recorded, so
    :meth:`done` can refuse the first field, in document order, that no
    read asked for: a field is known when a reader reads it.
    """

    def __init__(self, doc, name=None, required=()):
        if not isinstance(doc, dict) or required and not all(map(doc.__contains__, required)):
            fields = f" with fields {', '.join(required)}" if required else ""
            raise ProblemFormatError(name or "<document>", f"expected an object{fields}")
        self.doc, self.name, self._read = doc, name, set()

    @classmethod
    def load(cls, source):
        """A view of source, a document or the path of a JSON file holding one."""
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source) as fh:
                try:
                    source = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ProblemFormatError("<document>", f"invalid JSON: {exc}") from exc
        return cls(source)

    def __contains__(self, field):
        return field in self.doc

    def _name(self, field):
        return field if self.name is None else f"{self.name}.{field}"

    def refuse(self, field, rule) -> ProblemFormatError:
        """The error that refuses field of this object by rule."""
        return ProblemFormatError(self._name(field), rule)

    def done(self):
        """Refuse the first field, in document order, that no read asked for."""
        if len(self._read) < len(self.doc):  # every field read is in doc
            raise self.refuse(next(field for field in self.doc if field not in self._read), "unknown field")

    def get(self, field):
        """doc[field] as it is."""
        try:
            v = self.doc[field]
        except KeyError:
            raise self.refuse(field, "missing") from None
        self._read.add(field)
        return v

    def _typed(self, field, ok, expected):
        """doc[field] when ok holds for it."""
        v = self.get(field)
        if ok(v):
            return v
        raise self.refuse(field, f"expected {expected}, got {json.dumps(v, default=repr)}")

    def build(self, make, *args, **kwargs):
        """make(*args, **kwargs); a ValueError whose message leads with a
        field's name is refused as that field of this object."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            field, _, rule = str(exc).partition(" ")
            raise self.refuse(field, rule) from exc

    def obj(self, field, *required) -> "Fields":
        """A view of the object field, refused whole without a field of required."""
        return type(self)(self.get(field), self._name(field), required)

    def objs(self, field, *required) -> list:
        """A view of each entry of the list field, named ``<field>[i]``."""
        name = self._name(field)
        entries = self._typed(field, lambda v: isinstance(v, list), "a list")
        return [type(self)(entry, f"{name}[{i}]", required) for i, entry in enumerate(entries)]

    def int(self, field) -> int:
        return operator.index(self._typed(field, _is_int, "an integer"))

    def indices(self, field, m) -> tuple:
        """A tuple of distinct integers in [0, m)."""
        raw = self._typed(field, lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers")
        idx = tuple(map(operator.index, raw))
        if any(not 0 <= i < m for i in idx):
            raise self.refuse(field, f"indices must lie in [0, {m}), got {list(idx)}")
        if len(set(idx)) != len(idx):
            raise self.refuse(field, f"repeated index in {list(idx)}")
        return idx

    def boolean(self, field) -> bool:
        return self._typed(field, lambda v: isinstance(v, bool), "true or false")

    def string(self, field, empty=False) -> str:
        """A string, nonempty unless empty is true."""
        return self._typed(field, lambda v: isinstance(v, str) and (v or empty),
                           "a string" if empty else "a nonempty string")

    def array(self, field, kind="numbers", allow_inf=False) -> np.ndarray:
        """The field as a float array of any shape; true and false, strings
        and NaN are never accepted, and infinities only with allow_inf."""
        v = self.get(field)
        try:
            a = np.asarray(v, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past 1.8e308
            raise self.refuse(field, f"expected {kind}") from exc
        entries = [v]
        for _ in range(a.ndim):
            entries = chain.from_iterable(entries)
        found = non_numbers(entries)
        if found:
            raise self.refuse(field, f"expected {kind}, not {'a string' if str in found else 'true or false'}")
        if (np.isnan(a) if allow_inf else ~np.isfinite(a)).any():
            raise self.refuse(field, "must not be NaN" if allow_inf else "must be finite")
        return a

    def number(self, field) -> float:
        v = self.get(field)
        if type(v) is float and math.isfinite(v):  # what JSON floats load as; skips the array round trip
            return v
        a = self.array(field, "a number")
        if a.ndim != 0:
            raise self.refuse(field, "expected a number")
        return float(a)

    def vector(self, field, n=None, allow_inf=False) -> np.ndarray:
        """A vector of length n, or of any length when n is None."""
        v = self.array(field, "a numeric vector", allow_inf)
        if v.ndim != 1 or n not in (None, v.size):
            raise self.refuse(field, f"expected a vector{'' if n is None else f' of length {n}'}, got shape {v.shape}")
        return v

    def matrix(self, field, rows, cols) -> np.ndarray:
        """A rows x cols matrix, or rows x anything when cols is None."""
        M = self.array(field, "a numeric matrix")
        if M.ndim != 2 or M.shape[0] != rows or cols not in (None, M.shape[1]):
            expected = f"{rows}x{'k' if cols is None else cols}"
            raise self.refuse(field, f"expected shape {expected}, got {'x'.join(map(str, M.shape))}")
        return M
