"""Problem file schema (JSON).

Explicit form: fields n, Q, q, optional const, optional l1_weight, optional
box {lo, hi}, optional A and b, optional ineq list whose entries are
{"type": "affine", "G": [...], "d": ...} or
{"type": "quadratic", "P": [[...]], "r": [...], "s": ...}.
Matrices are row-major lists of lists; n, m1, m2 and seed are JSON
integers, every other number a finite double (box bounds may be +-Infinity).

Generated form: {"generator": {"family": ..., "n": ..., "m1": ..., "m2": ...,
"seed": ..., "conditioning": [lo, hi]}} in place of explicit matrices.
"""
from __future__ import annotations

import json
import math

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
    return problem_from_dict(_json_object(path))


def _json_object(source) -> dict:
    """The JSON object in the file at path source, or source itself when it
    is already a document; anything else raises a ProblemFormatError
    naming '<document>'."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source) as fh:
            try:
                source = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ProblemFormatError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise ProblemFormatError("<document>", "expected a JSON object")
    return source


def problem_from_dict(doc) -> ConvexProgram:
    doc = _json_object(doc)
    if "generator" in doc:
        return generate(_generator_spec(doc["generator"]))
    n = _get_int(doc, "n")
    Q = _get_matrix(doc, "Q", n, n)
    q = _get_vector(doc, "q", n)
    smooth = QuadraticObjective(Q, q, const=_get_number(doc, "const") if "const" in doc else 0.0)

    nonsmooth = None
    if "l1_weight" in doc or "box" in doc:
        weight = _get_array(doc, "l1_weight", "numbers")[1] if "l1_weight" in doc else None
        lo = hi = None
        if "box" in doc:
            box = doc["box"]
            if not isinstance(box, dict) or "lo" not in box or "hi" not in box:
                raise ProblemFormatError("box", "expected an object with 'lo' and 'hi'")
            lo = _get_vector(box, "lo", n, parent="box", allow_inf=True)
            hi = _get_vector(box, "hi", n, parent="box", allow_inf=True)
        try:
            nonsmooth = BoxL1Regularizer(n, l1_weight=weight, lo=lo, hi=hi)
        except ValueError as exc:
            raise _field_error(exc) from exc

    eq = None
    if "A" in doc or "b" in doc:
        if "A" not in doc or "b" not in doc:
            raise ProblemFormatError("A", "equalities need both 'A' and 'b'")
        b = _get_vector(doc, "b")
        A = _get_matrix(doc, "A", b.shape[0], n)
        eq = AffineMap(A, b)

    ineqs = []
    for i, entry in enumerate(doc.get("ineq", [])):
        field = f"ineq[{i}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ProblemFormatError(field, "expected an object with a 'type'")
        if entry["type"] == "affine":
            ineqs.append(AffineInequality(
                _get_vector(entry, "G", n, parent=field),
                _get_number(entry, "d", parent=field),
            ))
        elif entry["type"] == "quadratic":
            ineqs.append(QuadraticInequality(
                _get_matrix(entry, "P", n, n, parent=field),
                _get_vector(entry, "r", n, parent=field),
                _get_number(entry, "s", parent=field),
            ))
        else:
            raise ProblemFormatError(f"{field}.type", f"unknown type '{entry['type']}'")

    return ConvexProgram(smooth=smooth, eq=eq, ineqs=tuple(ineqs), nonsmooth=nonsmooth, name=str(doc.get("name", "")))


def _generator_spec(d) -> GeneratorSpec:
    if not isinstance(d, dict) or "family" not in d:
        raise ProblemFormatError("generator", "expected an object with a 'family'")
    conditioning = (tuple(_get_vector(d, "conditioning", 2, parent="generator"))
                    if "conditioning" in d else (1.0, 10.0))
    ints = {k: _get_int(d, k, parent="generator") for k in ("n", "m1", "m2", "seed") if k in d}
    try:
        return GeneratorSpec(family=d["family"], conditioning=conditioning, **ints)
    except (ValueError, TypeError) as exc:
        raise ProblemFormatError("generator", str(exc)) from exc


def _get_int(doc, field, parent=None):
    v = doc.get(field)
    # JSON true/false load as bool, a subclass of int; 1.0 and "1" are not integers
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    name = f"{parent}.{field}" if parent else field
    raise ProblemFormatError(name, "missing" if field not in doc else f"expected an integer, got {v!r}")


def _get_array(doc, field, kind, parent=None, allow_inf=False):
    """(name, doc[field] as a float array); NaN is never accepted, and
    infinities only with allow_inf."""
    name = f"{parent}.{field}" if parent else field
    if field not in doc:
        raise ProblemFormatError(name, "missing")
    try:
        a = np.asarray(doc[field], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past 1.8e308
        raise ProblemFormatError(name, f"expected {kind}") from exc
    if (np.isnan(a) if allow_inf else ~np.isfinite(a)).any():
        raise ProblemFormatError(name, "must not be NaN" if allow_inf else "must be finite")
    return name, a


def _get_string(doc, field, parent=None):
    """doc[field] when it is a nonempty string."""
    v = doc.get(field)
    if isinstance(v, str) and v:
        return v
    name = f"{parent}.{field}" if parent else field
    raise ProblemFormatError(name, "missing" if field not in doc else f"expected a nonempty string, got {v!r}")


def _field_error(exc, parent=None):
    """A ProblemFormatError from exc, whose message leads with the name of
    the offending field, naming that field under parent."""
    field, _, rule = str(exc).partition(" ")
    return ProblemFormatError(f"{parent}.{field}" if parent else field, rule)


def _get_number(doc, field, parent=None):
    v = doc.get(field)
    if type(v) is float and math.isfinite(v):  # what JSON floats load as; skips the array round trip
        return v
    name, a = _get_array(doc, field, "a number", parent)
    if a.ndim != 0:
        raise ProblemFormatError(name, "expected a number")
    return float(a)


def _get_vector(doc, field, n=None, parent=None, allow_inf=False):
    """A vector of length n, or of any length when n is None."""
    name, v = _get_array(doc, field, "a numeric vector", parent, allow_inf)
    v = v.ravel()
    if n is not None and v.shape[0] != n:
        raise ProblemFormatError(name, f"expected length {n}, got {v.shape[0]}")
    return v


def _get_matrix(doc, field, rows, cols, parent=None):
    """A rows x cols matrix, or rows x anything when cols is None."""
    name, M = _get_array(doc, field, "a numeric matrix", parent)
    if M.ndim != 2 or M.shape[0] != rows or cols not in (None, M.shape[1]):
        expected = f"{rows}x{'k' if cols is None else cols}"
        raise ProblemFormatError(name, f"expected shape {expected}, got {'x'.join(map(str, M.shape))}")
    return M
