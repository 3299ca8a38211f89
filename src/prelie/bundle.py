"""Bundle files: one JSON document carrying the data a command needs.

Sections (all optional; a command demands the ones it uses):

    field           "q" | "f2" | "f3" | ...   (global scalar field)
    algebra         {"dim": n, "product": [{"i","j","k","c"}...],
                     "unit": [...]?, "labels": [...]?}
    algebra2        a second algebra (morphism checks)
    representation  {"dimV": m, "L": [matrix...], "R": [matrix...]}
                    or the string "regular"
    cocycleH        cochain JSON (degree 2)
    operatorK / operatorKprime / operatorN / operatorD /
    operatorK1 / operatorK1prime / map
                    matrix JSON {"rows", "cols", "entries"}
    cochains        {name: cochain JSON}   (gauge "B", shift "h", ...)
    element         ["1", "0", ...]        (algebra element)
    weight          scalar string
    series          [matrix JSON, ...]     (deformation coefficients)
    nsprelie        {"dim": n, "tri": {"i,j": {"k": c}}, "trl": ..., "circ": ...}
    comment         free-form string, ignored

Indices in files are 1-based; everything in memory is 0-based.  Scalars
are JSON strings ("3", "-1/2", "2 mod 3"); plain integers are accepted
and coerced through the declared field, so fixtures can be stored
field-generically and re-read under any --field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .algebra import PreLieAlgebra, Representation, regular_representation
from .cochain import Cochain
from .errors import FieldMismatchError, IoError, SchemaError
from .linalg import Matrix
from .nsprelie import NSPreLie
from .reynolds import ReynoldsData
from .scalars import field_by_name, field_name, scalar_to_str


def _want(obj, key, kind, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a JSON object")
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "missing required key")
    val = obj[key]
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise SchemaError(f"{path}/{key}", f"expected {kind.__name__}")
    return val


MAX_DIM = 64  # desk-scale tool; prevents absurd allocations from bad files


def _dim(obj, key, path, hi=MAX_DIM):
    val = _want(obj, key, int, path)
    if not 1 <= val <= hi:
        raise SchemaError(f"{path}/{key}", f"dimension must be in [1, {hi}]")
    return val


def _parse_scalar(field, v, path):
    try:
        if isinstance(v, str):
            return field.parse(v)
        if isinstance(v, int):
            return field(v)
    except (ValueError, ZeroDivisionError, FieldMismatchError) as exc:
        raise SchemaError(path, f"bad scalar {v!r}: {exc}") from None
    raise SchemaError(path, f"scalar must be a string or integer, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# per-object (de)serializers


def algebra_tensor_from_json(field, obj, path="/algebra") -> list:
    """The structure-constant tensor of an algebra section, unverified."""
    dim = _dim(obj, "dim", path)
    z = field.zero
    tensor = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for pos, item in enumerate(_want(obj, "product", list, path)):
        ipath = f"{path}/product/{pos}"
        i = _want(item, "i", int, ipath) - 1
        j = _want(item, "j", int, ipath) - 1
        k = _want(item, "k", int, ipath) - 1
        if not all(0 <= t < dim for t in (i, j, k)):
            raise SchemaError(ipath, "index out of range")
        tensor[i][j][k] = _parse_scalar(field, _want(item, "c", None, ipath), f"{ipath}/c")
    return tensor


def algebra_from_json(field, obj, path="/algebra") -> PreLieAlgebra:
    tensor = algebra_tensor_from_json(field, obj, path)
    dim = len(tensor)
    unit = None
    if obj.get("unit") is not None:
        raw = obj["unit"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise SchemaError(f"{path}/unit", f"expected a list of {dim} scalars")
        unit = tuple(_parse_scalar(field, v, f"{path}/unit/{t}")
                     for t, v in enumerate(raw))
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == dim
                                   and all(isinstance(s, str) for s in labels)):
        raise SchemaError(f"{path}/labels", f"expected a list of {dim} strings")
    from .errors import UnverifiedError

    try:
        return PreLieAlgebra(field, tensor, unit=unit, labels=labels)
    except UnverifiedError as exc:
        raise SchemaError(path, str(exc)) from None


def algebra_to_json(a: PreLieAlgebra) -> dict:
    product = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.product[i][j][k]
                if c:
                    product.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                    "c": scalar_to_str(c)})
    out = {"dim": a.dim, "product": product}
    if a.unit is not None:
        out["unit"] = [scalar_to_str(x) for x in a.unit]
    if a.labels:
        out["labels"] = list(a.labels)
    return out


def matrix_from_json(field, obj, path="/matrix") -> Matrix:
    rows = _dim(obj, "rows", path)
    cols = _dim(obj, "cols", path)
    entries = _want(obj, "entries", list, path)
    if len(entries) != rows:
        raise SchemaError(f"{path}/entries", f"expected {rows} rows")
    data = []
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}/entries/{r}", f"expected {cols} entries")
        data.append([_parse_scalar(field, v, f"{path}/entries/{r}/{c}")
                     for c, v in enumerate(row)])
    return Matrix(field, data)


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_str(x) for x in row] for row in m.data]}


def cochain_from_json(field, obj, path="/cochain") -> Cochain:
    degree = _dim(obj, "degree", path, hi=2)  # no section holds a higher degree
    d = _dim(obj, "dim_source", path)
    m = _dim(obj, "dim_target", path)
    entries = {}
    values = obj.get("values", [])
    if not isinstance(values, list):
        raise SchemaError(f"{path}/values", "expected a list")
    for pos, item in enumerate(values):
        ipath = f"{path}/values/{pos}"
        args = _want(item, "args", list, ipath)
        if len(args) != degree - 1:
            raise SchemaError(f"{ipath}/args", f"expected {degree - 1} indices")
        if any(not isinstance(a, int) or isinstance(a, bool) for a in args):
            raise SchemaError(f"{ipath}/args", "indices must be integers")
        fb = tuple(a - 1 for a in args)
        if list(fb) != sorted(set(fb)) or any(not 0 <= a < d for a in fb):
            raise SchemaError(f"{ipath}/args", "indices must be strictly increasing")
        last = _want(item, "last", int, ipath) - 1
        if not 0 <= last < d:
            raise SchemaError(f"{ipath}/last", "index out of range")
        vec = _want(item, "v", list, ipath)
        if len(vec) != m:
            raise SchemaError(f"{ipath}/v", f"expected {m} coordinates")
        entries[(fb, last)] = tuple(_parse_scalar(field, v, f"{ipath}/v/{t}")
                                    for t, v in enumerate(vec))
    return Cochain.from_entries(field, degree, d, m, entries)


def cochain_to_json(c: Cochain) -> dict:
    values = []
    for (fb, last), v in zip(c.keys(), c.values):
        if any(x for x in v):
            values.append({"args": [a + 1 for a in fb], "last": last + 1,
                           "v": [scalar_to_str(x) for x in v]})
    return {"degree": c.degree, "dim_source": c.dim_source,
            "dim_target": c.dim_target, "values": values}


def representation_from_json(field, obj, algebra: PreLieAlgebra,
                             path="/representation", *,
                             check: bool = True) -> Representation:
    if obj == "regular" or obj == {"type": "regular"}:
        return regular_representation(algebra)
    dim_v = _dim(obj, "dimV", path)
    L_raw = _want(obj, "L", list, path)
    R_raw = _want(obj, "R", list, path)
    if len(L_raw) != algebra.dim or len(R_raw) != algebra.dim:
        raise FieldMismatchError(
            f"{path}: expected {algebra.dim} action matrices per side")

    def mats(raw, side):
        out = []
        for t, rows in enumerate(raw):
            if not isinstance(rows, list) or len(rows) != dim_v \
                    or any(not isinstance(r, list) or len(r) != dim_v for r in rows):
                raise SchemaError(f"{path}/{side}/{t}", f"expected a {dim_v}x{dim_v} matrix")
            out.append(Matrix(field, [
                [_parse_scalar(field, v, f"{path}/{side}/{t}/{r}/{c}")
                 for c, v in enumerate(row)]
                for r, row in enumerate(rows)]))
        return out

    from .errors import UnverifiedError

    try:
        return Representation(algebra, dim_v, mats(L_raw, "L"), mats(R_raw, "R"),
                              check=check)
    except UnverifiedError as exc:
        raise SchemaError(path, str(exc)) from None


def representation_to_json(rep: Representation) -> dict:
    return {
        "dimV": rep.dim_v,
        "L": [[[scalar_to_str(x) for x in row] for row in m.data] for m in rep.L],
        "R": [[[scalar_to_str(x) for x in row] for row in m.data] for m in rep.R],
    }


def _ns_tensor_from_json(field, obj, dim, path):
    z = field.zero
    tensor = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object keyed by \"i,j\"")
    for key, row in obj.items():
        try:
            i, j = (int(t) - 1 for t in key.split(","))
        except ValueError:
            raise SchemaError(f"{path}/{key}", "key must look like \"i,j\"") from None
        if not (0 <= i < dim and 0 <= j < dim):
            raise SchemaError(f"{path}/{key}", "index out of range")
        if not isinstance(row, dict):
            raise SchemaError(f"{path}/{key}", "expected an object keyed by k")
        for kk, c in row.items():
            try:
                k = int(kk) - 1
            except (TypeError, ValueError):
                raise SchemaError(f"{path}/{key}/{kk}", "bad index") from None
            if not 0 <= k < dim:
                raise SchemaError(f"{path}/{key}/{kk}", "index out of range")
            tensor[i][j][k] = _parse_scalar(field, c, f"{path}/{key}/{kk}")
    return tensor


def ns_tensors_from_json(field, obj, path="/nsprelie") -> list:
    """The tensors (tri, trl, circ) of an NS-pre-Lie section, unverified."""
    dim = _dim(obj, "dim", path)
    return [_ns_tensor_from_json(field, _want(obj, key, dict, path), dim, f"{path}/{key}")
            for key in ("tri", "trl", "circ")]


def nsprelie_from_json(field, obj, path="/nsprelie") -> NSPreLie:
    tensors = ns_tensors_from_json(field, obj, path)
    from .errors import UnverifiedError

    try:
        return NSPreLie(field, *tensors)
    except UnverifiedError as exc:
        raise SchemaError(path, str(exc)) from None


def nsprelie_to_json(ns: NSPreLie) -> dict:
    def tensor(t):
        out = {}
        for i in range(ns.dim):
            for j in range(ns.dim):
                row = {str(k + 1): scalar_to_str(c)
                       for k, c in enumerate(t[i][j]) if c}
                if row:
                    out[f"{i + 1},{j + 1}"] = row
        return out

    return {"dim": ns.dim, "tri": tensor(ns.tri), "trl": tensor(ns.trl),
            "circ": tensor(ns.circ)}


# ---------------------------------------------------------------------------
# the bundle itself


@dataclass
class Bundle:
    """Validated in-memory form of a bundle file."""

    field: object
    raw: dict

    _algebra: Optional[PreLieAlgebra] = None
    _algebra2: Optional[PreLieAlgebra] = None
    _rep: Optional[Representation] = None

    def section(self, key: str):
        """The raw JSON of a required section; absent or null is a `SchemaError`."""
        value = self.raw.get(key)
        if value is None:
            raise SchemaError(f"/{key}", "missing required section")
        return value

    def algebra(self) -> PreLieAlgebra:
        if self._algebra is None:
            self._algebra = algebra_from_json(self.field, self.section("algebra"))
        return self._algebra

    def algebra2(self) -> PreLieAlgebra:
        if self._algebra2 is None:
            self._algebra2 = algebra_from_json(self.field, self.section("algebra2"),
                                               "/algebra2")
        return self._algebra2

    def representation(self) -> Representation:
        if self._rep is None:
            self._rep = representation_from_json(self.field, self.section("representation"),
                                                 self.algebra())
        return self._rep

    def cocycle(self) -> Cochain:
        H = cochain_from_json(self.field, self.section("cocycleH"), "/cocycleH")
        g, rep = self.algebra(), self.representation()
        if H.degree != 2 or H.dim_source != g.dim or H.dim_target != rep.dim_v:
            raise FieldMismatchError(
                "/cocycleH does not match /algebra and /representation dimensions")
        return H

    def matrix(self, key: str) -> Matrix:
        return matrix_from_json(self.field, self.section(key), f"/{key}")

    def operator(self) -> Matrix:
        K = self.matrix("operatorK")
        g, rep = self.algebra(), self.representation()
        if K.rows != g.dim or K.cols != rep.dim_v:
            raise FieldMismatchError(
                f"/operatorK is {K.rows}x{K.cols}; algebra and module demand "
                f"{g.dim}x{rep.dim_v}")
        return K

    def reynolds_data(self) -> ReynoldsData:
        return ReynoldsData.build(self.algebra(), self.representation(),
                                  self.cocycle(), self.operator())

    def named_cochain(self, name: str) -> Cochain:
        section = self.raw.get("cochains", {})
        if not isinstance(section, dict) or name not in section:
            raise SchemaError(f"/cochains/{name}", "missing required cochain")
        return cochain_from_json(self.field, section[name], f"/cochains/{name}")

    def element(self) -> tuple:
        raw = self.section("element")
        g = self.algebra()
        if not isinstance(raw, list) or len(raw) != g.dim:
            raise SchemaError("/element", f"expected {g.dim} coordinates")
        return tuple(_parse_scalar(self.field, v, f"/element/{i}")
                     for i, v in enumerate(raw))

    def weight(self):
        return _parse_scalar(self.field, self.section("weight"), "/weight")

    def series(self) -> list:
        if "series" not in self.raw or not isinstance(self.raw["series"], list):
            raise SchemaError("/series", "missing or malformed section")
        return [matrix_from_json(self.field, obj, f"/series/{i}")
                for i, obj in enumerate(self.raw["series"])]

    def nsprelie(self) -> NSPreLie:
        return nsprelie_from_json(self.field, self.section("nsprelie"))


def parse_bundle(source, field_override: Optional[str] = None) -> Bundle:
    """Load and validate a bundle from a path, JSON text, or dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = None
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise IoError(f"cannot read bundle {source}: {exc}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("/", "bundle must be a JSON object")
    name = raw.get("field") if field_override is None else field_override
    if not name and field_override is None:
        raise SchemaError("/field", "missing field declaration")
    if not isinstance(name, str):
        raise SchemaError("/field", "field name must be a string")
    try:
        field = field_by_name(name)
    except ValueError as exc:
        raise SchemaError("/field", str(exc)) from None
    return Bundle(field, raw)


def reynolds_data_to_json(data: ReynoldsData) -> dict:
    return {
        "field": field_name(data.field),
        "algebra": algebra_to_json(data.algebra),
        "representation": representation_to_json(data.rep),
        "cocycleH": cochain_to_json(data.cocycle),
        "operatorK": matrix_to_json(data.operator),
    }
