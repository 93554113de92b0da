"""Line-oriented instance file format.

Grammar (one record per line; blank lines and ``#`` comments ignored)::

    record  := kind ' ' name ': ' field ('; ' field)*
    field   := key '=' value

Record kinds and their canonical fields:

    space <name>: points=<int>; opens=<set>(,<set>)*
    group <name>: elements=<id>(,<id>)*; identity=<id>; table=<row>('|'<row>)*
    map <name>: from=<space>; to=<space>; graph=<int>(,<int>)*
    order <name>: fibration=<fib>; kind=<kind>
    order <name>: fibration=<fib>; kind=explicit; rel=<obj>'['<pair>(,<pair>)*']'('|'...)*
    operator <name>: fibration=<fib>; kind=closure|interior; table=<obj>'['<label>=><label>(,...)*']'('|'...)*
    endofunctor <name>: fibration=<fib>; kind=pointed|copointed; obj=<o>=><o>(,...);
        mor=<m>=><m>(,...); unit|counit=<o>=><m>(,...)

``<set>`` is ``{p,q}`` over point indices, ``<pair>`` is ``(<label>,<label>)``
over subobject labels, ``<fib>`` is a built-in fibration name or
``spaces:<space>,...`` over spaces defined in the same document.  The
serializer emits exactly this canonical form; parse and serialize are
mutually inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..constructions import Endofunctor
from ..errors import FormatError
from ..instances.groups import FinGroup
from ..instances.registry import ORDER_KINDS, builtin_order
from ..instances.topology import FinTopSpace
from ..lattice import MAX_ELEMENTS, mask_iter
from ..structures import ClosureOperator, InteriorOperator, TopogenousOrder


# the most points whose subsets still form a ``FiniteLattice``
MAX_POINTS = MAX_ELEMENTS.bit_length() - 1


@dataclass(frozen=True)
class SpaceRecord:
    name: str
    space: FinTopSpace


@dataclass(frozen=True)
class GroupRecord:
    name: str
    group: FinGroup


@dataclass(frozen=True)
class MapRecord:
    name: str
    source: str
    target: str
    graph: tuple[int, ...]


@dataclass(frozen=True)
class OrderRecord:
    name: str
    fibration: str
    kind: str
    # explicit relation: per object name, the related label pairs
    rel: Optional[tuple[tuple[str, tuple[tuple[str, str], ...]], ...]] = None


@dataclass(frozen=True)
class OperatorRecord:
    name: str
    fibration: str
    kind: str
    table: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]


@dataclass(frozen=True)
class EndofunctorRecord:
    name: str
    fibration: str
    kind: str
    obj: tuple[tuple[str, str], ...]
    mor: tuple[tuple[str, str], ...]
    components: tuple[tuple[str, str], ...]   # unit or counit


Record = Union[SpaceRecord, GroupRecord, MapRecord, OrderRecord, OperatorRecord, EndofunctorRecord]


@dataclass(frozen=True)
class Document:
    records: tuple[Record, ...]

    def find(self, kind, name: str):
        for r in self.records:
            if isinstance(r, kind) and r.name == name:
                return r
        return None


# ---------------------------------------------------------------------------
# small scanners


def _split_top(value: str, sep: str, line: int, col: int) -> list[str]:
    """Split on a separator character, not a bracket, at bracket depth zero.

    Any bracket kind closes any other; a prefix that closes more than it
    opens, or an unclosed bracket at the end, is a ``FormatError``.  Parts
    are sliced out of ``value`` between the separators found."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(value):
        if ch in "{[(":
            depth += 1
        elif ch in "}])":
            depth -= 1
            if depth < 0:
                raise FormatError("unbalanced brackets", line, col)
        elif ch == sep and depth == 0:
            parts.append(value[start:i])
            start = i + 1
    if depth != 0:
        raise FormatError("unbalanced brackets", line, col)
    parts.append(value[start:])
    return parts


def _parse_set(token: str, points: int, line: int, col: int) -> int:
    """A set of the points 0..points-1, each checked before it is shifted."""
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise FormatError(f"expected a point set, got {token!r}", line, col)
    inner = token[1:-1].strip()
    mask = 0
    if inner:
        for part in inner.split(","):
            try:
                point = int(part)
            except ValueError:
                point = -1
            if point < 0:
                raise FormatError(f"bad point {part!r}", line, col)
            if point >= points:
                raise FormatError(f"invalid topology: an open set names a point >= {points}", line)
            mask |= 1 << point
    return mask


def _render_set(mask: int) -> str:
    return "{" + ",".join(map(str, mask_iter(mask))) + "}"


def _parse_pair(token: str, line: int, col: int) -> tuple[str, str]:
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise FormatError(f"expected a pair, got {token!r}", line, col)
    halves = _split_top(token[1:-1], ",", line, col)
    if len(halves) != 2:
        raise FormatError(f"pair needs two entries: {token!r}", line, col)
    return halves[0].strip(), halves[1].strip()


def _parse_arrow(token: str, line: int, col: int) -> tuple[str, str]:
    if "=>" not in token:
        raise FormatError(f"expected a '=>' entry, got {token!r}", line, col)
    a, b = token.split("=>", 1)
    return a.strip(), b.strip()


def _parse_blocks(value: str, line: int, col: int, pair_parser) -> tuple:
    """``obj[entry,entry]|obj[...]`` into ((obj, entries), ...)."""
    blocks = []
    for chunk in _split_top(value, "|", line, col):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.endswith("]") or "[" not in chunk:
            raise FormatError(f"expected name[...] block, got {chunk!r}", line, col)
        head, _, body = chunk.partition("[")
        body = body[:-1]
        entries = []
        if body.strip():
            for token in _split_top(body, ",", line, col):
                entries.append(pair_parser(token, line, col))
        blocks.append((head.strip(), tuple(entries)))
    return tuple(blocks)


def _fields(rest: str, line: int) -> dict[str, str]:
    out = {}
    col = 0
    for raw in _split_top(rest, ";", line, 0):
        part = raw.strip()
        if not part:
            continue
        if "=" not in part:
            raise FormatError(f"field without '=': {part!r}", line, col)
        key, _, value = part.partition("=")
        key = key.strip()
        if key in out:
            raise FormatError(f"duplicate field {key!r}", line, col)
        out[key] = value.strip()
        col += len(raw) + 1
    return out


def _require(fields: dict, keys: tuple[str, ...], line: int) -> None:
    for k in keys:
        if k not in fields:
            raise FormatError(f"missing field {k!r}", line)
    extra = set(fields) - set(keys)
    if extra:
        raise FormatError(f"unknown field {sorted(extra)[0]!r}", line)


# ---------------------------------------------------------------------------
# record parsers


def _parse_space(name, fields, line) -> SpaceRecord:
    _require(fields, ("points", "opens"), line)
    try:
        n = int(fields["points"])
    except ValueError:
        raise FormatError(f"bad point count {fields['points']!r}", line) from None
    if not 0 <= n <= MAX_POINTS:
        raise FormatError(f"point count {n} is not in 0..{MAX_POINTS}", line)
    opens = tuple(sorted(
        _parse_set(tok, n, line, 0) for tok in _split_top(fields["opens"], ",", line, 0)
    ))
    try:
        return SpaceRecord(name, FinTopSpace(n, opens))
    except Exception as exc:
        raise FormatError(f"invalid topology: {exc}", line) from None


def _parse_group(name, fields, line) -> GroupRecord:
    _require(fields, ("elements", "identity", "table"), line)
    elems = tuple(e.strip() for e in fields["elements"].split(","))
    index = {e: i for i, e in enumerate(elems)}
    if fields["identity"] not in index:
        raise FormatError(f"identity {fields['identity']!r} not an element", line)
    rows = fields["table"].split("|")
    if len(rows) != len(elems):
        raise FormatError("table row count differs from element count", line)
    mul = []
    for row in rows:
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != len(elems):
            raise FormatError("table column count differs from element count", line)
        for c in cells:
            if c not in index:
                raise FormatError(f"table entry {c!r} not an element", line)
        mul.append(tuple(index[c] for c in cells))
    return GroupRecord(
        name, FinGroup(name, elems, tuple(mul), index[fields["identity"]])
    )


def _parse_map(name, fields, line) -> MapRecord:
    _require(fields, ("from", "to", "graph"), line)
    graph_text = fields["graph"]
    graph = ()
    if graph_text:
        try:
            graph = tuple(int(v) for v in graph_text.split(","))
        except ValueError:
            raise FormatError(f"bad graph {graph_text!r}", line) from None
    return MapRecord(name, fields["from"], fields["to"], graph)


def _parse_order(name, fields, line) -> OrderRecord:
    kind = fields.get("kind")
    if kind == "explicit":
        _require(fields, ("fibration", "kind", "rel"), line)
        rel = _parse_blocks(fields["rel"], line, 0, _parse_pair)
        return OrderRecord(name, fields["fibration"], "explicit", rel)
    _require(fields, ("fibration", "kind"), line)
    if kind not in ORDER_KINDS:
        raise FormatError(
            f"order kind must be {'|'.join(ORDER_KINDS)}|explicit, got {kind!r}", line
        )
    return OrderRecord(name, fields["fibration"], kind)


def _parse_operator(name, fields, line) -> OperatorRecord:
    _require(fields, ("fibration", "kind", "table"), line)
    kind = fields["kind"]
    if kind not in ("closure", "interior"):
        raise FormatError(f"operator kind must be closure|interior, got {kind!r}", line)
    table = _parse_blocks(fields["table"], line, 0, _parse_arrow)
    return OperatorRecord(name, fields["fibration"], kind, table)


def _parse_endofunctor(name, fields, line) -> EndofunctorRecord:
    kind = fields.get("kind")
    if kind is not None and kind not in ("pointed", "copointed"):
        raise FormatError(f"endofunctor kind must be pointed|copointed, got {kind!r}", line)
    comp_key = "unit" if kind == "pointed" else "counit"
    _require(fields, ("fibration", "kind", "obj", "mor", comp_key), line)

    def arrows(key):
        return tuple(
            _parse_arrow(tok, line, 0)
            for tok in _split_top(fields[key], ",", line, 0)
            if tok.strip()
        )

    return EndofunctorRecord(
        name, fields["fibration"], kind, arrows("obj"), arrows("mor"), arrows(comp_key)
    )


_PARSERS = {
    "space": _parse_space,
    "group": _parse_group,
    "map": _parse_map,
    "order": _parse_order,
    "operator": _parse_operator,
    "endofunctor": _parse_endofunctor,
}


def parse_document(text: str) -> Document:
    records = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise FormatError("expected 'kind name: fields'", line_no, len(line))
        head_parts = head.split()
        if len(head_parts) != 2:
            raise FormatError(f"bad record head {head!r}", line_no, 1)
        kind, name = head_parts
        if kind not in _PARSERS:
            raise FormatError(f"unknown record kind {kind!r}", line_no, 1)
        if (kind, name) in seen:
            raise FormatError(f"duplicate {kind} record {name!r}", line_no, 1)
        seen.add((kind, name))
        records.append(_PARSERS[kind](name, _fields(rest, line_no), line_no))
    return Document(tuple(records))


# ---------------------------------------------------------------------------
# serialization


def _render_blocks(blocks, arrow: bool) -> str:
    chunks = []
    for obj, entries in blocks:
        if arrow:
            body = ",".join(f"{a}=>{b}" for a, b in entries)
        else:
            body = ",".join(f"({a},{b})" for a, b in entries)
        chunks.append(f"{obj}[{body}]")
    return "|".join(chunks)


def serialize_record(r: Record) -> str:
    if isinstance(r, SpaceRecord):
        opens = ",".join(_render_set(m) for m in r.space.opens)
        return f"space {r.name}: points={r.space.n}; opens={opens}"
    if isinstance(r, GroupRecord):
        g = r.group
        table = "|".join(",".join(g.elems[v] for v in row) for row in g.mul)
        return (
            f"group {r.name}: elements={','.join(g.elems)}; "
            f"identity={g.elems[g.identity]}; table={table}"
        )
    if isinstance(r, MapRecord):
        graph = ",".join(str(v) for v in r.graph)
        return f"map {r.name}: from={r.source}; to={r.target}; graph={graph}"
    if isinstance(r, OrderRecord):
        if r.kind == "explicit":
            return (
                f"order {r.name}: fibration={r.fibration}; kind=explicit; "
                f"rel={_render_blocks(r.rel, arrow=False)}"
            )
        return f"order {r.name}: fibration={r.fibration}; kind={r.kind}"
    if isinstance(r, OperatorRecord):
        return (
            f"operator {r.name}: fibration={r.fibration}; kind={r.kind}; "
            f"table={_render_blocks(r.table, arrow=True)}"
        )
    if isinstance(r, EndofunctorRecord):
        comp_key = "unit" if r.kind == "pointed" else "counit"

        def arrows(entries):
            return ",".join(f"{a}=>{b}" for a, b in entries)

        return (
            f"endofunctor {r.name}: fibration={r.fibration}; kind={r.kind}; "
            f"obj={arrows(r.obj)}; mor={arrows(r.mor)}; {comp_key}={arrows(r.components)}"
        )
    raise FormatError(f"cannot serialize {type(r).__name__}")


def serialize_document(doc: Document) -> str:
    return "\n".join(serialize_record(r) for r in doc.records) + "\n"


# ---------------------------------------------------------------------------
# resolution against built-ins


def order_record_of(name: str, t) -> OrderRecord:
    """Serialize a topogenous order, or the relation table of a neighbourhood
    operator, as an explicit record (over its fibration's name)."""
    fib = t.fib
    rel = []
    for x, lat in enumerate(fib.sub):
        labels = lat.labels
        pairs = tuple(
            (labels[m], labels[n]) for m, row in enumerate(t.table[x]) for n in mask_iter(row)
        )
        rel.append((fib.category.object_names[x], pairs))
    return OrderRecord(name, fib.name, "explicit", tuple(rel))


def resolve_order(record: OrderRecord, fib) -> "object":
    """Turn an order record into a TopogenousOrder over the given fibration."""
    if record.kind != "explicit":
        return builtin_order(record.kind, fib)
    rows = [[0] * lat.size for lat in fib.sub]
    by_name = {n: i for i, n in enumerate(fib.category.object_names)}
    for obj_name, pairs in record.rel:
        if obj_name not in by_name:
            raise FormatError(f"order names unknown object {obj_name!r}")
        x = by_name[obj_name]
        lat = fib.sub[x]
        for a, b in pairs:
            rows[x][lat.index_of(a)] |= 1 << lat.index_of(b)
    return TopogenousOrder(fib, tuple(tuple(r) for r in rows))


def resolve_endofunctor(record: EndofunctorRecord, fib):
    cat = fib.category
    obj_map = [None] * cat.n_objects
    for a, b in record.obj:
        obj_map[cat.object_index(a)] = cat.object_index(b)
    mor_map = [None] * cat.n_morphisms
    for a, b in record.mor:
        mor_map[cat.morphism_index(a)] = cat.morphism_index(b)
    components = [None] * cat.n_objects
    for a, b in record.components:
        components[cat.object_index(a)] = cat.morphism_index(b)
    if any(v is None for v in (*obj_map, *mor_map, *components)):
        raise FormatError(f"endofunctor {record.name!r} leaves entries unassigned")
    return Endofunctor(fib, record.kind, tuple(obj_map), tuple(mor_map), tuple(components))


def operator_record_of(name: str, op, kind: str) -> OperatorRecord:
    fib = op.fib
    tables = op.cmap if kind == "closure" else op.imap
    blocks = []
    for x, lat in enumerate(fib.sub):
        entries = tuple(
            (lat.labels[m], lat.labels[tables[x][m]]) for m in range(lat.size)
        )
        blocks.append((fib.category.object_names[x], entries))
    return OperatorRecord(name, fib.name, kind, tuple(blocks))


def resolve_operator(record: OperatorRecord, fib):
    """Turn an operator record into a ClosureOperator or InteriorOperator
    over the given fibration.

    Each block maps every subobject of its object once.  A block may be left
    out only for an object with one subobject, whose one self-map is forced.
    """
    rows = [[0] if lat.size == 1 else [None] * lat.size for lat in fib.sub]
    for obj_name, entries in record.table:
        x = fib.category.object_index(obj_name)
        lat = fib.sub[x]
        if len(entries) != lat.size:
            raise FormatError(
                f"operator {record.name!r} has {len(entries)} entries for {obj_name!r}, "
                f"expected {lat.size}"
            )
        for a, b in entries:
            rows[x][lat.index_of(a)] = lat.index_of(b)
    if any(v is None for row in rows for v in row):
        raise FormatError(f"operator {record.name!r} leaves entries unassigned")
    cls = ClosureOperator if record.kind == "closure" else InteriorOperator
    return cls(fib, tuple(map(tuple, rows)))
