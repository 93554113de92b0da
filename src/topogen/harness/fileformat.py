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

An explicit order or an operator line in the canonical text the serializer
writes is read piece by piece: a head pattern over the fields up to the
blocks, a split into blocks, and one ``findall`` over the entries of each
distinct body (see ``_canonical_record``).  Canonical here means one space
after the colon, the fields in the order above and no other whitespace;
names and labels of ASCII letters, digits and ``_.+-``, a label possibly
braced with commas and parenthesised parts inside, and a fibration such as
``spaces:a,b`` or ``spaces(p,a,b,c)``.  The patterns compile on the first
order or operator line a process reads.  Any other spelling goes through
the general scanner below, with the same records and the same
``FormatError`` (message, line and column); that scanner is the only source
of ``FormatError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Optional, Union

from ..constructions import Endofunctor
from ..errors import DomainError, FormatError
from ..instances.groups import FinGroup
from ..instances.registry import ORDER_KINDS, builtin_order
from ..instances.topology import FinTopSpace
from ..lattice import MAX_ELEMENTS, mask_iter
from ..structures import KINDS, RELATIONS, TopogenousOrder


# the most points whose subsets still form a ``FiniteLattice``
MAX_POINTS = MAX_ELEMENTS.bit_length() - 1
# the kinds an operator record may name
_OPERATOR_KINDS = tuple(kind for kind, cls in KINDS.items() if cls not in RELATIONS)


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


def _scan_top(value: str, sep: str) -> tuple[list[str], Optional[int]]:
    """The parts of ``value`` between separator characters at bracket depth
    zero, and None; or, at an unbalanced bracket, the parts before it and
    the offset of the part that holds it.

    Any bracket kind closes any other; a prefix that closes more than it
    opens, or an unclosed bracket at the end, is unbalanced.  Parts are
    sliced out of ``value`` between the separators found."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(value):
        if ch in "{[(":
            depth += 1
        elif ch in "}])":
            depth -= 1
            if depth < 0:
                return parts, start
        elif ch == sep and depth == 0:
            parts.append(value[start:i])
            start = i + 1
    if depth != 0:
        return parts, start
    parts.append(value[start:])
    return parts, None


def _split_top(value: str, sep: str, line: int, col: int) -> list[str]:
    """``_scan_top``'s parts; an unbalanced bracket is a ``FormatError`` at
    column ``col``."""
    parts, unbalanced = _scan_top(value, sep)
    if unbalanced is not None:
        raise FormatError("unbalanced brackets", line, col)
    return parts


def _start(text: str, col: int) -> int:
    """The column of the first non-blank character of ``text``, which
    starts at column ``col``."""
    return col + len(text) - len(text.lstrip())


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


def _fields(rest: str, line: int, col: int) -> tuple[dict[str, str], dict[str, int]]:
    """The fields of a record's text after its colon, which starts at the
    1-based column ``col`` of its line, and the column where each field
    starts.  An error names the column where its field starts; a field with
    an unbalanced bracket is the one holding the first such bracket."""
    raws, unbalanced = _scan_top(rest, ";")
    if unbalanced is not None:
        raise FormatError("unbalanced brackets", line, _start(rest[unbalanced:], col + unbalanced))
    out, cols = {}, {}
    for raw in raws:
        part = raw.strip()
        if part:
            key, eq, value = part.partition("=")
            key = key.strip()
            at = _start(raw, col)
            if not eq:
                raise FormatError(f"field without '=': {part!r}", line, at)
            if key in out:
                raise FormatError(f"duplicate field {key!r}", line, at)
            out[key] = value.strip()
            cols[key] = at
        col += len(raw) + 1
    return out, cols


def _once(names, problem: str, *where) -> None:
    """A ``FormatError`` naming the first name that ``names`` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise FormatError(f"{problem} {name!r}", *where)
        seen.add(name)


def _require(fields: dict, keys: tuple[str, ...], line: int) -> None:
    for k in keys:
        if k not in fields:
            raise FormatError(f"missing field {k!r}", line)
    extra = set(fields) - set(keys)
    if extra:
        raise FormatError(f"unknown field {sorted(extra)[0]!r}", line)


# ---------------------------------------------------------------------------
# record parsers


def _parse_space(name, fields, cols, line) -> SpaceRecord:
    _require(fields, ("points", "opens"), line)
    try:
        n = int(fields["points"])
    except ValueError:
        raise FormatError(f"bad point count {fields['points']!r}", line) from None
    if not 0 <= n <= MAX_POINTS:
        raise FormatError(f"point count {n} is not in 0..{MAX_POINTS}", line)
    opens = tuple(sorted(
        _parse_set(tok, n, line, cols["opens"])
        for tok in _split_top(fields["opens"], ",", line, cols["opens"])
    ))
    try:
        return SpaceRecord(name, FinTopSpace(n, opens))
    except Exception as exc:
        raise FormatError(f"invalid topology: {exc}", line) from None


def _parse_group(name, fields, cols, line) -> GroupRecord:
    _require(fields, ("elements", "identity", "table"), line)
    elems = tuple(e.strip() for e in fields["elements"].split(","))
    _once(elems, f"group {name!r} repeats element", line)
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


def _parse_map(name, fields, cols, line) -> MapRecord:
    _require(fields, ("from", "to", "graph"), line)
    graph_text = fields["graph"]
    graph = ()
    if graph_text:
        try:
            graph = tuple(int(v) for v in graph_text.split(","))
        except ValueError:
            raise FormatError(f"bad graph {graph_text!r}", line) from None
    return MapRecord(name, fields["from"], fields["to"], graph)


def _parse_order(name, fields, cols, line) -> OrderRecord:
    kind = fields.get("kind")
    if kind == "explicit":
        _require(fields, ("fibration", "kind", "rel"), line)
        rel = _parse_blocks(fields["rel"], line, cols["rel"], _parse_pair)
        return OrderRecord(name, fields["fibration"], "explicit", rel)
    _require(fields, ("fibration", "kind"), line)
    if kind not in ORDER_KINDS:
        raise FormatError(
            f"order kind must be {'|'.join(ORDER_KINDS)}|explicit, got {kind!r}", line
        )
    return OrderRecord(name, fields["fibration"], kind)


def _parse_operator(name, fields, cols, line) -> OperatorRecord:
    _require(fields, ("fibration", "kind", "table"), line)
    kind = fields["kind"]
    if kind not in _OPERATOR_KINDS:
        raise FormatError(f"operator kind must be {'|'.join(_OPERATOR_KINDS)}, got {kind!r}", line)
    table = _parse_blocks(fields["table"], line, cols["table"], _parse_arrow)
    return OperatorRecord(name, fields["fibration"], kind, table)


def _parse_endofunctor(name, fields, cols, line) -> EndofunctorRecord:
    kind = fields.get("kind")
    if kind is not None and kind not in ("pointed", "copointed"):
        raise FormatError(f"endofunctor kind must be pointed|copointed, got {kind!r}", line)
    comp_key = "unit" if kind == "pointed" else "counit"
    _require(fields, ("fibration", "kind", "obj", "mor", comp_key), line)

    def arrows(key):
        return tuple(
            _parse_arrow(tok, line, cols[key])
            for tok in _split_top(fields[key], ",", line, cols[key])
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


# ---------------------------------------------------------------------------
# the canonical text of explicit orders and operators


def _body(entries, kind: str) -> str:
    """The canonical body of an order's or an operator's block with
    ``entries``."""
    if kind == "order":
        return ",".join([f"({a},{b})" for a, b in entries])
    return ",".join([f"{a}=>{b}" for a, b in entries])


@cache
def _canonical_patterns(kind: str) -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The head, object name and entry patterns of an order or operator
    line in canonical text.

    The head pattern, matched at the start of the text after the colon,
    captures the fibration and the kind and ends at the ``rel=`` or
    ``table=`` that opens the blocks.  That end is the only one it can
    have: the fibration's characters run up to its one parenthesised part
    or to the ``;`` after it, and the kind is a word of a closed list.  The
    entry pattern captures an entry's two labels, each a name or a braced
    label whose commas and balanced parentheses sit inside its braces."""
    word = r"[\w.+-]+"
    inner = r"[\w.+,-]*"
    label = rf"({word}|\{{{inner}(?:\({inner}\){inner})*\}})"
    fibration = rf"[\w.:,+-]+(?:\({inner}\))?"
    if kind == "order":
        field, kinds, entry = "rel", "explicit", rf"\({label},{label}\)"
    else:
        field, kinds, entry = "table", "|".join(_OPERATOR_KINDS), f"{label}=>{label}"
    return (
        re.compile(rf" fibration=({fibration}); kind=({kinds}); {field}=", re.ASCII),
        re.compile(word, re.ASCII),
        re.compile(entry, re.ASCII),
    )


def _canonical_record(kind: str, name: str, rest: str, bodies: dict):
    """The record of an order or operator line whose text after the colon is
    canonical, or None.

    The text is read piece by piece: the head pattern, then each
    ``|``-separated block as an object name, ``[``, a body and a final
    ``]``.  A body is accepted when the entries ``findall`` reads from it,
    written back in canonical form and joined by commas, give the body
    again.  Only a comma-separated list of canonical entries does that, and
    from such a list ``findall`` reads exactly its entries, since a plain
    label ends at the first character outside its class and a braced one at
    its first ``}``.  So the lines accepted are the head followed by
    ``name[entries]`` blocks joined by ``|``, nothing more and nothing less.

    The general scanner reads each such line to the same record.  No name,
    label or fibration holds whitespace, ``;``, ``|``, ``=`` or a square
    bracket, and their other brackets balance, so the scanner splits the
    fields at each ``; ``, the blocks at each ``|`` and a body at the
    commas between its entries, and an entry at its one ``=>`` or at the
    comma between its labels: every split falls where a piece ends here.

    ``bodies`` maps each block body already read for this kind in the
    document to its entries, which every block repeating that body shares.
    A body read for one kind says nothing of the other's, so each kind
    keeps its own map."""
    head, word, entry = _canonical_patterns(kind)
    match = head.match(rest)
    if match is None:
        return None
    fibration, record_kind = match.groups()
    value = []
    for block in rest[match.end():].split("|"):
        obj, bracket, body = block.partition("[")
        if not (bracket and body.endswith("]") and word.fullmatch(obj)):
            return None
        body = body[:-1]
        entries = bodies.get(body)
        if entries is None:
            entries = tuple(entry.findall(body))
            if _body(entries, kind) != body:
                return None
            bodies[body] = entries
        value.append((obj, entries))
    value = tuple(value)
    if kind == "order":
        return OrderRecord(name, fibration, record_kind, value)
    return OperatorRecord(name, fibration, record_kind, value)


def parse_document(text: str) -> Document:
    """The records of ``text``, one per line.  Each distinct block body of
    the canonical order lines, and of the canonical operator lines, is read
    once per document, and the records repeating it share its entries."""
    records = []
    seen = set()
    bodies = {"order": {}, "operator": {}}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise FormatError("expected 'kind name: fields'", line_no, _start(raw, 0) + len(line))
        head_parts = head.split()
        if len(head_parts) != 2:
            raise FormatError(f"bad record head {head!r}", line_no, _start(raw, 1))
        kind, name = head_parts
        if kind not in _PARSERS:
            raise FormatError(f"unknown record kind {kind!r}", line_no, _start(raw, 1))
        if (kind, name) in seen:
            raise FormatError(f"duplicate {kind} record {name!r}", line_no, _start(raw, 1))
        seen.add((kind, name))
        record = None
        if kind in ("order", "operator"):
            record = _canonical_record(kind, name, rest, bodies[kind])
        if record is None:
            # rest starts one column after the colon
            col = _start(raw, 1) + len(head) + 1
            record = _PARSERS[kind](name, *_fields(rest, line_no, col), line_no)
        records.append(record)
    return Document(tuple(records))


# ---------------------------------------------------------------------------
# serialization


def _render_blocks(blocks, kind: str, bodies: dict) -> str:
    """``obj[body]|...`` of an order or operator record; ``bodies[kind]``
    maps each entries tuple already written for ``kind`` to its body."""
    written = bodies[kind]
    chunks = []
    for obj, entries in blocks:
        body = written.get(entries)
        if body is None:
            body = written[entries] = _body(entries, kind)
        chunks.append(f"{obj}[{body}]")
    return "|".join(chunks)


def _record_line(r: Record, bodies: dict) -> str:
    """``r``'s line; ``bodies`` holds the block bodies already written (see
    ``_render_blocks``)."""
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
                f"rel={_render_blocks(r.rel, 'order', bodies)}"
            )
        return f"order {r.name}: fibration={r.fibration}; kind={r.kind}"
    if isinstance(r, OperatorRecord):
        return (
            f"operator {r.name}: fibration={r.fibration}; kind={r.kind}; "
            f"table={_render_blocks(r.table, 'operator', bodies)}"
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


def serialize_record(r: Record) -> str:
    return _record_line(r, {"order": {}, "operator": {}})


def serialize_document(doc: Document) -> str:
    """The document's text: each record's line, with each distinct block
    entries tuple of its order records, and of its operator records,
    written once."""
    bodies = {"order": {}, "operator": {}}
    return "\n".join([_record_line(r, bodies) for r in doc.records]) + "\n"


# ---------------------------------------------------------------------------
# resolution against built-ins


def _label_pairs(lat, rows) -> tuple[tuple[str, str], ...]:
    """One object's block of an explicit order record: the label pairs
    (m, n) with m ⊏ n, m-major."""
    labels = lat.labels
    return tuple((labels[m], labels[n]) for m, row in enumerate(rows) for n in mask_iter(row))


def _blocks(s, block) -> tuple:
    """Each object's name and its ``block``, built once per (lattice, rows)."""
    fib = s.fib
    return tuple((obj, lat.row_fact(block, rows))
                 for obj, lat, rows in zip(fib.category.object_names, fib.sub, s.table))


def order_record_of(name: str, t) -> OrderRecord:
    """Serialize a topogenous order, or the relation table of a neighbourhood
    operator, as an explicit record (over its fibration's name)."""
    return OrderRecord(name, t.fib.name, "explicit", _blocks(t, _label_pairs))


def _resolver(index, what: str, where: str):
    """``index``, a lookup of names, with a name it does not know a
    ``FormatError`` saying that ``where`` names an unknown ``what``."""

    def resolve(name: str) -> int:
        try:
            return index(name)
        except DomainError:
            raise FormatError(f"{where} names unknown {what} {name!r}") from None

    return resolve


def resolve_order(record: OrderRecord, fib) -> "object":
    """Turn an order record into a TopogenousOrder over the given fibration."""
    if record.kind != "explicit":
        return builtin_order(record.kind, fib)
    _once((obj for obj, _ in record.rel), f"order {record.name!r} repeats the block of")
    rows = [[0] * lat.size for lat in fib.sub]
    where = f"order {record.name!r}"
    block_object = _resolver(fib.category.object_index, "object", where)
    for obj_name, pairs in record.rel:
        x = block_object(obj_name)
        label = _resolver(fib.sub[x].index_of, "label", f"{where} at {obj_name!r}")
        for a, b in pairs:
            rows[x][label(a)] |= 1 << label(b)
    return TopogenousOrder(fib, tuple(tuple(r) for r in rows))


def resolve_endofunctor(record: EndofunctorRecord, fib):
    """Turn an endofunctor record into an Endofunctor over the given fibration."""
    cat = fib.category
    where = f"endofunctor {record.name!r}"
    for entries in (record.obj, record.mor, record.components):
        _once((a for a, _ in entries), f"{where} repeats the entry of")
    obj = _resolver(cat.object_index, "object", where)
    mor = _resolver(cat.morphism_index, "morphism", where)
    obj_map = [None] * cat.n_objects
    for a, b in record.obj:
        obj_map[obj(a)] = obj(b)
    mor_map = [None] * cat.n_morphisms
    for a, b in record.mor:
        mor_map[mor(a)] = mor(b)
    components = [None] * cat.n_objects
    for a, b in record.components:
        components[obj(a)] = mor(b)
    if any(v is None for v in (*obj_map, *mor_map, *components)):
        raise FormatError(f"{where} leaves entries unassigned")
    return Endofunctor(fib, record.kind, tuple(obj_map), tuple(mor_map), tuple(components))


def _label_arrows(lat, row) -> tuple[tuple[str, str], ...]:
    """One object's block of an operator record: each label and the label
    of its value."""
    labels = lat.labels
    return tuple((labels[m], labels[row[m]]) for m in range(lat.size))


def operator_record_of(name: str, op, kind: str) -> OperatorRecord:
    """Serialize a closure or interior operator as a record of ``kind``
    (over its fibration's name)."""
    return OperatorRecord(name, op.fib.name, kind, _blocks(op, _label_arrows))


def record_of(name: str, s) -> Union[OrderRecord, OperatorRecord]:
    """A relation's record as an explicit order, an operator's of its kind."""
    if isinstance(s, RELATIONS):
        return order_record_of(name, s)
    return operator_record_of(name, s, s.kind)


def resolve_operator(record: OperatorRecord, fib):
    """Turn an operator record into a ClosureOperator or InteriorOperator
    over the given fibration.

    Each block maps every subobject of its object once.  A block may be left
    out only for an object with one subobject, whose one self-map is forced.
    """
    _once((obj for obj, _ in record.table), f"operator {record.name!r} repeats the block of")
    rows = [[0] if lat.size == 1 else [None] * lat.size for lat in fib.sub]
    where = f"operator {record.name!r}"
    block_object = _resolver(fib.category.object_index, "object", where)
    for obj_name, entries in record.table:
        x = block_object(obj_name)
        lat = fib.sub[x]
        if len(entries) != lat.size:
            raise FormatError(
                f"{where} has {len(entries)} entries for {obj_name!r}, expected {lat.size}"
            )
        _once((a for a, _ in entries), f"{where} at {obj_name!r} repeats the label")
        label = _resolver(lat.index_of, "label", f"{where} at {obj_name!r}")
        for a, b in entries:
            rows[x][label(a)] = label(b)
    if any(v is None for row in rows for v in row):
        raise FormatError(f"{where} leaves entries unassigned")
    return KINDS[record.kind](fib, tuple(map(tuple, rows)))
