"""obicodec: the schema-compiled object frame.

An object whose shape is knowable at registration time travels as::

    OBJECT_SCHEMA <u32 len> <wire name> [<u32 schema hash>] <body>
    body = <one struct: every length and fixed-width field> <var data> <any slots>

and its encoder/decoder pair is generated here, once, as straight-line
Python: one ``struct`` pack/unpack for the ints, floats, bools and all
the length prefixes, one slice per ``str``/``bytes`` field, and one call
back into the generic value path per **any** slot — a field whose kind
cannot be proven scalar (object references, ``None``, containers).  Any
slots are ordinary tagged values, so references swizzle, share and
back-reference exactly as they do anywhere else in a frame.

Two sources of schema:

* an application class (default state, no ``__slots__``): the
  ``self.X = ...`` assignments of ``__init__`` and of every base
  ``__init__`` it reaches through ``super().__init__``, in textual order,
  typed by annotation, parameter default or literal.  That is an *inference*
  two builds could make differently, so the frame carries its hash and a
  peer that inferred another schema refuses it.  ``_obi_id`` rides in
  the body.  A live instance whose dict drifted from the schema (extra
  attribute, ``None`` in an ``int`` field, an int beyond 64 bits) is not
  an error: its encoder returns ``False`` before writing anything and
  the object takes the generic ``OBJECT`` path.
* a ``@dataclass(slots=True)`` (the protocol's own frames): the declared
  fields.  The declaration *is* the wire contract — obiwire pins it —
  so no hash travels, and an instance that breaks it is an error.

Classes with custom ``__getstate__``/``__setstate__`` or registration
hooks have no schema and stay on the generic path.  The generated source
is kept on the codec (:attr:`ObjectCodec.source`) so
:mod:`repro.core.obicomp.emit` can write it next to the emitted proxy.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
import struct
import textwrap
import zlib
from collections.abc import Callable
from dataclasses import dataclass

from repro.serial import tags
from repro.util.errors import SerializationError

_U32 = struct.Struct("!I")

#: kind name -> struct format char, for the fixed-width fields.
_FIXED_FMT = {"int": "q", "float": "d", "bool": "?"}

#: Kinds with a length-prefixed body.
_VAR_KINDS = ("str", "bytes")

#: The kind of a field no schema source could prove scalar.
ANY = "any"

_TYPE_KIND = {int: "int", float: "float", bool: "bool", str: "str", bytes: "bytes"}
_SCALAR_KINDS = frozenset(_TYPE_KIND.values())

#: ``int`` fields pack as ``!q``; an instance holding anything outside
#: this range does not match its schema.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ObjectCodec:
    """A compiled encoder/decoder pair for one registered class."""

    cls: type
    name: str
    fields: tuple[tuple[str, str], ...]  # (field, kind) in declaration order
    schema_hash: int
    #: Everything of the frame before its body, pre-encoded.
    header: bytes
    #: ``encode(obj, out, write, depth) -> bool``
    encode: Callable[[object, bytearray, Callable, int], bool]
    #: ``decode(buf, pos, end, memo, read, depth, new) -> (obj, pos)``
    decode: Callable[..., tuple[object, int]]
    source: str

    def describe(self) -> str:
        return ", ".join(f"{field}:{kind}" for field, kind in self.fields) or "<no fields>"


#: Codec cache keyed by class.  ``None`` records a class we already tried
#: and rejected, so registration never re-derives.
_codecs: dict[type, ObjectCodec | None] = {}


def codec_for(cls: type) -> ObjectCodec | None:
    """The compiled codec for ``cls``, or None."""
    return _codecs.get(cls)


def maybe_compile_codec(cls: type, name: str) -> ObjectCodec | None:
    """Derive + compile the codec of a default-state class registered as
    ``name``.  A class without a schema is cached as such."""
    if cls in _codecs:
        return _codecs[cls]
    codec: ObjectCodec | None = None
    fields = derive_schema(cls)
    if fields is not None:
        codec = _build_codec(cls, name, fields)
    _codecs[cls] = codec
    return codec


def registered_codec_names() -> frozenset[str]:
    """Wire names that currently have a compiled codec (contract hook)."""
    return frozenset(codec.name for codec in _codecs.values() if codec is not None)


def schema_hash_of(fields: tuple[tuple[str, str], ...]) -> int:
    description = "|".join(f"{field}:{kind}" for field, kind in fields)
    return zlib.crc32(description.encode("utf-8")) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# schema derivation
# ----------------------------------------------------------------------
def _is_slots_dataclass(cls: type) -> bool:
    """A dataclass none of whose instances has a ``__dict__``."""
    return dataclasses.is_dataclass(cls) and all(
        "__slots__" in vars(klass) for klass in cls.__mro__[:-1]
    )


def derive_schema(cls: type) -> tuple[tuple[str, str], ...] | None:
    """``(field, kind)`` in wire-declaration order, or None for no schema.

    A slots dataclass declares its fields.  Any other class is read from
    its ``__init__``: every ``self.X`` it stores is a field, whose kind
    resolves, in precedence order, from the assignment's own annotation,
    a class-level annotation, the source parameter's annotation or
    default, or a literal — and is :data:`ANY` when none of those names
    one scalar type or two assignments disagree.  A ``super().__init__``
    call contributes the base's stores at its position.
    """
    slotted = False
    for klass in cls.__mro__[:-1]:
        spec = vars(klass)
        for hook in ("__getstate__", "__setstate__"):
            # (A frozen slots dataclass is handed a pair by ``dataclasses``
            # itself, for pickle; that one says nothing about the wire.)
            if getattr(spec.get(hook), "__module__", "dataclasses") != "dataclasses":
                return None  # the wire state is not the fields
        slotted = slotted or "__slots__" in spec
    if _is_slots_dataclass(cls):
        return tuple(
            (f.name, _annotation_kind(f.type) or ANY) for f in dataclasses.fields(cls)
        )
    if slotted:
        return None  # no instance dict to read, no declaration either

    owner = next(klass for klass in cls.__mro__ if "__init__" in vars(klass))
    kinds: dict[str, str | None] = {}  # insertion order is wire order
    if not _fold_init(cls, owner, _class_annotation_kinds(cls), kinds, base=False):
        return None
    if "_obi_id" in kinds:
        return None  # reserved: the frame carries it itself
    return tuple((field, kind or ANY) for field, kind in kinds.items())


def _is_super_init(node: ast.AST) -> bool:
    """``super().__init__(...)`` (any arguments)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name)
        and node.func.value.func.id == "super"
    )


def _fold_init(
    cls: type, owner: type, class_kinds: dict[str, str], kinds: dict[str, str | None], *, base: bool
) -> bool:
    """Fold the ``self.X`` stores of ``owner.__init__`` into ``kinds`` in
    textual order, a ``super().__init__(...)`` call standing for the
    stores of the next ``__init__`` along ``cls``'s MRO.  A *base* store
    of a parameter is only typed by the parameter's annotation: the
    subclass decides what it passes.  False when a source is unreadable.
    """
    if owner is object:
        return True
    init = vars(owner)["__init__"]
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
    except (OSError, TypeError, SyntaxError, ValueError):
        return False
    if not tree.body or not isinstance(tree.body[0], (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    fn = tree.body[0]
    if not fn.args.args:
        return False
    self_name = fn.args.args[0].arg
    param_kinds = _parameter_kinds(init, defaults=not base)

    for node in sorted(
        (
            n
            for n in ast.walk(fn)
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)) or _is_super_init(n)
        ),
        key=lambda n: (n.lineno, n.col_offset),
    ):
        if isinstance(node, ast.Call):
            later = cls.__mro__[cls.__mro__.index(owner) + 1 :]
            nxt = next(klass for klass in later if "__init__" in vars(klass))
            if not _fold_init(cls, nxt, class_kinds, kinds, base=True):
                return False
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        annotated = (
            _annotation_kind(ast.unparse(node.annotation))
            if isinstance(node, ast.AnnAssign)
            else None
        )
        for target in targets:
            unpacked = isinstance(target, (ast.Tuple, ast.List))
            for store in target.elts if unpacked else [target]:
                if not (
                    isinstance(store, ast.Attribute)
                    and isinstance(store.value, ast.Name)
                    and store.value.id == self_name
                ):
                    continue
                kind = annotated or class_kinds.get(store.attr)
                if kind is None and isinstance(node, ast.Assign | ast.AnnAssign) and not unpacked:
                    kind = _expr_kind(node.value, param_kinds)
                known = kinds.setdefault(store.attr, kind)
                if known is None:
                    kinds[store.attr] = kind
                elif kind is not None and kind != known:
                    kinds[store.attr] = ANY  # polymorphic field
    return True


def _annotation_kind(annotation: object) -> str | None:
    if isinstance(annotation, str):
        text = annotation.strip().strip("'\"")
        return text if text in _SCALAR_KINDS else None
    if isinstance(annotation, type):
        return _TYPE_KIND.get(annotation)
    return None


def _parameter_kinds(init, *, defaults: bool = True) -> dict[str, str]:
    try:
        signature = inspect.signature(init)
    except (ValueError, TypeError):
        return {}
    kinds: dict[str, str] = {}
    for name, parameter in list(signature.parameters.items())[1:]:
        kind = _annotation_kind(parameter.annotation)
        if kind is None and defaults and parameter.default is not inspect.Parameter.empty:
            kind = _TYPE_KIND.get(type(parameter.default))
        if kind is not None:
            kinds[name] = kind
    return kinds


def _class_annotation_kinds(cls: type) -> dict[str, str]:
    kinds: dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        for field, annotation in vars(klass).get("__annotations__", {}).items():
            kind = _annotation_kind(annotation)
            if kind is not None:
                kinds[field] = kind
    return kinds


def _expr_kind(expr: ast.expr | None, param_kinds: dict[str, str]) -> str | None:
    if isinstance(expr, ast.Constant):
        return _TYPE_KIND.get(type(expr.value))
    if isinstance(expr, ast.Name):
        return param_kinds.get(expr.id)
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, (ast.USub, ast.UAdd))
        and isinstance(expr.operand, ast.Constant)
    ):
        return _TYPE_KIND.get(type(expr.operand.value))
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id if expr.func.id in _SCALAR_KINDS else None
    return None


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
def _build_codec(cls: type, name: str, fields: tuple[tuple[str, str], ...]) -> ObjectCodec:
    declared = _is_slots_dataclass(cls)
    suffix = re.sub(r"\W", "_", name)
    schema_hash = schema_hash_of(fields)
    name_bytes = name.encode("utf-8")
    header = bytes([tags.OBJECT_SCHEMA]) + _U32.pack(len(name_bytes)) + name_bytes
    if not declared:
        header += _U32.pack(schema_hash)
    source = _generate_source(
        suffix,
        name,
        fields,
        header,
        schema_hash,
        declared=declared,
        frozen=declared and cls.__dataclass_params__.frozen,
    )
    namespace: dict[str, object] = {"_struct": struct, "_SerializationError": SerializationError}
    exec(compile(source, f"<obicodec {name}>", "exec"), namespace)  # noqa: S102 - our own generated source
    return ObjectCodec(
        cls=cls,
        name=name,
        fields=fields,
        schema_hash=schema_hash,
        header=header,
        encode=namespace[f"_obicodec_encode_{suffix}"],  # type: ignore[arg-type]
        decode=namespace[f"_obicodec_decode_{suffix}"],  # type: ignore[arg-type]
        source=source,
    )


_KIND_CHECK = {
    "int": "type({v}) is not int or {v} > %d or {v} < %d" % (INT64_MAX, INT64_MIN),
    "float": "type({v}) is not float",
    "bool": "type({v}) is not bool",
    "str": "type({v}) is not str",
    "bytes": "type({v}) is not bytes",
}


def _generate_source(
    suffix: str,
    name: str,
    fields: tuple[tuple[str, str], ...],
    header: bytes,
    schema_hash: int,
    *,
    declared: bool,
    frozen: bool,
) -> str:
    """The encoder/decoder pair of one schema, as Python source.

    ``declared`` selects the slots-dataclass flavour: fields are read and
    written as attributes, there is no ``_obi_id``, and a mismatching
    instance raises instead of returning ``False``.
    """
    indexed = list(enumerate(fields))
    fixed = [i for i, (_f, kind) in indexed if kind in _FIXED_FMT]
    variable = [i for i, (_f, kind) in indexed if kind in _VAR_KINDS]
    anys = [i for i, (_f, kind) in indexed if kind == ANY]
    # One leading struct: [oid length] fixed-width fields, then one
    # length per variable field; the variable bodies follow back to back.
    lead_fmt = "".join(
        ["" if declared else "I"]
        + [_FIXED_FMT[fields[i][1]] for i in fixed]
        + ["I" for _ in variable]
    )
    lead_size = struct.calcsize("!" + lead_fmt)
    oid_len = [] if declared else ["lo"]
    var_lens = [f"l{i}" for i in variable]
    lengths = oid_len + var_lens
    lead_names = oid_len + [f"v{i}" for i in fixed] + var_lens  # the struct's order

    lines: list[str] = []
    emit = lines.append
    describe = ", ".join(f"{field}:{kind}" for field, kind in fields) or "<no fields>"
    emit(f"# obicodec for {name!r} - schema 0x{schema_hash:08x}: {describe}")
    emit(f"_obicodec_hdr_{suffix} = {header!r}")
    if lead_fmt:
        emit(f"_obicodec_lead_{suffix} = _struct.Struct({'!' + lead_fmt!r})")

    # --- encoder: check the live instance against the schema, then
    # commit in one pass; nothing is written before the checks passed.
    head = f"def _obicodec_encode_{suffix}(obj, out, w, depth, _hdr=_obicodec_hdr_{suffix}"
    if lead_fmt:
        head += f", _pack=_obicodec_lead_{suffix}.pack"
    emit(head + "):")
    checks = [_KIND_CHECK[kind].format(v=f"v{i}") for i, (_f, kind) in indexed if kind != ANY]
    if declared:
        for i, (field, _kind) in indexed:
            emit(f"    v{i} = obj.{field}")
        if checks:
            emit(f"    if {' or '.join(checks)}:")
            emit(
                f"        raise _SerializationError({name + ': field values do not match the declared schema'!r})"
            )
    else:
        emit("    d = obj.__dict__")
        if fields:
            emit("    try:")
            for i, (field, _kind) in indexed:
                emit(f"        v{i} = d[{field!r}]")
            emit("    except KeyError:")
            emit("        return False")
        emit("    oid = d.get('_obi_id')")
        emit("    if oid is None:")
        emit("        n = len(d)")
        emit("        ob = b''")
        emit("    elif type(oid) is str and oid:")
        emit("        n = len(d) - 1")
        emit("        ob = oid.encode('utf-8')")
        emit("    else:")
        emit("        return False")
        emit(f"    if {' or '.join([f'n != {len(fields)}'] + checks)}:")
        emit("        return False")
    payload = {}
    for i in variable:
        if fields[i][1] == "str":
            emit(f"    b{i} = v{i}.encode('utf-8')")
            payload[i] = f"b{i}"
        else:
            payload[i] = f"v{i}"
    emit("    out += _hdr")
    if lead_fmt:
        args = ([] if declared else ["len(ob)"]) + [f"v{i}" for i in fixed]
        args += [f"len({payload[i]})" for i in variable]
        emit(f"    out += _pack({', '.join(args)})")
    if not declared:
        emit("    out += ob")
    for i in variable:
        emit(f"    out += {payload[i]}")
    for i in anys:
        emit(f"    if v{i} is None:")
        emit(f"        out.append({tags.NONE})")
        emit("    else:")
        emit(f"        w(v{i}, depth)")
    emit("    return True")

    # --- decoder: offset arithmetic over the frame; the instance enters
    # the memo before its fields (cycles through any slots resolve), and
    # fields land in declaration order so a rebuilt instance dict matches
    # the master's.
    head = f"def _obicodec_decode_{suffix}(buf, pos, end, memo, r, depth, new"
    if lead_fmt:
        head += f", _unpack=_obicodec_lead_{suffix}.unpack_from"
    if frozen:
        head += ", _set=object.__setattr__"
    emit(head + "):")
    emit("    obj = new()")
    emit("    memo.append(obj)")
    if lead_fmt:
        emit(f"    ({', '.join(lead_names)},) = _unpack(buf, pos)")
        emit(f"    pos += {lead_size}")
    if lengths:
        # Slices past the end come back short, silently: one check first.
        emit(f"    if pos + {' + '.join(lengths)} > end:")
        emit("        raise _struct.error('frame ends inside a length-prefixed field')")
    if not declared:
        emit("    e = pos + lo")
        emit("    oid = str(buf[pos:e], 'utf-8')")
        emit("    pos = e")
    for i in variable:
        emit(f"    e = pos + l{i}")
        emit(f"    v{i} = " + ("str(buf[pos:e], 'utf-8')" if fields[i][1] == "str" else "buf[pos:e]"))
        emit("    pos = e")
    for i in anys:
        emit(f"    if buf[pos:pos + 1] == {bytes([tags.NONE])!r}:")
        emit(f"        v{i} = None")
        emit("        pos += 1")
        emit("    else:")
        emit(f"        v{i}, pos = r(pos, depth)")
    if declared:
        for i, (field, _kind) in indexed:
            emit(f"    _set(obj, {field!r}, v{i})" if frozen else f"    obj.{field} = v{i}")
    else:
        emit("    d = obj.__dict__")
        for i, (field, _kind) in indexed:
            emit(f"    d[{field!r}] = v{i}")
        emit("    if lo:")
        emit("        d['_obi_id'] = oid")
    emit("    return obj, pos")
    emit("")
    return "\n".join(lines)
