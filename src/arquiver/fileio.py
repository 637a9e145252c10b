"""Line-oriented, bit-exact file formats for algebras, modules, morphisms,
subcategories and replayable counterexample bundles.

Every format is UTF-8 and '#' starts a comment.  Paths inside relation
lines are written function-composition style: "a.b" means apply b first,
then a, so the serialized order is the reverse of the stored application
order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import Algebra, Quiver, Relation, check_modulus
from .rep import PrimeTooSmall, Rep, RepMap


class ParseError(ValueError):
    pass


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"{what} must be an integer, got {text!r}") from exc


def _logical_lines(text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


# -- algebras ----------------------------------------------------------------


def _format_path(arrows: tuple) -> str:
    # stored application order -> composition order on disk
    return ".".join(reversed(arrows))


def _parse_path(text: str) -> tuple:
    names = text.split(".")
    if any(not n for n in names):
        raise ParseError(f"malformed path {text!r}")
    return tuple(reversed(names))


def format_algebra(alg: Algebra) -> str:
    lines = [f"field {alg.p}", f"vertices {alg.quiver.n}"]
    for a in alg.quiver.arrows:
        lines.append(f"arrow {a.name} {a.source} {a.target}")
    for rel in alg.relations:
        terms = " + ".join(
            f"{c % alg.p}*{_format_path(arrows)}" for c, arrows in rel.terms
        )
        lines.append(f"rel {terms}")
    return "\n".join(lines) + "\n"


def parse_algebra(text: str, prime: int | None = None) -> Algebra:
    lines = _logical_lines(text)
    if not lines or not lines[0].startswith("field "):
        raise ParseError("algebra file must start with 'field <p>'")
    p = _int(lines[0].split()[1], "field modulus")
    if prime is not None:
        p = prime
    try:
        check_modulus(p)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if len(lines) < 2 or not lines[1].startswith("vertices "):
        raise ParseError("second line must be 'vertices <n>'")
    n = _int(lines[1].split()[1], "vertex count")
    arrows = []
    relations = []
    for line in lines[2:]:
        head, _, rest = line.partition(" ")
        if head == "arrow":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(f"malformed arrow line {line!r}")
            arrows.append(
                (parts[0], _int(parts[1], "arrow source"), _int(parts[2], "arrow target"))
            )
        elif head == "rel":
            terms = []
            for chunk in rest.split(" + "):
                coeff_s, _, path_s = chunk.partition("*")
                if not path_s:
                    raise ParseError(f"malformed relation term {chunk!r}")
                terms.append((_int(coeff_s, "coefficient") % p, _parse_path(path_s)))
            relations.append(Relation(terms))
        else:
            raise ParseError(f"unknown directive {head!r} in algebra file")
    try:
        return Algebra(Quiver(n, arrows), relations, p=p)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_algebra(alg: Algebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_algebra(alg))


def read_algebra(path: str, prime: int | None = None) -> Algebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read(), prime=prime)


# -- modules -----------------------------------------------------------------


def _format_matrix_lines(m: np.ndarray) -> list:
    # zero-column rows would be blank lines; shapes alone carry the data
    if m.shape[1] == 0:
        return []
    return [" ".join(str(int(x)) for x in row) for row in m]


def format_module(m: Rep, name: str | None = None) -> str:
    label = name if name is not None else (m.name or "M")
    lines = [f"module {label}", "dim " + " ".join(str(d) for d in m.dims)]
    for a in m.algebra.quiver.arrows:
        mat = m.maps[a.name]
        lines.append(f"map {a.name} {mat.shape[0]} {mat.shape[1]}")
        lines.extend(_format_matrix_lines(mat))
    return "\n".join(lines) + "\n"


def _take_matrix(lines: list, i: int, rows: int, cols: int):
    if rows < 0 or cols < 0:
        raise ParseError(f"negative matrix shape {rows} x {cols}")
    if cols == 0:
        return linalg.zeros(rows, 0), i
    # every row is a line of the file, so the matrix is no larger than it
    if i + rows > len(lines):
        raise ParseError(f"expected {rows} rows, got {len(lines) - i}")
    mat = linalg.zeros(rows, cols)
    for r in range(rows):
        entries = lines[i + r].split()
        if len(entries) != cols:
            raise ParseError(f"expected {cols} entries, got {len(entries)}")
        try:
            mat[r] = [int(x) for x in entries]
        except ValueError as exc:
            raise ParseError(f"non-integer entry in {lines[i + r]!r}") from exc
    return mat, i + rows


def parse_module(text: str, alg: Algebra) -> Rep:
    lines = _logical_lines(text)
    rep, rest = _parse_module_lines(lines, alg)
    if rest:
        raise ParseError("trailing content after module block")
    return rep


def _parse_module_lines(lines: list, alg: Algebra) -> tuple:
    """(Rep, unconsumed lines); the block starts at lines[0]."""
    if not lines or not lines[0].startswith("module"):
        raise ParseError("module block must start with 'module <name>'")
    parts = lines[0].split()
    name = parts[1] if len(parts) > 1 else ""
    if len(lines) < 2 or not lines[1].startswith("dim"):
        raise ParseError("module block needs a 'dim' line")
    dims = tuple(_int(x, "dimension") for x in lines[1].split()[1:])
    maps = {}
    i = 2
    while i < len(lines) and lines[i].startswith("map "):
        parts = lines[i].split()
        if len(parts) != 4:
            raise ParseError(f"map line needs 'map <arrow> <rows> <cols>': {lines[i]!r}")
        _, arrow, rows_s, cols_s = parts
        if arrow not in alg.quiver.by_name:
            raise ParseError(f"unknown arrow {arrow!r}")
        if arrow in maps:
            raise ParseError(f"module {name!r} has two maps for arrow {arrow!r}")
        rows, cols = _int(rows_s, "map rows"), _int(cols_s, "map columns")
        mat, i = _take_matrix(lines, i + 1, rows, cols)
        maps[arrow] = mat
    try:
        rep = Rep(alg, dims, maps, name=name)
    except ValueError as exc:
        raise ParseError(f"module {name!r}: {exc}") from exc
    except MemoryError as exc:
        # an arrow without a map line is zero, of the shape `dim` asks for
        raise ParseError(f"module {name!r} cannot be built: {exc}") from exc
    return rep, lines[i:]


def write_module(m: Rep, path: str, name: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_module(m, name=name))


def read_module(path: str, alg: Algebra) -> Rep:
    with open(path, encoding="utf-8") as fh:
        return parse_module(fh.read(), alg)


# -- morphisms ---------------------------------------------------------------


def format_morphism(f: RepMap, name: str, source_name: str, target_name: str) -> str:
    lines = [f"morphism {name} {source_name} {target_name}"]
    for v, block in enumerate(f.blocks, start=1):
        lines.append(f"block {v} {block.shape[0]} {block.shape[1]}")
        lines.extend(_format_matrix_lines(block))
    return "\n".join(lines) + "\n"


def _parse_morphism_lines(lines: list, modules: dict) -> tuple:
    """(name, RepMap, unconsumed lines); modules maps name -> Rep."""
    parts = lines[0].split() if lines else []
    if len(parts) != 4 or parts[0] != "morphism":
        raise ParseError("morphism block must start with 'morphism <name> <src> <tgt>'")
    name, src_name, tgt_name = parts[1], parts[2], parts[3]
    if src_name not in modules or tgt_name not in modules:
        raise ParseError(f"morphism {name!r} references unknown modules")
    source, target = modules[src_name], modules[tgt_name]
    blocks = []
    i = 1
    for v in range(1, source.algebra.quiver.n + 1):
        head = lines[i].split() if i < len(lines) else []
        if len(head) != 4 or head[0] != "block" or _int(head[1], "block vertex") != v:
            raise ParseError(f"expected 'block {v} <rows> <cols>' in morphism {name!r}")
        rows, cols = _int(head[2], "block rows"), _int(head[3], "block columns")
        mat, i = _take_matrix(lines, i + 1, rows, cols)
        blocks.append(mat)
    try:
        f = RepMap(source, target, tuple(blocks), check=True)
    except ValueError as exc:
        raise ParseError(f"morphism {name!r}: {exc}") from exc
    return name, f, lines[i:]


# -- subcategories -----------------------------------------------------------


def read_subcat(path: str, alg: Algebra):
    """Subcat from a descriptor file.

    'subcat finite' is followed by module file names resolved relative to
    the descriptor; 'subcat postprojective cap <d>' / 'subcat preinjective
    cap <d>' declare capped families.
    """
    from .approx import Subcat

    with open(path, encoding="utf-8") as fh:
        lines = _logical_lines(fh.read())
    if not lines or not lines[0].startswith("subcat"):
        raise ParseError("subcat file must start with 'subcat <kind>'")
    parts = lines[0].split()
    kind = parts[1] if len(parts) > 1 else ""
    if kind == "finite":
        base = os.path.dirname(os.path.abspath(path))
        gens = [read_module(os.path.join(base, rel), alg) for rel in lines[1:]]
        cap = 0
    elif kind in ("postprojective", "preinjective"):
        if len(parts) != 4 or parts[2] != "cap":
            raise ParseError(f"family subcat needs 'cap <d>': {lines[0]!r}")
        if len(lines) > 1:
            raise ParseError("family subcat file has no further lines")
        gens, cap = [], _int(parts[3], "cap")
    else:
        raise ParseError(f"unknown subcat kind {kind!r}")
    try:
        return Subcat(alg, kind, gens, cap)
    except PrimeTooSmall:
        raise  # the generators could not be checked at this prime: a guard
    except ValueError as exc:
        raise ParseError(f"subcat cannot be built: {exc}") from exc


def write_subcat_family(kind: str, cap: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"subcat {kind} cap {cap}\n")


# -- counterexample bundles --------------------------------------------------


BUNDLE_HEADER = "bundle arquiver-v1"
SECTION_KINDS = ("algebra", "module", "morphism")


@dataclass
class Bundle:
    """A self-contained, replayable record of one failed (or checked) run."""

    algebra: Algebra
    modules: dict = field(default_factory=dict)  # name -> Rep
    morphisms: dict = field(default_factory=dict)  # name -> RepMap
    check: dict = field(default_factory=dict)  # verb plus key=value options

    # lookups by name: a missing entry is a ParseError, not a KeyError
    def module(self, name: str) -> Rep:
        return _bundle_entry(self.modules, "module", name)

    def morphism(self, name: str) -> RepMap:
        return _bundle_entry(self.morphisms, "morphism", name)

    def option(self, key: str) -> str:
        return _bundle_entry(self.check, "check option", key)

    def format(self) -> str:
        chunks = [BUNDLE_HEADER, "begin algebra"]
        chunks.append(format_algebra(self.algebra).rstrip("\n"))
        chunks.append("end")
        for name, m in self.modules.items():
            chunks.append("begin module")
            chunks.append(format_module(m, name=name).rstrip("\n"))
            chunks.append("end")
        inv = {}
        for name, m in self.modules.items():
            inv[id(m)] = name
        for name, f in self.morphisms.items():
            src = inv.get(id(f.source))
            tgt = inv.get(id(f.target))
            if src is None or tgt is None:
                raise ValueError(
                    f"morphism {name!r} endpoints are not registered modules"
                )
            chunks.append("begin morphism")
            chunks.append(format_morphism(f, name, src, tgt).rstrip("\n"))
            chunks.append("end")
        verb = self.check.get("verb", "none")
        opts = " ".join(
            f"{k}={v}" for k, v in sorted(self.check.items()) if k != "verb"
        )
        chunks.append(f"check {verb} {opts}".rstrip())
        return "\n".join(chunks) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.format())


def _bundle_entry(entries: dict, kind: str, name: str):
    if name not in entries:
        raise ParseError(f"bundle has no {kind} {name!r}")
    return entries[name]


def _add_entry(entries: dict, kind: str, name: str, value) -> None:
    if name in entries:
        raise ParseError(f"bundle has two {kind}s named {name!r}")
    entries[name] = value


def parse_bundle(text: str, prime: int | None = None, algebra: Algebra | None = None) -> Bundle:
    lines = _logical_lines(text)
    if not lines or lines[0] != BUNDLE_HEADER:
        raise ParseError(f"bundle must start with {BUNDLE_HEADER!r}")
    i = 1
    sections = []  # (kind, lines)
    check = {}
    while i < len(lines):
        line = lines[i]
        if line.startswith("begin "):
            kind = line.split()[1]
            j = i + 1
            body = []
            while j < len(lines) and lines[j] != "end":
                body.append(lines[j])
                j += 1
            if j == len(lines):
                raise ParseError(f"unterminated {kind!r} section")
            if kind not in SECTION_KINDS:
                raise ParseError(f"unknown section kind {kind!r} in bundle")
            sections.append((kind, body))
            i = j + 1
        elif line.startswith("check"):
            parts = line.split()
            if len(parts) < 2:
                raise ParseError("check line needs a verb")
            check = {"verb": parts[1]}
            for kv in parts[2:]:
                k, _, v = kv.partition("=")
                check[k] = v
            i += 1
        else:
            raise ParseError(f"unexpected line in bundle: {line!r}")
    alg_sections = [body for kind, body in sections if kind == "algebra"]
    if len(alg_sections) != 1:
        raise ParseError("bundle needs exactly one algebra section")
    alg = parse_algebra("\n".join(alg_sections[0]), prime=prime)
    if algebra is not None:
        # anchor the bundle on a caller-provided algebra object so its
        # modules compose with modules loaded elsewhere in the same run
        if not algebra.same_presentation(alg):
            raise ParseError("bundle algebra disagrees with the provided algebra")
        alg = algebra
    bundle = Bundle(alg, check=check)
    for kind, body in sections:
        if kind == "module":
            rep, rest = _parse_module_lines(body, alg)
            if rest:
                raise ParseError("trailing content in module section")
            _add_entry(bundle.modules, "module", rep.name, rep)
        elif kind == "morphism":
            name, f, rest = _parse_morphism_lines(body, bundle.modules)
            if rest:
                raise ParseError("trailing content in morphism section")
            _add_entry(bundle.morphisms, "morphism", name, f)
    return bundle


def read_bundle(path: str, prime: int | None = None, algebra: Algebra | None = None) -> Bundle:
    with open(path, encoding="utf-8") as fh:
        return parse_bundle(fh.read(), prime=prime, algebra=algebra)


# -- short exact sequences ---------------------------------------------------


def format_ses(s, names=("X", "Y", "Z")) -> str:
    """Three module blocks plus the two map blocks of the sequence."""
    nx, ny, nz = names
    chunks = [
        format_module(s.left, name=nx).rstrip("\n"),
        format_module(s.middle, name=ny).rstrip("\n"),
        format_module(s.right, name=nz).rstrip("\n"),
        format_morphism(s.f, "f", nx, ny).rstrip("\n"),
        format_morphism(s.g, "g", ny, nz).rstrip("\n"),
    ]
    return "\n".join(chunks) + "\n"
