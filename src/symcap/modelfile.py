"""Plain-text model files.

The format is line-based with ``#`` comments and four sections::

    [flags]
    grading_mode = Z        # or Z2
    algebra_mode = module   # or cdga
    cutoff = 12             # rational, or none
    filtered = true

    [generators]
    # name | degree | action
    e  | 0 | 0
    a1 | 1 | 3/2

    [operations]
    # arity | input letters | output combination
    2 | a1 , a1 | (1*T^1) * (e)

    [augmentations]
    # name | input letters | t-polynomial
    eps | a1 | (1*T^(3/2)) * t^0

Output words are parenthesized with ``*``-joined letters; the empty monomial
(cdga mode only) prints as ``1``.  Coefficients are always parenthesized.
Input words must be canonical (sorted with sign +1); output words are
normalized on read with the sign folded into the coefficient.  Printing a
parsed model is idempotent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .linfty import Augmentation, LInfinityModel, ModelError
from .novikov import (
    NovikovPolynomial,
    add_into,
    fmt_rational,
    parse_novikov,
    parse_rational,
)
from .words import Generator, Word, mono_text, normalize_word

_SECTIONS = ("flags", "generators", "operations", "augmentations")


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _split_terms(text: str) -> list[str]:
    """Split a combination on top-level ' + ' (plus signs inside parens stay)."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ModelError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and text.startswith(" + ", i):
            parts.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    if depth != 0:
        raise ModelError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _number(parse, text: str, line: str):
    """``parse(text)``, where a ValueError is malformed content of ``line``."""
    try:
        return parse(text)
    except ValueError:
        raise ModelError(f"bad number {text!r} in line {line!r}") from None


def _parse_term(term: str, line: str) -> tuple[NovikovPolynomial, str]:
    """Split '(<coefficient>) * <rest>' and parse the coefficient."""
    term = term.strip()
    if not term.startswith("("):
        raise ModelError(f"term must start with a parenthesized coefficient: {term!r}")
    depth = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                coeff = _number(parse_novikov, term[1:i], line)
                rest = term[i + 1 :].strip()
                if not rest.startswith("*"):
                    raise ModelError(f"expected '*' after coefficient in {term!r}")
                return coeff, rest[1:].strip()
    raise ModelError(f"unbalanced parentheses in term {term!r}")


def _parse_word_part(
    text: str, gens: dict[str, Generator]
) -> tuple[int, Optional[Word]]:
    """A parenthesized monomial, or '1' for the empty monomial."""
    if text == "1":
        return 1, Word(())
    if not (text.startswith("(") and text.endswith(")")):
        raise ModelError(f"expected a parenthesized word, got {text!r}")
    names = [n.strip() for n in text[1:-1].split("*")]
    letters = []
    for n in names:
        if n not in gens:
            raise ModelError(f"unknown generator {n!r} in word {text!r}")
        letters.append(gens[n])
    return normalize_word(letters)


def _parse_input_word(text: str, gens: dict[str, Generator]) -> Word:
    names = [n.strip() for n in text.split(",")]
    letters = []
    for n in names:
        if n not in gens:
            raise ModelError(f"unknown generator {n!r} in input word {text!r}")
        letters.append(gens[n])
    return Word(letters)  # canonicality is validated by the model


def parse_model(text: str) -> LInfinityModel:
    sections: dict[str, list[str]] = {s: [] for s in _SECTIONS}
    current: Optional[str] = None
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ModelError(f"unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ModelError(f"content before any section: {line!r}")
        sections[current].append(line)

    flags = {
        "grading_mode": "Z",
        "algebra_mode": "module",
        "cutoff": "none",
        "filtered": "false",
    }
    for line in sections["flags"]:
        if "=" not in line:
            raise ModelError(f"flags lines look like 'key = value': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in flags:
            raise ModelError(f"unknown flag {key!r}")
        flags[key] = value.strip()
    given = flags["cutoff"]
    cutoff = None
    if given.lower() != "none":
        line = f"cutoff = {given}"
        cutoff = _number(parse_rational, given, line)
        if cutoff <= 0:
            raise ModelError(f"cutoff must be positive in line {line!r}")
    if flags["filtered"].lower() not in ("true", "false"):
        raise ModelError(f"filtered must be true or false, got {flags['filtered']!r}")
    filtered = flags["filtered"].lower() == "true"

    gens: dict[str, Generator] = {}
    for line in sections["generators"]:
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3:
            raise ModelError(f"generator lines look like 'name | degree | action': {line!r}")
        name, degree, action = fields
        if not name:
            raise ModelError(f"generator name is empty in line {line!r}")
        if name in gens:
            raise ModelError(f"duplicate generator {name!r}")
        degree = _number(int, degree, line)
        action = _number(parse_rational, action, line)
        if action < 0:
            raise ModelError(f"action must be >= 0 in line {line!r}")
        gens[name] = Generator(name, degree, action)

    operations: dict[tuple[int, Word], dict] = {}
    for line in sections["operations"]:
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3:
            raise ModelError(
                f"operation lines look like 'arity | inputs | combination': {line!r}"
            )
        arity = _number(int, fields[0], line)
        word = _parse_input_word(fields[1], gens)
        combo: dict[Word, NovikovPolynomial] = {}
        for term in _split_terms(fields[2]):
            coeff, rest = _parse_term(term, line)
            sign, out = _parse_word_part(rest, gens)
            if sign != 0:
                add_into(combo, out, coeff.scale(sign))
        key = (arity, word)
        if key in operations:
            raise ModelError(f"duplicate operation key {fields[1]!r}")
        operations[key] = combo

    augmentations: dict[str, dict[Word, dict[int, NovikovPolynomial]]] = {}
    for line in sections["augmentations"]:
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3:
            raise ModelError(
                f"augmentation lines look like 'name | inputs | t-polynomial': {line!r}"
            )
        name = fields[0]
        word = _parse_input_word(fields[1], gens)
        tpoly: dict[int, NovikovPolynomial] = {}
        for term in _split_terms(fields[2]):
            coeff, rest = _parse_term(term, line)
            if not rest.startswith("t^"):
                raise ModelError(f"augmentation terms end in t^<power>: {term!r}")
            add_into(tpoly, _number(int, rest[2:], line), coeff)
        comp = augmentations.setdefault(name, {})
        if word in comp:
            raise ModelError(f"duplicate augmentation component {fields[1]!r} for {name}")
        comp[word] = tpoly

    return LInfinityModel(
        list(gens.values()),
        operations,
        grading_mode=flags["grading_mode"],
        algebra_mode=flags["algebra_mode"],
        cutoff=cutoff,
        filtered=filtered,
        augmentations={
            name: Augmentation(name, comps) for name, comps in augmentations.items()
        },
    )


def _word_text(w: Word) -> str:
    return f"({mono_text(w)})" if w else "1"


def _combo_text(combo: dict) -> str:
    parts = []
    for out in sorted(combo, key=lambda w: w.sort_key):
        parts.append(f"({combo[out]}) * {_word_text(out)}")
    return " + ".join(parts)


def _tpoly_text(tpoly: dict) -> str:
    parts = []
    for power in sorted(tpoly):
        parts.append(f"({tpoly[power]}) * t^{power}")
    return " + ".join(parts)


def print_model(model: LInfinityModel) -> str:
    lines = ["[flags]"]
    lines.append(f"grading_mode = {model.grading_mode}")
    lines.append(f"algebra_mode = {model.algebra_mode}")
    lines.append(
        "cutoff = " + ("none" if model.cutoff is None else fmt_rational(model.cutoff))
    )
    lines.append(f"filtered = {'true' if model.filtered else 'false'}")
    lines.append("")
    lines.append("[generators]")
    for g in model.ordered_generators:
        lines.append(f"{g.name} | {g.degree} | {fmt_rational(g.action)}")
    lines.append("")
    lines.append("[operations]")
    for (arity, word) in sorted(model.operations, key=lambda k: (k[0], k[1].sort_key)):
        combo = model.operations[(arity, word)]
        inputs = " , ".join(l.name for l in word)
        lines.append(f"{arity} | {inputs} | {_combo_text(combo)}")
    if model.augmentations:
        lines.append("")
        lines.append("[augmentations]")
        for name in sorted(model.augmentations):
            aug = model.augmentations[name]
            for word in sorted(aug.components, key=lambda w: w.sort_key):
                inputs = " , ".join(l.name for l in word)
                lines.append(f"{name} | {inputs} | {_tpoly_text(aug.components[word])}")
    return "\n".join(lines) + "\n"


def load_model(path) -> LInfinityModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def save_model(model: LInfinityModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_model(model))
