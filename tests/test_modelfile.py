import re
from fractions import Fraction

import pytest

from symcap.linfty import ModelError
from symcap.modelfile import load_model, parse_model, print_model, save_model
from symcap.words import Word

from conftest import MODEL_NAMES


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_print_parse_round_trip_is_idempotent(name, fixtures_dir):
    model = load_model(fixtures_dir / f"{name}.model")
    text = print_model(model)
    assert print_model(parse_model(text)) == text


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_save_load_round_trip(name, fixtures_dir, tmp_path):
    model = load_model(fixtures_dir / f"{name}.model")
    path = tmp_path / f"{name}.model"
    save_model(model, path)
    again = load_model(path)
    assert again.generators == model.generators
    assert again.operations == model.operations
    assert {n: a.components for n, a in again.augmentations.items()} == {
        n: a.components for n, a in model.augmentations.items()
    }
    assert print_model(again) == print_model(model)


def test_parsed_flags_and_fields(models):
    b2 = models["b2"]
    assert b2.algebra_mode == "module"
    assert b2.grading_mode == "Z"
    assert b2.filtered and b2.cutoff is None
    assert b2.gen("ac3").degree == -5
    assert b2.gen("ac3").action == 3
    aug = models["e1x"].augmentations["eps"]
    word = models["e1x"].word("a4")
    assert aug.components[word] == {3: models["e1x"].nov([(4, 1)])}


def test_defaults_without_flags_section():
    model = parse_model(
        """
        [generators]
        x | 0 | 0
        y | 1 | 0
        [operations]
        1 | x | (1*T^0) * (y)
        """
    )
    assert model.algebra_mode == "module"
    assert not model.filtered
    assert model.cutoff is None


def test_output_words_normalize_with_sign_folded_in():
    model = parse_model(
        """
        [flags]
        algebra_mode = cdga
        [generators]
        u | 1 | 1
        x | 1 | 2
        y | 1 | 3
        [operations]
        1 | u | (1*T^0) * (y*x)
        """
    )
    out = model.operations[(1, model.word("u"))]
    word = next(iter(out))
    assert [g.name for g in word] == ["x", "y"]
    assert out[word].at_one() == -1


def test_odd_square_output_terms_vanish():
    model = parse_model(
        """
        [flags]
        algebra_mode = cdga
        [generators]
        u | -1 | 1
        x | 1 | 1
        [operations]
        1 | u | (1*T^0) * (x*x) + (1*T^1) * 1
        """
    )
    out = model.operations[(1, model.word("u"))]
    assert list(out) == [Word(())]  # only the unit term survives


@pytest.mark.parametrize(
    "text,message",
    [
        ("[nope]\n", "unknown section"),
        ("x | 0 | 0\n", "before any section"),
        ("[flags]\nspin = up\n", "unknown flag"),
        ("[generators]\nx | 0\n", "generator lines"),
        ("[generators]\nx | 0 | 0\nx | 1 | 0\n", "duplicate generator"),
        ("[generators]\n | 0 | 1/2\n", "generator name is empty in line '| 0 | 1/2'"),
        (
            "[generators]\nx | 0 | 0\n[operations]\n2 | x | (1*T^0) * (x)\n",
            "arity 2 does not match",
        ),
        (
            "[generators]\nx | 0 | 0\n[operations]\n1 | x | 1*T^0 * (x)\n",
            "parenthesized coefficient",
        ),
        # a number that does not parse is malformed content of its line
        ("[flags]\ncutoff = 1/0\n", "bad number '1/0' in line 'cutoff = 1/0'"),
        ("[generators]\nx | a | 0\n", "bad number 'a' in line 'x | a | 0'"),
        ("[generators]\nx | 0 | 1/0\n", "bad number '1/0' in line 'x | 0 | 1/0'"),
        (
            "[generators]\nx | 0 | 0\n[operations]\nabc | x | (1*T^0) * (x)\n",
            "bad number 'abc' in line 'abc | x | (1*T^0) * (x)'",
        ),
        (
            "[generators]\nx | 0 | 0\ny | 1 | 0\n[operations]\n1 | x | (1/0*T^0) * (y)\n",
            "bad number '1/0*T^0' in line '1 | x | (1/0*T^0) * (y)'",
        ),
        (
            "[generators]\nx | 0 | 0\n[augmentations]\neps | x | (1*T^0) * t^a\n",
            "bad number 'a' in line 'eps | x | (1*T^0) * t^a'",
        ),
        # numbers that parse but break the format's contract
        ("[generators]\nx | 0 | -1\n", "action must be >= 0 in line 'x | 0 | -1'"),
        ("[flags]\ncutoff = -1\n", "cutoff must be positive in line 'cutoff = -1'"),
        ("[flags]\ncutoff = 0\n", "cutoff must be positive in line 'cutoff = 0'"),
    ],
)
def test_malformed_files_are_rejected(text, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        parse_model(text)


def test_cutoff_flag_truncates_coefficients():
    model = parse_model(
        """
        [flags]
        cutoff = 2
        [generators]
        x | 0 | 0
        y | 1 | 0
        [operations]
        1 | x | (1*T^1 + 1*T^3) * (y)
        """
    )
    combo = model.operations[(1, model.word("x"))]
    coeff = combo[model.word("y")]
    assert coeff == model.nov([(1, 1)])
    assert model.cutoff == Fraction(2)
