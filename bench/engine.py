"""``engine``: the test_08 and test_09 workload, in-process.

On the six fixture models ``b2 b2_lin e1x dgla cdga_aug complex``:

* ``check_linfty_relations(model, 3)`` must be empty (one query per model);
* the co-Leibniz and coassociativity residuals of every ``basis_words(4)``
  word must be empty (one query per word, 3232 words), re-derived here from
  ``words.coproduct`` as the acceptance test does;
* on ``cdga_aug``, F^{-eps} followed by F^eps must be the identity on every
  basis word (one query per word), and ``linearize`` must give a model whose
  differential squares to zero (one query);
* the Maurer-Cartan push-forward identity on a two-generator model (one
  query);
* ``gb_solver`` levels on ``b2_lin`` (m = 0..10, level m+1) and ``e1x``
  (m = 1..6, level m), one query per level.

The seed orders the models and the words within each model.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

MODELS = ("b2", "b2_lin", "e1x", "dgla", "cdga_aug", "complex")


def make_api():
    from symcap import capacities, linfty, modelfile, novikov, words

    return SimpleNamespace(
        load_model=modelfile.load_model,
        check_linfty_relations=linfty.check_linfty_relations,
        extend_coderivation=linfty.extend_coderivation,
        coproduct=words.coproduct,
        f_epsilon_map=linfty.f_epsilon_map,
        inverse_scalar_augmentation=linfty.inverse_scalar_augmentation,
        morphism_on_combo=linfty.morphism_on_combo,
        linearize=linfty.linearize,
        augmentation_pushforward_mc=linfty.augmentation_pushforward_mc,
        augmentation_hat_combo=linfty.augmentation_hat_combo,
        exp_mc=linfty.exp_mc,
        gb_solver=capacities.gb_solver,
        Generator=words.Generator,
        Word=words.Word,
        LInfinityModel=linfty.LInfinityModel,
        Augmentation=linfty.Augmentation,
        MaurerCartanElement=linfty.MaurerCartanElement,
        NovikovPolynomial=novikov.NovikovPolynomial,
    )


def instrument(api, tracer) -> None:
    for attr, name in (
        ("load_model", "modelfile.load"),
        ("check_linfty_relations", "linfty.check_linfty_relations"),
        ("extend_coderivation", "linfty.extend_coderivation"),
        ("coproduct", "words.coproduct"),
        ("f_epsilon_map", "linfty.f_epsilon_map"),
        ("inverse_scalar_augmentation", "linfty.inverse_scalar_augmentation"),
        ("morphism_on_combo", "linfty.morphism_on_combo"),
        ("linearize", "linfty.linearize"),
        ("augmentation_pushforward_mc", "linfty.augmentation_pushforward_mc"),
        ("augmentation_hat_combo", "linfty.augmentation_hat_combo"),
        ("exp_mc", "linfty.exp_mc"),
        ("gb_solver", "capacities.gb_solver"),
    ):
        tracer.span(api, attr, name)


def build(api, root, seed: int):
    models = {n: api.load_model(root / "fixtures" / f"{n}.model") for n in MODELS}
    return SimpleNamespace(api=api, models=models, one=api.NovikovPolynomial.unit())


# -- the coalgebra residuals, re-derived from the shuffle coproduct ------------


def _pair_add(acc, key, coeff):
    prev = acc.get(key)
    total = coeff if prev is None else prev + coeff
    if total.is_zero() if hasattr(total, "is_zero") else not total:
        acc.pop(key, None)
    else:
        acc[key] = total


def coleibniz_residual(api, model, w):
    acc = {}
    for u, c in api.extend_coderivation(model, w).items():
        for left, right, s in api.coproduct(u):
            _pair_add(acc, (left, right), c.scale(s))
    for left, right, s in api.coproduct(w):
        for u, c in api.extend_coderivation(model, left).items():
            _pair_add(acc, (u, right), c.scale(-s))
        tail = -1 if left.degree % 2 else 1
        for u, c in api.extend_coderivation(model, right).items():
            _pair_add(acc, (left, u), c.scale(-s * tail))
    return acc


def coassociativity_residual(api, w):
    acc = {}
    for left, right, s in api.coproduct(w):
        for a, b, s2 in api.coproduct(left):
            _pair_add(acc, (a, b, right), s * s2)
        for b, c, s2 in api.coproduct(right):
            _pair_add(acc, (left, b, c), -s * s2)
    return acc


def _uv_identity(api):
    """ε_*(m) equals the word-length-1 part of ε̂(exp m)."""
    u = api.Generator("u", 0, Fraction(1))
    v = api.Generator("v", 0, Fraction(1))
    model = api.LInfinityModel([u, v], {}, cutoff=6)
    eps = api.Augmentation(
        "eps",
        {
            api.Word([u]): {0: model.nov(((1, 1),))},
            api.Word([v]): {1: model.nov(((1, 1),))},
            api.Word([u, v]): {0: model.nov(((2, 1),))},
        },
    )
    element = api.MaurerCartanElement(
        model, {u: model.nov(((1, 1),)), v: model.nov(((2, 1),))}
    )
    pushed = api.augmentation_pushforward_mc(eps, element)
    hat = api.augmentation_hat_combo(eps, api.exp_mc(element))
    return pushed, {k[0]: c for k, c in hat.items() if len(k) == 1}


def run_pass(state, rng: random.Random, record) -> None:
    """One pass; ``record`` is a ``harness.Recorder``."""
    api, models = state.api, state.models
    order = list(MODELS)
    rng.shuffle(order)
    for name in order:
        model = models[name]
        record(f"{name} check", lambda: api.check_linfty_relations(model, 3), _is_empty)
        words = record.segment(lambda: model.basis_words(4))
        rng.shuffle(words)
        for w in words:
            record(
                f"{name} residuals",
                lambda: (
                    coleibniz_residual(api, model, w),
                    coassociativity_residual(api, w),
                ),
                lambda got: got == ({}, {}),
            )

    cdga = models["cdga_aug"]
    eps = cdga.augmentations["eps"]
    forward = record.segment(lambda: api.f_epsilon_map(cdga, eps))
    backward = record.segment(
        lambda: api.f_epsilon_map(cdga, api.inverse_scalar_augmentation(cdga, eps))
    )
    words = record.segment(lambda: cdga.basis_words(4))
    rng.shuffle(words)
    for w in words:
        record(
            "cdga_aug round trip",
            lambda: api.morphism_on_combo(
                forward, api.morphism_on_combo(backward, {w: state.one})
            ),
            lambda got, w=w: got == {w: state.one},
        )
    record(
        "cdga_aug linearize",
        lambda: api.check_linfty_relations(api.linearize(cdga, eps)[1], 2),
        _is_empty,
    )
    record("mc push-forward", lambda: _uv_identity(api), lambda got: got[0] == got[1])

    levels = [("b2_lin", [m], 12, m + 1) for m in range(0, 11)]
    levels += [("e1x", [m - 1], 8, m) for m in range(1, 7)]
    rng.shuffle(levels)
    for name, b, cutoff, want in levels:
        record(
            f"{name} level",
            lambda: api.gb_solver(models[name], b, 2, cutoff),
            lambda got, want=want: got == want,
        )


def _is_empty(got) -> bool:
    return got == []
