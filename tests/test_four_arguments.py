"""Every framework on four arguments, one per isomorphism class.

There are 2^16 labelled frameworks on four arguments (self-attacks
included) and 3,044 classes under renaming. A framework is a 16-bit code,
bit 4u+x set when u attacks x. Each of the 24 renamings maps a code's low
and high bytes through its own byte tables, and a class is named by the
least code of its orbit. The prop, und-free and pred verifiers run on every
class; a seeded sample checks that they do not depend on the names, by
running each labelled member of a class and renaming its report back.
``solve_higher`` with the relation pinned to each class's attacks gives its
complete labellings. ``tests/sweep_diagram.py`` runs the domain-diagram
verifier over the same classes, outside the suite.
"""

import dataclasses
import functools
import itertools
import random

import pytest

from g3arg.af import VALUE_TO_LABEL, Framework, canonical, enumerate_complete
from g3arg.corpus import argument_names
from g3arg.meta import HigherNetwork, solve_higher
from g3arg.translate import (
    UndFreeReport,
    framework_key,
    verify_pred_theory,
    verify_prop_theory,
    verify_und_free,
)

NAMES = argument_names(4)


def _byte_table(perm, offset):
    """The image of each byte of a code at bit ``offset`` under ``perm``."""
    table = []
    for byte in range(256):
        image = 0
        for i in range(8):
            if byte >> i & 1:
                u, x = divmod(offset + i, 4)
                image |= 1 << 4 * perm[u] + perm[x]
        table.append(image)
    return table


PERMS = list(itertools.permutations(range(4)))
TABLES = [(_byte_table(p, 0), _byte_table(p, 8)) for p in PERMS]


def rename(code, tables):
    low, high = tables
    return low[code & 0xFF] | high[code >> 8]


@functools.cache
def four_argument_classes():
    """The least code of each orbit, in increasing order."""
    seen = bytearray(1 << 16)
    classes = []
    for code in range(1 << 16):
        if not seen[code]:
            classes.append(code)
            for tables in TABLES:
                seen[rename(code, tables)] = 1
    return tuple(classes)


def framework(code):
    attacks = [(NAMES[i // 4], NAMES[i % 4]) for i in range(16) if code >> i & 1]
    return Framework.make(NAMES, attacks)


def test_the_classes_are_the_orbit_minima():
    classes = four_argument_classes()
    assert len(classes) == 3044
    assert all(min(rename(c, t) for t in TABLES) == c for c in classes)


@pytest.mark.parametrize(
    "verify", [verify_prop_theory, verify_und_free, verify_pred_theory],
    ids=lambda v: v.__name__,
)
def test_every_class_verifies(verify):
    failed = [framework_key(f) for f in map(framework, four_argument_classes())
              if not verify(f).ok]
    assert failed == []


def test_pinned_higher_networks_give_the_complete_labellings_of_every_class():
    """Conservativity at four nodes: with R pinned to a class's attacks and
    no formula units, each complete labelling is one model's node labelling,
    and no model has another."""
    failed = []
    for f in map(framework, four_argument_classes()):
        models = solve_higher(HigherNetwork.make(f.arguments, [], f.attacks), fixed_r=f.attacks)
        found = sorted(canonical({x: VALUE_TO_LABEL[m.in_value(x)] for x in f.arguments})
                       for m in models)
        if found != sorted(canonical(lab) for lab in enumerate_complete(f)):
            failed.append(framework_key(f))
    assert failed == []


def _renamed(report, back, subject):
    """``report`` with each argument name mapped through ``back``."""
    if isinstance(report, UndFreeReport):
        return dataclasses.replace(
            report,
            stable=_renamed(report.stable, back, subject),
            non_stable=_renamed(report.non_stable, back, subject),
        )

    def labs(side):
        return tuple(sorted(tuple(sorted((back[x], v) for x, v in lab)) for lab in side))

    _, space, case = report.subject.partition(" ")  # the und-free reports name a case
    return dataclasses.replace(
        report,
        subject=subject + space + case,
        extra_models=labs(report.extra_models),
        extra_labellings=labs(report.extra_labellings),
    )


@pytest.mark.parametrize(
    "verify", [verify_prop_theory, verify_und_free, verify_pred_theory],
    ids=lambda v: v.__name__,
)
def test_labelled_members_agree_up_to_renaming(verify):
    for code in random.Random(4).sample(four_argument_classes(), 50):
        rep = framework(code)
        want = verify(rep)
        for perm, tables in zip(PERMS, TABLES):
            member = framework(rename(code, tables))
            # perm sends the representative's i-th name to the member's perm[i]-th
            back = {NAMES[perm[i]]: NAMES[i] for i in range(4)}
            assert _renamed(verify(member), back, framework_key(rep)) == want
