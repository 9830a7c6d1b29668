"""The immutable value classes: their contract, and what importing costs.

Each class keeps the contract of a frozen dataclass, field for field:
equality only with its own class, the hash of the field tuple, a repr that
names the fields, no assignment or deletion, keyword construction with its
defaults, pickle and copy, and its validation messages. Importing the
package must not load `dataclasses` or `inspect`.
"""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coxpres
from coxpres.checks import CheckResult, VerificationReport
from coxpres.cli import Config, UsageError
from coxpres.collineation import (CoxPresentation, Params, ProofIdeals,
                                  WitnessPoint)
from coxpres.geometry import Cone, Fan, GalePair
from coxpres.groebner import DEFAULT_PAIR_BUDGET
from coxpres.intlinalg import IntMatrix
from coxpres.polyring import Grading, PolyRing

RING = PolyRing(("x",))
M = IntMatrix(((1, 0), (0, 1)))
PROOF_FIELDS = ("params", "g", "h", "h_quadruples", "sigma_images", "b_gens",
                "b_prime_ring", "b_prime", "b_second_ring", "b_second",
                "b_prime_renamed_ring", "b_prime_renamed",
                "b_second_renamed_ring", "b_second_renamed")

# (class, keyword arguments in field order, exact repr)
VALUES = [
    (IntMatrix, {"entries": ((1, 2), (3, 4))},
     "IntMatrix(entries=((1, 2), (3, 4)))"),
    (Grading, {"matrix": IntMatrix(((1, 1),))},
     "Grading(matrix=IntMatrix(entries=((1, 1),)))"),
    (Cone, {"ambient": 2, "generators": ((0, 1), (1, 0))},
     "Cone(ambient=2, generators=((0, 1), (1, 0)))"),
    (Fan, {"ambient": 2, "rays": ((1, 0), (0, 1)), "maximal_cones": ((0, 1),),
           "simplicial": True},
     "Fan(ambient=2, rays=((1, 0), (0, 1)), maximal_cones=((0, 1),), "
     "simplicial=True)"),
    (GalePair, {"p": IntMatrix(((1, -1),)), "q": IntMatrix(((1, 1),))},
     "GalePair(p=IntMatrix(entries=((1, -1),)), "
     "q=IntMatrix(entries=((1, 1),)))"),
    (Params, {"c": 3, "d": 4}, "Params(c=3, d=4)"),
    (CoxPresentation,
     {"params": Params(2, 2), "ring": RING, "relations": (),
      "grading": Grading(IntMatrix(((1,),))), "class_group_rank": 1,
      "regime": "p3"},
     "CoxPresentation(params=Params(c=2, d=2), ring=PolyRing(1 vars, grevlex), "
     "relations=(), grading=Grading(matrix=IntMatrix(entries=((1,),))), "
     "class_group_rank=1, regime='p3')"),
    (ProofIdeals,
     {name: Params(3, 3) if name == "params" else RING if name.endswith("ring")
      else ((1, 2, 4, 5),) if name == "h_quadruples" else ()
      for name in PROOF_FIELDS},
     "ProofIdeals(params=Params(c=3, d=3), g=(), h=(), "
     "h_quadruples=((1, 2, 4, 5),), sigma_images=(), b_gens=(), "
     "b_prime_ring=PolyRing(1 vars, grevlex), b_prime=(), "
     "b_second_ring=PolyRing(1 vars, grevlex), b_second=(), "
     "b_prime_renamed_ring=PolyRing(1 vars, grevlex), b_prime_renamed=(), "
     "b_second_renamed_ring=PolyRing(1 vars, grevlex), b_second_renamed=())"),
    (WitnessPoint, {"coords": (((1, 2), Fraction(1, 2)),)},
     "WitnessPoint(coords=(((1, 2), Fraction(1, 2)),))"),
    (CheckResult, {"check_id": "grading", "status": "pass", "expected": 16,
                   "actual": 16, "seconds": 0.5},
     "CheckResult(check_id='grading', status='pass', expected=16, actual=16, "
     "seconds=0.5)"),
    (VerificationReport,
     {"c": 3, "d": 3,
      "results": (CheckResult("gale", "skipped", None, "reason", 0.0),)},
     "VerificationReport(c=3, d=3, results=(CheckResult(check_id='gale', "
     "status='skipped', expected=None, actual='reason', seconds=0.0),))"),
    (Config, {"c": 3, "d": 3, "checks": None, "budget": 7, "fmt": "json",
              "out": None, "strict": True},
     "Config(c=3, d=3, checks=None, budget=7, fmt='json', out=None, "
     "strict=True)"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls,kwargs,text", VALUES, ids=IDS)
def test_keyword_construction_equality_and_hash(cls, kwargs, text):
    x = cls(**kwargs)
    fields = tuple(kwargs.values())
    assert tuple(getattr(x, name) for name in kwargs) == fields
    assert cls(*fields) == x and not cls(*fields) != x
    assert hash(cls(**kwargs)) == hash(x) == hash(fields)
    assert x != fields and fields != x
    assert x.__eq__(fields) is NotImplemented
    # a subclass with the same fields is another class
    sub = type(cls.__name__, (cls,), {})(**kwargs)
    assert sub != x and x != sub


@pytest.mark.parametrize("cls,kwargs,text", VALUES, ids=IDS)
def test_every_field_counts_in_equality_and_hash(cls, kwargs, text):
    x = cls(**kwargs)
    for name in kwargs:
        # built field by field, so a validating __init__ cannot refuse it
        other = object.__new__(cls)
        changed = dict(kwargs, **{name: object()})
        for key, value in changed.items():
            object.__setattr__(other, key, value)
        assert other != x and x != other
        assert hash(other) == hash(tuple(changed.values()))


@pytest.mark.parametrize("cls,kwargs,text", VALUES, ids=IDS)
def test_exact_repr(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls,kwargs,text", VALUES, ids=IDS)
def test_assignment_and_deletion_refused(cls, kwargs, text):
    x = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert tuple(getattr(x, name) for name in kwargs) == tuple(kwargs.values())


@pytest.mark.parametrize("cls,kwargs,text", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, kwargs, text):
    x = cls(**kwargs)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x)
        assert repr(y) == text


def test_keyword_defaults():
    fan = Fan(ambient=2, rays=((1, 0),), maximal_cones=((0,),))
    assert fan.simplicial is False
    assert fan == Fan(2, ((1, 0),), ((0,),), False)
    cfg = Config(c=3, d=4)
    assert (cfg.checks, cfg.budget, cfg.fmt, cfg.out, cfg.strict) == \
        (None, DEFAULT_PAIR_BUDGET, "text", None, False)


@pytest.mark.parametrize("build,error,message", [
    (lambda: IntMatrix(((1, 2), (3,))), ValueError, "ragged rows"),
    (lambda: Params(1, 3), ValueError,
     "parameters must satisfy c >= 2 and d >= 2"),
    (lambda: Params(c=3, d=1), ValueError,
     "parameters must satisfy c >= 2 and d >= 2"),
    (lambda: GalePair(M, IntMatrix(((1, 1, 1),))), ValueError,
     "not a Gale pair: column counts differ"),
    (lambda: GalePair(p=M, q=M), ValueError,
     "not a Gale pair: P @ Q^T is nonzero"),
    (lambda: Config(3, 3, budget=0), UsageError, "budget must be positive"),
    (lambda: Config(c=3, d=3, checks=[]), UsageError, "--checks names no check"),
], ids=["ragged", "params-c", "params-d", "gale-cols", "gale-product",
        "config-budget", "config-checks"])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


# -- import hygiene


def _modules_added_by(statement):
    """Modules a fresh interpreter adds to sys.modules by `statement`, with
    PYTHONPATH pointing at the coxpres imported here."""
    code = ("import json, sys; before = set(sys.modules); " + statement +
            "; print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONPATH": str(Path(coxpres.__file__).parents[1])})
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("statement", ["import coxpres", "import coxpres.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(statement):
    added = _modules_added_by(statement)
    assert not added & {"dataclasses", "inspect"}
    # every submodule the package imports eagerly is still imported
    assert {"coxpres.intlinalg", "coxpres.polyring", "coxpres.groebner",
            "coxpres.geometry", "coxpres.collineation"} <= added
