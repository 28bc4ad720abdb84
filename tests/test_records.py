"""The semantics of the package's records, one table for all eight.

Seven records are named tuples and the CLI's Report is a mutable class
with slots.  Each constructs by position and by keyword with the same
defaults, keeps its validation messages, its field order in output and its
repr, and compares and hashes equal to a record of its type with the same
values.  The README's Python blocks run here too.
"""

import copy
import math
import re
from pathlib import Path

import pytest

from growthlab import (CheckReport, ComparisonConstants, DomainError, GrowthSample, ModelManifold,
                       Params, PowerLaw, RateEstimate, SharpExample, build_sharp_example)
from growthlab.cli import Report

EX = build_sharp_example(2.0, 3.0, 1.0)
WARP = PowerLaw(1.0)

# record class, its fields in output order, a full set of values in that
# order, and the defaults of its trailing fields; CheckReport's passed is
# derived, so it is a field of the output but no argument
RECORDS = [
    (Params, ("p", "q", "mu", "lam", "k"), (2.0, 3.0, 1.0, 0.5, 2.0), {"k": 1.0}),
    (ComparisonConstants, ("eps", "c1", "c2", "c3", "C2", "c4", "c5", "c6"),
     (0.0, 1.0, 2.0, 3.0, 4.0, None, None, None), {}),
    (CheckReport, ("name", "lhs", "rhs", "margin", "passed", "tolerance"),
     ("annulus", 1.5, 1.25, -1e-9, True, 1e-8), {}),
    (ModelManifold, ("warp", "omega"), (WARP, 3.0), {"omega": 2.0 * math.pi}),
    (SharpExample, ("p", "q", "mu", "a", "c", "lam", "s0", "t0", "expected_rate", "manifold",
                    "profile", "potential", "params"), tuple(EX), {}),
    (GrowthSample, ("R", "logG", "quad_error"), (10.0, 3.5, 1e-13), {}),
    (RateEstimate, ("rate", "bias", "regime", "window", "n_samples"),
     (2.0, 1e-9, "power", (100.0, 1e4), 7), {}),
    (Report, ("command", "config", "provenance", "constants", "example", "samples", "rate",
              "checks", "classification", "passed"),
     ("rate", {"p": 2.0}, ["growthlab.growth:estimate_rate"], None, {"p": 2.0},
      [GrowthSample(10.0, 3.5, 1e-13)], {"rate": 2.0}, [], None, True),
     {"command": "", "config": {}, "provenance": [], "constants": None, "example": None,
      "samples": [], "rate": None, "checks": [], "classification": None, "passed": None}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def arguments(cls, names, values):
    """The constructor's arguments: every field but CheckReport's passed."""
    return {n: v for n, v in zip(names, values) if not (cls is CheckReport and n == "passed")}


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, names, values, defaults):
    kwargs = arguments(cls, names, values)
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert list(by_keyword._asdict().items()) == list(zip(names, values))
    assert by_position == by_keyword
    # the trailing defaults, by position and by keyword alike
    required = {n: v for n, v in kwargs.items() if n not in defaults}
    for record in (cls(**required), cls(*required.values())):
        assert {n: record._asdict()[n] for n in defaults} == defaults


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS, ids=IDS)
def test_equality_hash_and_repr(cls, names, values, defaults):
    kwargs = arguments(cls, names, values)
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert a != cls(**{**kwargs, list(kwargs)[-1]: 7.5})
    assert a != object()
    assert copy.copy(a) == a
    if cls is Report:
        # mutable, so unhashable, as a dataclass with eq and no frozen
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)) + ")"


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS, ids=IDS)
def test_assignment(cls, names, values, defaults):
    record = cls(**arguments(cls, names, values))
    with pytest.raises(AttributeError):
        record.no_such_field = 1.0
    if cls is Report:
        # a handler fills in its results, and main the command
        record.command = "sharp"
        assert record.command == "sharp"
        return
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert record._asdict() == dict(zip(names, values))


def test_report_defaults_are_fresh():
    a, b = Report(), Report()
    a.checks.append(1)
    a.config["p"] = 2.0
    assert b.checks == [] and b.config == {}


@pytest.mark.parametrize("call, error, message", [
    (lambda: Params(1.0, 0.0, 9.0, -1.0), DomainError, "p must exceed 1, got 1.0"),
    (lambda: Params(2.0, 1.0, 9.0, -1.0), DomainError, "q must exceed p - 1 = 1.0, got 1.0"),
    (lambda: Params(2.0, 3.0, 9.0, -1.0), DomainError, "mu must lie in [0, p] = [0, 2.0], got 9.0"),
    (lambda: Params(2.0, 3.0, 1.0, -1.0, 0.0), DomainError,
     "lam must be finite and positive, got -1.0"),
    (lambda: Params(2.0, 3.0, 1.0, 1.0, math.inf), DomainError,
     "k must be finite and positive, got inf"),
    # _replace builds through the constructor, so it checks too
    (lambda: Params(2.0, 3.0, 1.0, 1.0)._replace(mu=3.0), DomainError,
     "mu must lie in [0, p] = [0, 2.0], got 3.0"),
    (lambda: ModelManifold(WARP, 0.0), DomainError, "omega must be finite and positive, got 0.0"),
    (lambda: ModelManifold(WARP)._replace(omega=math.nan), DomainError,
     "omega must be finite and positive, got nan"),
    # passed is derived: it is not an argument, and _replace cannot set it
    (lambda: CheckReport("c", 1.0, 0.0, 1.0, True, 0.0), TypeError, None),
    (lambda: CheckReport("c", 1.0, 0.0, 1.0, 0.0)._replace(passed=False), ValueError,
     "Got unexpected field names: ['passed']"),
    (lambda: GrowthSample(1.0, 2.0), TypeError, None),
], ids=["params-p", "params-q", "params-mu", "params-lam", "params-k", "params-replace",
        "manifold-omega", "manifold-replace", "check-passed-argument", "check-passed-replace",
        "sample-missing-field"])
def test_validation_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    if message is not None:
        assert str(info.value) == message


def test_check_report_passed_follows_the_margin():
    r = CheckReport("c", 1.0, 0.0, 1.0, 1e-8)
    assert r.passed is True
    assert r._replace(margin=-math.inf).passed is False
    assert r._replace(margin=-1e-8).passed is True
    assert r._replace(margin=math.nan).passed is False
    assert list(r._asdict()) == ["name", "lhs", "rhs", "margin", "passed", "tolerance"]


def readme_blocks() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = readme_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the rates and C0, one line per check, then log_quad's line
    assert [float(x) for x in out[0].split()] == pytest.approx([2.0, 2.0], rel=1e-15)
    assert float(out[1]) == pytest.approx(2.0, rel=1e-8)  # "to eight digits"
    assert [line.split()[-1] for line in out[2:11]] == ["True"] * 9
    assert float(out[11].split()[0]) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
