"""The feature extractors raise no array to a power above 2.

numpy computes ``x**3`` or ``x**4`` through ``pow`` lane by lane, and for a
negative base that costs ~130 ns per lane against ~3.5 ns for a positive
one (a multiply costs well under 1 ns): on skew and kurtosis it once took
most of an MVTS extraction. ``x**2`` is a multiply in numpy, and a fractional
power of a positive per-column vector is cheap, so those stay allowed.
This test walks the extractor sources and rejects the slow forms.
"""

import ast
from pathlib import Path

import pytest

import repro.features

SOURCES = sorted(Path(repro.features.__file__).parent.glob("*.py"))
SLOW_CALLS = {"power", "float_power"}

ADVICE = (
    "numpy's pow costs ~130 ns per negative lane, ~40x a positive one: "
    "write x**3 as (x*x)*x and x**4 as (x*x)*(x*x), in place"
)


def _slow_powers(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exp = node.right if isinstance(node, ast.BinOp) else node.value
            if (
                isinstance(exp, ast.Constant)
                and type(exp.value) is int
                and exp.value >= 3
            ):
                found.append((node.lineno, f"** {exp.value}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SLOW_CALLS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"np.{node.func.attr}"))
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"mvts.py", "tsfresh_lite.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_pow_above_square(path):
    found = _slow_powers(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: " + ", ".join(
        f"line {line}: {what}" for line, what in found
    ) + f" ({ADVICE})"


@pytest.mark.parametrize("snippet", [
    "y = z**3", "y = np.mean(z ** 4, axis=0)", "z **= 3",
    "y = np.power(z, 3)", "y = numpy.float_power(z, 2.5)",
])
def test_detects_slow_forms(snippet):
    assert _slow_powers(ast.parse(snippet))


@pytest.mark.parametrize("snippet", [
    "y = z**2", "y = m2**1.5", "y = (z * z) * z", "y = 2**k", "y = z**True",
])
def test_allows_fast_forms(snippet):
    assert not _slow_powers(ast.parse(snippet))
