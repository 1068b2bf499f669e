import importlib.util
import pathlib
import random

import pytest

from magpi import parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
BENCH = FIXTURES.parent / "bench"


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.magpi").read_text(encoding="utf-8")


def fixture_file(name: str) -> str:
    return str(FIXTURES / f"{name}.magpi")


def bench_gen():
    """bench/gen.py, the benchmark's seeded input generators."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def mesh_sources(seed: int = 7) -> list:
    """(name, text) of the three 2-fold ping meshes the verify benchmark
    draws from `seed` (`bench/gen.mesh_source`): one attempt, two attempts,
    and one attempt with a looping q_0."""
    gen = bench_gen()
    return [(f"mesh m={m} loop={loop}", gen.mesh_source(random.Random(seed), 2, m, loop))
            for m, loop in ((1, False), (2, False), (1, True))]


@pytest.fixture(scope="session")
def ping():
    return parse(fixture_text("ping"))


@pytest.fixture(scope="session")
def dns():
    return parse(fixture_text("dns"))


@pytest.fixture(scope="session")
def leader():
    return parse(fixture_text("leader"))
