"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.calculus.builders import PARENT_SCHEMA, PERSON_SCHEMA
from repro.calculus.evaluation import EvaluationSettings
from repro.objects.instance import DatabaseInstance


@pytest.fixture
def parent_db() -> DatabaseInstance:
    """The Example 2.4 style parent relation: tom -> mary -> sue."""
    return DatabaseInstance.build(
        PARENT_SCHEMA, PAR=[("tom", "mary"), ("mary", "sue")]
    )


@pytest.fixture
def chain_db() -> DatabaseInstance:
    """A three-atom chain a -> b -> c (kept small: the calculus evaluator is
    hyper-exponential in the active-domain size)."""
    return DatabaseInstance.build(PARENT_SCHEMA, PAR=[("a", "b"), ("b", "c")])


@pytest.fixture
def person_db_even() -> DatabaseInstance:
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=["p1", "p2", "p3", "p4"])


@pytest.fixture
def person_db_odd() -> DatabaseInstance:
    return DatabaseInstance.build(PERSON_SCHEMA, PERSON=["p1", "p2", "p3"])


@pytest.fixture
def unbounded_settings() -> EvaluationSettings:
    """Evaluation settings without a binding budget (tests use tiny inputs)."""
    return EvaluationSettings(binding_budget=None)
