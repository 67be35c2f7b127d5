"""The ablation switch table (:data:`repro.objects.stats.FAMILY_REGISTRY`).

Every row must resolve to a working public setter and context manager,
the counter families (``runtime_stats()`` keys and the ``METRICS``
counter names) must stay exactly as published, and each environment
variable must start its switch in the stated state in a fresh process —
the guarantee the CI ablation cells rely on.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from repro.objects import runtime_stats
from repro.objects.stats import FAMILY_REGISTRY
from repro.observability.metrics import METRICS

SRC = Path(__file__).resolve().parent.parent / "src"

#: The published counter families, in order.
EXPECTED_COUNTERS = {
    "interning": "set_hits set_misses set_frozenset_allocations",
    "columnar": "kernel_union kernel_intersection kernel_difference kernel_membership "
    "kernel_mask_eq kernel_mask_combine kernel_subtract kernel_apply_delta "
    "engine_set_ops columns_built",
    "vectorized": "conditions_compiled conditions_rejected batches rows_in rows_out "
    "membership_evaluations conjunctions_ordered conjunct_rows_skipped",
    "codegen": "fragments_compiled fragments_fused cache_hits rows_emitted fallbacks "
    "predicates_compiled predicate_cache_hits",
    "joinorder": "plans_considered subgraphs_considered subgraphs_reordered "
    "orders_unchanged skipped_no_stats dp_searches greedy_searches multiway_joins "
    "relations_profiled overlap_probes stale_plan_recompiles",
    "views": "delta_batches delta_node_applications recompute_node_applications "
    "full_recomputes rows_delta_in rows_delta_out datalog_resumes datalog_recomputes "
    "views_quarantined degraded_reads view_repairs epoch_pins epoch_releases "
    "epochs_frozen epochs_collected epoch_reads_frozen mvcc_bypassed_reads",
    "reliability": "faults_injected crashes_simulated wal_records_written "
    "wal_bytes_written wal_fsyncs wal_records_replayed wal_torn_tails_truncated "
    "wal_appends_skipped checkpoints_written corrupt_checkpoints_skipped recoveries "
    "batches_aborted maintainer_rollbacks",
    "observability": "spans_started spans_finished spans_dropped traces_recorded "
    "traces_evicted traces_exported queries_logged slow_queries_logged "
    "query_log_evictions metrics_expositions",
}

#: Each environment variable's public getter, and the state it starts in.
ENVIRONMENT = {
    "REPRO_DISABLE_CODEGEN": ("repro.engine.codegen", "codegen_enabled", False),
    "REPRO_DISABLE_JOIN_ORDERING": ("repro.engine.joinorder", "joinorder_enabled", False),
    "REPRO_DISABLE_MVCC": ("repro.views.database", "mvcc_enabled", False),
    "REPRO_TRACE": ("repro.observability.trace", "tracing_enabled", True),
}


@pytest.mark.parametrize("family", sorted(FAMILY_REGISTRY))
def test_every_row_has_a_setter_context_manager_default_and_counters(family):
    switch = FAMILY_REGISTRY[family]
    module = import_module(switch.module)
    setter = getattr(module, switch.setter)
    context = getattr(module, switch.context)
    assert isinstance(switch.default, bool)
    assert switch.stats and switch.restores
    assert list(inspect.signature(setter).parameters) == ["enabled"]
    assert inspect.signature(context).parameters["enabled"].default is True
    assert setter.__doc__ and context.__doc__

    original = switch.enabled
    try:
        assert setter(False) is original
        assert setter(True) is False and switch.enabled is True
        with context(False):
            assert switch.enabled is False
            with context(True):
                assert switch.enabled is True
            assert switch.enabled is False
        assert switch.enabled is True
    finally:
        setter(original)


def test_every_environment_variable_belongs_to_a_row():
    declared = {switch.env for switch in FAMILY_REGISTRY.values() if switch.env}
    assert declared == set(ENVIRONMENT)


def test_runtime_stats_keys_and_counter_names_are_unchanged():
    expected = {family: names.split() for family, names in EXPECTED_COUNTERS.items()}
    assert {family: list(c) for family, c in runtime_stats().items()} == expected
    exported = {
        line.split()[2]
        for line in METRICS.render_exposition().splitlines()
        if line.startswith("# TYPE ") and line.endswith(" counter")
    }
    assert exported == {
        f"repro_{family}_{counter}_total"
        for family, counters in expected.items()
        for counter in counters
    }


def _switch_states(environment: dict[str, str]) -> dict[str, bool]:
    """Every environment-driven getter, read in a fresh interpreter."""
    env = {key: value for key, value in os.environ.items() if key not in ENVIRONMENT}
    env.update(environment, PYTHONPATH=str(SRC))
    script = "; ".join(
        f"from {module} import {getter}; print({getter}())"
        for module, getter, _state in ENVIRONMENT.values()
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return dict(zip(ENVIRONMENT, (line == "True" for line in completed.stdout.split())))


@pytest.mark.parametrize("variable", [None, *ENVIRONMENT])
def test_environment_variable_starts_its_switch_in_a_fresh_process(variable):
    defaults = {
        name: not flipped for name, (_module, _getter, flipped) in ENVIRONMENT.items()
    }
    expected = dict(defaults)
    if variable is not None:
        expected[variable] = ENVIRONMENT[variable][2]
    assert _switch_states({variable: "1"} if variable else {}) == expected
    if variable is not None:
        # Only a non-empty value flips the switch.
        assert _switch_states({variable: ""}) == defaults
