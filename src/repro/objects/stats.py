"""The ablation switch table, and one call for every engagement counter.

Every performance mechanism is a process-wide **switch family**: a flag
that restores the historical behaviour when off, plus work counters that
prove the mechanism engaged.  :data:`FAMILY_REGISTRY` below declares all
eight families — name, owning module, public setter and context-manager
names, default, environment variable, counter names and what turning the
switch off restores — and is the **only** place a family is enumerated.
Each row is one :class:`Switch`; the family modules bind their row once
(``_CODEGEN = FAMILY_REGISTRY["codegen"]``) and their public names
(``set_codegen``/``codegen(...)``/``codegen_enabled()``/
``codegen_stats()``, and so on) delegate to it.  :func:`runtime_stats`,
:func:`reset_runtime_stats` and the ``METRICS`` exposition in
:mod:`repro.observability.metrics` iterate the same table, so a new
family is one row here.

**Environment.**  A row's environment variable, when set to a non-empty
value at import, starts its switch in the non-default state
(``REPRO_DISABLE_CODEGEN=1`` starts codegen off, ``REPRO_TRACE=1`` starts
tracing on), so a served process can be ablated from its environment.

See the "Ablation switches" table in ``docs/ablation.md`` for the
switch-by-switch comparison; ``tools/check_docs.py`` checks it against
this table.

**Concurrency note.**  The counters are plain ints bumped with ``+=``
without locks — deliberately.  Under CPython's GIL a lost increment
between threads is possible but harmless: every counter is *diagnostic*
(tests diff them within one thread; serving exposes them as
approximations), and no control flow ever branches on one.  The shared
state that *does* carry correctness — the columnar value dictionaries
(:class:`repro.objects.columnar.ValueDictionary`), the codegen caches
(:mod:`repro.engine.codegen`), the database's epoch table
(:class:`repro.views.database.Database`) — is individually locked at its
write sites; the intern tables and the WAL fragment cache are lock-free
caches whose races are benign (documented at their definitions).
"""

from __future__ import annotations

import os
from contextlib import contextmanager


class Switch:
    """One switch family: its flag, its counters and its declaration.

    Hot paths read :attr:`enabled` and bump :attr:`stats` entries
    directly, so a guard costs one attribute read.
    """

    __slots__ = (
        "family", "module", "setter", "context", "default", "env", "restores",
        "enabled", "stats",
    )

    def __init__(
        self,
        family: str,
        module: str,
        setter: str,
        context: str,
        *,
        default: bool = True,
        env: str | None = None,
        counters: str,
        restores: str,
    ) -> None:
        self.family = family
        self.module = module
        self.setter = setter
        self.context = context
        self.default = default
        self.env = env
        self.restores = restores
        flipped = bool(env and os.environ.get(env))
        self.enabled = not default if flipped else default
        self.stats = dict.fromkeys(counters.split(), 0)

    def set(self, enabled: bool) -> bool:
        """Set the switch; returns the previous setting."""
        previous = self.enabled
        self.enabled = bool(enabled)
        return previous

    @contextmanager
    def scoped(self, enabled: bool = True):
        """Re-entrant scoped flip: the previous setting returns on exit."""
        previous = self.set(enabled)
        try:
            yield
        finally:
            self.set(previous)

    def count(self, counter: str, amount: int = 1) -> None:
        self.stats[counter] += amount

    def snapshot(self) -> dict[str, int]:
        return dict(self.stats)

    def reset(self) -> None:
        for counter in self.stats:
            self.stats[counter] = 0


_ROWS = (
    Switch(
        "interning", "repro.objects.values", "set_interning", "interning",
        counters="set_hits set_misses set_frozenset_allocations",
        restores="allocate-and-recompute values: no canonical instances, "
        "no cached hashes/sort keys",
    ),
    Switch(
        "columnar", "repro.objects.columnar", "set_columnar", "columnar_storage",
        counters="kernel_union kernel_intersection kernel_difference "
        "kernel_membership kernel_mask_eq kernel_mask_combine kernel_subtract "
        "kernel_apply_delta engine_set_ops columns_built",
        restores="frozenset bulk set ops, per-value join keys, tree-shaped io",
    ),
    Switch(
        "vectorized", "repro.algebra.vectorized", "set_vectorized_filters",
        "vectorized_filters",
        counters="conditions_compiled conditions_rejected batches rows_in "
        "rows_out membership_evaluations conjunctions_ordered "
        "conjunct_rows_skipped",
        restores="per-tuple condition_holds scans everywhere",
    ),
    Switch(
        "codegen", "repro.engine.codegen", "set_codegen", "codegen",
        env="REPRO_DISABLE_CODEGEN",
        counters="fragments_compiled fragments_fused cache_hits rows_emitted "
        "fallbacks predicates_compiled predicate_cache_hits",
        restores="the interpreting executor: one generator per operator",
    ),
    Switch(
        "joinorder", "repro.engine.joinorder", "set_join_ordering", "join_ordering",
        env="REPRO_DISABLE_JOIN_ORDERING",
        counters="plans_considered subgraphs_considered subgraphs_reordered "
        "orders_unchanged skipped_no_stats dp_searches greedy_searches "
        "multiway_joins relations_profiled overlap_probes stale_plan_recompiles",
        restores="the syntactic join order: binary hash joins, no "
        "MultiwayHashJoin, no plan-staleness recompiles",
    ),
    # The switch is MVCC; the counters are view maintenance's plus the
    # epoch lifecycle (materialized views themselves are opt-in per
    # database, not a switch).
    Switch(
        "views", "repro.views.database", "set_mvcc", "mvcc",
        env="REPRO_DISABLE_MVCC",
        counters="delta_batches delta_node_applications "
        "recompute_node_applications full_recomputes rows_delta_in "
        "rows_delta_out datalog_resumes datalog_recomputes views_quarantined "
        "degraded_reads view_repairs epoch_pins epoch_releases epochs_frozen "
        "epochs_collected epoch_reads_frozen mvcc_bypassed_reads",
        restores="the bare single-writer facade: pins advisory, every read "
        "sees the latest state",
    ),
    Switch(
        "reliability", "repro.reliability.faults", "set_wal", "durability",
        counters="faults_injected crashes_simulated wal_records_written "
        "wal_bytes_written wal_fsyncs wal_records_replayed "
        "wal_torn_tails_truncated wal_appends_skipped checkpoints_written "
        "corrupt_checkpoints_skipped recoveries batches_aborted "
        "maintainer_rollbacks",
        restores="checkpoint-only durability: commits skip the WAL append",
    ),
    Switch(
        "observability", "repro.observability.trace", "set_tracing", "tracing",
        default=False,
        env="REPRO_TRACE",
        counters="spans_started spans_finished spans_dropped traces_recorded "
        "traces_evicted traces_exported queries_logged slow_queries_logged "
        "query_log_evictions metrics_expositions",
        restores="off is the historical behaviour; on adds spans, histograms "
        "and query-log records",
    ),
)

#: The switch families, keyed by ``runtime_stats()`` family name.
FAMILY_REGISTRY: dict[str, Switch] = {row.family: row for row in _ROWS}


def runtime_stats() -> dict[str, dict[str, int]]:
    """A snapshot of every counter family, keyed by subsystem.

    One key per :data:`FAMILY_REGISTRY` row — currently ``"interning"``,
    ``"columnar"``, ``"vectorized"``, ``"codegen"``, ``"joinorder"``,
    ``"views"``, ``"reliability"`` and ``"observability"``.
    """
    return {family: switch.snapshot() for family, switch in FAMILY_REGISTRY.items()}


def reset_runtime_stats() -> None:
    """Zero every counter of every family (the keys themselves stay)."""
    for switch in FAMILY_REGISTRY.values():
        switch.reset()
