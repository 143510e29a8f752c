"""The cross-system test harness of §8.1.

A trial creates a single-column table through its plan's *writer*
interface, inserts the input, reads it back through the *reader*
interface, and records the outcome, on a :class:`Deployment` — one
shared metastore + filesystem, one Spark session, one Hive server. The
executor leases deployments from a pool and resets each one between
leases, so every trial starts on a pristine deployment whose plan
caches stay warm. :func:`run_trial_on` runs one isolated trial;
:func:`run_lane_on` runs a lane of same-type inputs for the plans that
share one writer: one create and one write pass, then one scan per
reader. Oracles and classification operate on the recorded trials
afterwards; nothing in the harness knows about the 15 expected
discrepancies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.result import QueryResult
from repro.common.schema import Field, Schema
from repro.crosstest.plans import ALL_PLANS, FORMATS, Interface, Plan
from repro.crosstest.values import TestInput, generate_inputs
from repro.hivelite.engine import HiveServer
from repro.hivelite.metastore import HiveMetastore
from repro.sparklite.conf import SparkConf
from repro.sparklite.session import SparkSession
from repro.storage.filesystem import FileSystem
from repro.storage.namenode import NameNode
from repro.tracing.core import span as trace_span

__all__ = [
    "Outcome",
    "Trial",
    "Deployment",
    "CrossTester",
    "NO_ROWS",
    "TRIAL_TABLE",
    "run_trial_on",
    "run_lane_on",
]

#: The table name every trial creates, writes, and reads.
TRIAL_TABLE = "ct"


class _NoRows:
    """Sentinel for "the read returned zero rows" (distinct from NULL).

    A real singleton (not a bare ``object()``) so that identity survives
    pickling — trials cross process boundaries in the parallel executor
    and ``outcome.value is NO_ROWS`` must keep working on the far side.
    """

    _instance: "_NoRows | None" = None

    def __new__(cls) -> "_NoRows":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NO_ROWS"

    def __reduce__(self):
        return (_NoRows, ())


NO_ROWS = _NoRows()


@dataclass(frozen=True)
class Outcome:
    """What one trial observed."""

    status: str  # "ok" or "error"
    stage: str = ""  # create | write | read (set when status == "error")
    error_type: str = ""
    error_message: str = ""
    value: object = None
    value_type: str = ""
    column_name: str = ""
    row_count: int = 0
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class Trial:
    plan: Plan
    fmt: str
    test_input: TestInput
    outcome: Outcome


@dataclass
class Deployment:
    """One co-deployment of Spark and Hive over shared state."""

    conf_overrides: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        metastore = HiveMetastore()
        filesystem = FileSystem(NameNode())
        conf = SparkConf()
        for key, value in self.conf_overrides.items():
            conf.set(key, value, source="deployment")
        self.metastore = metastore
        self.filesystem = filesystem
        self.spark = SparkSession(metastore, filesystem, conf)
        self.hive = HiveServer(
            metastore, filesystem, plan_cache_enabled=conf.plan_cache_enabled
        )

    def reset(self, table: str = TRIAL_TABLE) -> None:
        """Return the deployment to its pre-trial state.

        Drops the trial table from the shared metastore and deletes its
        data directory, so the deployment can be leased to the next
        trial exactly as a fresh one would behave (the session conf is
        never mutated by trials — the SQL subset has no SET statement).
        """
        self.metastore.drop_table(table, if_exists=True)
        location = self.metastore.table_location("default", table)
        if self.filesystem.exists(location):
            self.filesystem.delete(location, recursive=True)

    # -- per-interface operations -------------------------------------

    def create_table(
        self, interface: str, table: str, test_input: TestInput, fmt: str
    ) -> None:
        ddl = f"CREATE TABLE {table} (c {test_input.type_text}) STORED AS {fmt}"
        if interface == Interface.SPARKSQL:
            self.spark.sql(ddl)
        elif interface == Interface.HIVEQL:
            self.hive.execute(ddl)
        elif interface == Interface.DATAFRAME:
            # the DataFrame path creates the table while saving; nothing
            # to do here (datasource table semantics).
            pass
        else:
            raise ValueError(f"unknown interface {interface!r}")

    def write(
        self, interface: str, table: str, test_input: TestInput, fmt: str
    ) -> None:
        if interface == Interface.DATAFRAME:
            schema = Schema(
                (Field("c", test_input.column_type),), case_sensitive=True
            )
            frame = self.spark.create_dataframe(
                [(test_input.py_value,)], schema
            )
            frame.write.format(fmt).save_as_table(table)
            return
        dml = f"INSERT INTO {table} VALUES ({test_input.sql_literal})"
        if interface == Interface.SPARKSQL:
            self.spark.sql(dml)
        elif interface == Interface.HIVEQL:
            self.hive.execute(dml)
        else:
            raise ValueError(f"unknown interface {interface!r}")

    def write_rows(
        self,
        interface: str,
        table: str,
        batch: tuple[TestInput, ...],
        fmt: str,
    ) -> None:
        """Write several same-type inputs through one statement.

        The batched counterpart of :meth:`write`: one multi-row
        ``INSERT INTO .. VALUES (a), (b), ..`` for the SQL interfaces,
        one multi-row frame for the DataFrame interface. Row order is
        preserved — lane demultiplexing depends on it.
        """
        if interface == Interface.DATAFRAME:
            schema = Schema(
                (Field("c", batch[0].column_type),), case_sensitive=True
            )
            frame = self.spark.create_dataframe(
                [(test_input.py_value,) for test_input in batch], schema
            )
            frame.write.format(fmt).save_as_table(table)
            return
        values = ", ".join(
            f"({test_input.sql_literal})" for test_input in batch
        )
        dml = f"INSERT INTO {table} VALUES {values}"
        if interface == Interface.SPARKSQL:
            self.spark.sql(dml)
        elif interface == Interface.HIVEQL:
            self.hive.execute(dml)
        else:
            raise ValueError(f"unknown interface {interface!r}")

    def read(self, interface: str, table: str) -> QueryResult:
        if interface == Interface.SPARKSQL:
            return self.spark.sql(f"SELECT * FROM {table}")
        if interface == Interface.DATAFRAME:
            return self.spark.read_table(table, interface="dataframe")
        if interface == Interface.HIVEQL:
            return self.hive.execute(f"SELECT * FROM {table}")
        raise ValueError(f"unknown interface {interface!r}")


class CrossTester:
    """Drive the full (plans × formats × inputs) matrix."""

    def __init__(
        self,
        inputs: list[TestInput] | None = None,
        plans: tuple[Plan, ...] = ALL_PLANS,
        formats: tuple[str, ...] = FORMATS,
        conf_overrides: dict[str, object] | None = None,
    ) -> None:
        from repro.formats import validate_formats

        self.inputs = inputs if inputs is not None else generate_inputs()
        self.plans = plans
        self.formats = validate_formats(formats)
        self.conf_overrides = dict(conf_overrides or {})

    def run(
        self,
        jobs: int = 1,
        pool: str = "auto",
        metrics=None,
        progress=None,
        trace_sink=None,
        fault_plan=None,
        fault_seed: int = 0,
        batch: bool = True,
        pool_handle=None,
        analyze=None,
        analysis_sink=None,
    ) -> list[Trial]:
        """Run the full matrix.

        ``jobs=1`` (the default) preserves the original fully sequential
        semantics; ``jobs>1`` or ``jobs=None`` (auto-size) runs the
        matrix's shards, one lane group of inputs under every plan ×
        format each, on a worker pool — see
        :mod:`repro.crosstest.executor`. Trial ordering is identical
        either way. ``trace_sink`` (a dict) switches per-trial boundary
        tracing on; it fills with ``{trial index: finished spans}``.
        ``fault_plan``/``fault_seed`` switch deterministic fault
        injection on. ``batch`` lets same-type trials share a lane per
        writer group (one create and write, one scan per reader), while
        traced or fault-injected trials always run isolated.
        ``pool_handle`` runs the shards on a caller's persistent pool.
        ``analyze`` runs in the worker once per input on that input's
        trials and fired injections (the only way injections reach the
        caller), filling ``analysis_sink`` with ``{input position:
        result}`` — see :func:`repro.crosstest.executor.run_shard`.
        """
        from repro.crosstest.executor import execute

        return execute(
            self.plans,
            self.formats,
            self.inputs,
            self.conf_overrides,
            jobs=jobs,
            pool=pool,
            metrics=metrics,
            progress=progress,
            trace_sink=trace_sink,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
            batch=batch,
            pool_handle=pool_handle,
            analyze=analyze,
            analysis_sink=analysis_sink,
        )

    def run_trial(self, plan: Plan, fmt: str, test_input: TestInput) -> Trial:
        """Run one trial against this tester's pooled deployments.

        The trial is an isolated trial through
        :func:`repro.crosstest.executor.run_trials`: its deployment is
        leased from the executor's worker-global pool (and reset on
        release) instead of being built and thrown away — so ad-hoc
        single trials share warm plan caches with full runs.
        """
        from repro.crosstest.executor import run_trials

        (outcome,) = run_trials(
            [(plan, fmt, test_input)], self.conf_overrides
        )
        return Trial(plan, fmt, test_input, outcome)


def run_trial_on(
    deployment: Deployment,
    plan: Plan,
    fmt: str,
    test_input: TestInput,
    stage_times: list[tuple[str, float]] | None = None,
) -> Trial:
    """Drive one trial against an already-provisioned deployment.

    With a tracer active, the trial becomes a span tree: one root span,
    one child per stage, and whatever boundary spans the engines emit
    underneath (metastore registrations, SerDe encode/decode, warehouse
    reads/writes). With tracing off (the default) the ``with`` blocks
    are shared no-ops.

    ``stage_times`` (when given) collects ``(stage, seconds)`` samples
    for the per-stage latency histograms; a stage that raised still
    records the time spent failing.
    """
    table = TRIAL_TABLE
    clock = time.perf_counter
    with trace_span(
        "crosstest.trial", system="crosstest", operation="trial"
    ) as root:
        if root is not None:
            root.attributes.update(
                plan=plan.name,
                writer=plan.writer,
                reader=plan.reader,
                fmt=fmt,
                input_id=test_input.input_id,
                type=test_input.type_text,
            )
        started = clock() if stage_times is not None else 0.0
        try:
            with trace_span(
                "crosstest.create", system="crosstest", operation="create"
            ):
                deployment.create_table(plan.writer, table, test_input, fmt)
        except Exception as exc:  # noqa: BLE001 - any failure is data
            return Trial(plan, fmt, test_input, _error("create", exc))
        finally:
            if stage_times is not None:
                stage_times.append(("create", clock() - started))
        started = clock() if stage_times is not None else 0.0
        try:
            with trace_span(
                "crosstest.write", system="crosstest", operation="write"
            ):
                deployment.write(plan.writer, table, test_input, fmt)
        except Exception as exc:  # noqa: BLE001
            return Trial(plan, fmt, test_input, _error("write", exc))
        finally:
            if stage_times is not None:
                stage_times.append(("write", clock() - started))
        started = clock() if stage_times is not None else 0.0
        try:
            with trace_span(
                "crosstest.read", system="crosstest", operation="read"
            ):
                result = deployment.read(plan.reader, table)
        except Exception as exc:  # noqa: BLE001
            return Trial(plan, fmt, test_input, _error("read", exc))
        finally:
            if stage_times is not None:
                stage_times.append(("read", clock() - started))
        return Trial(plan, fmt, test_input, _ok(result))


def run_lane_on(
    deployment: Deployment,
    plans: tuple[Plan, ...],
    fmt: str,
    inputs: tuple[TestInput, ...],
    multirow: bool = True,
    stage_times: list[tuple[str, float]] | None = None,
) -> list[list[Outcome] | str] | str:
    """Run a lane of same-type inputs for plans that share one writer.

    The batched counterpart of :func:`run_trial_on`: one ``CREATE
    TABLE`` and one write pass through the shared writer (every input
    shares a ``type_text``, and neither the DDL nor the writes depend
    on the reader), then one ``SELECT *`` scan per plan's reader, each
    demultiplexed back into per-input :class:`Outcome`s by insertion
    order — the warehouse assigns part files in write order and the
    scan reads them sorted, so the k-th surviving row is the k-th
    successful write.

    Returns ``"write"`` when a *multi-row* statement raised: which row
    poisoned it is unknowable from here, but single-row statements
    attribute exactly, so the caller retries the whole group with
    ``multirow=False``. Otherwise returns one entry per plan: its
    outcomes, or the *stage name* of an ambiguity that only the
    isolated path can settle, for that plan alone:

    - ``"read"`` — its scan raised; an isolated read might succeed for
      some inputs and fail for others (e.g. one poison row breaking the
      scan), and no smaller shared table can settle that,
    - ``"count"`` — its scan returned a row count that matches neither
      zero nor the number of successful writes (some rows silently
      dropped); which writes lost their row is likewise only observable
      in isolation,
    - ``"catalog"`` — an earlier reader's scan moved the metastore's
      ``catalog_version``, so this plan would scan a table that a read
      changed rather than the pristine one its isolated trial sees. The
      reader that moved it scanned a pristine table, so its own entry
      stands.

    Resolvable observations are handled in-lane: a ``create`` failure
    is deterministic (same DDL, pristine deployment) and reaches every
    plan and input; a *single-row* write failure is that input's write
    error under every plan; an empty scan over successful writes is the
    row-dropping behaviour the isolated path records as ``NO_ROWS``. A
    one-input lane attributes a read error and any row count directly,
    exactly as :func:`run_trial_on` does: one row is never ambiguous.

    ``multirow=True`` additionally merges every corpus-``valid`` input
    in the lane into one leading multi-row statement (see
    :func:`_write_batches` for why statement order is free); the flag
    is a grouping heuristic only — correctness never depends on it,
    since any multi-row failure falls back to single-row writes.
    """
    table = TRIAL_TABLE
    clock = time.perf_counter
    writer = plans[0].writer
    total = len(inputs)

    started = clock()
    try:
        deployment.create_table(writer, table, inputs[0], fmt)
    except Exception as exc:  # noqa: BLE001 - any failure is data
        if stage_times is not None:
            stage_times.append(("create", clock() - started))
        failed = _error("create", exc)
        return [[failed] * total for _ in plans]
    if stage_times is not None:
        stage_times.append(("create", clock() - started))

    outcomes: list[Outcome | None] = [None] * total
    ok_positions: list[int] = []
    started = clock()
    optimistic = writer != Interface.SPARKSQL
    for positions in _write_batches(inputs, multirow, optimistic):
        batch = tuple(inputs[position] for position in positions)
        try:
            if len(batch) == 1:
                deployment.write(writer, table, batch[0], fmt)
            else:
                deployment.write_rows(writer, table, batch, fmt)
        except Exception as exc:  # noqa: BLE001
            if len(batch) > 1:
                if stage_times is not None:
                    stage_times.append(("write", clock() - started))
                return "write"
            outcomes[positions[0]] = _error("write", exc)
        else:
            ok_positions.extend(positions)
    if stage_times is not None:
        stage_times.append(("write", clock() - started))

    if not ok_positions:
        return [list(outcomes) for _ in plans]  # type: ignore[misc]
    results: list[list[Outcome] | str] = []
    catalog = deployment.metastore.catalog_version
    for plan in plans:
        if deployment.metastore.catalog_version != catalog:
            results.append("catalog")
            continue
        started = clock()
        try:
            result = deployment.read(plan.reader, table)
        except Exception as exc:  # noqa: BLE001
            results.append([_error("read", exc)] if total == 1 else "read")
            continue
        finally:
            if stage_times is not None:
                stage_times.append(("read", clock() - started))
        if total == 1:
            results.append([_ok(result)])
        else:
            results.append(_demux(result, outcomes, ok_positions))
    return results


def _demux(
    result: QueryResult,
    outcomes: list[Outcome | None],
    ok_positions: list[int],
) -> list[Outcome] | str:
    """One shared scan back into per-input outcomes, or ``"count"``.

    ``outcomes`` holds the write errors; the k-th row of the scan is
    the k-th successful write, at ``ok_positions[k]``.
    """
    rows = result.rows
    if rows and len(rows) != len(ok_positions):
        return "count"
    demuxed = list(outcomes)
    if not rows:
        empty = _ok(result)
        for position in ok_positions:
            demuxed[position] = empty
        return demuxed  # type: ignore[return-value]
    value_type, name = _column(result)
    for row, position in zip(rows, ok_positions):
        demuxed[position] = Outcome(
            status="ok",
            value=row[0],
            value_type=value_type,
            column_name=name,
            row_count=1,
            warnings=result.warnings,
        )
    return demuxed  # type: ignore[return-value]


def _write_batches(
    inputs: tuple[TestInput, ...], multirow: bool, optimistic: bool
) -> list[list[int]]:
    """Group lane positions into write statements.

    ``optimistic`` lanes (DataFrame and HiveQL writers, which coerce
    rather than reject bad values — across the whole corpus they raise
    on a handful of writes where strict-ANSI SparkSQL raises on
    thousands) put *every* input into one multi-row write. SparkSQL
    lanes put only the corpus-``valid`` inputs into the multi-row write
    (first, preserving their relative order); each predicted-to-fail
    input gets a single-row write so write errors keep exact per-input
    attribution. Statement *order* is free to differ from position
    order: demux follows the execution order of successful writes (the
    warehouse reads part files back in write order), and writes are
    row-independent — a failing single writes nothing and observes
    nothing the multi-row statement changed.

    Both groupings are predictions of which writes succeed, never
    correctness assumptions: any multi-row statement that fails falls
    back to single rows (the ``"write"`` rung of the ladder), and an
    "invalid" single that succeeds simply joins the demux in its write
    order.
    """
    total = len(inputs)
    if not multirow or total == 1:
        return [[position] for position in range(total)]
    if optimistic:
        return [list(range(total))]
    valid = [
        position
        for position, test_input in enumerate(inputs)
        if test_input.valid
    ]
    if len(valid) < 2:
        return [[position] for position in range(total)]
    batches = [valid]
    batches.extend(
        [position]
        for position, test_input in enumerate(inputs)
        if not test_input.valid
    )
    return batches


def _error(stage: str, exc: Exception) -> Outcome:
    return Outcome(
        status="error",
        stage=stage,
        error_type=type(exc).__name__,
        error_message=str(exc),
    )


def _column(result: QueryResult) -> tuple[str, str]:
    """The scanned column's type text and name (empty without one)."""
    if len(result.schema) > 0:
        column = result.schema.fields[0]
        return column.data_type.simple_string(), column.name
    return "", ""


def _ok(result: QueryResult) -> Outcome:
    value_type, name = _column(result)
    value = result.rows[0][0] if result.rows else NO_ROWS
    return Outcome(
        status="ok",
        value=value,
        value_type=value_type,
        column_name=name,
        row_count=len(result.rows),
        warnings=result.warnings,
    )
