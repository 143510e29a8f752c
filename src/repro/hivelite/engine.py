"""The HiveQL engine.

Executes the shared SQL subset with Hive semantics:

* identifiers resolve case-insensitively;
* inserted values are coerced leniently (NULL on failure,
  :func:`hive_write_cast`);
* ORC files are written with **positional column names** (``_col0`` ...),
  the convention behind SPARK-21686;
* reads validate physical values against the declared schema with
  Hive's strictness (:func:`hive_read_cast`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.result import QueryResult
from repro.common.row import Row
from repro.common.schema import Field, Schema
from repro.common.types import parse_type
from repro.errors import AnalysisException, QueryError, TableNotFoundError
from repro.faults.core import (
    apply_torn_write,
    fault_point,
    injection_active,
)
from repro.formats import serializer_for
from repro.formats.base import Serializer, TableData
from repro.formats.orc import HIVE_POSITIONAL_PROPERTY
from repro.formats.textfile import NULL_MARKER
from repro.hivelite.casts import (
    hive_read_kernel,
    hive_write_cast,
    hive_write_kernel,
)
from repro.hivelite.metastore import DEFAULT_DATABASE, HiveMetastore, Table
from repro.hivelite.types import metastore_schema_for
from repro.hivelite.warehouse import (
    Warehouse,
    parse_partition_dirname,
    partition_dirname,
)
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    CreateTable,
    DropTable,
    Insert,
    Literal,
    Select,
    Star,
)
from repro.sql.literals import DialectOptions, LiteralEvaluator
from repro.sql.parser import parse_statement
from repro.sql.plancache import PlanCache, PreparedFailure
from repro.storage.filesystem import FileSystem
from repro.tracing.core import event as trace_event
from repro.tracing.core import span as trace_span

__all__ = ["HiveServer"]

_POSITIONAL_PREFIX = "_col"


def _hive_cast_fn(value, source, target):
    """CAST(...) in HiveQL: lenient, NULL on failure."""
    del source
    return hive_write_cast(value, target)


@dataclass(frozen=True)
class _PreparedCreate:
    """CREATE TABLE with schemas and format analysis already done."""

    name: str
    schema: Schema
    storage_format: str
    properties: tuple[tuple[str, str], ...]
    if_not_exists: bool
    partition_schema: Schema

    def execute(self, server: "HiveServer") -> QueryResult:
        with trace_span(
            "hive.metastore.create_table",
            system="hive",
            peer_system="hive-metastore",
            operation="create_table",
            boundary="hive->metastore",
        ) as sp:
            if sp is not None:
                sp.attributes.update(
                    table=self.name, fmt=self.storage_format
                )
            # a no-op unless faults are injected, and an injected run
            # never replays a cached plan
            fault_point("hive->metastore", "create_table")
            # replay fast path: after the first (fully validated)
            # creation, re-register the identical frozen Table value
            table = self.__dict__.get("_table")
            if table is not None and table.database == server.database:
                trace_event("create.replayed")
                server.metastore.register_table(
                    table, if_not_exists=self.if_not_exists
                )
                return server._empty_result()
            existed = server.metastore.table_exists(self.name, server.database)
            created = server.metastore.create_table(
                self.name,
                self.schema,
                self.storage_format,
                database=server.database,
                properties=dict(self.properties),
                owner="hive",
                if_not_exists=self.if_not_exists,
                partition_schema=self.partition_schema,
            )
            if not existed:
                object.__setattr__(self, "_table", created)
            return server._empty_result()


@dataclass(frozen=True)
class _PreparedInsert:
    """INSERT with evaluation, coercion and serialization done."""

    table: Table
    blob: bytes
    partition: str | None
    overwrite: bool

    def execute(self, server: "HiveServer") -> QueryResult:
        with trace_span(
            "hive.warehouse.write",
            system="hive",
            peer_system="hdfs",
            operation="write_segment",
            boundary="hive->hdfs",
        ) as sp:
            if sp is not None:
                sp.attributes.update(
                    table=self.table.name,
                    fmt=self.table.storage_format,
                    bytes=len(self.blob),
                    overwrite=self.overwrite,
                )
            blob = self.blob
            action = fault_point(
                "hive->hdfs", "write_segment", ("torn_write",)
            )
            if action is not None and action.kind == "torn_write":
                blob = apply_torn_write(blob, action)
                trace_event("fault.torn_write", bytes_kept=len(blob))
            if self.overwrite:
                server.warehouse.truncate(self.table, self.partition)
            server.warehouse.write_segment(
                self.table, blob, self.partition
            )
        return server._empty_result()


@dataclass(frozen=True)
class _PreparedSelect:
    """SELECT with the catalog lookup done; scans stay per-call."""

    table: Table
    statement: Select

    def execute(self, server: "HiveServer") -> QueryResult:
        return server._execute_select(self.table, self.statement)


@dataclass
class HiveServer:
    """A HiveServer2-like endpoint bound to a metastore and filesystem."""

    metastore: HiveMetastore
    filesystem: FileSystem
    database: str = DEFAULT_DATABASE
    default_format: str = "text"
    _warnings: list[str] = field(default_factory=list)
    plan_cache: PlanCache = field(default_factory=PlanCache)
    plan_cache_enabled: bool = True

    def __post_init__(self) -> None:
        self.warehouse = Warehouse(self.filesystem)
        self._evaluator = LiteralEvaluator(
            DialectOptions(
                name="hive",
                fractional_literal="decimal",
                strict_datetime_literals=True,
                cast_fn=_hive_cast_fn,
            )
        )

    # -- public API -----------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Run one HiveQL statement and return its result."""
        with trace_span(
            "hive.execute", system="hive", operation="execute"
        ) as sp:
            if sp is not None:
                sp.attributes["statement"] = sql[:120]
            self._warnings = []
            statement = parse_statement(sql)
            if isinstance(statement, DropTable):
                # DROP is pure side effect; there is no analysis to reuse.
                return self._drop(statement)
            if not self.plan_cache_enabled or injection_active():
                # see SparkSession.sql: the same prepare -> execute
                # path, minus reuse, so the fault schedule never
                # depends on cache history
                return self._prepare(statement).execute(self)
            fingerprint = (self.database, self.default_format)
            version = self.metastore.catalog_version
            plan = self.plan_cache.lookup(
                sql, fingerprint, version, self._dependency_state
            )
            if plan is None:
                trace_event(
                    "plan_cache.miss", conf_fingerprint=str(fingerprint)
                )
                deps = self._deps(statement)
                plan = self._prepare(statement)
                self.plan_cache.store(sql, fingerprint, version, deps, plan)
            else:
                trace_event(
                    "plan_cache.hit", conf_fingerprint=str(fingerprint)
                )
            return plan.execute(self)

    # -- prepared execution ----------------------------------------------

    def _dependency_state(self, dep_key: tuple[str, str]):
        database, name = dep_key
        return self.metastore.table_state(name, database)

    def _deps(self, statement):
        """The dependency fingerprints a cached plan is stored under;
        CREATE has none (the metastore checks existence at execute
        time)."""
        if isinstance(statement, CreateTable):
            return ()
        dep_key = (self.database, statement.table)
        return ((dep_key, self._dependency_state(dep_key)),)

    def _prepare(self, statement):
        if isinstance(statement, CreateTable):
            return self._prepare_create(statement)
        if isinstance(statement, Insert):
            return self._prepare_insert(statement)
        if isinstance(statement, Select):
            return self._prepare_select(statement)
        raise QueryError(f"unsupported statement {statement!r}")

    def _prepare_create(self, statement: CreateTable):
        try:
            schema, fmt, properties, partition_schema = self._analyze_create(
                statement
            )
        except Exception as exc:
            return PreparedFailure(exc)
        return _PreparedCreate(
            name=statement.table,
            schema=schema,
            storage_format=fmt,
            properties=tuple(sorted(properties.items())),
            if_not_exists=statement.if_not_exists,
            partition_schema=partition_schema,
        )

    def _prepare_insert(self, statement: Insert):
        try:
            table, partition, rows = self._analyze_insert(statement)
            serializer = serializer_for(table.storage_format)
            blob = self._serialize(serializer, table.schema, rows)
        except Exception as exc:
            return PreparedFailure(exc)
        return _PreparedInsert(table, blob, partition, statement.overwrite)

    def _prepare_select(self, statement: Select):
        try:
            table = self._get_table(statement.table)
        except Exception as exc:
            return PreparedFailure(exc)
        return _PreparedSelect(table, statement)

    def _get_table(self, name: str) -> Table:
        """Catalog lookup, as a traced Hive→metastore call."""
        with trace_span(
            "hive.metastore.get_table",
            system="hive",
            peer_system="hive-metastore",
            operation="get_table",
            boundary="hive->metastore",
        ) as sp:
            action = fault_point(
                "hive->metastore", "get_table", ("stale_read",)
            )
            if action is not None and action.kind == "stale_read":
                # the lookup lands on a snapshot from before the table
                # existed; Hive has no retry here, so the wrong answer
                # propagates as a plain not-found
                trace_event(
                    "fault.stale_read", table=name, database=self.database
                )
                raise TableNotFoundError(
                    f"table {self.database}.{name} not found"
                )
            table = self.metastore.get_table(name, self.database)
            if sp is not None:
                sp.attributes.update(
                    table=name,
                    database=self.database,
                    fmt=table.storage_format,
                )
            return table

    # -- DDL ------------------------------------------------------------

    def _analyze_create(
        self, statement: CreateTable
    ) -> tuple[Schema, str, dict[str, str], Schema]:
        declared = Schema(
            tuple(
                Field(col.name, parse_type(col.type_text))
                for col in statement.columns
            )
        )
        fmt = statement.stored_as or self.default_format
        serializer = serializer_for(fmt)
        schema = metastore_schema_for(declared, serializer)
        partition_schema = Schema(
            tuple(
                Field(col.name.lower(), parse_type(col.type_text))
                for col in statement.partition_columns
            ),
            case_sensitive=False,
        )
        return schema, fmt, dict(statement.properties), partition_schema

    def _drop(self, statement: DropTable) -> QueryResult:
        if self.metastore.table_exists(statement.table, self.database):
            table = self.metastore.get_table(statement.table, self.database)
            self.warehouse.drop_data(table)
        self.metastore.drop_table(
            statement.table, self.database, if_exists=statement.if_exists
        )
        return self._empty_result()

    # -- DML -----------------------------------------------------------------

    def _analyze_insert(
        self, statement: Insert
    ) -> tuple[Table, str | None, list[tuple]]:
        table = self._get_table(statement.table)
        partition = self._resolve_partition_spec(table, statement)
        kernels = [
            hive_write_kernel(column.data_type)
            for column in table.schema.fields
        ]
        arity = len(table.schema)
        rows = []
        for expressions in statement.rows:
            if len(expressions) != arity:
                raise AnalysisException(
                    f"INSERT arity {len(expressions)} != table arity {arity}"
                )
            values = []
            for expr, kernel in zip(expressions, kernels):
                typed = self._evaluator.evaluate(expr)
                values.append(kernel(typed.value))
            rows.append(tuple(values))
        return table, partition, rows

    def _resolve_partition_spec(self, table, statement: Insert) -> str | None:
        """Turn ``PARTITION (p='01', ...)`` into a directory chain."""
        if not table.is_partitioned:
            if statement.partition_spec:
                raise AnalysisException(
                    f"table {table.name} is not partitioned"
                )
            return None
        spec = {name.lower(): expr for name, expr in statement.partition_spec}
        if set(spec) != set(table.partition_schema.names()):
            raise AnalysisException(
                f"INSERT must name every partition column "
                f"{table.partition_schema.names()}, got {sorted(spec)}"
            )
        parts = []
        for column in table.partition_schema.fields:
            typed = self._evaluator.evaluate(spec[column.name])
            value = hive_write_cast(typed.value, column.data_type)
            parts.append(partition_dirname(column.name, value))
        return "/".join(parts)

    def _serialize(
        self, serializer: Serializer, schema: Schema, rows: list[tuple]
    ) -> bytes:
        with trace_span(
            "hive.serde.encode",
            system="hive",
            peer_system="serde",
            operation="encode",
            boundary="hive->serde",
        ) as sp:
            fault_point("hive->serde", "encode")
            properties: dict[str, str] = {"writer": "hive"}
            if serializer.format_name == "orc":
                # Hive's ORC writer names columns positionally; the real
                # names live only in the metastore (SPARK-21686).
                schema = schema.rename_positional(_POSITIONAL_PREFIX)
                properties[HIVE_POSITIONAL_PROPERTY] = "true"
                trace_event(
                    "orc.positional_rename",
                    prefix=_POSITIONAL_PREFIX,
                    columns=len(schema),
                )
            blob = serializer.write(schema, rows, properties)
            if sp is not None:
                sp.attributes.update(
                    fmt=serializer.format_name,
                    rows=len(rows),
                    bytes=len(blob),
                )
            return blob

    # -- queries --------------------------------------------------------------

    def _execute_select(self, table: Table, statement: Select) -> QueryResult:
        serializer = serializer_for(table.storage_format)
        rows: list[Row] = []
        if table.is_partitioned:
            schema = Schema(
                table.schema.fields + table.partition_schema.fields,
                case_sensitive=False,
            )
            column = table.partition_schema.fields[0]
            with trace_span(
                "hive.warehouse.scan",
                system="hive",
                peer_system="hdfs",
                operation="read_partitioned_segments",
                boundary="hive->hdfs",
            ) as sp:
                fault_point("hive->hdfs", "read_partitioned_segments")
                segments = list(
                    self.warehouse.read_partitioned_segments(table)
                )
                if sp is not None:
                    sp.attributes.update(
                        table=table.name, segments=len(segments)
                    )
            for dirname, blob in segments:
                _, text = parse_partition_dirname(dirname)
                # Hive types the directory string by the declared column
                # type — "01" in a string partition stays "01"
                partition_value = hive_write_cast(text, column.data_type)
                data = self._decode_blob(serializer, blob)
                mapper = self._row_mapper(data, table)
                for physical_row in data.rows:
                    base = mapper(physical_row)
                    rows.append(
                        Row(list(base) + [partition_value], schema)
                    )
        else:
            schema = table.schema
            with trace_span(
                "hive.warehouse.scan",
                system="hive",
                peer_system="hdfs",
                operation="read_segments",
                boundary="hive->hdfs",
            ) as sp:
                fault_point("hive->hdfs", "read_segments")
                blobs = list(self.warehouse.read_segments(table))
                if sp is not None:
                    sp.attributes.update(
                        table=table.name, segments=len(blobs)
                    )
            for blob in blobs:
                data = self._decode_blob(serializer, blob)
                mapper = self._row_mapper(data, table)
                for physical_row in data.rows:
                    rows.append(mapper(physical_row))
        rows = self._apply_where(rows, schema, statement.where)
        schema, rows = self._project(statement, schema, rows)
        return QueryResult(
            schema=schema,
            rows=tuple(rows),
            warnings=tuple(self._warnings),
            interface="hiveql",
        )

    @staticmethod
    def _decode_blob(serializer: Serializer, blob: bytes) -> TableData:
        """Deserialize one segment, as a traced Hive→SerDe call."""
        with trace_span(
            "hive.serde.decode",
            system="hive",
            peer_system="serde",
            operation="decode",
            boundary="hive->serde",
        ) as sp:
            fault_point("hive->serde", "decode")
            data = serializer.read(blob)
            if sp is not None:
                sp.attributes.update(
                    fmt=serializer.format_name,
                    bytes=len(blob),
                    rows=len(data.rows),
                )
            return data

    def _row_mapper(self, data: TableData, table: Table):
        """Compile the physical→declared mapping for one segment.

        Column resolution (positional vs by-name) and per-column cast
        kernels are decided once per segment instead of once per cell —
        and memoized on the (shared, read-only) decoded segment, keyed
        by the declared schema it is being read under.
        """
        mappers = data.__dict__.get("_hive_mappers")
        if mappers is None:
            mappers = {}
            object.__setattr__(data, "_hive_mappers", mappers)
        mapper = mappers.get(table.schema)
        if mapper is None:
            # The compiled mapper closes over nothing segment-specific:
            # column resolution and kernels depend only on the physical
            # schema, the positional property, the format, and the
            # declared schema. Lane tables hold one part file per
            # insert, all sharing those four — so an engine-level memo
            # compiles once per table shape instead of once per segment.
            key = (
                data.format_name,
                data.physical_schema,
                data.properties.get(HIVE_POSITIONAL_PROPERTY),
                table.schema,
            )
            shared = self.__dict__.setdefault("_shared_row_mappers", {})
            mapper = shared.get(key)
            if mapper is None:
                mapper = self._build_row_mapper(data, table)
                shared[key] = mapper
            mappers[table.schema] = mapper
        return mapper

    def _build_row_mapper(self, data: TableData, table: Table):
        physical = data.physical_schema
        positional = (
            data.properties.get(HIVE_POSITIONAL_PROPERTY) == "true"
            or all(
                name.startswith(_POSITIONAL_PREFIX) for name in physical.names()
            )
            or data.format_name in ("orc", "text")
        )
        is_text = data.format_name == "text"
        columns = []
        for index, column in enumerate(table.schema.fields):
            if positional:
                source = index
            else:
                source = self._index_by_name(physical, column.name)
            kernel = (
                hive_write_kernel(column.data_type)
                if is_text
                else hive_read_kernel(column.data_type)
            )
            columns.append((source, kernel))
        schema = table.schema

        if is_text:
            # LazySimpleSerDe: parse the stored string by the declared
            # type, NULL when it does not parse
            def mapper(row: Row) -> Row:
                values = []
                for source, kernel in columns:
                    raw = (
                        row[source]
                        if source is not None and source < len(row)
                        else None
                    )
                    if raw == NULL_MARKER:
                        values.append(None)
                    else:
                        values.append(kernel(raw))
                return Row(values, schema)

        else:

            def mapper(row: Row) -> Row:
                values = []
                for source, kernel in columns:
                    raw = (
                        row[source]
                        if source is not None and source < len(row)
                        else None
                    )
                    values.append(kernel(raw))
                return Row(values, schema)

        return mapper

    def _reconcile_row(self, row: Row, data: TableData, table: Table) -> Row:
        """Map one physical row onto the declared schema."""
        return self._row_mapper(data, table)(row)

    @staticmethod
    def _index_by_name(physical: Schema, name: str) -> int | None:
        lowered = name.lower()
        for index, fld in enumerate(physical.fields):
            if fld.name.lower() == lowered:
                return index
        return None

    def _apply_where(
        self, rows: list[Row], schema: Schema, where: Comparison | None
    ) -> list[Row]:
        if where is None:
            return rows
        if not isinstance(where.left, ColumnRef) or not isinstance(
            where.right, Literal
        ):
            raise QueryError("WHERE supports `column <op> literal` only")
        index = schema.index_of(where.left.name)
        target = self._evaluator.evaluate(where.right).value
        return [row for row in rows if _compare(row[index], where.op, target)]

    def _project(
        self, statement: Select, schema: Schema, rows: list[Row]
    ) -> tuple[Schema, list[Row]]:
        if len(statement.projections) == 1 and isinstance(
            statement.projections[0], Star
        ):
            return schema, rows
        indices = []
        fields = []
        for projection in statement.projections:
            if not isinstance(projection, ColumnRef):
                raise QueryError("projections must be columns or *")
            index = schema.index_of(projection.name)
            indices.append(index)
            fields.append(schema.fields[index])
        projected_schema = Schema(tuple(fields), schema.case_sensitive)
        projected_rows = [
            Row([row[i] for i in indices], projected_schema) for row in rows
        ]
        return projected_schema, projected_rows

    def _empty_result(self) -> QueryResult:
        return QueryResult(
            schema=Schema(()),
            warnings=tuple(self._warnings),
            interface="hiveql",
        )


def _compare(value: object, op: str, target: object) -> bool:
    if value is None or target is None:
        return False
    try:
        if op == "=":
            return value == target
        if op in ("<>", "!="):
            return value != target
        if op == "<":
            return value < target
        if op == ">":
            return value > target
        if op == "<=":
            return value <= target
        if op == ">=":
            return value >= target
    except TypeError:
        return False
    raise QueryError(f"unknown comparison operator {op!r}")
