"""The Spark session: SQL interface, DataFrame factory, read/scan path.

The session exposes the two upstream interfaces of the paper's Figure 6
(SparkSQL and DataFrame) over the shared Hive metastore and warehouse.
The two interfaces intentionally differ exactly where the real ones do:

========================  =======================  ======================
behaviour                 SparkSQL path            DataFrame path
========================  =======================  ======================
insert coercion           store assignment          legacy cast
                          (ANSI by default:         (NULL on failure,
                          overflow/invalid raise)   wraparound overflow)
CHAR/VARCHAR length       enforced + CHAR padded    not enforced (#15)
decimal serialization     quantized to scale        unquantized (#2)
invalid DATE literal      raises (#9)               NULL via legacy cast
CHAR padding on read      padded                    raw value
========================  =======================  ======================
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.common.result import QueryResult
from repro.common.row import Row
from repro.common.schema import Field, Schema
from repro.common.types import (
    CharType,
    DataType,
    VarcharType,
    parse_type,
)
from repro.connectors.spark_hive import (
    CreateSpec,
    ResolvedTable,
    SparkHiveConnector,
)
from repro.connectors.transformers import transformer_for
from repro.errors import AnalysisException, QueryError, TableAlreadyExistsError
from repro.faults.core import (
    apply_torn_write,
    fault_point,
    injection_active,
)
from repro.formats import serializer_for
from repro.formats.base import TableData
from repro.formats.orc import HIVE_POSITIONAL_PROPERTY
from repro.formats.textfile import NULL_MARKER
from repro.hivelite.metastore import DEFAULT_DATABASE, HiveMetastore
from repro.hivelite.warehouse import (
    Warehouse,
    parse_partition_dirname,
    partition_dirname,
)
from repro.sparklite.casts import cast_kernel, spark_cast, store_assign
from repro.sparklite.conf import SparkConf
from repro.sparklite.dataframe import DataFrame, dataframe_store_kernel
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
from repro.sql.literals import DialectOptions, LiteralEvaluator, TypedValue
from repro.sql.parser import parse_statement
from repro.sql.plancache import PlanCache, PreparedFailure
from repro.storage.filesystem import FileSystem
from repro.storage.namenode import NameNode
from repro.tracing.core import event as trace_event
from repro.tracing.core import span as trace_span

__all__ = ["SparkSession"]


@dataclass(frozen=True)
class _PreparedCreate:
    """CREATE TABLE with the connector analysis already done."""

    spec: CreateSpec

    def execute(self, session: "SparkSession") -> QueryResult:
        session.connector.execute_create(self.spec)
        return session._empty("sparksql")


@dataclass(frozen=True)
class _PreparedInsert:
    """INSERT with evaluation, coercion and serialization done.

    The write itself — truncate-on-overwrite plus appending the segment
    — is the only execute-time work. The blob is valid for as long as
    the dependency fingerprint (the resolved table) holds, which the
    plan cache guarantees.
    """

    resolved: ResolvedTable
    blob: bytes
    partition: str | None
    overwrite: bool

    def execute(self, session: "SparkSession") -> QueryResult:
        session._write_blob(
            self.resolved, self.blob, self.overwrite, self.partition
        )
        return session._empty("sparksql")


@dataclass(frozen=True)
class _PreparedSelect:
    """SELECT with the table resolution done; the scan stays per-call
    (warehouse contents are dynamic, only the resolution is not)."""

    resolved: ResolvedTable
    statement: Select

    def execute(self, session: "SparkSession") -> QueryResult:
        return session._execute_select(self.resolved, self.statement)


class SparkSession:
    """One Spark application attached to a metastore and filesystem."""

    def __init__(
        self,
        metastore: HiveMetastore,
        filesystem: FileSystem,
        conf: SparkConf | None = None,
        database: str = DEFAULT_DATABASE,
    ) -> None:
        self.metastore = metastore
        self.filesystem = filesystem
        self.conf = conf or SparkConf()
        self.database = database
        self.connector = SparkHiveConnector(metastore, self.conf)
        self.warehouse = Warehouse(filesystem)
        self.plan_cache = PlanCache()

    @classmethod
    def local(cls, conf: SparkConf | None = None) -> "SparkSession":
        """A self-contained session with a fresh metastore + filesystem."""
        return cls(HiveMetastore(), FileSystem(NameNode()), conf)

    # -- SQL interface -----------------------------------------------------

    def sql(self, text: str) -> QueryResult:
        with trace_span(
            "spark.sql", system="spark", operation="sql"
        ) as sp:
            if sp is not None:
                sp.attributes["statement"] = text[:120]
            statement = parse_statement(text)
            if isinstance(statement, DropTable):
                # DROP is pure side effect; there is no analysis to reuse.
                return self._sql_drop(statement)
            if not self.conf.plan_cache_enabled or injection_active():
                # prepare -> execute, minus reuse: under fault injection
                # a cached plan would skip prepare-time fault points on
                # hits, tying the fault schedule to cache history (which
                # varies with worker count). No local holds the plan, so
                # a failure's traceback never leads back to its error.
                return self._prepare(statement).execute(self)
            fingerprint = self.conf.fingerprint()
            version = self.metastore.catalog_version
            plan = self.plan_cache.lookup(
                text, fingerprint, version, self._dependency_state
            )
            if plan is None:
                trace_event(
                    "plan_cache.miss", conf_fingerprint=str(fingerprint)
                )
                deps = self._deps(statement)
                plan = self._prepare(statement)
                self.plan_cache.store(text, fingerprint, version, deps, plan)
            else:
                trace_event(
                    "plan_cache.hit", conf_fingerprint=str(fingerprint)
                )
            return plan.execute(self)

    # -- prepared execution ------------------------------------------------

    def _dependency_state(self, dep_key: tuple[str, str]):
        database, name = dep_key
        return self.metastore.table_state(name, database)

    def _deps(self, statement):
        """The dependency fingerprints a cached plan is stored under: the
        state of the table the statement names. CREATE analysis reads no
        catalog state (the metastore checks existence at execute time),
        so it has none."""
        if isinstance(statement, CreateTable):
            return ()
        dep_key = (self.database, statement.table)
        return ((dep_key, self._dependency_state(dep_key)),)

    def _prepare(self, statement):
        """Analyze one statement into a plan; deterministic analysis
        failures become cacheable :class:`PreparedFailure` plans."""
        if isinstance(statement, CreateTable):
            return self._prepare_create(statement)
        if isinstance(statement, Insert):
            return self._prepare_insert(statement)
        if isinstance(statement, Select):
            return self._prepare_select(statement)
        raise QueryError(f"unsupported statement {statement!r}")

    def _prepare_create(self, statement: CreateTable):
        try:
            spec = self._analyze_create(statement)
        except Exception as exc:
            return PreparedFailure(exc)
        return _PreparedCreate(spec)

    def _prepare_insert(self, statement: Insert):
        try:
            resolved, rows, partition = self._analyze_insert(statement)
            blob = self._encode_rows(resolved, rows)
        except Exception as exc:
            return PreparedFailure(exc)
        return _PreparedInsert(resolved, blob, partition, statement.overwrite)

    def _prepare_select(self, statement: Select):
        try:
            resolved = self.connector.resolve(statement.table, self.database)
        except Exception as exc:
            return PreparedFailure(exc)
        return _PreparedSelect(resolved, statement)

    def _evaluator(self) -> LiteralEvaluator:
        ansi = bool(self.conf.get("spark.sql.ansi.enabled"))

        def cast_fn(value, source, target):
            return spark_cast(value, source, target, ansi=ansi)

        return LiteralEvaluator(
            DialectOptions(
                name="spark",
                fractional_literal="decimal",
                strict_datetime_literals=self.conf.strict_datetime_literals,
                cast_fn=cast_fn,
            )
        )

    def _analyze_create(self, statement: CreateTable) -> CreateSpec:
        declared = Schema(
            tuple(
                Field(col.name, parse_type(col.type_text))
                for col in statement.columns
            ),
            case_sensitive=True,
        )
        partition_schema = Schema(
            tuple(
                Field(col.name, parse_type(col.type_text))
                for col in statement.partition_columns
            ),
            case_sensitive=True,
        )
        fmt = statement.stored_as or str(
            self.conf.get("spark.sql.sources.default")
        )
        return self.connector.prepare_create(
            statement.table,
            declared,
            fmt,
            database=self.database,
            datasource=statement.datasource,
            if_not_exists=statement.if_not_exists,
            extra_properties=dict(statement.properties),
            partition_schema=partition_schema,
        )

    def _sql_drop(self, statement: DropTable) -> QueryResult:
        if self.metastore.table_exists(statement.table, self.database):
            table = self.metastore.get_table(statement.table, self.database)
            self.warehouse.drop_data(table)
        self.metastore.drop_table(
            statement.table, self.database, if_exists=statement.if_exists
        )
        return self._empty("sparksql")

    def _analyze_insert(
        self, statement: Insert
    ) -> tuple[ResolvedTable, list[tuple], str | None]:
        resolved = self.connector.resolve(statement.table, self.database)
        evaluator = self._evaluator()
        policy = self.conf.store_assignment_policy
        trace_event(
            "cast.store_assignment",
            policy=str(policy),
            ansi=bool(self.conf.get("spark.sql.ansi.enabled")),
        )
        partition = self._resolve_partition_spec(
            resolved.table, statement, evaluator, policy
        )
        # hoisted out of the row loop: multi-row VALUES share one target
        # schema, so per-row re-derivation is pure overhead under lanes
        column_types = [f.data_type for f in resolved.schema.fields]
        arity = len(resolved.schema)
        rows = []
        for expressions in statement.rows:
            if len(expressions) != arity:
                raise AnalysisException(
                    f"INSERT arity {len(expressions)} != table arity {arity}"
                )
            values = []
            for expr, column_type in zip(expressions, column_types):
                typed = evaluator.evaluate(expr)
                values.append(self._sql_store(typed, column_type, policy))
            rows.append(tuple(values))
        return resolved, rows, partition

    def _resolve_partition_spec(
        self, table, statement: Insert, evaluator, policy
    ) -> str | None:
        if not table.is_partitioned:
            if statement.partition_spec:
                raise AnalysisException(
                    f"table {table.name} is not partitioned"
                )
            return None
        spec = {
            name.lower(): expr for name, expr in statement.partition_spec
        }
        if set(spec) != set(table.partition_schema.names()):
            raise AnalysisException(
                f"INSERT must name every partition column "
                f"{table.partition_schema.names()}, got {sorted(spec)}"
            )
        parts = []
        for column in table.partition_schema.fields:
            typed = evaluator.evaluate(spec[column.name])
            value = store_assign(
                typed.value, typed.data_type, column.data_type, policy
            )
            parts.append(partition_dirname(column.name, value))
        return "/".join(parts)

    def _sql_store(self, typed: TypedValue, target: DataType, policy) -> object:
        """SQL INSERT coercion: char/varchar enforcement + store assignment."""
        if isinstance(target, (CharType, VarcharType)):
            if typed.value is None:
                return None
            text = store_assign(typed.value, typed.data_type, target, policy)
            if text is None:
                return None
            if len(text) > target.length:
                raise AnalysisException(
                    f"input string {text!r} exceeds "
                    f"{target.simple_string()} type length limitation"
                )
            if isinstance(target, CharType):
                return target.pad(text)
            return text
        return store_assign(typed.value, typed.data_type, target, policy)

    def _execute_select(
        self, resolved: ResolvedTable, statement: Select
    ) -> QueryResult:
        schema, rows = self._scan(resolved, interface="sparksql")
        rows = self._apply_where(rows, schema, statement.where)
        schema, rows = self._project(statement, schema, rows)
        return QueryResult(
            schema=schema,
            rows=tuple(rows),
            warnings=resolved.warnings,
            interface="sparksql",
        )

    # -- DataFrame interface ---------------------------------------------------

    def create_dataframe(
        self, data: list[tuple] | list[list], schema: Schema
    ) -> DataFrame:
        """Build a DataFrame, coercing cells the DataFrame way (legacy)."""
        kernels = [
            dataframe_store_kernel(field.data_type)
            for field in schema.fields
        ]
        arity = len(schema)
        rows = []
        for record in data:
            if len(record) != arity:
                raise AnalysisException(
                    f"row arity {len(record)} != schema arity {arity}"
                )
            values = [
                kernel(value) for value, kernel in zip(record, kernels)
            ]
            rows.append(Row(values, schema))
        return DataFrame(self, schema, rows)

    def table(self, name: str) -> DataFrame:
        """Read a table through the DataFrame interface."""
        result = self.read_table(name, interface="dataframe")
        return DataFrame(self, result.schema, list(result.rows))

    def read_table(self, name: str, interface: str = "dataframe") -> QueryResult:
        resolved = self.connector.resolve(name, self.database)
        schema, rows = self._scan(resolved, interface=interface)
        return QueryResult(
            schema=schema,
            rows=tuple(rows),
            warnings=resolved.warnings,
            interface=interface,
        )

    # hooks used by DataFrameWriter ------------------------------------------

    def _create_table_for_dataframe(
        self, name: str, schema: Schema, fmt: str, mode: str
    ) -> None:
        exists = self.metastore.table_exists(name, self.database)
        if exists and mode == "errorifexists":
            raise TableAlreadyExistsError(f"table {name} exists")
        if exists and mode == "overwrite":
            table = self.metastore.get_table(name, self.database)
            self.warehouse.drop_data(table)
            self.metastore.drop_table(name, self.database)
            exists = False
        if not exists:
            self.connector.create_table(
                name,
                schema,
                fmt,
                database=self.database,
                datasource=True,
            )

    def _dataframe_insert(
        self, name: str, dataframe: DataFrame, overwrite: bool
    ) -> None:
        resolved = self.connector.resolve(name, self.database)
        if resolved.table.is_partitioned:
            self._dataframe_insert_partitioned(resolved, dataframe, overwrite)
            return
        if len(dataframe.schema) != len(resolved.schema):
            raise AnalysisException(
                f"DataFrame arity {len(dataframe.schema)} != table arity "
                f"{len(resolved.schema)}"
            )
        kernels = [
            dataframe_store_kernel(field.data_type)
            for field in resolved.schema.fields
        ]
        rows = []
        for row in dataframe.collect():
            values = [kernel(value) for value, kernel in zip(row, kernels)]
            rows.append(tuple(values))
        self._write_rows(resolved, rows, overwrite=overwrite)

    def _dataframe_insert_partitioned(
        self, resolved: ResolvedTable, dataframe: DataFrame, overwrite: bool
    ) -> None:
        """``insertInto`` a partitioned table: as in Spark, the partition
        values arrive as the frame's *trailing* columns."""
        partition_schema = resolved.table.partition_schema
        expected = len(resolved.schema) + len(partition_schema)
        if len(dataframe.schema) != expected:
            raise AnalysisException(
                f"DataFrame arity {len(dataframe.schema)} != data columns "
                f"{len(resolved.schema)} + partition columns "
                f"{len(partition_schema)}"
            )
        by_partition: dict[str, list[tuple]] = {}
        split = len(resolved.schema)
        data_kernels = [
            dataframe_store_kernel(field.data_type)
            for field in resolved.schema.fields
        ]
        partition_kernels = [
            dataframe_store_kernel(field.data_type)
            for field in partition_schema.fields
        ]
        for row in dataframe.collect():
            values = tuple(
                kernel(value)
                for value, kernel in zip(row[:split], data_kernels)
            )
            partition_values = [
                kernel(value)
                for value, kernel in zip(row[split:], partition_kernels)
            ]
            dirname = "/".join(
                partition_dirname(field.name, value)
                for field, value in zip(
                    partition_schema.fields, partition_values
                )
            )
            by_partition.setdefault(dirname, []).append(values)
        for dirname, rows in sorted(by_partition.items()):
            self._write_rows(
                resolved, rows, overwrite=overwrite, partition=dirname
            )

    # -- shared write/scan machinery ----------------------------------------------

    def _encode_rows(self, resolved: ResolvedTable, rows: list[tuple]) -> bytes:
        """Serialize rows for the table's format, as a traced SerDe call."""
        serializer = serializer_for(resolved.table.storage_format)
        with trace_span(
            "spark.serde.encode",
            system="spark",
            peer_system="serde",
            operation="encode",
            boundary="spark->serde",
        ) as sp:
            fault_point("spark->serde", "encode")
            blob = serializer.write(resolved.schema, rows, {"writer": "spark"})
            if sp is not None:
                sp.attributes.update(
                    fmt=resolved.table.storage_format,
                    rows=len(rows),
                    bytes=len(blob),
                )
            return blob

    def _write_rows(
        self,
        resolved: ResolvedTable,
        rows: list[tuple],
        overwrite: bool,
        partition: str | None = None,
    ) -> None:
        self._write_blob(
            resolved, self._encode_rows(resolved, rows), overwrite, partition
        )

    def _write_blob(
        self,
        resolved: ResolvedTable,
        blob: bytes,
        overwrite: bool,
        partition: str | None,
    ) -> None:
        """Append one encoded segment, as a traced Spark→HDFS write."""
        with trace_span(
            "spark.warehouse.write",
            system="spark",
            peer_system="hdfs",
            operation="write_segment",
            boundary="spark->hdfs",
        ) as sp:
            if sp is not None:
                sp.attributes.update(
                    table=resolved.table.name,
                    fmt=resolved.table.storage_format,
                    bytes=len(blob),
                    overwrite=overwrite,
                )
            action = fault_point(
                "spark->hdfs", "write_segment", ("torn_write",)
            )
            if action is not None and action.kind == "torn_write":
                blob = apply_torn_write(blob, action)
                trace_event("fault.torn_write", bytes_kept=len(blob))
            if overwrite:
                self.warehouse.truncate(resolved.table, partition)
            self.warehouse.write_segment(resolved.table, blob, partition)

    def _scan(
        self, resolved: ResolvedTable, interface: str
    ) -> tuple[Schema, list[Row]]:
        """Scan the table; returns the result schema (which includes
        typed partition columns for partitioned tables) and the rows."""
        if resolved.table.is_partitioned:
            return self._scan_partitioned(resolved, interface)
        with trace_span(
            "spark.warehouse.scan",
            system="spark",
            peer_system="hdfs",
            operation="read_segments",
            boundary="spark->hdfs",
        ) as sp:
            fault_point("spark->hdfs", "read_segments")
            blobs = list(self.warehouse.read_segments(resolved.table))
            if sp is not None:
                sp.attributes.update(
                    table=resolved.table.name, segments=len(blobs)
                )
        return resolved.schema, self._scan_segments(
            resolved, interface, blobs
        )

    def _scan_partitioned(
        self, resolved: ResolvedTable, interface: str
    ) -> tuple[Schema, list[Row]]:
        column = resolved.table.partition_schema.fields[0]
        with trace_span(
            "spark.warehouse.scan",
            system="spark",
            peer_system="hdfs",
            operation="read_partitioned_segments",
            boundary="spark->hdfs",
        ) as sp:
            fault_point("spark->hdfs", "read_partitioned_segments")
            segments = list(
                self.warehouse.read_partitioned_segments(resolved.table)
            )
            if sp is not None:
                sp.attributes.update(
                    table=resolved.table.name, segments=len(segments)
                )
        texts = []
        for dirname, _ in segments:
            _, text = parse_partition_dirname(dirname)
            texts.append(text)
        partition_type, converted = self._type_partition_values(texts)
        schema = Schema(
            resolved.schema.fields + (Field(column.name, partition_type),),
            case_sensitive=resolved.schema.case_sensitive,
        )
        rows: list[Row] = []
        for (dirname, blob), value in zip(segments, converted):
            for base in self._scan_segments(resolved, interface, [blob]):
                rows.append(Row(list(base) + [value], schema))
        return schema, rows

    def _type_partition_values(
        self, texts: list[str]
    ) -> tuple[DataType, list[object]]:
        """Spark's partition typing: infer from the directory strings.

        With inference enabled (the default), '01' becomes the INT 1 —
        losing the leading zero Hive would have preserved. With it
        disabled, partition values are plain strings.
        """
        if self.conf.partition_type_inference and texts:
            try:
                return parse_type("int"), [int(t, 10) for t in texts]
            except ValueError:
                pass
            try:
                import datetime

                return parse_type("date"), [
                    datetime.date.fromisoformat(t) for t in texts
                ]
            except ValueError:
                pass
        return parse_type("string"), list(texts)

    def _scan_segments(
        self, resolved: ResolvedTable, interface: str, blobs
    ) -> list[Row]:
        serializer = serializer_for(resolved.table.storage_format)
        pad_chars = (
            interface == "sparksql" and not self.conf.char_varchar_as_string
        )
        plan_key = (
            resolved.schema,
            pad_chars,
            self.conf.case_sensitive,
            self.conf.legacy_orc_positional_names,
        )
        out: list[Row] = []
        for blob in blobs:
            with trace_span(
                "spark.serde.decode",
                system="spark",
                peer_system="serde",
                operation="decode",
                boundary="spark->serde",
            ) as sp:
                fault_point("spark->serde", "decode")
                data = serializer.read(blob)
                if sp is not None:
                    sp.attributes.update(
                        fmt=resolved.table.storage_format,
                        bytes=len(blob),
                        rows=len(data.rows),
                    )
            # decoded blobs are shared, so the per-blob column plan is
            # memoized on the TableData, keyed by everything it reads
            # from the session (schema + the conf switches involved)
            plans = data.__dict__.get("_scan_plans")
            if plans is None:
                plans = {}
                object.__setattr__(data, "_scan_plans", plans)
            columns = plans.get(plan_key)
            if columns is None:
                columns = self._scan_columns(data, resolved.schema, pad_chars)
                plans[plan_key] = columns
            for physical_row in data.rows:
                values = []
                for physical_index, transform, finish in columns:
                    if physical_index is None or transform is None:
                        values.append(None)
                        continue
                    raw = physical_row[physical_index]
                    value = None if raw is None else transform(raw)
                    if finish is not None:
                        value = finish(value)
                    values.append(value)
                out.append(Row(values, resolved.schema))
        return out

    def _scan_columns(
        self, data: TableData, expected: Schema, pad_chars: bool
    ) -> list[tuple]:
        """Resolve (physical index, transform, finisher) per column."""
        mapping = self._column_mapping(data, expected)
        columns: list[tuple] = []
        for field, physical_index in zip(expected.fields, mapping):
            if physical_index is None:
                columns.append((None, None, None))
                continue
            if data.format_name == "text":
                # text rows are strings; Spark parses them with the
                # (lenient) legacy cast, like its Hive text scan
                transform = _text_cell_transform(field.data_type)
            else:
                physical = data.physical_schema.fields[physical_index]
                transform = transformer_for(
                    physical.data_type,
                    field.data_type,
                    data.format_name,
                )
            finish = (
                _char_pad_finisher(field.data_type)
                if pad_chars and isinstance(field.data_type, CharType)
                else None
            )
            columns.append((physical_index, transform, finish))
        return columns

    def _column_mapping(
        self, data: TableData, expected: Schema
    ) -> list[int | None]:
        """Physical column index for each expected column."""
        physical_names = data.physical_schema.names()
        hive_positional = (
            data.properties.get(HIVE_POSITIONAL_PROPERTY) == "true"
        )
        if hive_positional and not self.conf.legacy_orc_positional_names:
            # modern Spark: Hive-written ORC resolves by position
            return [
                index if index < len(physical_names) else None
                for index in range(len(expected))
            ]
        # name-based resolution (also the pre-fix SPARK-21686 behaviour
        # for Hive-written ORC when legacy_orc_positional_names is set:
        # `_col0` never matches real names, so every column reads NULL)
        mapping: list[int | None] = []
        case_sensitive = self.conf.case_sensitive
        for field in expected.fields:
            found = None
            for index, name in enumerate(physical_names):
                matches = (
                    name == field.name
                    if case_sensitive
                    else name.lower() == field.name.lower()
                )
                if matches:
                    found = index
                    break
            mapping.append(found)
        return mapping

    # -- SELECT helpers --------------------------------------------------------

    def _apply_where(
        self, rows: list[Row], schema: Schema, where: Comparison | None
    ) -> list[Row]:
        if where is None:
            return rows
        if not isinstance(where.left, ColumnRef) or not isinstance(
            where.right, Literal
        ):
            raise QueryError("WHERE supports `column <op> literal` only")
        index = self._resolve_column(schema, where.left.name)
        target = self._evaluator().evaluate(where.right).value
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
            index = self._resolve_column(schema, projection.name)
            indices.append(index)
            fields.append(schema.fields[index])
        projected = Schema(tuple(fields), schema.case_sensitive)
        return projected, [
            Row([row[i] for i in indices], projected) for row in rows
        ]

    def _resolve_column(self, schema: Schema, name: str) -> int:
        for index, field in enumerate(schema.fields):
            if self.conf.case_sensitive:
                if field.name == name:
                    return index
            elif field.name.lower() == name.lower():
                return index
        raise AnalysisException(
            f"cannot resolve column {name!r} among {schema.names()}"
        )

    def _empty(self, interface: str) -> QueryResult:
        return QueryResult(schema=Schema(()), interface=interface)


@functools.lru_cache(maxsize=1024)
def _text_cell_transform(expected: DataType):
    kernel = cast_kernel(expected, False)

    def transform(raw: object) -> object:
        if raw == NULL_MARKER or raw is None:
            return None
        return kernel(raw)

    return transform


@functools.lru_cache(maxsize=1024)
def _char_pad_finisher(dtype: CharType):
    def finish(value: object) -> object:
        if isinstance(value, str):
            return dtype.pad(value)
        return value

    return finish


def _compare(value: object, op: str, target: object) -> bool:
    if value is None or target is None:
        return False
    try:
        return {
            "=": value == target,
            "<>": value != target,
            "!=": value != target,
            "<": value < target,
            ">": value > target,
            "<=": value <= target,
            ">=": value >= target,
        }[op]
    except TypeError:
        return False
