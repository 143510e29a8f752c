"""The Spark→Hive connector: registration and schema resolution.

Finding 13 of the paper: 68/79 upstream-side CSI fixes landed in
dedicated connector modules. This module is that connector for the
simulation — every piece of Spark↔Hive schema translation lives here,
and each documented quirk is implemented as the *mechanism* the real
systems have:

* a table created through the **DataFrame API** is a *datasource table*:
  Spark always stashes its own case-sensitive schema in the table
  properties (``spark.sql.sources.schema``);
* a table created through **SparkSQL** with ``STORED AS`` goes down the
  Hive-serde path: the native schema property can only be kept for
  formats whose files can back schema inference
  (``caseSensitiveInferenceMode``; ORC and Parquet yes, Avro no);
* when no native schema is recoverable, Spark **falls back to the Hive
  metastore schema** — lower-cased names, physically-collapsed types —
  and warns "not case preserving" (HIVE-26533 / SPARK-40409).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.schema import Field, Schema
from repro.connectors.retry import RetryPolicy
from repro.common.types import (
    CharType,
    StringType,
    TimestampNTZType,
    TimestampType,
    VarcharType,
    parse_type,
)
from repro.errors import SchemaError, TableNotFoundError
from repro.faults.core import FaultAction
from repro.formats import serializer_for
from repro.hivelite.metastore import HiveMetastore, Table
from repro.hivelite.types import metastore_schema_for
from repro.tracing.core import event as trace_event
from repro.tracing.core import span as trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    # importing it at run time would close the cycle spark_hive ->
    # repro.sparklite (package) -> sparklite.session -> spark_hive
    from repro.sparklite.conf import SparkConf

__all__ = [
    "NATIVE_SCHEMA_PROPERTY",
    "NOT_CASE_PRESERVING_WARNING",
    "CreateSpec",
    "ResolvedTable",
    "SparkHiveConnector",
    "schema_to_property",
    "schema_from_property",
]

NATIVE_SCHEMA_PROPERTY = "spark.sql.sources.schema"
NOT_CASE_PRESERVING_WARNING = (
    "The table schema is read from the Hive metastore, which is not case "
    "preserving; falling back to the lower-cased Hive schema."
)


def schema_to_property(schema: Schema) -> str:
    """Serialize a case-sensitive schema into a table-property string."""
    return json.dumps(
        [
            {
                "name": f.name,
                "type": f.data_type.simple_string(),
                "nullable": f.nullable,
            }
            for f in schema.fields
        ],
        separators=(",", ":"),
    )


def schema_from_property(text: str) -> Schema:
    try:
        raw = json.loads(text)
        fields = tuple(
            Field(col["name"], parse_type(col["type"]), col.get("nullable", True))
            for col in raw
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"corrupt native schema property: {exc}") from exc
    return Schema(fields, case_sensitive=True)


@dataclass(frozen=True)
class ResolvedTable:
    """A Hive table as Spark sees it after schema resolution."""

    table: Table
    schema: Schema
    used_native_schema: bool
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateSpec:
    """A fully analyzed CREATE TABLE, ready to register.

    Everything catalog-independent — the metastore-side schema, the
    native schema property, the lower-cased partition schema — is
    computed once at prepare time, so a cached CREATE plan replays as a
    single :meth:`HiveMetastore.create_table` call. Existence checks
    stay in the metastore, at execute time.
    """

    name: str
    schema: Schema
    storage_format: str
    database: str
    properties: tuple[tuple[str, str], ...]
    if_not_exists: bool
    partition_schema: Schema


#: entries kept in the per-connector resolve memo before it is cleared
_RESOLVE_MEMO_LIMIT = 64

#: entries kept in the per-connector prepare_create memo (one per
#: distinct created-table shape) before it is cleared
_PREPARE_MEMO_LIMIT = 512


@dataclass
class SparkHiveConnector:
    metastore: HiveMetastore
    conf: SparkConf
    #: (database, table) -> ((catalog_version, conf fingerprint), ResolvedTable)
    _resolve_memo: dict = field(default_factory=dict)
    #: full prepare_create argument tuple -> (conf fingerprint, CreateSpec)
    _prepare_memo: dict = field(default_factory=dict)
    #: retry/backoff policy for every metastore-facing call; stats are
    #: per-connector (= per-deployment), so the executor can read
    #: race-free per-trial deltas while the deployment is leased
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    # -- table creation ----------------------------------------------------

    def prepare_create(
        self,
        name: str,
        declared: Schema,
        storage_format: str,
        *,
        database: str,
        datasource: bool,
        if_not_exists: bool = False,
        extra_properties: dict[str, str] | None = None,
        partition_schema: Schema = Schema(()),
    ) -> CreateSpec:
        """Analyze a CREATE TABLE down to a replayable :class:`CreateSpec`."""
        serializer = serializer_for(storage_format)
        hive_side = metastore_schema_for(declared, serializer)
        properties = dict(extra_properties or {})
        if self._keeps_native_schema(datasource, serializer):
            properties[NATIVE_SCHEMA_PROPERTY] = schema_to_property(declared)
        return CreateSpec(
            name=name,
            schema=hive_side,
            storage_format=storage_format,
            database=database,
            properties=tuple(sorted(properties.items())),
            if_not_exists=if_not_exists,
            partition_schema=partition_schema.lower_cased()
            if len(partition_schema)
            else partition_schema,
        )

    def execute_create(self, spec: CreateSpec) -> Table:
        """Register a prepared CREATE with the metastore.

        The first execution runs the metastore's fully validated
        creation path; the identical frozen ``Table`` it produced is
        then re-registered directly on every replay of the cached plan.
        """
        with trace_span(
            "spark.metastore.create_table",
            system="spark",
            peer_system="hive-metastore",
            operation="create_table",
            boundary="spark->metastore",
        ) as sp:
            if sp is not None:
                sp.attributes.update(
                    table=spec.name,
                    database=spec.database,
                    fmt=spec.storage_format,
                    native_schema_property=any(
                        key == NATIVE_SCHEMA_PROPERTY
                        for key, _ in spec.properties
                    ),
                )
            def attempt(action: FaultAction | None) -> Table:
                table = spec.__dict__.get("_table")
                if table is not None:
                    return self.metastore.register_table(
                        table, if_not_exists=spec.if_not_exists
                    )
                existed = self.metastore.table_exists(
                    spec.name, spec.database
                )
                created = self.metastore.create_table(
                    spec.name,
                    spec.schema,
                    spec.storage_format,
                    database=spec.database,
                    properties=dict(spec.properties),
                    owner="spark",
                    if_not_exists=spec.if_not_exists,
                    partition_schema=spec.partition_schema,
                )
                if not existed:
                    object.__setattr__(spec, "_table", created)
                return created

            return self.retry.call(
                attempt,
                site="spark->metastore",
                operation="create_table",
            )

    def create_table(
        self,
        name: str,
        declared: Schema,
        storage_format: str,
        *,
        database: str,
        datasource: bool,
        if_not_exists: bool = False,
        extra_properties: dict[str, str] | None = None,
        partition_schema: Schema = Schema(()),
    ) -> Table:
        """Register a Spark-created table with the Hive metastore.

        Analysis is memoized per argument shape (stamped with the conf
        fingerprint, since ``caseSensitiveInferenceMode`` feeds the
        native-schema decision), so the DataFrame writer — which has no
        statement text for the plan cache to key on — still replays the
        same :class:`CreateSpec` and gets the registration fast path.
        """
        key = (
            name,
            declared,
            storage_format,
            database,
            datasource,
            if_not_exists,
            tuple(sorted((extra_properties or {}).items())),
            partition_schema,
        )
        stamp = self.conf.fingerprint()
        memo = self._prepare_memo.get(key)
        if memo is not None and memo[0] == stamp:
            spec = memo[1]
        else:
            spec = self.prepare_create(
                name,
                declared,
                storage_format,
                database=database,
                datasource=datasource,
                if_not_exists=if_not_exists,
                extra_properties=extra_properties,
                partition_schema=partition_schema,
            )
            if len(self._prepare_memo) >= _PREPARE_MEMO_LIMIT:
                self._prepare_memo.clear()
            self._prepare_memo[key] = (stamp, spec)
        return self.execute_create(spec)

    def _keeps_native_schema(self, datasource: bool, serializer) -> bool:
        if datasource:
            # Datasource tables always carry Spark's schema property.
            return True
        mode = self.conf.case_sensitive_inference_mode.upper()
        if mode == "NEVER_INFER":
            return False
        # Hive-serde tables: the property is only trustworthy if it can be
        # (re-)inferred from the files — possible for ORC/Parquet only.
        return serializer.supports_native_schema_inference

    # -- schema resolution ---------------------------------------------------

    def resolve(self, name: str, database: str) -> ResolvedTable:
        """Resolve the Spark-visible schema for a Hive table.

        Resolutions are memoized per ``(database, table)`` and stamped
        with ``(interned table state, conf fingerprint)``: the metastore
        interns every distinct frozen ``Table`` value to a token, so the
        stamp moves exactly when the table's own definition (or the
        session conf) does — dropping and recreating an identical table
        keeps the memo warm, while any visible change misses. A missing
        table has no state token and is never memoized.
        """
        with trace_span(
            "spark.metastore.resolve",
            system="spark",
            peer_system="hive-metastore",
            operation="resolve",
            boundary="spark->metastore",
        ) as sp:
            def attempt(action: FaultAction | None) -> ResolvedTable:
                if action is not None and action.kind == "stale_read":
                    # the lookup lands on a metastore snapshot from
                    # before this table existed: same typed error, wrong
                    # reason — the caller cannot tell the difference
                    trace_event(
                        "fault.stale_read", table=name, database=database
                    )
                    raise TableNotFoundError(
                        f"table {database}.{name} not found"
                    )
                key = (database.lower(), name.lower())
                state = self.metastore.table_state(name, database)
                if state is None:
                    return self._resolve_fresh(name, database)
                stamp = (state, self.conf.fingerprint())
                memo = self._resolve_memo.get(key)
                if memo is not None and memo[0] == stamp:
                    return memo[1]
                fresh = self._resolve_fresh(name, database)
                if len(self._resolve_memo) >= _RESOLVE_MEMO_LIMIT:
                    self._resolve_memo.clear()
                self._resolve_memo[key] = (stamp, fresh)
                return fresh

            resolved = self.retry.call(
                attempt,
                site="spark->metastore",
                operation="resolve",
                cooperative=("stale_read",),
            )
            if sp is not None:
                sp.attributes.update(
                    table=name,
                    database=database,
                    used_native_schema=resolved.used_native_schema,
                    not_case_preserving=not resolved.used_native_schema,
                )
            return resolved

    def _resolve_fresh(self, name: str, database: str) -> ResolvedTable:
        table = self.metastore.get_table(name, database)
        warnings: list[str] = []
        native = table.property(NATIVE_SCHEMA_PROPERTY)
        if native is not None:
            schema = schema_from_property(native)
            used_native = True
        else:
            schema = self._fallback_schema(table)
            used_native = False
            warnings.append(NOT_CASE_PRESERVING_WARNING)
        schema = self._apply_session_types(schema)
        return ResolvedTable(
            table=table,
            schema=schema,
            used_native_schema=used_native,
            warnings=tuple(warnings),
        )

    def _fallback_schema(self, table: Table) -> Schema:
        """Metastore schema, reinterpreted under session settings."""
        schema = table.schema.with_case_sensitivity(False)
        if self.conf.timestamp_type == "TIMESTAMP_NTZ":
            schema = schema.map_types(_timestamp_to_ntz)
        return schema

    def _apply_session_types(self, schema: Schema) -> Schema:
        if self.conf.char_varchar_as_string:
            schema = schema.map_types(_char_varchar_to_string)
        return schema


def _timestamp_to_ntz(dtype):
    if isinstance(dtype, TimestampType):
        return TimestampNTZType()
    return dtype


def _char_varchar_to_string(dtype):
    if isinstance(dtype, (CharType, VarcharType)):
        return StringType()
    return dtype
