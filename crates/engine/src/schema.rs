//! Column types, table schemas and the shared error type.

use crate::value::Value;
use hippo_sql::TypeName;
use std::fmt;

/// Engine column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Does `value` inhabit this type (NULL inhabits all)?
    pub(crate) fn admits(self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (DataType::Int, Value::Int(_)) => true,
            // Integers are accepted into float columns (widening).
            (DataType::Float, Value::Float(_) | Value::Int(_)) => true,
            (DataType::Text, Value::Text(_)) => true,
            (DataType::Bool, Value::Bool(_)) => true,
            _ => false,
        }
    }

    /// Coerce `value` for storage in a column of this type (int → float
    /// widening only). Returns `None` when the value does not fit.
    pub(crate) fn coerce(self, value: Value) -> Option<Value> {
        match (self, value) {
            (_, Value::Null) => Some(Value::Null),
            (DataType::Float, Value::Int(v)) => Some(Value::Float(v as f64)),
            (ty, v) if ty.admits(&v) => Some(v),
            _ => None,
        }
    }
}

impl From<TypeName> for DataType {
    fn from(t: TypeName) -> Self {
        match t {
            TypeName::Int => DataType::Int,
            TypeName::Float => DataType::Float,
            TypeName::Text => DataType::Text,
            TypeName::Bool => DataType::Bool,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "BIGINT"),
            DataType::Float => write!(f, "DOUBLE PRECISION"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOLEAN"),
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-cased unless the user quoted it).
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// `NOT NULL` constraint.
    pub not_null: bool,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            name: name.into(),
            ty,
            not_null: false,
        }
    }

    /// Mark the column `NOT NULL`.
    pub(crate) fn not_null(mut self) -> Column {
        self.not_null = true;
        self
    }
}

/// A table schema: named, ordered columns plus an optional primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Indices of primary-key columns (empty = no key declared).
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Build a schema; `primary_key` lists column names.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<Column>,
        primary_key: &[&str],
    ) -> Result<TableSchema, EngineError> {
        let name = name.into();
        let mut schema = TableSchema {
            name,
            columns,
            primary_key: Vec::new(),
        };
        let mut seen = std::collections::HashSet::new();
        for c in &schema.columns {
            if !seen.insert(c.name.clone()) {
                return Err(EngineError::new(format!(
                    "duplicate column {:?} in table {:?}",
                    c.name, schema.name
                )));
            }
        }
        for pk in primary_key {
            let idx = schema.column_index(pk).ok_or_else(|| {
                EngineError::new(format!(
                    "primary key column {pk:?} not found in table {:?}",
                    schema.name
                ))
            })?;
            schema.primary_key.push(idx);
        }
        Ok(schema)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column names in order.
    pub(crate) fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Validate and coerce a row for insertion.
    pub fn check_row(&self, row: Vec<Value>) -> Result<Vec<Value>, EngineError> {
        if row.len() != self.columns.len() {
            return Err(EngineError::new(format!(
                "table {:?} expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        row.into_iter()
            .zip(&self.columns)
            .map(|(v, c)| {
                if v.is_null() && c.not_null {
                    return Err(EngineError::new(format!(
                        "null value in NOT NULL column {:?} of table {:?}",
                        c.name, self.name
                    )));
                }
                c.ty.coerce(v.clone()).ok_or_else(|| {
                    EngineError::new(format!(
                        "type mismatch for column {:?} of table {:?}: expected {}, got {}",
                        c.name,
                        self.name,
                        c.ty,
                        v.type_name()
                    ))
                })
            })
            .collect()
    }
}

/// Structured classification of an [`EngineError`].
///
/// `General` covers ordinary planning/execution failures; the remaining
/// kinds form the resource-governance and fault-tolerance taxonomy:
/// callers match on them to distinguish "the query was wrong" from "the
/// call ran out of budget / was cancelled / a worker died".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Ordinary failure (parse, bind, type, execution).
    General,
    /// A resource budget was exhausted at `stage`. For deadlines,
    /// `spent`/`limit` are microseconds; for row budgets, rows.
    Budget {
        /// Pipeline stage that observed exhaustion.
        stage: &'static str,
        /// Amount spent when the trip was observed.
        spent: u64,
        /// The configured limit (0 for a forced/injected trip).
        limit: u64,
    },
    /// The call was cancelled via a cancel handle at `stage`.
    Cancelled {
        /// Pipeline stage that observed the cancellation.
        stage: &'static str,
    },
    /// A worker thread panicked while running `stage`; the panic was
    /// contained to the call that spawned it.
    WorkerPanic {
        /// Pipeline stage whose pool the worker belonged to.
        stage: &'static str,
        /// Index of the shard/task the worker was executing.
        shard: usize,
    },
    /// A service shed this request at admission: capacity and queue are
    /// full. The request never ran; retry after the hinted delay.
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The service is draining for shutdown; new requests are rejected
    /// (in-flight ones finish or trip their budgets).
    Shutdown,
    /// A durability directory is already exclusively held by another
    /// engine (this process or another); double-opening is refused
    /// rather than risking interleaved log writes.
    Locked,
    /// The write was sent to a replica. Replicas serve reads from
    /// replayed epochs but never accept writes — the client must
    /// resubmit to the primary of the carried fencing term.
    NotPrimary {
        /// The replication fencing term the replica currently follows.
        term: u64,
    },
}

/// The engine error type (also used by the planner and executor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Human-readable message.
    pub message: String,
    /// Structured classification (defaults to [`ErrorKind::General`]).
    pub kind: ErrorKind,
}

impl EngineError {
    /// Construct from a message.
    pub fn new(message: impl Into<String>) -> EngineError {
        EngineError {
            message: message.into(),
            kind: ErrorKind::General,
        }
    }

    /// A budget-exhaustion error (see [`ErrorKind::Budget`]).
    pub fn budget(stage: &'static str, spent: u64, limit: u64) -> EngineError {
        EngineError {
            message: format!("budget exhausted at stage {stage:?} (spent {spent}, limit {limit})"),
            kind: ErrorKind::Budget {
                stage,
                spent,
                limit,
            },
        }
    }

    /// A cooperative-cancellation error (see [`ErrorKind::Cancelled`]).
    pub fn cancelled(stage: &'static str) -> EngineError {
        EngineError {
            message: format!("call cancelled at stage {stage:?}"),
            kind: ErrorKind::Cancelled { stage },
        }
    }

    /// A contained worker-panic error (see [`ErrorKind::WorkerPanic`]).
    pub fn worker_panic(stage: &'static str, shard: usize, detail: &str) -> EngineError {
        EngineError {
            message: format!("worker panicked in stage {stage:?}, shard {shard}: {detail}"),
            kind: ErrorKind::WorkerPanic { stage, shard },
        }
    }

    /// A load-shed error (see [`ErrorKind::Overloaded`]): the request
    /// was rejected at admission, `retry_after` hints the back-off.
    pub fn overloaded(retry_after: std::time::Duration) -> EngineError {
        let retry_after_ms = retry_after.as_millis() as u64;
        EngineError {
            message: format!(
                "service overloaded: request shed at admission (retry after {retry_after_ms}ms)"
            ),
            kind: ErrorKind::Overloaded { retry_after_ms },
        }
    }

    /// A drain-rejection error (see [`ErrorKind::Shutdown`]).
    pub fn shutdown() -> EngineError {
        EngineError {
            message: "service is shutting down: new requests are rejected".to_string(),
            kind: ErrorKind::Shutdown,
        }
    }

    /// A lock-contention error (see [`ErrorKind::Locked`]): the
    /// durability directory at `path` is held by another engine.
    pub fn locked(path: impl std::fmt::Display) -> EngineError {
        EngineError {
            message: format!("durability directory {path} is locked by another engine"),
            kind: ErrorKind::Locked,
        }
    }

    /// A replica refusing a write (see [`ErrorKind::NotPrimary`]):
    /// `term` is the fencing term the replica currently follows.
    pub fn not_primary(term: u64) -> EngineError {
        EngineError {
            message: format!(
                "not primary: this node is a replica (fencing term {term}); \
                 writes must go to the primary"
            ),
            kind: ErrorKind::NotPrimary { term },
        }
    }

    /// Is this a budget-exhaustion error?
    pub fn is_budget(&self) -> bool {
        matches!(self.kind, ErrorKind::Budget { .. })
    }

    /// Is this a cancellation error?
    pub fn is_cancelled(&self) -> bool {
        matches!(self.kind, ErrorKind::Cancelled { .. })
    }

    /// Is this a contained worker panic?
    pub fn is_worker_panic(&self) -> bool {
        matches!(self.kind, ErrorKind::WorkerPanic { .. })
    }

    /// Was the request shed at admission?
    pub fn is_overloaded(&self) -> bool {
        matches!(self.kind, ErrorKind::Overloaded { .. })
    }

    /// Was the request rejected by a draining service?
    pub fn is_shutdown(&self) -> bool {
        matches!(self.kind, ErrorKind::Shutdown)
    }

    /// Is the durability directory held by another engine?
    pub fn is_locked(&self) -> bool {
        matches!(self.kind, ErrorKind::Locked)
    }

    /// Was the write refused because this node is a replica?
    pub fn is_not_primary(&self) -> bool {
        matches!(self.kind, ErrorKind::NotPrimary { .. })
    }

    /// The back-off hint of an [`ErrorKind::Overloaded`] error.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self.kind {
            ErrorKind::Overloaded { retry_after_ms } => {
                Some(std::time::Duration::from_millis(retry_after_ms))
            }
            _ => None,
        }
    }

    /// Budget or cancellation — the errors degraded mode may absorb
    /// into a truncated-but-sound partial answer.
    pub fn is_governance(&self) -> bool {
        self.is_budget() || self.is_cancelled()
    }

    /// Transient service conditions a client may retry after backing
    /// off: shed at admission or cancelled mid-flight. Budget trips and
    /// worker panics are *not* retryable by default — the same request
    /// would trip the same budget, and a panic needs investigation.
    pub fn is_retryable(&self) -> bool {
        self.is_overloaded() || self.is_cancelled()
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine error: {}", self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<hippo_sql::ParseError> for EngineError {
    fn from(e: hippo_sql::ParseError) -> Self {
        EngineError::new(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp_schema() -> TableSchema {
        TableSchema::new(
            "emp",
            vec![
                Column::new("name", DataType::Text).not_null(),
                Column::new("salary", DataType::Int),
                Column::new("rate", DataType::Float),
            ],
            &["name"],
        )
        .unwrap()
    }

    #[test]
    fn schema_lookup() {
        let s = emp_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column_index("salary"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.primary_key, vec![0]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("a", DataType::Text),
            ],
            &[],
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate column"));
    }

    #[test]
    fn unknown_pk_rejected() {
        let err = TableSchema::new("t", vec![Column::new("a", DataType::Int)], &["b"]).unwrap_err();
        assert!(err.message.contains("primary key"));
    }

    #[test]
    fn check_row_validates_arity_nullability_types() {
        let s = emp_schema();
        assert!(s.check_row(vec![Value::text("a")]).is_err(), "arity");
        assert!(
            s.check_row(vec![Value::Null, Value::Int(1), Value::Null])
                .is_err(),
            "not null"
        );
        assert!(
            s.check_row(vec![Value::text("a"), Value::text("x"), Value::Null])
                .is_err(),
            "type"
        );
        let row = s
            .check_row(vec![Value::text("a"), Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(row[2], Value::Float(2.0), "int widens to float column");
    }

    #[test]
    fn service_error_kinds_classify() {
        let e = EngineError::overloaded(std::time::Duration::from_millis(25));
        assert!(e.is_overloaded() && e.is_retryable() && !e.is_governance());
        assert_eq!(e.retry_after(), Some(std::time::Duration::from_millis(25)));
        assert_eq!(e.kind, ErrorKind::Overloaded { retry_after_ms: 25 });
        let e = EngineError::shutdown();
        assert!(e.is_shutdown() && !e.is_retryable());
        assert_eq!(e.retry_after(), None);
        assert!(EngineError::cancelled("prover").is_retryable());
        assert!(!EngineError::budget("prover", 1, 1).is_retryable());
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            DataType::Float.coerce(Value::Int(3)),
            Some(Value::Float(3.0))
        );
        assert_eq!(DataType::Int.coerce(Value::Float(3.0)), None);
        assert_eq!(DataType::Text.coerce(Value::Null), Some(Value::Null));
        assert!(DataType::Bool.admits(&Value::Bool(true)));
        assert!(!DataType::Bool.admits(&Value::Int(1)));
    }
}
