//! # hippo-sql
//!
//! A self-contained SQL front end for the Hippo consistent-query-answering
//! system: lexer, abstract syntax tree, recursive-descent parser and a
//! deterministic SQL printer.
//!
//! The dialect is the subset Hippo needs when talking to its RDBMS backend:
//!
//! * DDL: `CREATE TABLE`, `DROP TABLE`
//! * DML: `INSERT`, `DELETE`, `UPDATE`
//! * Queries: `SELECT` with `WHERE`, joins (comma, `CROSS`, `INNER ... ON`),
//!   `GROUP BY`/aggregates, `ORDER BY`, `LIMIT`, `DISTINCT`, set operations
//!   (`UNION`, `EXCEPT`, `INTERSECT`, with optional `ALL`), scalar and
//!   `EXISTS`/`IN` subqueries.
//!
//! The printer renders every AST node back to SQL text such that
//! `parse(print(ast)) == ast` (see the round-trip property tests); Hippo
//! relies on this to ship envelope queries to the engine as plain SQL, the
//! same interface shape the original system used against PostgreSQL.
//!
//! ```
//! use hippo_sql::{parse_statement, Statement};
//! let stmt = parse_statement("SELECT name, salary FROM emp WHERE salary > 1000").unwrap();
//! assert!(matches!(stmt, Statement::Select(_)));
//! ```

mod ast;
mod lexer;
mod parser;
mod printer;
mod token;

pub use ast::*;
pub use parser::{parse_expr, parse_query, parse_statement, parse_statements, ParseError};
pub use printer::{print_expr, print_query};
