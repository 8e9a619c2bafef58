//! A tiny interactive shell over the engine + CQA layer.
//!
//! Run with: `cargo run --example repl`
//!
//! Commands:
//!   <sql>;                     execute a SQL statement on the backend
//!   .fd <table> <lhs> <rhs>    add an FD constraint (column indices)
//!   .detect                    (re)build the conflict hypergraph
//!   .cqa <sql>                 consistent answers to a SELECT (SJUD class);
//!                              re-detects first if statements ran since
//!                              `.detect` (a live `Hippo` refuses to answer
//!                              from a stale hypergraph)
//!   .quit

use hippo::cqa::prelude::*;
use hippo::engine::{Database, ExecResult, Row};
use std::io::{self, BufRead, Write};

/// `.cqa`: reconcile, classify the SQL into SJUD, freeze, answer.
fn cqa(h: &mut Hippo, sql: &str) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    h.redetect()?;
    let frozen = h.freeze()?;
    let q = sjud_from_sql(sql, frozen.catalog())?;
    Ok(frozen.answer(&q, &h.options)?.rows)
}

fn main() {
    let mut db = Some(Database::new());
    let mut constraints: Vec<DenialConstraint> = Vec::new();
    let mut hippo: Option<Hippo> = None;

    let stdin = io::stdin();
    print!("hippo> ");
    io::stdout().flush().unwrap();
    for line in stdin.lock().lines() {
        let line = line.unwrap();
        let line = line.trim();
        if line.is_empty() {
            print!("hippo> ");
            io::stdout().flush().unwrap();
            continue;
        }
        if line == ".quit" {
            break;
        } else if let Some(rest) = line.strip_prefix(".fd ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() == 3 {
                if let (Ok(lhs), Ok(rhs)) = (parts[1].parse::<usize>(), parts[2].parse::<usize>()) {
                    constraints.push(DenialConstraint::functional_dependency(
                        parts[0],
                        &[lhs],
                        rhs,
                    ));
                    println!("added FD {}:{} -> {}", parts[0], lhs, rhs);
                } else {
                    println!("usage: .fd <table> <lhs-col> <rhs-col>");
                }
            } else {
                println!("usage: .fd <table> <lhs-col> <rhs-col>");
            }
        } else if line == ".detect" {
            let d = db
                .take()
                .unwrap_or_else(|| hippo.take().map(Hippo::into_database).unwrap_or_default());
            match Hippo::new(d, constraints.clone()) {
                Ok(h) => {
                    println!(
                        "hypergraph: {} edges over {} tuples",
                        h.graph().edge_count(),
                        h.graph().conflicting_vertex_count()
                    );
                    hippo = Some(h);
                }
                Err(e) => println!("error: {e}"),
            }
        } else if let Some(sql) = line.strip_prefix(".cqa ") {
            match &mut hippo {
                Some(h) => match cqa(h, sql.trim().trim_end_matches(';')) {
                    Ok(rows) => {
                        for r in &rows {
                            println!("{r:?}");
                        }
                        println!("({} consistent rows)", rows.len());
                    }
                    Err(e) => println!("error: {e}"),
                },
                None => println!("run .detect first"),
            }
        } else {
            let target = match (&mut db, &mut hippo) {
                (Some(d), _) => Some(d),
                (None, Some(h)) => Some(h.db_mut()),
                _ => None,
            };
            match target {
                Some(d) => match d.execute(line.trim_end_matches(';')) {
                    Ok(ExecResult::Rows(r)) => {
                        println!("{}", r.columns.join(" | "));
                        for row in &r.rows {
                            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                            println!("{}", cells.join(" | "));
                        }
                        println!("({} rows)", r.rows.len());
                    }
                    Ok(ExecResult::Count(n)) => println!("ok ({n} rows affected)"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("no database"),
            }
        }
        print!("hippo> ");
        io::stdout().flush().unwrap();
    }
}
