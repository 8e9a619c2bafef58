//! Data integration — the paper's opening motivation.
//!
//! Two autonomous account ledgers are merged. Each source is separately
//! consistent, but the union violates the FD `account → balance` wherever
//! the sources disagree. Deleting conflicting rows would silently drop
//! those accounts; consistent query answering keeps every account whose
//! balance is *certain* and can still answer range queries about the
//! disputed ones.
//!
//! Run with: `cargo run --example data_integration`

use hippo::cqa::detect::detect_conflicts;
use hippo::cqa::prelude::*;
use hippo_testkit::{conflict_free_answers, IntegrationWorkload};

fn main() {
    let workload = IntegrationWorkload {
        accounts_per_source: 200,
        overlap: 0.3,
        disagreement: 0.4,
        seed: 2004,
    };
    let db = workload.build().unwrap();
    let constraint = workload.constraint();

    let (graph, dstats) =
        detect_conflicts(db.catalog(), std::slice::from_ref(&constraint)).unwrap();
    println!(
        "integrated ledger: {} rows, {} conflicting rows in {} conflicts (detected in {:?})",
        db.catalog().table("ledger").unwrap().len(),
        graph.conflicting_vertex_count(),
        graph.edge_count(),
        dstats.elapsed,
    );

    let hippo = Hippo::new(db, vec![constraint]).unwrap();

    // Accounts with a consistently-known balance of at least 50 000.
    let q = SjudQuery::rel("ledger").select(Pred::cmp_const(1, CmpOp::Ge, 50_000i64));
    let frozen = hippo.freeze().unwrap();
    let ConsistentAnswer {
        rows: answers,
        stats,
        ..
    } = frozen.answer(&q, &hippo.options).unwrap();
    println!(
        "\nbalance ≥ 50000: {} consistent rows ({} candidates, {} prover calls, {:?})",
        answers.len(),
        stats.candidates,
        stats.prover_calls,
        stats.t_total
    );

    // Compare against the "delete conflicting rows" approach (demo part 1):
    let strawman = conflict_free_answers(&q, hippo.db().catalog(), hippo.graph());
    println!(
        "same query on the conflict-free instance: {} rows",
        strawman.len()
    );

    // Disjunctive information: accounts whose balance is, in every repair,
    // either below 1000 or above 90000 (union query — the class where the
    // query-rewriting comparator gives up).
    let q = SjudQuery::rel("ledger")
        .select(Pred::cmp_const(1, CmpOp::Lt, 1_000i64))
        .union(SjudQuery::rel("ledger").select(Pred::cmp_const(1, CmpOp::Gt, 90_000i64)));
    let answers = frozen.answer(&q, &hippo.options).unwrap().rows;
    println!(
        "\nextreme balances (union query): {} consistent rows",
        answers.len()
    );
    match hippo::cqa::rewrite::rewrite_query(&q, hippo.constraints(), hippo.db().catalog()) {
        Err(e) => println!("query rewriting on the same query: {e}"),
        Ok(_) => unreachable!("unions are outside the rewriting class"),
    }
}
