//! Quickstart: optimize the Figure 1 TPC-H query through the unified
//! `Planner` API, then compare the exact algorithms on a 12-relation star by
//! selecting them from the strategy registry.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mpdp::prelude::*;
use mpdp_cost::catalog::{Catalog, Column, JoinPredicate, Table};

fn pk(name: &str) -> Column {
    Column {
        name: name.into(),
        ndv: 0.0,
        primary_key: true,
    }
}

fn fk(name: &str, ndv: f64) -> Column {
    Column {
        name: name.into(),
        ndv,
        primary_key: false,
    }
}

fn main() {
    let model = PgLikeCost::new();

    // --- The paper's Figure 1 example query -----------------------------
    // select o_orderdate from lineitem, orders, part, customer
    // where p_partkey = l_partkey and o_orderkey = l_orderkey
    //   and o_custkey = c_custkey
    let mut catalog = Catalog::new();
    catalog.add_table(Table::new(
        "lineitem",
        6_000_000.0,
        vec![fk("l_orderkey", 1_500_000.0), fk("l_partkey", 200_000.0)],
    ));
    catalog.add_table(Table::new(
        "orders",
        1_500_000.0,
        vec![pk("o_orderkey"), fk("o_custkey", 150_000.0)],
    ));
    catalog.add_table(Table::new("part", 200_000.0, vec![pk("p_partkey")]));
    catalog.add_table(Table::new("customer", 150_000.0, vec![pk("c_custkey")]));

    let tables = [0usize, 1, 2, 3]; // lineitem, orders, part, customer
    let predicates = [
        JoinPredicate {
            left_table: 2,
            left_col: "p_partkey".into(),
            right_table: 0,
            right_col: "l_partkey".into(),
        },
        JoinPredicate {
            left_table: 1,
            left_col: "o_orderkey".into(),
            right_table: 0,
            right_col: "l_orderkey".into(),
        },
        JoinPredicate {
            left_table: 1,
            left_col: "o_custkey".into(),
            right_table: 3,
            right_col: "c_custkey".into(),
        },
    ];
    let query = catalog.build_query(&tables, &predicates, &model);

    // The adaptive deployment: exact MPDP for small queries, UnionDP-MPDP
    // beyond the exact limit. One front door for any query size.
    let planner = PlannerBuilder::new()
        .exact(ExactAlgo::Mpdp)
        .fallback(LargeAlgo::UnionDp { k: 15 })
        .exact_limit(18)
        .build();
    let result = planner
        .plan_query(&query, &model)
        .expect("optimization succeeds");
    let counters = result.counters.expect("exact runs report counters");
    println!(
        "=== Figure 1 TPC-H query (4 relations) via {} ===",
        result.strategy
    );
    println!(
        "optimal cost: {:.1}   CCP pairs: {}   evaluated: {}",
        result.cost, counters.ccp, counters.evaluated
    );
    println!("{}", result.plan.render());

    // --- A 12-relation star, comparing algorithms by registry name ------
    let star = mpdp::workload::gen::star(12, 7, &model);
    println!("=== 12-relation star: exact algorithms agree ===");
    for series in ["Postgres (1CPU)", "DPSub (1CPU)", "DPCCP (1CPU)", "MPDP"] {
        let strategy = mpdp::registry().get(series).expect("registered");
        let r = strategy.plan(&star, &model, None).unwrap();
        let c = r.counters.expect("exact runs report counters");
        println!(
            "{series:<16} cost={:.1}  evaluated={:>8}  ccp={:>6}  (evaluated/ccp = {:.1})",
            r.cost,
            c.evaluated,
            c.ccp,
            c.inefficiency()
        );
    }
}
