//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p memex-bench --bin experiments            # all, full size
//! cargo run --release -p memex-bench --bin experiments -- --quick # CI size
//! cargo run --release -p memex-bench --bin experiments -- T1 F3   # a subset
//! ```

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let filters: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_uppercase())
        .collect();
    println!("Memex experiment harness — regenerating the paper's tables & figures");
    println!("(mode: {})\n", if quick { "quick" } else { "full" });
    let total = Instant::now();
    for (id, title, runner) in memex_bench::all_experiments() {
        if !filters.is_empty() && !filters.iter().any(|f| f == id) {
            continue;
        }
        println!("=== {id}: {title} ===");
        let start = Instant::now();
        let table = runner(quick);
        print!("{}", table.render());
        println!("[{id} took {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    println!("all done in {:.1}s", total.elapsed().as_secs_f64());
}
