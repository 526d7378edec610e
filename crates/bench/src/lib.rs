//! # memex-bench — experiment harness
//!
//! One module per table/figure of EXPERIMENTS.md. Every module exposes
//! `run(quick) -> Table`; the `experiments` binary prints them all.
//!
//! The tools only experiments use live here too: the focused and
//! unfocused crawlers ([`crawler`], T4), semi-supervised EM ([`em`], A5),
//! confusion matrices and splits ([`eval`]), clustering quality
//! metrics ([`quality`], T3/F4) and the relational engine A6 measures
//! the keyed store against ([`rel`]).
//!
//! So does the whole-system tests' harness ([`script`]): one seeded request
//! model and the twin every answer is held to.
//!
//! `quick = true` shrinks workloads for CI; the committed EXPERIMENTS.md
//! numbers come from `quick = false`. Speed claims are not made here:
//! `BENCHMARK.json` + `benchmark/` judge those.

mod ablations;
pub mod crawler;
pub mod em;
pub mod eval;
mod f1_feedback;
mod f2_trail;
mod f3_pipeline;
mod f4_themes;
pub mod quality;
pub mod rel;
pub mod script;
mod t1_classify;
mod t2_search;
mod t3_cluster;
mod t4_crawl;
mod t5_recommend;
mod t6_recall;
pub mod table;
pub mod worlds;

pub use table::Table;

/// One registered experiment: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn(bool) -> Table);

/// Every experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "T1",
            "Text-only vs text+link+folder classification (§4 headline)",
            t1_classify::run,
        ),
        ("F1", "Folder-tab feedback loop (Fig. 1)", f1_feedback::run),
        (
            "F2",
            "Trail-tab topical context replay (Fig. 2)",
            f2_trail::run,
        ),
        (
            "F3",
            "Server pipeline: write-ack latency through the demons (Fig. 3)",
            f3_pipeline::run,
        ),
        ("F4", "Community theme discovery (Fig. 4)", f4_themes::run),
        (
            "T2",
            "Full-text search over visited pages (§2)",
            t2_search::run,
        ),
        (
            "T3",
            "HAC vs Scatter/Gather interaction time (§4, ref [6])",
            t3_cluster::run,
        ),
        (
            "T4",
            "Focused vs unfocused crawl harvest rate (§4, ref [5])",
            t4_crawl::run,
        ),
        (
            "T5",
            "Theme profiles vs URL overlap for recommendation (§4)",
            t5_recommend::run,
        ),
        (
            "T6",
            "Months-old recall and ISP bill breakdown (§1)",
            t6_recall::run,
        ),
        (
            "A1",
            "Ablation: enhanced-classifier evidence channels",
            ablations::run_channels,
        ),
        (
            "A2",
            "Ablation: feature selection (Fisher/chi2/MI)",
            ablations::run_features,
        ),
        (
            "A3",
            "Ablation: flat vs hierarchical (TAPER) classification",
            ablations::run_hierarchy,
        ),
        (
            "A5",
            "Ablation: semi-supervised EM vs enhanced",
            ablations::run_em,
        ),
        (
            "A6",
            "Ablation: RDBMS vs lightweight store for term statistics (§3)",
            ablations::run_store,
        ),
        (
            "A7",
            "Ablation: the keyed store's inline tier merges",
            ablations::run_merges,
        ),
    ]
}
