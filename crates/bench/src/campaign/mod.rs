//! The fault-injection campaign subsystem: sweep injection rates × ABFT
//! schemes × precisions × variants × dataset shapes, classify silent data
//! corruption against fault-free twin runs, and aggregate the paper's §V-C
//! detection / correction / SDC tables from one command.
//!
//! * [`grid`] — declarative sweep spec, expanded to deterministically
//!   seeded cells,
//! * [`runner`] — parallel cell execution; every cell's outcome is a pure
//!   function of its seed,
//! * [`mod@classify`] — benign-vs-SDC classification via fault-free twins,
//! * [`table`] — aggregation into [`crate::report::FigureReport`] tables
//!   plus per-injection JSONL logs,
//! * [`quant`] — the serving-path axis: bit flips in resident quantized
//!   centroid tables, classified against host-reference labels
//!   (`campaign --quant-table N`).
//!
//! `cargo run -p bench_harness --release --bin campaign -- --quick` is the
//! one-command entry point (see the `campaign` binary).

pub mod classify;
pub mod grid;
pub mod quant;
pub mod runner;
pub mod table;

pub use classify::{classify, Classification, SdcPolicy};
pub use grid::{
    parse_precision, parse_scheme, scheme_token, CampaignCell, CampaignGrid, DataShape,
};
pub use quant::{quant_table_csv, run_quant_campaign, QuantCampaignRow, QuantCampaignSpec};
pub use runner::{run_campaign, run_cell, CellOutcome};
pub use table::{aggregate, campaign_table, records_jsonl, CampaignRow};
