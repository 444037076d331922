//! CI schema gate for `BENCH_cert.json`: parses the artifact with the
//! typed schema parser (every row must carry every required key with the
//! right type) and prints a one-line digest per sweep row. Exits non-zero
//! on any violation, so a malformed artifact fails the pipeline at the PR
//! that broke it instead of at the first consumer.
//!
//! Usage: `cert_schema_gate [path]` — defaults to the workspace artifact
//! location (`$DBSM_BENCH_CERT_JSON` or `BENCH_cert.json` at the root).

use dbsm_bench::cert_json::{default_output_path, parse_document};
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = std::env::args().nth(1).map_or_else(default_output_path, std::path::PathBuf::from);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cert_schema_gate: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse_document(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cert_schema_gate: {} violates the schema: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if doc.rows.is_empty() {
        eprintln!("cert_schema_gate: {} parsed but holds zero rows", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "cert_schema_gate: {} OK — group {:?}, {} rows",
        path.display(),
        doc.group,
        doc.rows.len()
    );
    for r in &doc.rows {
        println!(
            "  {:<10} shards={:<2} clients={:<6} {:<9} sites={:<2} rf={:<2} \
             tpm={:<9.0} lat={:<7.1} stall={}us \
             span={:.2} vote={}/{} wire={}/{} pb={:.2} wait={:.1}ms \
             repl={}/{} park={:.0}ms hash={}",
            r.backend,
            r.shards,
            r.clients,
            r.commit_path,
            r.sites,
            r.replication_factor,
            r.tpm,
            r.mean_latency_ms,
            r.stall_ns / 1_000,
            r.span_fraction,
            r.vote_rounds,
            r.cross_span_txns,
            r.votes_sent,
            r.votes_received,
            r.vote_piggyback_rate,
            r.mean_vote_wait_ms,
            r.replacements,
            r.rehomed_spans,
            r.parked_ns as f64 / 1e6,
            r.config_hash,
        );
    }
    ExitCode::SUCCESS
}
