//! Machine-readable certification-bench results: `BENCH_cert.json`.
//!
//! The certification sweeps (`ablation_cert_backend`,
//! `ablation_partial_replication`, `ablation_vote_wire`,
//! `ablation_replacement`) write one JSON document so the certification
//! perf trajectory — throughput and the work ledger per backend, client
//! count and placement — is tracked as an artifact across PRs instead of
//! living only in terminal output. The workspace is offline (no serde), so
//! this module hand-writes the small, stable schema and ships a minimal
//! validating parser that CI and the unit tests use to guarantee the
//! artifact stays well-formed JSON.
//!
//! Schema (one object):
//!
//! ```json
//! {
//!   "group": "ablation_cert_sharding",
//!   "rows": [
//!     {
//!       "backend": "indexed", "shards": 1, "clients": 10000,
//!       "commit_path": "sync", "sites": 3, "replication_factor": 3,
//!       "tpm": 35966.0,
//!       "mean_latency_ms": 61.8, "abort_pct": 2.1,
//!       "certifications": 900, "comparisons": 0, "probes": 181150,
//!       "total_work_ns": 34303500.0, "stall_ns": 4000,
//!       "span_fraction": 1.0, "vote_rounds": 0, "cross_span_txns": 0,
//!       "votes_sent": 0, "votes_received": 0, "vote_piggyback_rate": 0,
//!       "vote_resends": 0, "mean_vote_wait_ms": 0,
//!       "replacements": 0, "rehomed_spans": 0, "parked_ns": 0,
//!       "config_hash": "f2a90c4d13b7e6a1"
//!     }
//!   ]
//! }
//! ```
//!
//! Rows are keyed by
//! `(backend, shards, clients, commit_path, sites, replication_factor)`;
//! `shards` is always 1 and `commit_path` always `sync`, kept so the
//! committed rows keep their keys and hashes. Every key is required. The
//! `config_hash` fingerprints everything else a row's numbers depend on
//! (schema version, sites, replication factor, CPUs per site, target
//! transactions, history window, seed): [`merge_rows`] preserves rows a
//! partial sweep didn't re-run, but refuses to mix rows whose hashes
//! disagree for the same key — a silent half-updated artifact would be
//! worse than no artifact.

use dbsm_core::{CertCostModel, ExperimentConfig, RunMetrics};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Bumped whenever a schema or pricing change makes old rows incomparable
/// with fresh ones; feeds [`config_hash`], so a bump forces a full re-sweep
/// instead of a silent mixed-schema merge.
pub const SCHEMA_VERSION: u32 = 5;

/// One row of the certification sweep: a backend at a client count, with
/// the throughput and the work-ledger split the sweep exists to track.
#[derive(Debug, Clone, PartialEq)]
pub struct CertBenchRow {
    /// Backend name (`linear`, `indexed`, or a `churn{n}` label).
    pub backend: String,
    /// Shard count key column (always 1).
    pub shards: usize,
    /// Emulated clients.
    pub clients: usize,
    /// Commit path key column (always `sync`).
    pub commit_path: String,
    /// Replica sites in the run.
    pub sites: usize,
    /// Replicas per warehouse: equal to `sites` under full replication,
    /// lower under a partial placement.
    pub replication_factor: usize,
    /// Committed transactions per minute.
    pub tpm: f64,
    /// Mean end-to-end latency of committed transactions, ms.
    pub mean_latency_ms: f64,
    /// Abort rate, percent.
    pub abort_pct: f64,
    /// Certifications performed.
    pub certifications: u64,
    /// Linear-scan merge comparisons.
    pub comparisons: u64,
    /// Index probes.
    pub probes: u64,
    /// Certification cost of the run, nanoseconds.
    pub total_work_ns: f64,
    /// Data-dependent certification nanoseconds stalling the delivery loop.
    pub stall_ns: u64,
    /// Fraction of examined read/write-set entries local to the certifying
    /// site's span — 1.0 under full replication.
    pub span_fraction: f64,
    /// Partial-replication vote rounds performed.
    pub vote_rounds: u64,
    /// Update transactions that crossed spans and voted.
    pub cross_span_txns: u64,
    /// Wire-level certification votes multicast, all sites.
    pub votes_sent: u64,
    /// Wire-level votes received, all sites.
    pub votes_received: u64,
    /// Fraction of sent votes that rode outgoing data frames instead of
    /// paying their own packet.
    pub vote_piggyback_rate: f64,
    /// Vote retransmissions after loss.
    pub vote_resends: u64,
    /// Mean origin-side wait from delivery to quorum decision, ms.
    pub mean_vote_wait_ms: f64,
    /// View changes that stranded spans and triggered re-placement.
    pub replacements: u64,
    /// Spans re-homed onto surviving adopters.
    pub rehomed_spans: u64,
    /// Total nanoseconds clients of stranded spans spent parked.
    pub parked_ns: u64,
    /// Hex fingerprint of the row's configuration (see [`config_hash`]).
    pub config_hash: String,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprints everything a row's numbers depend on besides its key:
/// schema version, sites, replication factor, CPUs per site, target
/// transactions, certification history window and seed (SplitMix64 fold).
/// Two rows with the same key but different hashes came from incomparable
/// sweeps and must not be merged into one artifact.
#[allow(clippy::too_many_arguments)]
pub fn config_hash(
    backend: &str,
    shards: usize,
    clients: usize,
    commit_path: &str,
    sites: usize,
    replication_factor: usize,
    cpus_per_site: usize,
    target_txns: u64,
    history_window: u64,
    seed: u64,
) -> String {
    let mut h = SCHEMA_VERSION as u64;
    for byte in backend.bytes().chain([0u8]).chain(commit_path.bytes()) {
        h = splitmix64(h ^ byte as u64);
    }
    let nums = [
        shards as u64,
        clients as u64,
        sites as u64,
        replication_factor as u64,
        cpus_per_site as u64,
        target_txns,
        history_window,
        seed,
    ];
    for v in nums {
        h = splitmix64(h ^ v);
    }
    format!("{h:016x}")
}

impl CertBenchRow {
    /// Builds a row from one experiment's metrics, pricing the work ledger
    /// with the default cost model (the one the simulation charged) and
    /// fingerprinting the configuration that produced it.
    pub fn from_metrics(backend: &str, cfg: &ExperimentConfig, m: &RunMetrics) -> Self {
        let costs = CertCostModel::default();
        let shards = 1;
        let commit_path = "sync".to_string();
        let replication_factor =
            cfg.placement.map_or(cfg.sites, |p| p.effective_factor().min(cfg.sites));
        let config_hash = config_hash(
            backend,
            shards,
            cfg.clients,
            &commit_path,
            cfg.sites,
            replication_factor,
            cfg.cpus_per_site,
            cfg.target_txns,
            cfg.history_window,
            cfg.seed,
        );
        CertBenchRow {
            backend: backend.to_string(),
            shards,
            clients: cfg.clients,
            commit_path,
            sites: cfg.sites,
            replication_factor,
            tpm: m.tpm(),
            mean_latency_ms: m.mean_latency_ms(),
            abort_pct: m.abort_rate(),
            certifications: m.cert_work.certifications,
            comparisons: m.cert_work.comparisons,
            probes: m.cert_work.probes,
            total_work_ns: costs.total_work_ns(&m.cert_work),
            stall_ns: m.cert_work.stall_ns,
            span_fraction: m.cert_work.span_fraction(),
            vote_rounds: m.cert_work.vote_rounds,
            cross_span_txns: m.cert_work.cross_span_txns,
            votes_sent: m.vote_wire.sent,
            votes_received: m.vote_wire.received,
            vote_piggyback_rate: m.vote_wire.piggyback_rate(),
            vote_resends: m.vote_wire.resends,
            mean_vote_wait_ms: m.vote_wire.mean_wait_ms(),
            replacements: m.replacement_work.replacements,
            rehomed_spans: m.replacement_work.rehomed_spans,
            parked_ns: m.replacement_work.parked_ns,
            config_hash,
        }
    }

    /// The merge key: one artifact row exists per backend × shard count ×
    /// client count × commit path × sites × replication factor.
    pub fn key(&self) -> (String, usize, usize, String, usize, usize) {
        (
            self.backend.clone(),
            self.shards,
            self.clients,
            self.commit_path.clone(),
            self.sites,
            self.replication_factor,
        )
    }
}

/// A JSON number from an `f64`: finite values print with enough precision
/// to round-trip the metrics; non-finite values (which JSON cannot carry)
/// degrade to 0 rather than corrupting the document.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal with the escapes the schema can produce (backend
/// names are ASCII identifiers, but stay safe anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the sweep as the `BENCH_cert.json` document.
pub fn rows_to_json(group: &str, rows: &[CertBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"group\": {},", json_str(group));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"backend\": {}, \"shards\": {}, \"clients\": {}, \"commit_path\": {}, \
             \"sites\": {}, \"replication_factor\": {}, \
             \"tpm\": {}, \"mean_latency_ms\": {}, \"abort_pct\": {}, \"certifications\": {}, \
             \"comparisons\": {}, \"probes\": {}, \"total_work_ns\": {}, \"stall_ns\": {}, \
             \"span_fraction\": {}, \"vote_rounds\": {}, \"cross_span_txns\": {}, \
             \"votes_sent\": {}, \"votes_received\": {}, \"vote_piggyback_rate\": {}, \
             \"vote_resends\": {}, \"mean_vote_wait_ms\": {}, \
             \"replacements\": {}, \"rehomed_spans\": {}, \"parked_ns\": {}, \
             \"config_hash\": {}}}",
            json_str(&r.backend),
            r.shards,
            r.clients,
            json_str(&r.commit_path),
            r.sites,
            r.replication_factor,
            json_num(r.tpm),
            json_num(r.mean_latency_ms),
            json_num(r.abort_pct),
            r.certifications,
            r.comparisons,
            r.probes,
            json_num(r.total_work_ns),
            r.stall_ns,
            json_num(r.span_fraction),
            r.vote_rounds,
            r.cross_span_txns,
            r.votes_sent,
            r.votes_received,
            json_num(r.vote_piggyback_rate),
            r.vote_resends,
            json_num(r.mean_vote_wait_ms),
            r.replacements,
            r.rehomed_spans,
            r.parked_ns,
            json_str(&r.config_hash),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Where the artifact lands: `$DBSM_BENCH_CERT_JSON` if set, otherwise
/// `BENCH_cert.json` at the workspace root (benches run with the package
/// directory as cwd, so a relative path would bury the file).
pub fn default_output_path() -> PathBuf {
    if let Ok(p) = std::env::var("DBSM_BENCH_CERT_JSON") {
        return PathBuf::from(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_cert.json")
}

/// Validates and writes the document, returning the path written.
///
/// # Errors
///
/// Returns any filesystem error, or `InvalidData` if the rendered document
/// fails the self-check parse — a formatting bug must fail the bench run
/// loudly, not poison the artifact.
pub fn write_rows(group: &str, rows: &[CertBenchRow]) -> std::io::Result<PathBuf> {
    let doc = rows_to_json(group, rows);
    validate_json(&doc).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let path = default_output_path();
    std::fs::write(&path, doc)?;
    Ok(path)
}

// ---- minimal JSON parser ----------------------------------------------
//
// Full RFC 8259 value grammar without a JSON dependency (the workspace is
// offline): enough for CI and the tests to assert "this artifact parses",
// and for the partial-sweep merge to read rows back out of the committed
// document.

/// A parsed JSON value — just enough structure to read the artifact back.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Checks that `s` is one well-formed JSON value (with surrounding
/// whitespace). Returns a byte offset + message on the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(|_| ())
}

fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos).map(Json::Str),
        Some(b't') => literal(b, pos, b"true").map(|_| Json::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|_| Json::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|_| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("expected a value at byte {}", *pos)),
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    let mut entries = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        skip_ws(b, pos);
        let val = value(b, pos)?;
        entries.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut cp = 0u32;
                        for _ in 0..4 {
                            *pos += 1;
                            let Some(d) = b.get(*pos).and_then(|c| (*c as char).to_digit(16))
                            else {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            };
                            cp = cp * 16 + d;
                        }
                        // Surrogates only arise from escaped non-BMP text,
                        // which the writer never emits; degrade, don't fail.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            0x00..=0x1f => return Err(format!("raw control character at byte {}", *pos)),
            _ => {
                // Copy the raw UTF-8 byte run for this char.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
                );
            }
        }
    }
    Err("unterminated string".to_string())
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> Result<(), String> {
        if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(format!("expected a digit at byte {}", *pos));
        }
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        Ok(())
    };
    // Integer part: a lone 0 or a nonzero-led run.
    if b.get(*pos) == Some(&b'0') {
        *pos += 1;
    } else {
        digits(b, pos)?;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(b, pos)?;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(b, pos)?;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number at byte {start}: {e}"))
}

// ---- typed document reading and partial-sweep merge -------------------

impl Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing required key \"{key}\"")),
            _ => Err(format!("expected an object looking up \"{key}\"")),
        }
    }

    fn str_field(&self, key: &str) -> Result<String, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("key \"{key}\" must be a string, got {other:?}")),
        }
    }

    fn num_field(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(n) => Ok(*n),
            other => Err(format!("key \"{key}\" must be a number, got {other:?}")),
        }
    }

    fn uint_field(&self, key: &str) -> Result<u64, String> {
        let n = self.num_field(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("key \"{key}\" must be a non-negative integer, got {n}"));
        }
        Ok(n as u64)
    }
}

/// The parsed artifact: the sweep group label plus its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CertBenchDoc {
    /// Sweep group label, e.g. `ablation_cert_sharding`.
    pub group: String,
    /// All rows present in the document.
    pub rows: Vec<CertBenchRow>,
}

fn row_from_json(v: &Json) -> Result<CertBenchRow, String> {
    Ok(CertBenchRow {
        backend: v.str_field("backend")?,
        shards: v.uint_field("shards")? as usize,
        clients: v.uint_field("clients")? as usize,
        commit_path: v.str_field("commit_path")?,
        sites: v.uint_field("sites")? as usize,
        replication_factor: v.uint_field("replication_factor")? as usize,
        tpm: v.num_field("tpm")?,
        mean_latency_ms: v.num_field("mean_latency_ms")?,
        abort_pct: v.num_field("abort_pct")?,
        certifications: v.uint_field("certifications")?,
        comparisons: v.uint_field("comparisons")?,
        probes: v.uint_field("probes")?,
        total_work_ns: v.num_field("total_work_ns")?,
        stall_ns: v.uint_field("stall_ns")?,
        span_fraction: v.num_field("span_fraction")?,
        vote_rounds: v.uint_field("vote_rounds")?,
        cross_span_txns: v.uint_field("cross_span_txns")?,
        votes_sent: v.uint_field("votes_sent")?,
        votes_received: v.uint_field("votes_received")?,
        vote_piggyback_rate: v.num_field("vote_piggyback_rate")?,
        vote_resends: v.uint_field("vote_resends")?,
        mean_vote_wait_ms: v.num_field("mean_vote_wait_ms")?,
        replacements: v.uint_field("replacements")?,
        rehomed_spans: v.uint_field("rehomed_spans")?,
        parked_ns: v.uint_field("parked_ns")?,
        config_hash: v.str_field("config_hash")?,
    })
}

/// Parses a `BENCH_cert.json` document and enforces the schema contract:
/// every row must carry every required key with the right type. This is
/// what the CI schema gate runs — a well-formed-but-wrong-shape artifact
/// fails here, not three PRs later when a consumer chokes on it.
pub fn parse_document(s: &str) -> Result<CertBenchDoc, String> {
    let root = parse_json(s)?;
    let group = root.str_field("group")?;
    let rows_json = match root.field("rows")? {
        Json::Arr(items) => items,
        other => Err(format!("key \"rows\" must be an array, got {other:?}"))?,
    };
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, item) in rows_json.iter().enumerate() {
        rows.push(row_from_json(item).map_err(|e| format!("row {i}: {e}"))?);
    }
    Ok(CertBenchDoc { group, rows })
}

/// Merges a partial sweep into an existing artifact. Rows the fresh sweep
/// re-ran replace their old versions; rows it didn't run are preserved.
///
/// # Errors
///
/// If an existing row and a fresh row share a key but disagree on
/// `config_hash`, the sweeps are incomparable (schema bump, different
/// seed/sites/target) and the merge refuses rather than emit a document
/// that silently mixes them. Re-run the full sweep instead.
pub fn merge_rows(
    existing: &[CertBenchRow],
    fresh: &[CertBenchRow],
) -> Result<Vec<CertBenchRow>, String> {
    for old in existing {
        if let Some(new) = fresh.iter().find(|r| r.key() == old.key()) {
            if new.config_hash != old.config_hash {
                let (backend, shards, clients, path, sites, rf) = old.key();
                return Err(format!(
                    "config hash mismatch for row ({backend}, shards={shards}, \
                     clients={clients}, {path}, sites={sites}, \
                     replication_factor={rf}): existing {} vs fresh {} — \
                     the artifact holds an incomparable sweep; re-run it in full",
                    old.config_hash, new.config_hash
                ));
            }
        }
    }
    let mut merged: Vec<CertBenchRow> = existing
        .iter()
        .filter(|old| !fresh.iter().any(|new| new.key() == old.key()))
        .cloned()
        .collect();
    merged.extend(fresh.iter().cloned());
    merged.sort_by_key(|r| {
        (
            r.clients,
            r.backend.clone(),
            r.shards,
            r.commit_path.clone(),
            r.sites,
            r.replication_factor,
        )
    });
    Ok(merged)
}

/// Merges `fresh` into the artifact on disk (if any) and writes the result.
/// An unreadable or unparsable existing artifact is replaced with a warning
/// — the bench must not be bricked by a corrupt file — but a config-hash
/// mismatch against a *valid* artifact is a hard error (see [`merge_rows`]).
pub fn merge_and_write(group: &str, fresh: &[CertBenchRow]) -> std::io::Result<PathBuf> {
    let path = default_output_path();
    let existing = match std::fs::read_to_string(&path) {
        Ok(text) => match parse_document(&text) {
            Ok(doc) => doc.rows,
            Err(e) => {
                eprintln!(
                    "warning: existing {} does not match the schema ({e}); starting fresh",
                    path.display()
                );
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };
    let merged = merge_rows(&existing, fresh)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    write_rows(group, &merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> CertBenchRow {
        CertBenchRow {
            backend: "indexed".to_string(),
            shards: 1,
            clients: 10000,
            commit_path: "sync".to_string(),
            sites: 3,
            replication_factor: 3,
            tpm: 35966.4,
            mean_latency_ms: 61.75,
            abort_pct: 2.13,
            certifications: 912,
            comparisons: 0,
            probes: 181150,
            total_work_ns: 3.43e7,
            stall_ns: 4_000,
            span_fraction: 1.0,
            vote_rounds: 0,
            cross_span_txns: 0,
            votes_sent: 140,
            votes_received: 270,
            vote_piggyback_rate: 0.62,
            vote_resends: 4,
            mean_vote_wait_ms: 1.8,
            replacements: 1,
            rehomed_spans: 2,
            parked_ns: 2_500_000,
            config_hash: config_hash("indexed", 1, 10000, "sync", 3, 3, 1, 600, 4096, 42),
        }
    }

    #[test]
    fn rendered_document_passes_the_validator() {
        let doc = rows_to_json("ablation_cert_sharding", &[sample_row(), sample_row()]);
        validate_json(&doc).expect("well-formed");
        // Every schema field appears.
        for key in [
            "group",
            "rows",
            "backend",
            "shards",
            "clients",
            "tpm",
            "mean_latency_ms",
            "abort_pct",
            "certifications",
            "comparisons",
            "probes",
            "total_work_ns",
            "commit_path",
            "stall_ns",
            "sites",
            "replication_factor",
            "span_fraction",
            "vote_rounds",
            "cross_span_txns",
            "votes_sent",
            "votes_received",
            "vote_piggyback_rate",
            "vote_resends",
            "mean_vote_wait_ms",
            "replacements",
            "rehomed_spans",
            "parked_ns",
            "config_hash",
        ] {
            assert!(doc.contains(&format!("\"{key}\"")), "missing {key}:\n{doc}");
        }
    }

    #[test]
    fn empty_sweep_is_still_valid_json() {
        let doc = rows_to_json("ablation_cert_sharding", &[]);
        validate_json(&doc).expect("well-formed");
        assert!(doc.contains("\"rows\": [\n  ]"));
    }

    #[test]
    fn non_finite_metrics_degrade_to_zero_not_invalid_json() {
        let mut row = sample_row();
        row.tpm = f64::NAN;
        row.total_work_ns = f64::INFINITY;
        let doc = rows_to_json("g", &[row]);
        validate_json(&doc).expect("NaN/inf must not leak into the artifact");
        assert!(doc.contains("\"tpm\": 0,"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut row = sample_row();
        row.backend = "we\"ird\\name\n".to_string();
        let doc = rows_to_json("g", &[row]);
        validate_json(&doc).expect("escaped");
    }

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "0",
            r#"{"a": [1, 2.5, "x", {"b": null}], "c": false}"#,
            "  { \"k\" : \"v\\u00e9\" }  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "{'a': 1}",
            "{\"a\": 01}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "{\"a\": nul}",
            "[1 2]",
            "{\"a\" 1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted malformed: {bad}");
        }
    }

    #[test]
    fn row_from_metrics_prices_both_views() {
        // The serial work ledger and the delivery-loop stall.
        use dbsm_core::{run_experiment, CertBackendKind};
        let cfg = ExperimentConfig::replicated(3, 20)
            .with_target(40)
            .with_cert_backend(CertBackendKind::Indexed);
        let m = run_experiment(cfg.clone());
        let row = CertBenchRow::from_metrics("indexed", &cfg, &m);
        assert!(row.probes > 0, "indexed run probes");
        let priced = row.probes as f64 * CertCostModel::default().per_probe_ns;
        assert!((row.total_work_ns - priced).abs() < 1e-6, "probes priced at per_probe_ns");
        assert!(row.stall_ns > 0, "the delivery loop paid for the conflict checks");
        assert_eq!((row.shards, row.commit_path.as_str()), (1, "sync"));
        assert_eq!(row.config_hash.len(), 16);
        let doc = rows_to_json("ablation_cert_sharding", &[row]);
        validate_json(&doc).expect("well-formed from live metrics");
    }

    #[test]
    fn document_round_trips_through_the_typed_parser() {
        let mut other = sample_row();
        other.clients = 20000;
        other.backend = "linear".to_string();
        let rows = vec![sample_row(), other];
        let doc = rows_to_json("ablation_cert_sharding", &rows);
        let parsed = parse_document(&doc).expect("typed parse");
        assert_eq!(parsed.group, "ablation_cert_sharding");
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].key(), rows[0].key());
        assert_eq!(parsed.rows[0].config_hash, rows[0].config_hash);
        assert_eq!(parsed.rows[1].votes_sent, 140);
        // Float fields survive the writer's 3-decimal precision.
        assert!((parsed.rows[0].tpm - rows[0].tpm).abs() < 1e-3);
    }

    #[test]
    fn typed_parser_rejects_rows_missing_required_keys() {
        let doc = r#"{"group": "g", "rows": [{"backend": "linear", "shards": 1}]}"#;
        let err = parse_document(doc).unwrap_err();
        assert!(err.contains("missing required key"), "{err}");
        // Wrong type is also an error, not a silent coercion.
        let doc = r#"{"group": "g", "rows": [{"backend": 7}]}"#;
        assert!(parse_document(doc).unwrap_err().contains("must be a string"));
        // Negative or fractional counters are rejected.
        let full = rows_to_json("g", &[sample_row()]).replace("\"shards\": 1", "\"shards\": 1.5");
        assert!(parse_document(&full).unwrap_err().contains("non-negative integer"));
        // No key is optional: a row written before the re-placement ledger
        // existed is rejected, not defaulted.
        let old = rows_to_json("g", &[sample_row()]).replace("\"parked_ns\": 2500000, ", "");
        assert!(parse_document(&old).unwrap_err().contains("missing required key \"parked_ns\""));
    }

    #[test]
    fn merge_preserves_rows_a_partial_sweep_did_not_rerun() {
        let kept = sample_row();
        let mut rerun_old = sample_row();
        rerun_old.clients = 20000;
        rerun_old.config_hash = config_hash("indexed", 1, 20000, "sync", 3, 3, 1, 600, 4096, 42);
        rerun_old.tpm = 1.0;
        let mut rerun_new = rerun_old.clone();
        rerun_new.tpm = 99.0;
        let merged = merge_rows(&[kept.clone(), rerun_old], &[rerun_new.clone()]).expect("merge");
        assert_eq!(merged.len(), 2);
        assert!(merged.contains(&kept), "non-rerun row must survive");
        let updated = merged.iter().find(|r| r.clients == 20000).unwrap();
        assert_eq!(updated.tpm, 99.0, "re-run row must be replaced");
    }

    #[test]
    fn merge_rejects_config_hash_mismatch_for_the_same_key() {
        let old = sample_row();
        let mut fresh = sample_row();
        // Same (backend, shards, clients, commit_path) key, but the sweep
        // was run against a different seed → different fingerprint.
        fresh.config_hash = config_hash("indexed", 1, 10000, "sync", 3, 3, 1, 600, 4096, 43);
        let err = merge_rows(&[old], &[fresh]).unwrap_err();
        assert!(err.contains("config hash mismatch"), "{err}");
        assert!(err.contains("clients=10000"), "{err}");
        // The full key is named so the offending row is findable.
        assert!(err.contains("sites=3"), "{err}");
        assert!(err.contains("replication_factor=3"), "{err}");
    }

    #[test]
    fn config_hash_separates_backend_and_commit_path_bytes() {
        // The 0-byte separator means ("ab", "c") and ("a", "bc") differ.
        let a = config_hash("ab", 1, 1, "c", 1, 1, 1, 1, 1, 1);
        let b = config_hash("a", 1, 1, "bc", 1, 1, 1, 1, 1, 1);
        assert_ne!(a, b);
        // And the hash is stable across calls.
        assert_eq!(a, config_hash("ab", 1, 1, "c", 1, 1, 1, 1, 1, 1));
        // The replication factor is part of the fingerprint.
        assert_ne!(a, config_hash("ab", 1, 1, "c", 1, 2, 1, 1, 1, 1));
    }
}
