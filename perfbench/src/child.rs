//! Untraced runs and reference passes, each in a child process of its own.
//!
//! A replicated cluster is never freed (NOTES.md, Findings), so runs made one
//! after another in one process run on an ever larger heap and slow down as
//! it grows. Each untraced run is therefore made by a fresh copy of this
//! program, started with `--child <index>`, one at a time: every run starts
//! from the same empty heap, and the parent holds no clusters at all. The
//! child prints one [`Report`] line; the parent waits for it to exit. A pass
//! of the reference kernel is made the same way, with `--child reference`,
//! so that it meets the same fresh process as the runs it is set against.

use crate::check;
use crate::stats;
use crate::workload::Workload;
use std::process::{Command, Stdio};

/// What a child process does, as given by `--child`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Role {
    /// Makes run `index` of the workload and prints its [`Report`].
    Run(usize),
    /// Times one pass of the reference kernel and prints its seconds.
    Reference,
}

impl Role {
    /// Reads the value of `--child`.
    pub fn parse(value: &str) -> Result<Role, String> {
        match value {
            "reference" => Ok(Role::Reference),
            _ => value.parse().map(Role::Run).map_err(|e| format!("--child {value}: {e}")),
        }
    }

    fn arg(self) -> String {
        match self {
            Role::Run(index) => index.to_string(),
            Role::Reference => "reference".to_string(),
        }
    }
}

/// `Cluster::build` calls a child times after its run, for `setup_s`.
pub const SETUPS: usize = 8;

/// What a child reports of its run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Wall seconds of `Cluster::run`.
    pub wall_s: f64,
    /// Wall seconds of each timed `Cluster::build`.
    pub setup_s: Vec<f64>,
    /// `VmHWM` right after the run, in MB of 2^20 bytes.
    pub peak_rss_mb: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Simulated minutes of the measured window.
    pub minutes: f64,
    /// Median latency of committed transactions, ms.
    pub p50_ms: f64,
    /// p99 latency of committed transactions, ms.
    pub p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// The run's outcome, which a repeat must reproduce.
    pub outcome: check::Outcome,
}

impl Report {
    /// One line: tab-separated fields, the summary line last.
    pub fn encode(&self) -> String {
        let setups: Vec<String> = self.setup_s.iter().map(f64::to_string).collect();
        format!(
            "run\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.wall_s,
            setups.join(","),
            self.peak_rss_mb,
            self.commits,
            self.aborts,
            self.minutes,
            self.p50_ms,
            self.p99_ms,
            self.samples,
            self.outcome.digest,
            self.outcome.summary
        )
    }

    /// Reads a line made by [`Report::encode`].
    pub fn decode(line: &str) -> Result<Report, String> {
        let bad = |what: &str| format!("child report: bad {what} in {line:?}");
        let f: Vec<&str> = line.splitn(12, '\t').collect();
        if f.len() != 12 || f[0] != "run" {
            return Err(bad("layout"));
        }
        let num = |i: usize, what: &str| f[i].parse::<f64>().map_err(|_| bad(what));
        let int = |i: usize, what: &str| f[i].parse::<u64>().map_err(|_| bad(what));
        let setup_s = f[2]
            .split(',')
            .map(|s| s.parse::<f64>().map_err(|_| bad("setup_s")))
            .collect::<Result<_, _>>()?;
        Ok(Report {
            wall_s: num(1, "wall_s")?,
            setup_s,
            peak_rss_mb: num(3, "peak_rss_mb")?,
            commits: int(4, "commits")?,
            aborts: int(5, "aborts")?,
            minutes: num(6, "minutes")?,
            p50_ms: num(7, "p50")?,
            p99_ms: num(8, "p99")?,
            samples: int(9, "samples")? as usize,
            outcome: check::Outcome { digest: int(10, "digest")?, summary: f[11].to_string() },
        })
    }
}

/// The body of a child: makes run `index` of `w`, checks it and reports it.
pub fn run(w: &Workload, seed: u64, index: usize) -> Result<Report, String> {
    let run = check::run(w, check::build(w, seed, index).0)?;
    let peak_rss_mb = crate::memory_mb("VmHWM")?;
    let setup_s = (0..SETUPS).map(|_| check::build(w, seed, index).1).collect();
    let m = &run.metrics;
    let lat = m.pooled_latencies_ms();
    let p = |q: f64| {
        stats::percentile(lat.values(), q)
            .ok_or_else(|| format!("{} latencies are too few for p{q}", lat.len()))
    };
    Ok(Report {
        wall_s: run.wall_s,
        setup_s,
        peak_rss_mb,
        commits: m.committed(),
        aborts: m.aborted(),
        minutes: m.elapsed.as_secs_f64() / 60.0,
        p50_ms: p(50.0)?,
        p99_ms: p(99.0)?,
        samples: lat.len(),
        outcome: run.outcome,
    })
}

/// Starts a child for run `index` of `w`, waits for it to exit and reads its
/// report.
pub fn run_in_child(w: &Workload, seed: u64, index: usize) -> Result<Report, String> {
    Report::decode(&spawn(w, seed, Role::Run(index))?)
}

/// Starts a child that times one pass of the reference kernel, waits for it
/// to exit and reads the pass's seconds.
pub fn reference_in_child(w: &Workload) -> Result<f64, String> {
    let line = spawn(w, 0, Role::Reference)?;
    line.parse().map_err(|_| format!("reference pass: bad report {line:?}"))
}

/// Starts a child in `role`, waits for it to exit and returns the last line
/// of its standard output. The child's standard error passes through.
fn spawn(w: &Workload, seed: u64, role: Role) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--child", &role.arg()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the child {role:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("the child {role:?} failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("no report from the child {role:?}"))?;
    Ok(line.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_its_line() {
        let r = Report {
            wall_s: 1.234_567_890_123,
            setup_s: vec![9.87e-5, 0.000_101],
            peak_rss_mb: 33.207_031_25,
            commits: 9_612,
            aborts: 388,
            minutes: 1.126_5,
            p50_ms: 87.319_816_5,
            p99_ms: 376.509_082_884_999_66,
            samples: 9_612,
            outcome: check::Outcome {
                summary: "paper3: tpm=8534 latency=102.3ms\tx=1".into(),
                digest: u64::MAX - 7,
            },
        };
        assert_eq!(Report::decode(&r.encode()), Ok(r));
        assert!(Report::decode("run\t1.0").is_err());
        assert!(Report::decode("").is_err());
    }

    #[test]
    fn roles_survive_their_argument() {
        for role in [Role::Run(0), Role::Run(31), Role::Reference] {
            assert_eq!(Role::parse(&role.arg()), Ok(role));
        }
        assert!(Role::parse("-1").is_err());
    }
}
