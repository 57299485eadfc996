//! The repository's benchmark: Groth16 proving, proof serving and
//! verification on BLS12-381, end to end or traced layer by layer.
//!
//! ```text
//! perfbench --workload <prove-large|serve-small|verify-stream> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and their reconciliation; `--tiny` shrinks every circuit for
//! the self-check. The last line of standard output is the result object.

mod adapter;
mod gauge;
mod stats;
mod traced;
mod workloads;

use stats::Report;

pub const WORKLOADS: [&str; 3] = ["prove-large", "serve-small", "verify-stream"];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            cfg.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the prover pool to the host's CPUs before anything builds it.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("ZKP_THREADS", host_cpus.to_string());

    let mut rep = Report::new();
    rep.meta_str("workload", &cfg.workload);
    rep.meta_num("seed", cfg.seed as f64);
    rep.meta_num("seconds", cfg.seconds);
    rep.meta_str("mode", if cfg.trace { "traced" } else { "end_to_end" });
    rep.meta_num("host_cpus", host_cpus as f64);
    rep.meta_num("pool_threads", adapter::pool_threads() as f64);
    rep.meta_str("git_commit", &git_commit());
    rep.meta_str("curve", "BLS12-381");
    rep.meta_num("rounds", workloads::rounds(&cfg) as f64);

    if cfg.trace {
        traced::run(&cfg, &mut rep);
    } else {
        match cfg.workload.as_str() {
            "prove-large" => workloads::prove_large(&cfg, &mut rep),
            "serve-small" => workloads::serve_small(&cfg, &mut rep),
            _ => workloads::verify_stream(&cfg, &mut rep),
        }
    }
    rep.print();
}
