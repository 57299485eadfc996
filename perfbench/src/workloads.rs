//! The three end-to-end workloads.
//!
//! Every workload prints the same eight metrics. Each timing names one
//! operation and is measured wherever the workload performs it: a warm
//! session proof, a one-shot proof, the decode-and-verify of one proof,
//! and a batch verification. The operations a workload does besides its
//! main one are interleaved with it rather than run in a phase of their
//! own, so that every metric samples the whole run. Each timing is the
//! fastest of its samples (the median of the set-ups), scaled to the
//! reference speed of the host gauge; the unscaled figures, medians and
//! tails go to the metadata. See README.md for why, and for which part of
//! each workload feeds which metric.

use crate::adapter::{self as lib, Fr, Job, Proof, Served, Session, VerifyingKey};
use crate::gauge::Gauge;
use crate::stats::{median, peak_rss_mb, Report};
use crate::Config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The key is part of the deployment, not of a workload's inputs: every
/// run proves under the same key, so its first proof can be pinned.
const KEY_SEED: u64 = 0x6b65_795f_7365_6564;
/// Input and blinding seed of the pinned first proof.
const PIN_X: u64 = 7;
const PIN_SEED: u64 = 0x7069_6e5f_7365_6564;
/// `rounds hex` lines: the bytes of the first proof at each circuit size.
const PINS: &str = include_str!("../pinned_proofs.txt");

/// Batch size of every `verify_batch` call.
pub const BATCH: usize = 8;
/// One proof in this many is a one-shot `prove`, on `prove-large` and
/// among the proofs `verify-stream` reads.
const ONESHOT_EVERY: usize = 2;
/// While `serve-small` checks what its service released, it runs a batch
/// after every [`BATCH_EVERY_CHECKED`] checked proofs and a one-shot proof
/// after every [`ONESHOT_EVERY_CHECKED`].
const BATCH_EVERY_CHECKED: usize = 2;
const ONESHOT_EVERY_CHECKED: usize = 4;
/// `serve-small` runs its window in this many equal parts. After each part
/// the client waits for that part's jobs and checks what was released, so
/// the checks sample the whole run rather than its end.
const SEGMENTS: usize = 5;
/// Proofs `verify-stream` reads from before its window; it adds more in it.
const VERIFY_INPUTS: usize = 8;

/// Admission queue of the proof service: deep enough that the offered
/// rate never fills it, so refusals show a defect rather than the load.
const SERVICE_CAPACITY: usize = 64;
/// Open-loop arrival rate of `serve-small`: about 34% of the capacity of
/// the service this benchmark was defined on (10.4 proofs/s with 2 workers
/// and 2 pool threads at domain 2^9).
const SERVE_RATE_PER_S: f64 = 3.5;
/// In each block of this many `serve-small` jobs one is invalid.
const INVALID_EVERY: usize = 25;
/// A generator later than this invalidates a `serve-small` run.
const GENERATOR_LATE_LIMIT_S: f64 = 0.5;

/// Latency limits of `within_limit_ratio`, about five times the
/// operation's cost.
const LIMIT_LARGE_S: f64 = 2.0;
const LIMIT_SMALL_S: f64 = 1.0;
/// Deadline of every `serve-small` job, from its submission: a job still
/// queued or proving this long after it was sent expires.
const JOB_DEADLINE: Duration = Duration::from_secs(4);

/// Share of `verify-stream` items, in percent, that are tampered proofs
/// (well-formed encodings that must not verify) and malformed encodings.
const TAMPERED_PCT: u64 = 10;
const MALFORMED_PCT: u64 = 5;
/// One `verify-stream` iteration in this many runs a batch instead, and
/// one in [`PROVE_EVERY`] (the others of those) proves a new input.
const BATCH_EVERY: usize = 8;
const PROVE_EVERY: usize = 5;

/// Samples behind the end-to-end metrics.
#[derive(Default)]
pub struct E2e {
    setup: Vec<f64>,
    prove: Vec<f64>,
    oneshot: Vec<f64>,
    /// Latency of each request as its client sees it.
    serve: Vec<f64>,
    /// Requests judged against the latency limit, and those that met it
    /// with a right outcome.
    judged: u64,
    good: u64,
    window_s: f64,
    verify: Vec<f64>,
    batch_per_proof: Vec<f64>,
    /// Read after each timed operation, so that it samples the same
    /// stretches of the run as the timings it scales.
    gauge: Gauge,
}

impl E2e {
    fn emit(&self, rep: &mut Report) {
        let scale = self.gauge.scale();
        rep.metric("setup_s", median(&self.setup) * scale, "s");
        rep.meta_num("n.setup", self.setup.len() as f64);
        rep.meta_num("median.setup_s", median(&self.setup));
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let ok = rep.attempted.saturating_sub(rep.failed) as f64;
        rep.metric("correct_ratio", ok / rep.attempted.max(1) as f64, "ratio");
        rep.meta_num(
            "error_ratio",
            rep.failed as f64 / rep.attempted.max(1) as f64,
        );
        rep.metric(
            "within_limit_ratio",
            self.good as f64 / self.judged.max(1) as f64,
            "ratio",
        );
        rep.meta_num("goodput_per_s", self.good as f64 / self.window_s);
        rep.meta_num("window_s", self.window_s);
        rep.distribution("serve", &self.serve);
        rep.meta_num("gauge.reference_s", crate::gauge::REFERENCE_S);
        rep.meta_num("gauge.fastest_s", self.gauge.fastest_s());
        rep.meta_num("gauge.readings", self.gauge.readings() as f64);
        rep.meta_num("gauge.scale", scale);
        rep.latency("prove_min_ref_s", "prove", &self.prove, scale);
        rep.latency("oneshot_min_ref_s", "oneshot", &self.oneshot, scale);
        rep.latency("verify_min_ref_s", "verify", &self.verify, scale);
        rep.latency(
            "verify_batch_per_proof_min_ref_s",
            "verify_batch_per_proof",
            &self.batch_per_proof,
            scale,
        );
    }
}

pub fn rounds(cfg: &Config) -> usize {
    match (cfg.workload.as_str(), cfg.tiny) {
        (_, true) => 15,
        ("prove-large", false) => 1023,
        _ => 255,
    }
}

/// Set-up repetitions: `setup_s` is their median.
fn setup_reps(cfg: &Config) -> usize {
    if cfg.workload == "prove-large" && !cfg.tiny {
        3
    } else {
        5
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The workload's proving key, the same on every run.
pub fn keygen(cfg: &Config) -> lib::Key {
    lib::keygen(&lib::circuit(PIN_X, rounds(cfg)).cs, KEY_SEED)
}

/// Key generation and session construction, plus a service start with
/// `workers` workers when given, [`setup_reps`] times; keeps the last
/// session.
pub fn setup(cfg: &Config, workers: Option<usize>, times: &mut Vec<f64>) -> Session {
    let mut kept = None;
    for _ in 0..setup_reps(cfg) {
        drop(kept.take());
        let t = Instant::now();
        let session = lib::new_session(keygen(cfg));
        let service = workers.map(|w| lib::start_service(&session, w, SERVICE_CAPACITY));
        times.push(seconds_since(t));
        service.map(lib::shutdown);
        kept = Some(session);
    }
    kept.expect("at least one set-up")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Proves the fixed first circuit on the warm path and compares its bytes
/// with the pinned ones; a mismatch marks the run incorrect.
pub fn pin(cfg: &Config, session: &mut Session, rep: &mut Report) {
    let rounds = rounds(cfg);
    let job = lib::circuit(PIN_X, rounds);
    let proof = lib::prove_warm(session, &job.cs, PIN_SEED);
    let got = hex(&lib::encode(&proof));
    let want = PINS.lines().find_map(|l| {
        let (r, bytes) = l.split_once(' ')?;
        (r == rounds.to_string()).then(|| bytes.trim().to_string())
    });
    let ok =
        want.as_deref() == Some(got.as_str()) && lib::verify(lib::vk(session), &proof, &job.public);
    if !ok {
        eprintln!("pinned proof mismatch: {rounds} {got}");
        rep.correct = false;
    }
    rep.meta_str("pinned_proof", if ok { "match" } else { "MISMATCH" });
}

/// A proof a workload released, with the inputs it answers.
struct Released {
    proof: Proof,
    public: Vec<Fr>,
    valid: bool,
}

/// Verifies released proofs outside the timing of the operation that made
/// them: each proof alone (decode + verify, into `verify`), and the valid
/// ones in batches of [`BATCH`] (into `batch_per_proof`). A valid proof
/// that fails alone marks the run incorrect; a batch verdict that
/// contradicts its members' single verdicts counts as a failure.
#[derive(Default)]
struct Checker {
    released: Vec<Released>,
    verdicts: Vec<bool>,
    valid: Vec<usize>,
    batches: Vec<(Vec<usize>, bool)>,
}

impl Checker {
    fn single(&mut self, vk: &VerifyingKey, r: Released, e: &mut E2e, rep: &mut Report) {
        let bytes = lib::encode(&r.proof);
        let t = Instant::now();
        let ok = lib::decode(&bytes).is_some_and(|p| lib::verify(vk, &p, &r.public));
        e.verify.push(seconds_since(t));
        e.gauge.read();
        if r.valid {
            if !ok {
                rep.correct = false;
            }
            self.valid.push(self.released.len());
        }
        self.verdicts.push(ok);
        self.released.push(r);
    }

    /// Batch-verifies the next [`BATCH`] valid proofs, cycling through
    /// all of them so far.
    fn batch(&mut self, vk: &VerifyingKey, e: &mut E2e) {
        if self.valid.is_empty() {
            return;
        }
        let k = self.batches.len();
        let members: Vec<usize> = (0..BATCH)
            .map(|j| self.valid[(k * BATCH + j) % self.valid.len()])
            .collect();
        let batch: Vec<(Proof, Vec<Fr>)> = members
            .iter()
            .map(|&i| {
                (
                    self.released[i].proof.clone(),
                    self.released[i].public.clone(),
                )
            })
            .collect();
        let t = Instant::now();
        let ok = lib::verify_batch(vk, &batch, k as u64);
        e.batch_per_proof.push(seconds_since(t) / BATCH as f64);
        e.gauge.read();
        self.batches.push((members, ok));
    }

    /// Runs a batch if none ran yet, counts contradicting batch verdicts
    /// as failures, and returns each proof's single verdict.
    fn finish(mut self, vk: &VerifyingKey, e: &mut E2e, rep: &mut Report) -> Vec<bool> {
        if self.batches.is_empty() {
            self.batch(vk, e);
        }
        for (members, ok) in &self.batches {
            if *ok != members.iter().all(|&i| self.verdicts[i]) {
                rep.failed += 1;
            }
        }
        self.verdicts
    }
}

/// One closed-loop client proves fresh witnesses at domain 2^11; one call
/// in [`ONESHOT_EVERY`] is a one-shot `prove`. After each call the proof
/// is verified alone and a batch runs.
pub fn prove_large(cfg: &Config, rep: &mut Report) {
    let mut e = E2e::default();
    let mut session = setup(cfg, None, &mut e.setup);
    pin(cfg, &mut session, rep);
    let rounds = rounds(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut check = Checker::default();
    let mut latencies = Vec::new();
    let start = Instant::now();
    while seconds_since(start) < cfg.seconds {
        let Job { cs, public } = lib::random_circuit(&mut rng, rounds);
        let seed = rng.gen();
        let oneshot = latencies.len() % ONESHOT_EVERY == ONESHOT_EVERY - 1;
        let t = Instant::now();
        let proof = if oneshot {
            lib::prove_oneshot(&session, &cs, seed)
        } else {
            lib::prove_warm(&mut session, &cs, seed)
        };
        let dt = seconds_since(t);
        if oneshot {
            &mut e.oneshot
        } else {
            &mut e.prove
        }
        .push(dt);
        e.gauge.read();
        latencies.push(dt);
        let vk = lib::vk(&session);
        let released = Released {
            proof,
            public,
            valid: true,
        };
        check.single(vk, released, &mut e, rep);
        check.batch(vk, &mut e);
    }
    e.window_s = seconds_since(start);
    rep.attempted = latencies.len() as u64;
    let verdicts = check.finish(lib::vk(&session), &mut e, rep);
    for (ok, dt) in verdicts.iter().zip(&latencies) {
        if *ok && *dt <= LIMIT_LARGE_S {
            e.good += 1;
        } else if !*ok {
            rep.failed += 1;
        }
    }
    e.judged = latencies.len() as u64;
    e.serve = latencies;
    e.emit(rep);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Valid,
    Mismatched,
    Unsatisfied,
}

/// Everything one open-loop service run observed.
#[derive(Default)]
pub struct ServeRun {
    /// Due-time latencies of valid jobs that got a proof.
    pub serve: Vec<f64>,
    pub prove_time: Vec<f64>,
    pub queue_wait: Vec<f64>,
    pub submit_call: Vec<f64>,
    pub late_max_s: f64,
    pub queue_depth_max: usize,
    pub invalid_released: u64,
    pub totals: lib::ServiceTotals,
    pub window_s: f64,
    /// Valid jobs sent, and those whose proof verified within the
    /// latency limit.
    pub valid_sent: u64,
    pub good: u64,
}

/// Seeded open-loop Poisson arrivals for `seconds`: a Poisson process
/// with exactly `rate × seconds` arrivals in the window, which places them
/// uniformly and independently, so every run offers the same load. One
/// job in every [`INVALID_EVERY`] is invalid, at a random position, and
/// the invalid kind alternates. Returns each job's due time and kind.
fn serve_arrivals(cfg: &Config, rng: &mut StdRng) -> Vec<(f64, JobKind)> {
    let n = (SERVE_RATE_PER_S * cfg.seconds).round() as usize;
    let mut due: Vec<f64> = (0..n)
        .map(|_| (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64 * cfg.seconds)
        .collect();
    due.sort_by(f64::total_cmp);
    let mut bad_at = 0;
    due.into_iter()
        .enumerate()
        .map(|(k, due)| {
            if k % INVALID_EVERY == 0 {
                bad_at = k + rng.gen_range(0..INVALID_EVERY);
            }
            let kind = match (k == bad_at, (k / INVALID_EVERY) % 2) {
                (false, _) => JobKind::Valid,
                (true, 0) => JobKind::Mismatched,
                (true, _) => JobKind::Unsatisfied,
            };
            (due, kind)
        })
        .collect()
}

/// Runs the open-loop service window on `session` in [`SEGMENTS`] parts.
/// After each part it waits for that part's jobs and verifies what the
/// service released, calling `between` after each checked proof with the
/// number checked so far. Counts attempts and failures into `rep`.
pub fn serve_run(
    cfg: &Config,
    session: &Session,
    rep: &mut Report,
    e: &mut E2e,
    mut between: impl FnMut(usize, &mut E2e, &mut Report),
) -> ServeRun {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = serve_arrivals(cfg, &mut rng).into_iter().peekable();
    let rounds = rounds(cfg);
    let workers = lib::pool_threads();
    let service = lib::start_service(session, workers, SERVICE_CAPACITY);
    let mut run = ServeRun {
        window_s: cfg.seconds,
        ..ServeRun::default()
    };
    let vk = lib::vk(session);
    let mut check = Checker::default();
    // Due-time latency of each released proof, in `check.released` order.
    let mut latency = Vec::new();
    let part_s = cfg.seconds / SEGMENTS as f64;
    for part in 0..SEGMENTS {
        let offset = part as f64 * part_s;
        let last = part + 1 == SEGMENTS;
        let mut pending = Vec::new();
        let start = Instant::now();
        while let Some((due, kind)) = arrivals.next_if(|(due, _)| last || *due < offset + part_s) {
            // Each job is made just before it is due, so memory does not
            // grow with the number of jobs still to come.
            let job = match kind {
                JobKind::Valid => lib::random_circuit(&mut rng, rounds),
                JobKind::Mismatched => lib::mismatched_circuit(&mut rng, rounds),
                JobKind::Unsatisfied => lib::unsatisfied_circuit(&mut rng, rounds),
            };
            let seed = rng.gen();
            let due_at = start + Duration::from_secs_f64(due - offset);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late = Instant::now()
                .saturating_duration_since(due_at)
                .as_secs_f64();
            run.late_max_s = run.late_max_s.max(late);
            run.queue_depth_max = run.queue_depth_max.max(lib::queue_depth(&service));
            let t = Instant::now();
            let ticket = lib::submit(&service, job.cs, seed, JOB_DEADLINE);
            run.submit_call.push(seconds_since(t));
            pending.push((ticket, late, kind, job.public));
        }
        rep.attempted += pending.len() as u64;
        let mut released = Vec::new();
        for (ticket, late, kind, public) in pending {
            let valid = kind == JobKind::Valid;
            run.valid_sent += u64::from(valid);
            match ticket.and_then(lib::wait) {
                Some(Served {
                    proof,
                    latency: l,
                    queue_wait,
                    prove_time,
                }) => {
                    if valid {
                        run.prove_time.push(prove_time.as_secs_f64());
                        run.queue_wait.push(queue_wait.as_secs_f64());
                    } else {
                        run.invalid_released += 1;
                        rep.failed += 1;
                    }
                    latency.push(late + l.as_secs_f64());
                    released.push(Released {
                        proof,
                        public,
                        valid,
                    });
                }
                None if valid => rep.failed += 1,
                None => {}
            }
        }
        for r in released {
            check.single(vk, r, e, rep);
            let n = check.released.len();
            if n.is_multiple_of(BATCH_EVERY_CHECKED) {
                check.batch(vk, e);
            }
            between(n, e, rep);
        }
    }
    run.totals = lib::shutdown(service);
    let valid: Vec<bool> = check.released.iter().map(|r| r.valid).collect();
    let verdicts = check.finish(vk, e, rep);
    for ((valid, ok), l) in valid.into_iter().zip(&verdicts).zip(&latency) {
        if valid {
            run.serve.push(*l);
            if !ok {
                rep.failed += 1;
            } else if *l <= LIMIT_SMALL_S {
                run.good += 1;
            }
        }
    }
    if run.late_max_s > GENERATOR_LATE_LIMIT_S {
        eprintln!(
            "generator ran {:.3} s late; the run is invalid",
            run.late_max_s
        );
        rep.correct = false;
    }
    rep.meta_num("offered_rate_per_s", SERVE_RATE_PER_S);
    rep.meta_num("generator_late_max_s", run.late_max_s);
    rep.meta_num("service_workers", workers as f64);
    run
}

/// One open-loop generator sends Poisson arrivals to the proof service.
/// While what it released is checked, one-shot proofs run in between.
pub fn serve_small(cfg: &Config, rep: &mut Report) {
    let mut e = E2e::default();
    let mut session = setup(cfg, Some(lib::pool_threads()), &mut e.setup);
    pin(cfg, &mut session, rep);
    let rounds = rounds(cfg);
    let oneshot = |n: usize, e: &mut E2e, rep: &mut Report| {
        if !n.is_multiple_of(ONESHOT_EVERY_CHECKED) {
            return;
        }
        let k = (n / ONESHOT_EVERY_CHECKED) as u64;
        let job = lib::circuit(PIN_X + k, rounds);
        let t = Instant::now();
        let proof = lib::prove_oneshot(&session, &job.cs, PIN_SEED + k);
        e.oneshot.push(seconds_since(t));
        e.gauge.read();
        if !lib::verify(lib::vk(&session), &proof, &job.public) {
            rep.correct = false;
        }
    };
    let run = serve_run(cfg, &session, rep, &mut e, oneshot);
    e.prove = run.prove_time;
    e.serve = run.serve;
    e.judged = run.valid_sent;
    e.good = run.good;
    e.window_s = run.window_s;
    e.emit(rep);
}

/// Proves the `k`th input of the verifier's stream: one in
/// [`ONESHOT_EVERY`] one-shot, the others warm.
fn verify_input(
    session: &mut Session,
    rng: &mut StdRng,
    rounds: usize,
    k: usize,
    e: &mut E2e,
) -> (Proof, Vec<Fr>) {
    let Job { cs, public } = lib::random_circuit(rng, rounds);
    let seed = rng.gen();
    let t = Instant::now();
    let proof = if k % ONESHOT_EVERY == ONESHOT_EVERY - 1 {
        let p = lib::prove_oneshot(session, &cs, seed);
        e.oneshot.push(seconds_since(t));
        p
    } else {
        let p = lib::prove_warm(session, &cs, seed);
        e.prove.push(seconds_since(t));
        p
    };
    e.gauge.read();
    (proof, public)
}

/// One closed-loop verifier decodes and verifies a seeded stream of
/// valid, tampered and malformed proofs, with a batch every
/// [`BATCH_EVERY`] iterations. Every [`PROVE_EVERY`]th iteration that is
/// not a batch proves a new input for the stream.
pub fn verify_stream(cfg: &Config, rep: &mut Report) {
    let mut e = E2e::default();
    let mut session = setup(cfg, None, &mut e.setup);
    pin(cfg, &mut session, rep);
    let rounds = rounds(cfg);
    let mut input_rng = StdRng::seed_from_u64(cfg.seed ^ 0x7665_7269_6679);
    let mut pool: Vec<(Proof, Vec<Fr>)> = (0..VERIFY_INPUTS)
        .map(|k| verify_input(&mut session, &mut input_rng, rounds, k, &mut e))
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let start = Instant::now();
    let mut i = 0usize;
    while seconds_since(start) < cfg.seconds {
        i += 1;
        if i.is_multiple_of(BATCH_EVERY) {
            rep.attempted += 1;
            // Every fourth batch carries one spliced proof and must fail.
            let bad = (i / BATCH_EVERY).is_multiple_of(4);
            let members: Vec<usize> = (0..BATCH).map(|_| rng.gen_range(0..pool.len())).collect();
            let mut batch: Vec<(Proof, Vec<Fr>)> =
                members.iter().map(|&j| pool[j].clone()).collect();
            if bad {
                let other = &pool[(members[0] + 1) % pool.len()].0;
                batch[0].0 = lib::splice(other, &batch[0].0);
            }
            let t = Instant::now();
            let ok = lib::verify_batch(lib::vk(&session), &batch, i as u64);
            e.batch_per_proof.push(seconds_since(t) / BATCH as f64);
            e.gauge.read();
            if ok == bad {
                rep.failed += 1;
            }
            continue;
        }
        if i.is_multiple_of(PROVE_EVERY) {
            let input = verify_input(&mut session, &mut input_rng, rounds, pool.len(), &mut e);
            pool.push(input);
            continue;
        }
        rep.attempted += 1;
        let vk = lib::vk(&session);
        let pick = rng.gen_range(0..pool.len());
        let (proof, public) = &pool[pick];
        let roll = rng.gen_range(0..100u64);
        let (bytes, public, expect) = if roll < TAMPERED_PCT {
            if roll % 2 == 0 {
                let other = &pool[(pick + 1) % pool.len()].0;
                (
                    lib::encode(&lib::splice(other, proof)),
                    public.clone(),
                    false,
                )
            } else {
                (lib::encode(proof), lib::altered_inputs(public), false)
            }
        } else if roll < TAMPERED_PCT + MALFORMED_PCT {
            let mut bytes = lib::encode(proof);
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            (bytes, public.clone(), false)
        } else {
            (lib::encode(proof), public.clone(), true)
        };
        let t = Instant::now();
        let decoded = lib::decode(&bytes);
        let ok = decoded
            .as_ref()
            .is_some_and(|p| lib::verify(vk, p, &public));
        let dt = seconds_since(t);
        e.serve.push(dt);
        e.gauge.read();
        if decoded.is_some() {
            e.verify.push(dt);
        }
        if ok != expect {
            rep.failed += 1;
        } else if dt <= LIMIT_SMALL_S {
            e.good += 1;
        }
    }
    e.window_s = seconds_since(start);
    e.judged = e.serve.len() as u64;
    e.emit(rep);
}
