//! Every call the benchmark makes into the repository's crates.
//!
//! The workloads and the traced run see only the functions and plain
//! structs defined here, so a rename in the library's public API is fixed
//! in this file and nowhere else. Everything runs on BLS12-381.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};
use zkp_curves::bls12_381::Bls12381;
use zkp_curves::{Affine, G1Curve, G2Curve, SwCurve, Xyzz};
use zkp_ff::Field;
use zkp_groth16::{ProofService, ProofTicket, ProverPlan, ProvingKey, ServiceConfig};
use zkp_msm::MsmStats;
use zkp_ntt::{Domain, TwiddleTable};
use zkp_r1cs::circuits::mimc;
use zkp_r1cs::ConstraintSystem;

pub type Curve = Bls12381;
pub type Fr = zkp_ff::Fr381;
type Fq = zkp_ff::Fq381;
pub type Circuit = ConstraintSystem<Fr>;
pub type Proof = zkp_groth16::Proof<Curve>;
pub type Key = ProvingKey<Curve>;
pub type Session = zkp_groth16::ProverSession<Curve>;
pub type VerifyingKey = zkp_groth16::VerifyingKey<Curve>;
pub type Encoded = [u8; zkp_groth16::PROOF_BYTES];
pub type Service = ProofService<Curve>;
pub type Ticket = ProofTicket<Curve>;

/// A circuit with its public inputs, as the client holds them.
pub struct Job {
    pub cs: Circuit,
    pub public: Vec<Fr>,
}

/// The MiMC circuit of `rounds` rounds on the input `x`; the domain is
/// the next power of two above `2·rounds + 2` rows.
pub fn circuit(x: u64, rounds: usize) -> Job {
    job(mimc(Fr::from_u64(x), rounds))
}

/// The MiMC circuit on a full-width random input.
pub fn random_circuit<R: Rng>(rng: &mut R, rounds: usize) -> Job {
    job(mimc(Fr::random(rng), rounds))
}

/// A circuit whose shape does not match a key made for `rounds` rounds.
pub fn mismatched_circuit<R: Rng>(rng: &mut R, rounds: usize) -> Job {
    random_circuit(rng, rounds - 1)
}

/// A right-shape circuit whose witness does not satisfy it.
pub fn unsatisfied_circuit<R: Rng>(rng: &mut R, rounds: usize) -> Job {
    let mut cs = mimc(Fr::random(rng), rounds);
    let mid = cs.assignment.private.len() / 2;
    cs.assignment.private[mid] += Fr::one();
    job(cs)
}

fn job(cs: Circuit) -> Job {
    let public = cs.assignment.public.clone();
    Job { cs, public }
}

/// A different public input of the same length: a proof of `public`
/// must not verify against it.
pub fn altered_inputs(public: &[Fr]) -> Vec<Fr> {
    public.iter().map(|x| *x + Fr::one()).collect()
}

pub fn keygen(shape: &Circuit, seed: u64) -> Key {
    zkp_groth16::setup::<Curve, _>(shape, &mut StdRng::seed_from_u64(seed))
}

pub fn new_session(pk: Key) -> Session {
    Session::new(pk)
}

/// A session sharing `session`'s key and plans with an empty workspace.
pub fn fork(session: &Session) -> Session {
    session.fork()
}

pub fn prove_warm(session: &mut Session, cs: &Circuit, seed: u64) -> Proof {
    session.prove_in(cs, &mut StdRng::seed_from_u64(seed)).0
}

/// The one-shot prover: no session, no per-key plan.
pub fn prove_oneshot(session: &Session, cs: &Circuit, seed: u64) -> Proof {
    zkp_groth16::prove(session.pk(), cs, &mut StdRng::seed_from_u64(seed)).0
}

pub fn vk(session: &Session) -> &VerifyingKey {
    session.vk()
}

pub fn verify(vk: &VerifyingKey, proof: &Proof, public: &[Fr]) -> bool {
    zkp_groth16::verify(vk, proof, public)
}

pub fn verify_batch(vk: &VerifyingKey, batch: &[(Proof, Vec<Fr>)], seed: u64) -> bool {
    zkp_groth16::verify_batch(vk, batch, &mut StdRng::seed_from_u64(seed))
}

pub fn encode(proof: &Proof) -> Encoded {
    proof.to_bytes()
}

pub fn decode(bytes: &Encoded) -> Option<Proof> {
    Proof::from_bytes(bytes).ok()
}

/// A proof assembled from the parts of two others: every point is valid,
/// so it decodes, but it must not verify.
pub fn splice(a_from: &Proof, rest_from: &Proof) -> Proof {
    Proof {
        a: a_from.a,
        b: rest_from.b,
        c: rest_from.c,
    }
}

// --- Proof service -------------------------------------------------------

/// A job the service proved, with the service's own timings.
pub struct Served {
    pub proof: Proof,
    /// Queue wait plus prove time, measured by the service from submit.
    pub latency: Duration,
    pub queue_wait: Duration,
    pub prove_time: Duration,
}

/// The service's own totals at shutdown.
#[derive(Default, Clone, Copy)]
pub struct ServiceTotals {
    pub completed: u64,
    pub failed: u64,
    pub expired: u64,
    pub abandoned: u64,
    pub rejected: u64,
    pub retries: u64,
    pub respawns: u64,
    pub degraded_s: f64,
}

pub fn start_service(session: &Session, workers: usize, capacity: usize) -> Service {
    Service::start_with_config(session, ServiceConfig::new(workers, capacity))
}

/// Submits a job that expires `deadline` after submission, in the
/// queue or mid-proof; `None` when admission refused it.
pub fn submit(service: &Service, cs: Circuit, seed: u64, deadline: Duration) -> Option<Ticket> {
    service.submit_with_deadline(cs, seed, Some(deadline)).ok()
}

pub fn queue_depth(service: &Service) -> usize {
    service.queue_depth()
}

/// Waits for a job; `None` when it failed, expired or the service stopped.
pub fn wait(ticket: Ticket) -> Option<Served> {
    ticket.wait().ok().map(|done| Served {
        latency: done.latency(),
        queue_wait: done.queue_wait,
        prove_time: done.prove_time,
        proof: done.proof,
    })
}

pub fn shutdown(service: Service) -> ServiceTotals {
    let s = service.shutdown();
    ServiceTotals {
        completed: s.completed,
        failed: s.failed,
        expired: s.expired,
        abandoned: s.abandoned,
        rejected: s.rejected,
        retries: s.retries,
        respawns: s.respawns,
        degraded_s: s.degraded_s,
    }
}

// --- Single layers, for the traced run -------------------------------------

/// Threads in the prover pool every layer runs on.
pub fn pool_threads() -> usize {
    zkp_runtime::global().num_threads()
}

pub fn domain_size(session: &Session) -> u64 {
    session.domain_size()
}

/// Builds the session's four G1 plans alone; returns them with their bytes.
pub fn build_plan(pk: &Key) -> (ProverPlan<Curve>, u64) {
    let plan = ProverPlan::build(pk);
    let bytes = plan.storage_bytes();
    (plan, bytes)
}

/// The flat witness `z = (1, public…, private…)` and its private tail.
pub fn witness(cs: &Circuit) -> (Vec<Fr>, usize) {
    (cs.assignment.to_vec(), 1 + cs.num_public())
}

fn random_scalars(seed: u64, n: usize) -> Vec<Fr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Fr::random(&mut rng)).collect()
}

/// The coefficients of the quotient `h` the prover computes for `cs`:
/// the scalars of the H MSM.
pub fn quotient_h(session: &Session, cs: &Circuit) -> Vec<Fr> {
    let size = session.domain_size();
    let domain = Domain::new(size).expect("session domain is a valid NTT domain");
    let table = TwiddleTable::new(&domain);
    let (mut a, mut b, mut c) = zkp_backend::witness_maps(cs, size);
    zkp_ntt::quotient_poly_in(
        &domain,
        &table,
        &mut a,
        &mut b,
        &mut c,
        zkp_runtime::global(),
    );
    a.truncate(session.pk().h_query.len());
    a
}

/// Point additions of one MSM, by phase.
#[derive(Default, Clone, Copy)]
pub struct Padds {
    pub accumulation: u64,
    pub reduction: u64,
    pub window: u64,
}

impl Padds {
    pub fn total(&self) -> u64 {
        self.accumulation + self.reduction + self.window
    }
}

fn padds(s: &MsmStats) -> Padds {
    Padds {
        accumulation: s.accumulation_padds,
        reduction: s.reduction_padds,
        window: s.window_padds,
    }
}

/// The prover's five MSMs, named as in the proof: A, B1, L and H on G1
/// through the session's plans, B2 on G2 through the unplanned path.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Msm {
    A,
    B1,
    L,
    H,
    B2,
}

pub const MSMS: [Msm; 5] = [Msm::A, Msm::B1, Msm::L, Msm::H, Msm::B2];

impl Msm {
    pub fn name(self) -> &'static str {
        match self {
            Msm::A => "a",
            Msm::B1 => "b1",
            Msm::L => "l",
            Msm::H => "h",
            Msm::B2 => "b2",
        }
    }
}

/// Runs one MSM over the scalars the prover would pass it; returns its
/// wall time and point-addition counts.
pub fn run_msm(
    session: &Session,
    which: Msm,
    z: &[Fr],
    priv_from: usize,
    h: &[Fr],
) -> (f64, Padds) {
    let pool = zkp_runtime::global();
    let plan = session.plan();
    let t = Instant::now();
    let stats = match which {
        Msm::A => plan.a.execute(z, pool).stats,
        Msm::B1 => plan.b1.execute(z, pool).stats,
        Msm::L => plan.l.execute(&z[priv_from..], pool).stats,
        Msm::H => plan.h.execute(h, pool).stats,
        Msm::B2 => {
            let cfg = zkp_backend::cpu::default_msm_config();
            zkp_msm::msm_parallel_with_config(&session.pk().b_g2_query, z, &cfg, pool).stats
        }
    };
    (t.elapsed().as_secs_f64(), padds(&stats))
}

/// The prover's NTT-shaped calls over the session's domain.
pub struct NttBench {
    domain: Domain<Fr>,
    table: TwiddleTable<Fr>,
    values: [Vec<Fr>; 3],
}

impl NttBench {
    pub fn new(size: u64, seed: u64) -> Self {
        let domain = Domain::new(size).expect("session domain is a valid NTT domain");
        let table = TwiddleTable::new(&domain);
        let n = size as usize;
        let values = [0, 1, 2].map(|k| random_scalars(seed + k, n));
        Self {
            domain,
            table,
            values,
        }
    }

    pub fn forward(&mut self) -> f64 {
        self.ntt(false)
    }

    pub fn inverse(&mut self) -> f64 {
        self.ntt(true)
    }

    fn ntt(&mut self, invert: bool) -> f64 {
        let t = Instant::now();
        zkp_ntt::ntt_parallel_on(
            &mut self.values[0],
            &self.table,
            invert,
            zkp_runtime::global(),
        );
        t.elapsed().as_secs_f64()
    }

    /// The coset shift: multiply by powers of the coset generator.
    pub fn coset_mul(&mut self) -> f64 {
        let g = self.domain.coset_gen();
        let t = Instant::now();
        zkp_ntt::distribute_powers_parallel(zkp_runtime::global(), &mut self.values[0], g);
        t.elapsed().as_secs_f64()
    }

    /// The whole quotient pipeline `h = (A·B - C) / Z` over three
    /// evaluation vectors: seven transforms, four coset shifts and the
    /// pointwise step, in the prover's order.
    pub fn quotient(&mut self) -> f64 {
        let [a, b, c] = &mut self.values;
        let t = Instant::now();
        zkp_ntt::quotient_poly_in(&self.domain, &self.table, a, b, c, zkp_runtime::global());
        t.elapsed().as_secs_f64()
    }
}

pub fn witness_maps(cs: &Circuit, domain: u64) -> f64 {
    let t = Instant::now();
    black_box(zkp_backend::witness_maps(cs, domain));
    t.elapsed().as_secs_f64()
}

pub fn is_satisfied(cs: &Circuit) -> (f64, bool) {
    let t = Instant::now();
    let ok = black_box(cs.is_satisfied());
    (t.elapsed().as_secs_f64(), ok)
}

/// Field operations, in nanoseconds per operation over `n` dependent ops.
pub struct FieldOps {
    pub fq_add: f64,
    pub fq_mul: f64,
    pub fq_sqr: f64,
    pub fq_inv: f64,
    pub fr_add: f64,
    pub fr_mul: f64,
}

fn ns_per_op(n: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

pub fn field_ops(seed: u64, n: u64) -> FieldOps {
    let mut rng = StdRng::seed_from_u64(seed);
    let (qa, qb) = (Fq::random(&mut rng), Fq::random(&mut rng));
    let (ra, rb) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let inv_n = (n / 64).max(1);
    FieldOps {
        fq_add: ns_per_op(n, || {
            let mut x = qa;
            for _ in 0..n {
                x = black_box(x + qb);
            }
            black_box(x);
        }),
        fq_mul: ns_per_op(n, || {
            let mut x = qa;
            for _ in 0..n {
                x = black_box(x * qb);
            }
            black_box(x);
        }),
        fq_sqr: ns_per_op(n, || {
            let mut x = qa;
            for _ in 0..n {
                x = black_box(x.square());
            }
            black_box(x);
        }),
        fq_inv: ns_per_op(inv_n, || {
            let mut x = qa;
            for _ in 0..inv_n {
                x = black_box(x.inverse().unwrap_or(qb) + qb);
            }
            black_box(x);
        }),
        fr_add: ns_per_op(n, || {
            let mut x = ra;
            for _ in 0..n {
                x = black_box(x + rb);
            }
            black_box(x);
        }),
        fr_mul: ns_per_op(n, || {
            let mut x = ra;
            for _ in 0..n {
                x = black_box(x * rb);
            }
            black_box(x);
        }),
    }
}

/// Mixed XYZZ + affine additions — the bucket-accumulation step of the
/// MSM configuration the prover uses — in nanoseconds per addition, over
/// the first `n` bases of the session's A and B2 queries.
pub fn madd_ns(session: &Session, n: usize, reps: usize) -> (f64, f64) {
    fn run<Cu: SwCurve>(bases: &[Affine<Cu>], reps: usize) -> f64 {
        ns_per_op((bases.len() * reps) as u64, || {
            let mut acc = Xyzz::<Cu>::identity();
            for _ in 0..reps {
                for p in bases {
                    acc = black_box(acc.add_affine(p));
                }
            }
            black_box(acc);
        })
    }
    let pk = session.pk();
    let g1: &[Affine<G1Curve<Curve>>] = &pk.a_query[1..n.min(pk.a_query.len())];
    let g2: &[Affine<G2Curve<Curve>>] = &pk.b_g2_query[1..n.min(pk.b_g2_query.len())];
    (run(g1, reps), run(g2, reps))
}

/// One Miller loop, one final exponentiation and one G2 subgroup check
/// on the proof's `(A, B)` pair, in seconds.
pub fn pairing_parts(proof: &Proof) -> (f64, f64, f64) {
    let t = Instant::now();
    let f = black_box(zkp_curves::miller_loop::<Curve>(&proof.a, &proof.b));
    let miller = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(zkp_curves::final_exponentiation::<Curve>(&f));
    let final_exp = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(zkp_curves::g2_in_subgroup::<Curve>(&proof.b));
    (miller, final_exp, t.elapsed().as_secs_f64())
}
