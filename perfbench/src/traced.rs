//! The traced run: times calls into each layer's public functions, one
//! layer at a time on the same pool, at the workload's circuit size, and
//! reconciles the layers against the whole proof and the whole verify.
//!
//! End-to-end numbers never come from this run; its own proofs and
//! verifications only serve as the bases of the residuals.

use crate::adapter::{self as lib, Msm, Padds, MSMS};
use crate::stats::{median, percentile, Report};
use crate::workloads::{self, E2e, BATCH};
use crate::Config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Median of `reps` timings of `f`.
fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

pub fn run(cfg: &Config, rep: &mut Report) {
    let reps = if cfg.tiny { 2 } else { 5 };
    let rounds = workloads::rounds(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- groth16 set-up, and the plan it builds --------------------------
    let (keygen_s, pk) = timed(|| workloads::keygen(cfg));
    let (plan_build_s, (plan, plan_bytes)) = timed(|| lib::build_plan(&pk));
    drop(plan);
    let (session_s, mut session) = timed(|| lib::new_session(pk));
    workloads::pin(cfg, &mut session, rep);
    let domain = lib::domain_size(&session);

    // --- whole proofs: the bases of the prove residual --------------------
    let job = lib::random_circuit(&mut rng, rounds);
    let mut fresh = lib::fork(&session);
    let (cold_s, _) = timed(|| lib::prove_warm(&mut fresh, &job.cs, 1));
    drop(fresh);
    let mut proofs = Vec::new();
    let warm: Vec<f64> = (0..reps)
        .map(|k| {
            let (dt, p) = timed(|| lib::prove_warm(&mut session, &job.cs, k as u64));
            proofs.push((p, job.public.clone()));
            dt
        })
        .collect();
    let warm_s = median(&warm);
    rep.attempted += 1 + reps as u64;

    // --- r1cs ------------------------------------------------------------
    let witness_maps_s = med(reps, || lib::witness_maps(&job.cs, domain));
    let is_satisfied_s = med(reps, || {
        let (dt, ok) = lib::is_satisfied(&job.cs);
        if !ok {
            rep.correct = false;
        }
        dt
    });

    // --- ntt -------------------------------------------------------------
    let mut ntt = lib::NttBench::new(domain, rng.gen());
    let forward_s = med(reps, || ntt.forward());
    let inverse_s = med(reps, || ntt.inverse());
    let coset_s = med(reps, || ntt.coset_mul());
    let quotient_s = med(reps, || ntt.quotient());

    // --- msm: the prover's five MSMs on this witness ---------------------
    let (z, priv_from) = lib::witness(&job.cs);
    let h = lib::quotient_h(&session, &job.cs);
    let mut msm: Vec<(Msm, f64, Padds)> = Vec::new();
    for m in MSMS {
        let mut padds = Padds::default();
        let call_s = med(reps, || {
            let (dt, p) = lib::run_msm(&session, m, &z, priv_from, &h);
            padds = p;
            dt
        });
        msm.push((m, call_s, padds));
    }

    // --- ff and curves ---------------------------------------------------
    let field: Vec<lib::FieldOps> = (0..reps)
        .map(|k| lib::field_ops(k as u64, 200_000))
        .collect();
    let ff = |f: fn(&lib::FieldOps) -> f64| median(&field.iter().map(f).collect::<Vec<_>>());
    let madds: Vec<(f64, f64)> = (0..reps).map(|_| lib::madd_ns(&session, 512, 20)).collect();
    let g1_madd_ns = median(&madds.iter().map(|m| m.0).collect::<Vec<_>>());
    let g2_madd_ns = median(&madds.iter().map(|m| m.1).collect::<Vec<_>>());
    let parts: Vec<(f64, f64, f64)> = (0..reps)
        .map(|k| lib::pairing_parts(&proofs[k].0))
        .collect();
    let miller_s = median(&parts.iter().map(|p| p.0).collect::<Vec<_>>());
    let final_exp_s = median(&parts.iter().map(|p| p.1).collect::<Vec<_>>());
    let subgroup_s = median(&parts.iter().map(|p| p.2).collect::<Vec<_>>());

    // --- groth16 verification --------------------------------------------
    let vk = lib::vk(&session);
    let encoded: Vec<_> = proofs.iter().map(|(p, _)| lib::encode(p)).collect();
    let decode_s = med(reps, || timed(|| lib::decode(&encoded[0])).0);
    let verify_s = med(reps, || {
        let (p, x) = &proofs[0];
        let (dt, ok) = timed(|| lib::verify(vk, p, x));
        if !ok {
            rep.correct = false;
        }
        dt
    });
    let batch: Vec<_> = (0..BATCH)
        .map(|k| proofs[k % proofs.len()].clone())
        .collect();
    let batch_s = med(reps, || {
        let (dt, ok) = timed(|| lib::verify_batch(vk, &batch, 1));
        if !ok {
            rep.correct = false;
        }
        dt
    });

    // --- service: only serve-small runs one ------------------------------
    let serve = (cfg.workload == "serve-small")
        .then(|| workloads::serve_run(cfg, &session, rep, &mut E2e::default(), |_, _, _| {}));

    // --- reconciliation ---------------------------------------------------
    let threads = lib::pool_threads() as f64;
    let terms = [
        ("r1cs.witness_maps", 1.0, witness_maps_s),
        ("ntt.quotient", 1.0, quotient_s),
    ];
    let mut layers_s = 0.0;
    for (name, calls, s) in terms {
        rep.note(format!("prove term {name}: {calls} x {s:.6} s"));
        layers_s += calls * s;
    }
    let mut msm_call_s = 0.0;
    let mut msm_model_s = 0.0;
    for (m, call_s, p) in &msm {
        let madd = if *m == Msm::B2 {
            g2_madd_ns
        } else {
            g1_madd_ns
        };
        let model = p.total() as f64 * madd * 1e-9 / threads;
        rep.note(format!(
            "msm {}: {} padds x {madd:.1} ns / {threads} threads = {model:.6} s modeled vs {call_s:.6} s measured (ratio {:.3})",
            m.name(),
            p.total(),
            call_s / model
        ));
        rep.note(format!("prove term msm.{}: 1 x {call_s:.6} s", m.name()));
        msm_call_s += call_s;
        msm_model_s += model;
    }
    layers_s += msm_call_s;
    let prove_residual = warm_s - layers_s;
    rep.note(format!(
        "prove residual: {prove_residual:.6} s = warm proof {warm_s:.6} s - layers {layers_s:.6} s ({:.1}% of the proof)",
        100.0 * prove_residual / warm_s
    ));
    let msm_residual = msm_call_s - msm_model_s;
    rep.note(format!(
        "msm residual: {msm_residual:.6} s = measured {msm_call_s:.6} s - padds x madd {msm_model_s:.6} s ({:.1}% of the MSMs)",
        100.0 * msm_residual / msm_call_s
    ));
    let verify_residual = verify_s - 3.0 * miller_s - final_exp_s;
    rep.note(format!(
        "verify residual: {verify_residual:.6} s = verify {verify_s:.6} s - 3 x miller {miller_s:.6} s - final exp {final_exp_s:.6} s ({:.1}% of the verify)",
        100.0 * verify_residual / verify_s
    ));

    // --- per-layer metrics ------------------------------------------------
    rep.metric("ff.fq_add_ns", ff(|f| f.fq_add), "ns");
    rep.metric("ff.fq_mul_ns", ff(|f| f.fq_mul), "ns");
    rep.metric("ff.fq_sqr_ns", ff(|f| f.fq_sqr), "ns");
    rep.metric("ff.fq_inv_ns", ff(|f| f.fq_inv), "ns");
    rep.metric("ff.fr_add_ns", ff(|f| f.fr_add), "ns");
    rep.metric("ff.fr_mul_ns", ff(|f| f.fr_mul), "ns");
    rep.metric("curves.g1_madd_ns", g1_madd_ns, "ns");
    rep.metric("curves.g2_madd_ns", g2_madd_ns, "ns");
    rep.metric("curves.miller_loop_s", miller_s, "s");
    rep.metric("curves.final_exp_s", final_exp_s, "s");
    rep.metric("curves.g2_subgroup_check_s", subgroup_s, "s");
    let (mut g1, mut g2) = (Padds::default(), Padds::default());
    for (m, call_s, p) in &msm {
        rep.metric(&format!("msm.{}.call_s", m.name()), *call_s, "s");
        rep.metric(
            &format!("msm.{}.padds", m.name()),
            p.total() as f64,
            "count",
        );
        let g = if *m == Msm::B2 { &mut g2 } else { &mut g1 };
        g.accumulation += p.accumulation;
        g.reduction += p.reduction;
        g.window += p.window;
    }
    for (group, p) in [("g1", g1), ("g2", g2)] {
        rep.metric(
            &format!("msm.{group}.accumulation_padds"),
            p.accumulation as f64,
            "count",
        );
        rep.metric(
            &format!("msm.{group}.reduction_padds"),
            p.reduction as f64,
            "count",
        );
        rep.metric(
            &format!("msm.{group}.window_padds"),
            p.window as f64,
            "count",
        );
    }
    rep.metric("msm.plan_bytes", plan_bytes as f64, "bytes");
    rep.metric("msm.plan_build_s", plan_build_s, "s");
    rep.metric("msm.residual_s", msm_residual, "s");
    rep.metric("ntt.forward.call_s", forward_s, "s");
    rep.metric("ntt.inverse.call_s", inverse_s, "s");
    rep.metric("ntt.coset_mul.call_s", coset_s, "s");
    rep.metric("ntt.quotient.call_s", quotient_s, "s");
    rep.metric("r1cs.witness_maps.call_s", witness_maps_s, "s");
    rep.metric("r1cs.is_satisfied.call_s", is_satisfied_s, "s");
    rep.metric("groth16.setup.keygen_s", keygen_s, "s");
    rep.metric("groth16.setup.session_s", session_s, "s");
    rep.metric("groth16.prove.cold_s", cold_s, "s");
    rep.metric("groth16.prove.warm_s", warm_s, "s");
    rep.metric("groth16.prove.residual_s", prove_residual, "s");
    rep.metric("groth16.verify.decode_s", decode_s, "s");
    rep.metric("groth16.verify.call_s", verify_s, "s");
    rep.metric("groth16.verify.residual_s", verify_residual, "s");
    rep.metric("groth16.verify_batch.call_s", batch_s, "s");

    let run = serve.unwrap_or_default();
    let t = run.totals;
    let attempts = t.completed + t.failed + t.retries;
    rep.metric("service.submit_call_s", median(&run.submit_call), "s");
    rep.metric("service.queue_wait_p50_s", median(&run.queue_wait), "s");
    let (wait_tail, beyond) = percentile(&run.queue_wait, 90.0);
    rep.meta_num("percentile.service.queue_wait_tail_s", 90.0);
    rep.meta_num("beyond.service.queue_wait_tail_s", beyond as f64);
    rep.metric("service.queue_wait_tail_s", wait_tail, "s");
    rep.metric("service.prove_time_p50_s", median(&run.prove_time), "s");
    rep.metric(
        "service.queue_depth_max",
        run.queue_depth_max as f64,
        "count",
    );
    rep.metric("service.retries", t.retries as f64, "count");
    rep.metric("service.respawns", t.respawns as f64, "count");
    rep.metric("service.rejected", t.rejected as f64, "count");
    rep.metric("service.expired", t.expired as f64, "count");
    rep.metric("service.abandoned", t.abandoned as f64, "count");
    rep.metric("service.failed", t.failed as f64, "count");
    rep.metric("service.degraded_s", t.degraded_s, "s");
    rep.metric(
        "service.useful_ratio",
        t.completed as f64 / attempts.max(1) as f64,
        "ratio",
    );
    rep.metric(
        "service.invalid_released",
        run.invalid_released as f64,
        "count",
    );
    rep.metric("bench.generator_late_max_s", run.late_max_s, "s");
}
