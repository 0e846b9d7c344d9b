//! `serve-mix`: an in-process `ffw_serve::Engine` with two workers and a
//! fresh state directory, driven by the seeded [`crate::mix`] schedule in
//! two phases: backlog bursts (capacity, `jobs_per_s`) and an open-loop
//! phase at a fixed rate of about a quarter of that capacity, each job timed
//! from when it was due (latency, `job_p50_s` / `job_p90_s`). `setup_s` is
//! the service's own set-up: opening it and building the plans of the
//! geometries the mix shares. The phases have a fixed number of jobs, so a
//! run takes about 50 s whatever `--seconds` says.

use crate::mix::{self, Class, Job, Mix, BURSTS, PLAN_CACHE_CAPACITY};
use crate::report::Report;
use crate::stats::{median, quantile, timed};
use crate::{trace, RunOpts};
use crossbeam_channel::{unbounded, Receiver, Sender};
use ffw_geometry::Domain;
use ffw_phantom::image_rel_error;
use ffw_serve::{Engine, JobSpec, JobState, Json, ServeConfig};
use ffw_tomo::{Reconstruction, SceneConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Duration;

/// Serve workers (the host has two cores).
const WORKERS: usize = 2;
/// Admission queue: large enough that the burst is never shed.
const QUEUE_CAPACITY: usize = 256;
/// A phase that has not finished after this long has hung.
const PHASE_TIMEOUT_S: f64 = 120.0;

/// What happened to one job, as seen by its client.
#[derive(Clone, Debug, Default)]
struct Trace {
    key: String,
    due_ns: u64,
    submit_ns: u64,
    submit_s: f64,
    accepted_ns: Option<u64>,
    progress_ns: Vec<u64>,
    done_ns: Option<u64>,
    residual: f64,
    digest: String,
    failure: Option<String>,
    retried: bool,
}

/// One phase's wall time and per-job traces.
struct Phase {
    wall_s: f64,
    jobs: Vec<Trace>,
}

/// A whole serve-mix run.
struct Outcome {
    setups: Vec<f64>,
    opens: Vec<f64>,
    bursts: Vec<Phase>,
    open: Option<Phase>,
    hits: u64,
    misses: u64,
    journal_bytes: u64,
    generator_lag_max_s: f64,
    image_errors: Vec<f64>,
    output_failures: Vec<String>,
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
        ..ServeConfig::new(dir.to_path_buf())
    }
}

fn close(engine: &Engine) {
    engine.drain(false);
    engine.join();
    engine.release_replies();
}

/// The scenes of the geometries the mix shares, the hot ones and the 64²
/// one: the plans a fresh service builds before its cache serves hits.
fn shared_scenes(mix: &Mix) -> Vec<SceneConfig> {
    let mut scenes = BTreeMap::new();
    for job in mix
        .burst
        .iter()
        .filter(|j| matches!(j.class, Class::Hot | Class::Big))
    {
        let spec = JobSpec::from_json(&Json::parse(&job.spec).expect("valid")).expect("valid");
        scenes
            .entry(spec.geometry_fingerprint())
            .or_insert_with(|| spec.scene());
    }
    scenes.into_values().collect()
}

/// One service set-up on a fresh state directory: `Engine::open`, then
/// the cold builds of the shared geometries' pipelines, made as the engine
/// makes them on a plan-cache miss. Returns the whole set-up's seconds and
/// the open's.
fn set_up(dir: &Path, scenes: &[SceneConfig]) -> (f64, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let sw = ffw_obs::Stopwatch::start();
    let (engine, open_s) = timed(|| Engine::open(config(dir)).expect("open serve engine"));
    for scene in scenes {
        std::hint::black_box(Reconstruction::with_pool(
            scene,
            std::sync::Arc::clone(ffw_par::Pool::global_arc()),
        ));
    }
    let setup_s = sw.elapsed_secs();
    close(&engine);
    let _ = std::fs::remove_dir_all(dir);
    (setup_s, open_s)
}

fn submit(engine: &Engine, job: &Job, reply: &Sender<String>, t: &mut Trace) {
    let json = Json::parse(&job.spec).expect("generated specs are valid JSON");
    t.submit_ns = ffw_obs::monotonic_ns();
    let ((), s) = timed(|| engine.submit(&json, reply.clone()));
    t.submit_s = s;
}

/// The line a timer posts into the reply channel when a phase hangs.
const TIMEOUT_LINE: &str = "phase timeout";

/// Receives reply lines until every job in `traces` is terminal. A timer
/// thread posts [`TIMEOUT_LINE`] through `tx` if that takes longer than
/// [`PHASE_TIMEOUT_S`], so a hung job fails the run instead of hanging it.
fn collect(
    tx: &Sender<String>,
    rx: &Receiver<String>,
    traces: &mut HashMap<String, Trace>,
) -> Result<(), String> {
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let timer_tx = tx.clone();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let wait = stop_rx.recv_timeout(Duration::from_secs_f64(PHASE_TIMEOUT_S));
            if matches!(wait, Err(std::sync::mpsc::RecvTimeoutError::Timeout)) {
                let _ = timer_tx.send(TIMEOUT_LINE.to_string());
            }
        });
        let result = receive(rx, traces);
        let _ = stop_tx.send(());
        result
    })
}

fn receive(rx: &Receiver<String>, traces: &mut HashMap<String, Trace>) -> Result<(), String> {
    let mut open = traces.len();
    while open > 0 {
        let line = rx.recv().map_err(|_| "reply channel closed".to_string())?;
        let now = ffw_obs::monotonic_ns();
        if line == TIMEOUT_LINE {
            return Err(format!(
                "{open} job(s) unfinished after {PHASE_TIMEOUT_S} s"
            ));
        }
        let ev = Json::parse(&line).map_err(|e| format!("bad event {line}: {e:?}"))?;
        let id = ev.get("id").and_then(Json::as_str).unwrap_or_default();
        let Some(t) = traces.get_mut(id) else {
            continue;
        };
        match ev.get("ev").and_then(Json::as_str).unwrap_or_default() {
            "accepted" => t.accepted_ns = Some(now),
            "progress" => t.progress_ns.push(now),
            "retrying" => t.retried = true,
            "done" => {
                t.done_ns = Some(now);
                t.residual = ev
                    .get("residual")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                t.digest = ev
                    .get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                open -= 1;
            }
            other => {
                t.failure = Some(line.clone());
                if other != "cancelling" {
                    open -= 1;
                }
            }
        }
    }
    Ok(())
}

fn traces_for(jobs: &[Job], t0: u64) -> HashMap<String, Trace> {
    jobs.iter()
        .map(|j| {
            let t = Trace {
                key: j.key.clone(),
                due_ns: t0 + (j.due_s * 1e9) as u64,
                ..Default::default()
            };
            (j.id.clone(), t)
        })
        .collect()
}

fn in_order(jobs: &[Job], mut traces: HashMap<String, Trace>) -> Vec<Trace> {
    jobs.iter()
        .map(|j| traces.remove(&j.id).expect("every job is traced"))
        .collect()
}

/// The backlog burst: every job submitted at once. Its time runs to the
/// completion that left fewer jobs than workers: after it the queue is
/// empty and workers idle, so the last few jobs measure their pairing,
/// not the service's capacity.
fn burst(engine: &Engine, jobs: &[Job]) -> Result<Phase, String> {
    let (tx, rx) = unbounded::<String>();
    let t0 = ffw_obs::monotonic_ns();
    let mut traces = traces_for(jobs, t0);
    for job in jobs {
        let t = traces.get_mut(&job.id).expect("traced");
        submit(engine, job, &tx, t);
    }
    collect(&tx, &rx, &mut traces)?;
    let mut done: Vec<u64> = traces.values().filter_map(|t| t.done_ns).collect();
    done.sort_unstable();
    let end = done
        .get(jobs.len().saturating_sub(WORKERS + 1))
        .copied()
        .unwrap_or(t0);
    Ok(Phase {
        wall_s: (end - t0) as f64 * 1e-9,
        jobs: in_order(jobs, traces),
    })
}

/// Jobs each burst's `wall_s` covers.
fn burst_jobs(mix: &Mix) -> usize {
    (mix.burst.len() / BURSTS).saturating_sub(WORKERS)
}

/// The median burst time.
fn burst_s(out: &Outcome) -> f64 {
    median(&out.bursts.iter().map(|b| b.wall_s).collect::<Vec<_>>())
}

/// The open-loop phase: a generator thread submits each job when it is
/// due, whatever the service is doing; returns the phase and how late the
/// generator ran at worst.
fn open_loop(engine: &Engine, jobs: &[Job]) -> Result<(Phase, f64), String> {
    let (tx, rx) = unbounded::<String>();
    let t0 = ffw_obs::monotonic_ns() + 1_000_000;
    let mut traces = traces_for(jobs, t0);
    let due: Vec<u64> = jobs.iter().map(|j| traces[&j.id].due_ns).collect();
    let due = &due;
    let reply = tx.clone();
    let (submitted, collected) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut out = Vec::with_capacity(jobs.len());
            for (job, &due) in jobs.iter().zip(due) {
                let now = ffw_obs::monotonic_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let mut t = Trace::default();
                submit(engine, job, &reply, &mut t);
                out.push((t.submit_ns, t.submit_s));
            }
            out
        });
        let collected = collect(&tx, &rx, &mut traces);
        (
            generator.join().expect("generator thread panicked"),
            collected,
        )
    });
    collected?;
    let mut lag_max = 0.0f64;
    for ((job, &due), (submit_ns, submit_s)) in jobs.iter().zip(due).zip(submitted) {
        let t = traces.get_mut(&job.id).expect("traced");
        t.submit_ns = submit_ns;
        t.submit_s = submit_s;
        lag_max = lag_max.max(submit_ns.saturating_sub(due) as f64 * 1e-9);
    }
    let end = traces
        .values()
        .filter_map(|t| t.done_ns)
        .max()
        .unwrap_or(t0);
    Ok((
        Phase {
            wall_s: (end - t0) as f64 * 1e-9,
            jobs: in_order(jobs, traces),
        },
        lag_max,
    ))
}

/// Reads a finished job's image and scores it against its phantom.
fn image_error(engine: &Engine, job: &Job) -> Result<f64, String> {
    let spec = JobSpec::from_json(&Json::parse(&job.spec).expect("valid"))?;
    let path = engine.output_path(&job.id);
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let image: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    let domain = Domain::new(spec.size, 1.0);
    let truth = spec.build_phantom(domain.side()).rasterize(&domain);
    if image.len() != truth.len() {
        return Err(format!(
            "{}: {} pixels, expected {}",
            job.id,
            image.len(),
            truth.len()
        ));
    }
    Ok(image_rel_error(&image, &truth))
}

fn drive(mix: &Mix, dir: &Path, with_open_loop: bool) -> Result<Outcome, String> {
    let scenes = shared_scenes(mix);
    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    super::repeat_setup(|| {
        let (s, o) = set_up(
            &dir.with_extension(format!("setup{}", setups.len())),
            &scenes,
        );
        setups.push(s);
        opens.push(o);
    });
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::open(config(dir))?;
    let bursts: Result<Vec<Phase>, String> = mix
        .burst
        .chunks(mix.burst.len() / BURSTS)
        .map(|jobs| burst(&engine, jobs))
        .collect();
    let open = match (&bursts, with_open_loop) {
        (Ok(_), true) => Some(open_loop(&engine, &mix.open)),
        _ => None,
    };
    close(&engine);
    let bursts = bursts?;
    let (open, generator_lag_max_s) = match open.transpose()? {
        Some((p, lag)) => (Some(p), lag),
        None => (None, 0.0),
    };
    let mut image_errors = Vec::new();
    let mut output_failures = Vec::new();
    let all = mix
        .burst
        .iter()
        .chain(if open.is_some() { &mix.open[..] } else { &[] });
    for job in all {
        if engine.job_state(&job.id) == Some(JobState::Done) {
            match image_error(&engine, job) {
                Ok(e) => image_errors.push(e),
                Err(e) => output_failures.push(e),
            }
        }
    }
    let journal_bytes = std::fs::metadata(dir.join("serve.journal")).map_or(0, |m| m.len());
    let out = Outcome {
        setups,
        opens,
        bursts,
        open,
        hits: engine.plan_cache_hits(),
        misses: engine.plan_cache_misses(),
        journal_bytes,
        generator_lag_max_s,
        image_errors,
        output_failures,
    };
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

/// Every job accepted and done without retries; equal specs, equal images.
fn check(report: &mut Report, out: &Outcome) {
    let phases = out.bursts.iter().chain(out.open.as_ref());
    let mut digests: BTreeMap<&str, &str> = BTreeMap::new();
    for t in phases.flat_map(|p| &p.jobs) {
        let ok =
            t.accepted_ns.is_some() && t.done_ns.is_some() && !t.retried && t.failure.is_none();
        let same = match digests.insert(&t.key, &t.digest) {
            Some(prev) => prev == t.digest,
            None => true,
        };
        report.check(ok && same, || {
            format!(
                "serve-mix: job with spec {} accepted={} done={} retried={} failure={:?} digest-consistent={same}",
                t.key,
                t.accepted_ns.is_some(),
                t.done_ns.is_some(),
                t.retried,
                t.failure
            )
        });
    }
    for f in &out.output_failures {
        report.check(false, || format!("serve-mix: output {f}"));
    }
}

/// Seconds from when the job was due until it was done.
fn latency(t: &Trace) -> Option<f64> {
    t.done_ns.map(|d| d.saturating_sub(t.due_ns) as f64 * 1e-9)
}

fn run_dir(opts: &RunOpts) -> std::path::PathBuf {
    opts.tmp.join("serve-state")
}

/// Sizes the engine's shared pool to one thread, so the two workers are
/// the only busy threads on the two-core host instead of two callers plus
/// a pool worker contending for it. Must run before the global pool is
/// first used.
fn one_thread_per_worker() {
    std::env::set_var("FFW_THREADS", "1");
    assert_eq!(
        ffw_par::Pool::global().n_threads(),
        1,
        "the global pool was sized before serve-mix configured it"
    );
}

/// Untraced run: both phases.
pub fn run(opts: &RunOpts) -> Report {
    one_thread_per_worker();
    let mut report = Report::default();
    let mix = mix::mix(opts.seed);
    let out = match drive(&mix, &run_dir(opts), true) {
        Ok(o) => o,
        Err(e) => {
            report.check(false, || format!("serve-mix: {e}"));
            return report;
        }
    };
    check(&mut report, &out);
    let open = out.open.as_ref().expect("open-loop phase ran");
    let lat: Vec<f64> = open.jobs.iter().filter_map(latency).collect();
    for class in [Class::Hot, Class::OneOff, Class::Big, Class::Hop] {
        let of_class: Vec<f64> = mix
            .open
            .iter()
            .zip(&open.jobs)
            .filter(|(j, _)| j.class == class)
            .filter_map(|(_, t)| latency(t))
            .collect();
        println!(
            "open-loop {class:?}: {} jobs, latency p50 {:.4} s, max {:.4} s",
            of_class.len(),
            median(&of_class),
            quantile(&of_class, 1.0)
        );
    }
    let residuals: Vec<f64> = out
        .bursts
        .iter()
        .chain(out.open.as_ref())
        .flat_map(|p| p.jobs.iter().map(|t| t.residual))
        .collect();
    report.set("setup_s", median(&out.setups), out.setups.len());
    for (i, b) in out.bursts.iter().enumerate() {
        println!("burst {i}: {} jobs in {:.4} s", burst_jobs(&mix), b.wall_s);
    }
    let burst = burst_s(&out);
    report.set("solve_s", burst, BURSTS);
    report.set("jobs_per_s", burst_jobs(&mix) as f64 / burst, BURSTS);
    report.set("job_p50_s", median(&lat), lat.len());
    report.set("job_p90_s", quantile(&lat, 0.9), lat.len());
    report.set(
        "image_error",
        median(&out.image_errors),
        out.image_errors.len(),
    );
    report.set("final_residual", median(&residuals), residuals.len());
    report.set("peak_rss_mb", crate::stats::peak_rss_mb(), 1);
    report
}

/// Traced run: the untraced bursts on a fresh engine (the overhead base),
/// then both phases with the recorder on, then layer probes.
pub fn run_traced(opts: &RunOpts) -> Report {
    one_thread_per_worker();
    let mut report = super::traced_report();
    super::host_probes(&mut report, opts.seed);
    let mix = mix::mix(opts.seed);
    let untraced = drive(&mix, &run_dir(opts), false);
    trace::start();
    let traced = drive(&mix, &run_dir(opts), true);
    let snap = trace::finish();
    let (untraced, out) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (u, t) => {
            for e in [u.err(), t.err()].into_iter().flatten() {
                report.check(false, || format!("serve-mix: {e}"));
            }
            return report;
        }
    };
    check(&mut report, &out);
    let open = out.open.as_ref().expect("open-loop phase ran");
    let all: Vec<&Trace> = out
        .bursts
        .iter()
        .chain(Some(open))
        .flat_map(|p| &p.jobs)
        .collect();
    let submits: Vec<f64> = all.iter().map(|t| t.submit_s).collect();
    let first: Vec<f64> = all
        .iter()
        .filter_map(|t| Some((t.progress_ns.first()? - t.accepted_ns?) as f64 * 1e-9))
        .collect();
    let gaps: Vec<f64> = all
        .iter()
        .flat_map(|t| {
            t.progress_ns
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 * 1e-9)
        })
        .collect();
    let finish: Vec<f64> = all
        .iter()
        .filter_map(|t| Some((t.done_ns? - t.progress_ns.last()?) as f64 * 1e-9))
        .collect();
    report.set("serve.open_s", median(&out.opens), out.opens.len());
    report.set("serve.submit_p50_s", median(&submits), submits.len());
    report.set("serve.submit_p90_s", quantile(&submits, 0.9), submits.len());
    report.set("serve.first_progress_p50_s", median(&first), first.len());
    report.set(
        "serve.first_progress_p90_s",
        quantile(&first, 0.9),
        first.len(),
    );
    report.set("serve.iter_gap_p50_s", median(&gaps), gaps.len());
    report.set("serve.finish_p50_s", median(&finish), finish.len());
    let lookups = out.hits + out.misses;
    report.set(
        "serve.plan_cache_hit_ratio",
        out.hits as f64 / lookups as f64,
        1,
    );
    report.set("serve.plan_cache_hits", out.hits as f64, 1);
    report.set("serve.plan_cache_misses", out.misses as f64, 1);
    report.set("serve.journal_bytes", out.journal_bytes as f64, 1);
    report.set(
        "serve.generator_lag_max_s",
        out.generator_lag_max_s,
        open.jobs.len(),
    );
    super::solver_layers(&mut report, &snap);
    super::overhead(&mut report, burst_s(&out), burst_s(&untraced));

    // The 64² class sets the tail: time its plan build and its fused apply.
    let big = JobSpec::from_json(
        &Json::parse(
            &mix.burst
                .iter()
                .find(|j| j.class == Class::Big)
                .expect("one per round")
                .spec,
        )
        .expect("valid"),
    )
    .expect("valid spec");
    let scene = big.scene();
    let domain = Domain::new(scene.n_side_px, scene.wavelength);
    super::plan_build_probe(&mut report, &domain, scene.accuracy, 5);
    let plan = std::sync::Arc::new(ffw_mlfma::MlfmaPlan::new(&domain, scene.accuracy));
    super::par_probe(&mut report, &plan, opts.seed);
    if let Err(e) = hot_checkpoint(&mut report, &mix, opts) {
        report.check(false, || format!("serve-mix: {e}"));
    }
    report
}

/// Writes the checkpoint a job on the first hot geometry writes while it
/// runs (the engine deletes it once the job is done) and probes it.
fn hot_checkpoint(report: &mut Report, mix: &Mix, opts: &RunOpts) -> Result<(), String> {
    let (size, tx, rx) = mix::HOT[0];
    let geometry = format!(r#""size":{size},"tx":{tx},"rx":{rx},"#);
    let job = mix
        .burst
        .iter()
        .find(|j| j.class == Class::Hot && j.key.starts_with(&geometry))
        .expect("every round has every hot geometry");
    let spec = JobSpec::from_json(&Json::parse(&job.spec).expect("valid"))?;
    let recon = Reconstruction::with_pool(
        &spec.scene(),
        std::sync::Arc::clone(ffw_par::Pool::global_arc()),
    );
    let phantom = spec.build_phantom(recon.domain().side());
    let mut measured = recon.synthesize(phantom.as_ref());
    if let Some(db) = spec.noise_db {
        ffw_inverse::add_noise(&mut measured, db, 1);
    }
    let path = opts.tmp.join("serve-job.ckpt");
    let cfg = ffw_dist::FtConfig {
        dbim: ffw_inverse::DbimConfig {
            iterations: spec.iterations,
            ..Default::default()
        },
        checkpoint: Some(path.clone()),
        ..ffw_dist::FtConfig::new(spec.groups, spec.subtree)
    };
    ffw_dist::run_dbim_ft(
        &recon.setup,
        std::sync::Arc::clone(&recon.plan),
        &measured,
        &cfg,
    )
    .map_err(|e| format!("hot job replay: {e}"))?;
    super::checkpoint_probe(report, &path)
}
